"""Ungarian Markov chains on finite lattices.

Exact absorption-time solvers and seeded Monte Carlo for the weak order
on S_n, the Tamari lattice (as 312-avoiding permutations and as ordered
forests), and order-ideal lattices J(P); the last-passage-percolation
coupling with geometric weights and the multicorner growth process on
grids; and the skyline/summary diagnostics with the multi-stream
simulator.

Import each name from the module that defines it; the package binds only
``__version__``.
"""

__version__ = "0.1.0"
