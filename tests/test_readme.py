"""The README is the package's contract, and these tests keep it one.

It stays short, it carries no wall-clock or memory figure outside its
"Measured" section (those belong to CHANGES.md and the BENCH files, where
they keep their conditions), and every test its claims map names is one
pytest collects.  ``tests/test_streams.py`` checks the map's commands.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MAX_LINES = 250
FIGURE = re.compile(r"\d(\.\d+)?\s?(s|ms|µs|μs|MB)\b")


def _sections() -> dict[str, list[str]]:
    """The README's lines by ``## `` section; the title's under ``""``."""
    sections, name = {"": []}, ""
    for line in README.read_text().splitlines():
        if line.startswith("## "):
            name = line[3:].strip()
            sections[name] = []
        sections[name].append(line)
    return sections


def test_readme_is_at_most_250_lines():
    assert len(README.read_text().splitlines()) <= MAX_LINES


def test_readme_has_no_timing_outside_measured():
    found = [(name, line) for name, lines in _sections().items() if name != "Measured"
             for line in lines if FIGURE.search(line)]
    assert not found, found


def test_claims_map_names_collected_tests():
    ids = re.findall(r"`(tests/\w+\.py)::(\w+)`", "\n".join(_sections()["Claims map"]))
    criteria = {name[:len("test_criterion_00")] for _, name in ids
                if name.startswith("test_criterion_")}
    assert criteria == {f"test_criterion_{k:02d}" for k in range(1, 13)}
    for path, name in ids:
        assert (README.parent / path).is_file(), path
        assert Path(path).name.startswith("test_") and name.startswith("test_"), name
        # tests/ is on sys.path, so this is the module pytest collects
        module = importlib.import_module(Path(path).stem)
        assert callable(getattr(module, name, None)), f"{path}::{name}"
