import pytest


@pytest.fixture(autouse=True)
def _no_seed_from_the_environment(monkeypatch):
    """Commands without ``--seed`` read seed 0, whatever the caller's shell
    exports; a test that needs ``UNGAR_LAB_SEED`` sets it."""
    monkeypatch.delenv("UNGAR_LAB_SEED", raising=False)
