"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env():
    """The environment for a child Python process, with this checkout's
    ``src`` first on its PYTHONPATH: pytest's ``pythonpath`` setting reaches
    only the pytest process, so without it a child imports no coprime_lab,
    or an installed copy."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
