"""Session guard: the tests must import the package they are pointed at.

pyproject.toml's `pythonpath = ["src"]` puts this checkout's `src` ahead of
PYTHONPATH, so `PYTHONPATH=<copy>/src python -m pytest` run from here would
silently test this checkout instead of the copy.  When the first PYTHONPATH
entry holds a gjvtau package that is not the one imported, stop the session.
"""

import os
from pathlib import Path

import pytest


def pytest_configure(config):
    entries = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if not entries:
        return
    wanted = Path(entries[0], "gjvtau")
    if not (wanted / "__init__.py").is_file():
        return
    import gjvtau

    imported = Path(gjvtau.__file__).parent
    if imported.resolve() != wanted.resolve():
        pytest.exit(f"PYTHONPATH names {wanted}, but the tests import {imported}; "
                    "run pytest from that copy's root", returncode=pytest.ExitCode.USAGE_ERROR)
