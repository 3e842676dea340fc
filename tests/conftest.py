"""Session guard, and the fixtures that planted-fault tests share.

The guard: the tests must import the package they are pointed at.
pyproject.toml's `pythonpath = ["src"]` puts this checkout's `src` ahead of
PYTHONPATH, so `PYTHONPATH=<copy>/src python -m pytest` run from here would
silently test this checkout instead of the copy.  When the first PYTHONPATH
entry holds a gjvtau package that is not the one imported, stop the session.
gjvtau is imported only inside the hooks and fixtures, after that check.
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


@pytest.fixture
def fresh_memos():
    # leaf stencils, symbol layers and symbols are memoised per leaf, and the
    # builds several verify checks share, tau_0 among them, per argument; a
    # planted fault must not read, or leave behind, the healthy entries
    from gjvtau import gjv, operators

    memos = (operators._leaf_layer, operators._leaf_symbol, operators.exp_join_power,
             operators._exp_u_join_of_q1, gjv._tau_zero)

    def clear():
        operators.clear_stencils()
        for memo in memos:
            memo.cache_clear()
    clear()
    yield
    clear()


@pytest.fixture
def fresh_records():
    # the T-basis records are memoised per W; a planted fault must not read,
    # or leave behind, the healthy ones
    from gjvtau import gjv

    gjv.tbasis_records.cache_clear()
    yield
    gjv.tbasis_records.cache_clear()
