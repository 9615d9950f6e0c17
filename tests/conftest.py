"""Fixtures shared by the test modules."""
import pytest

import cvarmdp.lp as lpmod
from cvarmdp import solver

# Every lookup through which ``decide`` hands an LP to the simplex, and
# whether that lookup optimizes.
LP_LOOKUPS = (
    (solver, "solve_feasibility", False),
    (solver, "solve_optimize", True),
    (lpmod, "solve_feasibility", False),  # the transshipment LP's lookup
)


@pytest.fixture
def on_lp(monkeypatch):
    """``on_lp(callback)`` makes every LP that ``decide`` solves call
    ``callback(prog, optimize, result)`` once it is solved."""

    def install(callback):
        def record(orig, optimize):
            def wrapped(prog, *args, **kwargs):
                res = orig(prog, *args, **kwargs)
                callback(prog, optimize, res)
                return res

            return wrapped

        for module, name, optimize in LP_LOOKUPS:
            monkeypatch.setattr(module, name, record(getattr(module, name), optimize))

    return install
