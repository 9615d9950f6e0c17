"""``scripts/run_examples.py`` is a check: it fails unless every named
example is SAT with a witness that passes the exact check."""
import importlib.util
import sys
from pathlib import Path

import pytest

from cvarmdp.model import Verdict

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_examples.py"


@pytest.fixture
def script(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["run_examples.py", "choice", "loop"])
    return module


def test_named_examples_pass(script, capsys):
    assert script.main() == 0
    assert "FAILED" not in capsys.readouterr().err


def test_non_sat_example_fails(script, monkeypatch, capsys):
    monkeypatch.setattr(script, "decide", lambda *args: Verdict("UNKNOWN"))
    assert script.main() == 1
    assert "FAILED choice: UNKNOWN, not SAT" in capsys.readouterr().err


def test_rejected_witness_fails(script, monkeypatch, capsys):
    check = script.check_strategy
    monkeypatch.setattr(script, "check_strategy", lambda *args: (False,) + check(*args)[1:])
    assert script.main() == 1
    assert "FAILED loop: the witness fails the exact check" in capsys.readouterr().err
