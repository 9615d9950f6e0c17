"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import Instance  # noqa: E402
from cvarmdp import Constraint, Mdp, Query, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_completes_with_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }


def _choice() -> Instance:
    mdp = Mdp(
        states=("s", "hi", "lo"),
        available={"s": ("good", "bad"), "hi": ("stay_hi",), "lo": ("stay_lo",)},
        delta={"good": {"hi": F(1)}, "bad": {"lo": F(1)}, "stay_hi": {"hi": F(1)}, "stay_lo": {"lo": F(1)}},
        initial="s",
        rewards={"s": (F(0),), "hi": (F(10),), "lo": (F(0),)},
        targets=frozenset({"hi", "lo"}),
    )
    return Instance("choice", mdp, Query(objective="reach", constraints=(Constraint(dim=0, expectation=F(5)),)))


def test_corrupted_witness_counts_as_failed(monkeypatch):
    honest = solver.decide

    def corrupted(mdp, query, config=None):
        verdict = honest(mdp, query, config)
        for (s, m) in list(verdict.witness.next_move):
            if s == mdp.initial:
                verdict.witness.next_move[(s, m)] = {"bad": F(1)}
        return verdict

    inst = _choice()
    assert run.run_instance(inst)["error"] is None
    monkeypatch.setattr(solver, "decide", corrupted)
    rnd = run.run_pass([inst, inst], 0)
    summary = run.summarize([rnd], [], [(0.1, 0.1)], 1.0)
    assert summary["failed"] == 2
    assert summary["end_to_end"]["failed_frac"] == 1
    assert summary["end_to_end"]["checked_frac"] == 0


def test_contradicting_a_known_answer_fails():
    inst = _choice()
    wrong = Instance(inst.id, inst.mdp, inst.query, allowed=("UNSAT",))
    assert "contradicts" in run.run_instance(wrong)["error"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "ring", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_gauge_samples_inside_and_restores_the_alarm_handler():
    import signal

    from reference import SpeedGauge

    before = signal.getsignal(signal.SIGALRM)
    rec = run.run_instance(_choice())
    assert rec["samples"] >= 2 and rec["speed"] > 0
    assert rec["norm_s"] == rec["seconds"] * rec["speed"]
    with SpeedGauge() as gauge:
        sum(i * i for i in range(3_000_000))
    assert len(gauge.samples) >= 5  # the alarm fired while the loop ran
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_relabelled_copy_has_the_same_verdict_and_law():
    import random

    from workloads import relabel

    inst = _choice()
    honest = run.run_instance(inst)
    for reorder in (True, False):
        copy = relabel(inst.mdp, random.Random(1), reorder=reorder)
        assert set(copy.states).isdisjoint(inst.mdp.states)
        rec = run.run_instance(Instance("copy", copy, inst.query))
        assert (rec["status"], rec["digest"]) == (honest["status"], honest["digest"])
