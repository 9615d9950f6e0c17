#!/usr/bin/env python3
"""Time to a checked verdict: the cvarmdp benchmark.

    python3 perfbench/run.py --workload ring --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50

A single-threaded closed loop: one instance at a time, each started after the
previous one finished.  The loop makes passes over the workload's corpus (see
workloads.py) until the next pass would overrun ``--seconds``; there is always
at least one.  An instance's time is its ``decide`` call plus an exact
re-check of any SAT witness on the full input model with ``check_strategy``;
a speed-up that skips verification does not count.  While a bare instance
runs, reference.py samples the host's speed, and the timed contract metrics
scale each instance's time to the reference speed; the raw times are printed
too.  Each instance's time is the median over the passes.  With
``--trace 1`` each pass runs twice, once bare and once with the layer
boundaries wrapped (tracer.py), and the per-layer numbers come from the
traced passes.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 if any check failed.  Per-run
details (environment, each instance's verdict and law digest, and with
tracing every span) are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from reference import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ring", "lp-mix", "reach-lp", "sat-gadget", "mean-multi")
SETUP_SAMPLES = 7  # set-up is repeated in fresh processes and the median reported

# Library boundaries each workload must reach.  A rename that silently stops a
# wrapper from firing fails the traced run instead of zeroing a layer.
_COMMON = (
    "cvarmdp.solver.decide", "cvarmdp.solver.mec_quotient", "cvarmdp.solver.cleanup",
    "cvarmdp.graphs.mec_decomposition", "cvarmdp.solver.solve_feasibility",
    "cvarmdp.solver.realize_quotient_flow", "cvarmdp.solver.check_strategy",
    "cvarmdp.synthesis.induced_chain", "cvarmdp.chain.solve_linear",
)
_REACH = _COMMON + ("cvarmdp.solver.check_attraction", "cvarmdp.synthesis.payoff_law_reach")
_MEAN = _COMMON + (
    "cvarmdp.solver.decide_mean_multi", "cvarmdp.solver.decide_mean_single",
    "cvarmdp.solver.mec_decomposition", "cvarmdp.solver.solve_optimize",
    "cvarmdp.lp.solve_feasibility", "cvarmdp.solver.two_memory_strategy",
    "cvarmdp.synthesis.payoff_law_mean",
)
EXPECTED = {
    "ring": _REACH + ("cvarmdp.solver.decide_reach_single",),
    "reach-lp": _REACH + ("cvarmdp.solver.decide_reach_single",),
    "sat-gadget": _REACH + ("cvarmdp.solver.decide_reach_multi",),
    "mean-multi": _MEAN,
    "lp-mix": _REACH + _MEAN + ("cvarmdp.solver.decide_reach_single", "cvarmdp.solver.decide_reach_multi"),
}


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, silent layer)."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
    }


# ------------------------------------------------------------------- set-up


def setup(workload: str, seed: int, tiny: bool):
    """Import cvarmdp, build and validate the corpus.

    Returns the corpus and the set-up time as measured and normalised to the
    reference host speed, like an instance's.
    """
    if not (SRC / "cvarmdp" / "__init__.py").is_file():
        raise BenchError(f"no cvarmdp sources under {SRC}")
    gauge = SpeedGauge()
    t0 = perf_counter()
    with gauge:
        sys.path[:0] = [str(SRC), str(HERE)]
        import cvarmdp
        import workloads

        if not Path(cvarmdp.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"imported cvarmdp from {cvarmdp.__file__}, not from {SRC}")
        corpus = workloads.build_corpus(workload, seed, tiny)
    seconds = perf_counter() - t0 - gauge.stolen
    return corpus, (seconds, seconds * gauge.speed)


def setup_in_child(workload: str, seed: int, tiny: bool) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    raw, norm = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(norm)


# --------------------------------------------------------------- instances


def law_digest(law) -> str:
    text = "|".join(
        ",".join(f"{v}:{p}" for v, p in sorted(d.atoms.items())) for d in law.marginals
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_instance(inst, tracer=None) -> dict:
    """Decide one instance and check the answer; returns its record.

    A SAT witness is re-evaluated exactly on the full input model.  The
    instance fails if anything raises, if the verdict contradicts the known
    answer, or if the witness does not meet the query.
    """
    from cvarmdp import solver, synthesis

    rec = {"id": inst.id, "status": None, "digest": None, "error": None}
    # untraced, the host's speed is sampled throughout; traced, the samples
    # would land inside the spans, so there is none
    gauge = SpeedGauge() if tracer is None else None
    t0 = perf_counter()
    try:
        with gauge or nullcontext():
            verdict = solver.decide(inst.mdp, inst.query)
            rec["status"] = verdict.status
            if verdict.status == "SAT":
                if tracer is None:
                    ok, law, _ = synthesis.check_strategy(inst.mdp, verdict.witness, inst.query)
                else:
                    with tracer.span("verify.check_strategy"):
                        ok, law, _ = synthesis.check_strategy(inst.mdp, verdict.witness, inst.query)
                rec["digest"] = law_digest(law)
                if not ok:
                    rec["error"] = "SAT witness fails the query on the full model"
    except Exception:  # every failure is counted, then the loop goes on
        rec["error"] = traceback.format_exc(limit=3)
    rec["seconds"] = perf_counter() - t0
    if gauge is not None:
        rec["seconds"] -= gauge.stolen
        rec["speed"] = gauge.speed
        rec["samples"] = len(gauge.samples)
        rec["norm_s"] = rec["seconds"] * rec["speed"]
    if rec["error"] is None and rec["status"] not in ("SAT", "UNSAT", "UNKNOWN"):
        rec["error"] = f"unknown verdict {rec['status']!r}"
    if rec["error"] is None and inst.allowed is not None and rec["status"] not in inst.allowed:
        rec["error"] = f"verdict {rec['status']} contradicts the known answer {inst.allowed}"
    return rec


def run_pass(insts, index: int, tracer=None) -> dict:
    """Run the corpus once; the pass's wall time is the sum of instance times."""
    recs = []
    for inst in insts:
        if tracer is not None:
            tracer.instance = f"{index}:{inst.id}"
        rec = run_instance(inst, tracer)
        rec["pass"] = index
        recs.append(rec)
    return {"wall": sum(rec["seconds"] for rec in recs), "instances": recs}


# -------------------------------------------------------------------- loop


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from tracer import Tracer, layer_metrics, span_summary

    corpus, setup_main = setup(workload, seed, tiny)
    setups = [setup_main] + [setup_in_child(workload, seed, tiny) for _ in range(SETUP_SAMPLES - 1)]

    plain, traced = [], []
    tracer = Tracer() if trace else None
    start = perf_counter()
    while True:
        r = len(plain)
        if trace:
            # alternate which pass goes first so warm-up favours neither
            for bare in ((True, False) if r % 2 == 0 else (False, True)):
                if bare:
                    plain.append(run_pass(corpus, r))
                else:
                    with tracer:
                        traced.append(run_pass(corpus, r, tracer))
        else:
            plain.append(run_pass(corpus, r))
        elapsed = perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = summarize(plain, traced, setups, peak_rss_mb)
    result["workload"] = workload
    if trace:
        missing = [key for key in EXPECTED[workload] if not tracer.fired.get(key)]
        if missing:
            raise BenchError(f"traced boundaries never fired on {workload}: {', '.join(missing)}")
        result["per_layer"] = layer_metrics(
            tracer.spans, len(traced), [p["wall"] for p in traced], [p["wall"] for p in plain]
        )
        result["traced_pass_walls"] = [p["wall"] for p in traced]
        result["span_summary"] = span_summary(tracer.spans)
        result["spans"] = [
            dict(zip(("id", "name", "start", "end", "cover_end", "parent", "instance", "attrs"), s))
            for s in tracer.spans
        ]
    return result


def summarize(plain, traced, setups, peak_rss_mb) -> dict:
    """End-to-end metrics from the bare passes; failures count in every pass.

    Each instance's time is its median over the bare passes; ``wall_s`` is
    their sum, the time to turn the whole corpus into checked verdicts.
    """
    recs = [rec for p in plain + traced for rec in p["instances"]]
    failed = sum(rec["error"] is not None for rec in recs)
    undecided = sum(rec["status"] == "UNKNOWN" for rec in recs)

    def medians(key):
        return [statistics.median(col) for col in zip(*([rec[key] for rec in p["instances"]] for p in plain))]

    times, norms = medians("seconds"), medians("norm_s")
    return {
        "passes": len(plain),
        "attempted": len(recs),
        "failed": failed,
        "end_to_end": {
            "wall_norm_s": sum(norms),
            "instance_p50_norm_s": statistics.median(norms),
            "instance_max_norm_s": max(norms),
            "wall_s": sum(times),
            "instance_p50_s": statistics.median(times),
            "instance_max_s": max(times),
            "host_speed": statistics.median(rec["speed"] for p in plain for rec in p["instances"]),
            "setup_s": statistics.median(norm for _, norm in setups),
            "setup_raw_s": statistics.median(raw for raw, _ in setups),
            "peak_rss_mb": peak_rss_mb,
            "checked_frac": 1 - failed / len(recs),
            "decided_frac": 1 - undecided / len(recs),
            "failed_frac": failed / len(recs),
            "undecided_frac": undecided / len(recs),
        },
        "setup_samples": list(setups),
        "pass_walls": [p["wall"] for p in plain],
        "instances": recs,
    }


def report(result: dict, trace: bool, spec: dict) -> dict:
    """Print the human-readable block; return the contract's metrics object."""
    print(f"workload {result['workload']}: {result['passes']} passes, "
          f"{result['attempted']} instances attempted, {result['failed']} failed")
    for rec in result["instances"]:
        if rec["error"]:
            print(f"  FAILED {rec['pass']}:{rec['id']}: {rec['error'].strip()}")
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    # printed only: a bound relative to a median of 0 means nothing, so the
    # contract carries their complements checked_frac and decided_frac
    units = {**declared, "failed_frac": "fraction", "undecided_frac": "fraction",
             "wall_s": "s", "instance_p50_s": "s", "instance_max_s": "s", "host_speed": "ratio", "setup_raw_s": "s"}
    values = result[key]
    for name, value in values.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(*setup(args.workload, args.seed, args.tiny)[1])
            return 0
        spec = load_spec()
        env = environment(args.seed)
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        baseline = json.loads((HERE / "baseline.json").read_text()) if (HERE / "baseline.json").is_file() else None
        if baseline is not None and baseline["env"]["gmpy2"] != env["gmpy2"]:
            print(f"WARNING: gmpy2 importable={env['gmpy2']}, but the baseline was measured with "
                  f"gmpy2={baseline['env']['gmpy2']}; LP times are not comparable with it")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        OUT.mkdir(exist_ok=True)
        for name in names:
            if args.workload == "all":
                result = measure_in_child(name, args)
            else:
                result = measure(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            result["env"] = env
            out = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(result, indent=1, default=str))
            got = report(result, bool(args.trace), spec)
            prefix = "" if args.workload != "all" else f"{name}."
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def measure_in_child(name: str, args) -> dict:
    """Run one workload in its own process, so set-up and peak memory are its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode not in (0, 1):
        raise BenchError(f"workload {name} failed: {proc.stderr.strip()}")
    return json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
