"""Spans around the library's layer boundaries, recorded from outside ``src/``.

A ``Tracer`` replaces module attributes with timing wrappers while it is
active and puts the originals back when it exits.  Each wrapper is installed
at the attribute its caller looks up (``cvarmdp.solver.cleanup`` for the
solver's calls, ``cvarmdp.graphs.mec_decomposition`` for the nested calls
inside graphs, ...), so every call is seen exactly once.

A span is ``[id, name, start, end, cover_end, parent, instance, attrs]``.
``attrs`` are sizes read from the arguments and result after ``end``; the
time spent reading them runs to ``cover_end`` and is charged to the tracer,
not to the parent span's self time.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _lp_attrs(args, res) -> dict:
    prog = args[0]
    bits = 0
    for v in (res.assignment or {}).values():
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return {
        "rows": len(prog.constraints),
        "cols": len(prog.variables),
        "nonzeros": sum(len(row) for row, _, _ in prog.constraints),
        "ok": res.ok,
        "bits": bits,
    }


def _chain_attrs(args, res) -> dict:
    from cvarmdp.graphs import chain_graph, strongly_connected_components

    comps = strongly_connected_components(chain_graph(res))
    return {"states": len(res.states), "largest_scc": max(map(len, comps), default=0)}


def _mec_attrs(args, res) -> dict:
    return {"largest": max((len(states) for states, _ in res.mecs), default=0)}


# (span name, module, attribute, attribute reader)
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("solver.decide", "cvarmdp.solver", "decide", None),
    ("solver.decide_reach_single", "cvarmdp.solver", "decide_reach_single", None),
    ("solver.decide_reach_multi", "cvarmdp.solver", "decide_reach_multi", None),
    ("solver.decide_mean_single", "cvarmdp.solver", "decide_mean_single", None),
    ("solver.decide_mean_multi", "cvarmdp.solver", "decide_mean_multi", None),
    ("solver.check_strategy", "cvarmdp.solver", "check_strategy", lambda a, r: {"ok": r[0]}),
    ("graphs.cleanup", "cvarmdp.solver", "cleanup", None),
    ("graphs.mec_quotient", "cvarmdp.solver", "mec_quotient", lambda a, r: {"states": len(r.quotient.states)}),
    ("graphs.mec_decomposition", "cvarmdp.solver", "mec_decomposition", _mec_attrs),
    ("graphs.check_attraction", "cvarmdp.solver", "check_attraction", None),
    ("graphs.mec_decomposition", "cvarmdp.graphs", "mec_decomposition", _mec_attrs),
    ("lp.solve_feasibility", "cvarmdp.solver", "solve_feasibility", _lp_attrs),
    ("lp.solve_optimize", "cvarmdp.solver", "solve_optimize", _lp_attrs),
    ("lp.solve_feasibility", "cvarmdp.lp", "solve_feasibility", _lp_attrs),
    ("synthesis.realize_quotient_flow", "cvarmdp.solver", "realize_quotient_flow", lambda a, r: {"memory": len(r.memory)}),
    ("synthesis.two_memory_strategy", "cvarmdp.solver", "two_memory_strategy", lambda a, r: {"memory": len(r.memory)}),
    ("eval.induced_chain", "cvarmdp.synthesis", "induced_chain", _chain_attrs),
    ("eval.payoff_law_reach", "cvarmdp.synthesis", "payoff_law_reach", None),
    ("eval.payoff_law_mean", "cvarmdp.synthesis", "payoff_law_mean", None),
    ("eval.solve_linear", "cvarmdp.chain", "solve_linear", lambda a, r: {"rows": len(a[0]), "rhs": len(a[1][0]) if a[1] else 0}),
)


class Tracer:
    """Records spans in memory while active (``with tracer:``)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.instance: Optional[str] = None
        self.fired: Dict[str, int] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, key: str, fn: Callable, reader: Optional[Callable]) -> Callable:
        spans, stack, fired = self.spans, self._stack, self.fired

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, name, 0.0, 0.0, 0.0, stack[-1] if stack else None, self.instance, None]
            spans.append(span)
            fired[key] = fired.get(key, 0) + 1
            stack.append(sid)
            span[2] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if reader is not None:
                span[7] = reader(args, res)
            span[4] = perf_counter()
            return res

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own work (not a library boundary)."""
        sid = len(self.spans)
        span = [sid, name, 0.0, 0.0, 0.0, self._stack[-1] if self._stack else None, self.instance, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[2] = perf_counter()
        try:
            yield
        finally:
            span[3] = span[4] = perf_counter()
            self._stack.pop()

    def __enter__(self) -> "Tracer":
        for name, module, attr, reader in BOUNDARIES:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, f"{module}.{attr}", orig, reader))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


# ----------------------------------------------------------------- metrics

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_summary(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Calls, inclusive time and self time per span name, over the run."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s[5] is not None:
            covered[s[5]] = covered.get(s[5], 0.0) + (s[4] - s[2])
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s[1], {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["time_s"] += s[3] - s[2]
        row["self_s"] += s[3] - s[2] - covered.get(s[0], 0.0)
    return out


def layer_metrics(spans: Sequence[list], passes: int, traced_walls: Sequence[float], plain_walls: Sequence[float]) -> Dict[str, float]:
    """Per-layer numbers from the spans of ``passes`` traced passes over the corpus.

    Times and counts are per pass (run total / passes); ``*_max`` values are
    run maxima; ratios are taken over run totals.  ``*.time_s`` is inclusive
    time in the layer's outermost spans; ``solver.self_s`` is the time in
    solver spans not covered by any child span.
    """
    by_id = {s[0]: s for s in spans}
    summary = span_summary(spans)

    def parent_layer(s) -> Optional[str]:
        return None if s[5] is None else _layer(by_id[s[5]][1])

    def outer_time(layer: str) -> float:
        return sum(s[3] - s[2] for s in spans if _layer(s[1]) == layer and parent_layer(s) != layer)

    def named(*names: str) -> List[list]:
        return [s for s in spans if s[1] in names]

    def attr_max(items: Sequence[list], key: str) -> int:
        return max((s[7][key] for s in items), default=0)

    lps = named("lp.solve_feasibility", "lp.solve_optimize")
    solver_lps = [s for s in lps if parent_layer(s) == "solver"]
    guesses = [s for s in solver_lps if s[1] == "lp.solve_feasibility"]
    checks = named("solver.check_strategy")
    decides = named("solver.decide")
    chains = named("eval.induced_chain")
    systems = named("eval.solve_linear")
    strategies = named("synthesis.realize_quotient_flow", "synthesis.two_memory_strategy")
    per = max(passes, 1)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "solver.decide_s": sum(s[3] - s[2] for s in decides) / per,
        "solver.self_s": sum(row["self_s"] for name, row in summary.items() if _layer(name) == "solver") / per,
        "solver.lps": len(solver_lps) / per,
        "solver.lp_feasible_ratio": ratio(sum(s[7]["ok"] for s in guesses), len(guesses)),
        "solver.witness_checks": len(checks) / per,
        "solver.witness_ok_ratio": ratio(sum(s[7]["ok"] for s in checks), len(checks)),
        "graphs.time_s": outer_time("graphs") / per,
        "graphs.mec_decompositions": ratio(len(named("graphs.mec_decomposition")), len(decides)),
        "graphs.quotient_states": attr_max(named("graphs.mec_quotient"), "states"),
        "graphs.largest_mec": attr_max(named("graphs.mec_decomposition"), "largest"),
        "lp.time_s": outer_time("lp") / per,
        "lp.calls": len(lps) / per,
        "lp.infeasible": sum(not s[7]["ok"] for s in lps) / per,
        "lp.call_p50_s": statistics.median([s[3] - s[2] for s in lps]) if lps else 0.0,
        "lp.rows_max": attr_max(lps, "rows"),
        "lp.cols_max": attr_max(lps, "cols"),
        "lp.nonzeros_max": attr_max(lps, "nonzeros"),
        "lp.solution_bits_max": attr_max(lps, "bits"),
        "synthesis.time_s": outer_time("synthesis") / per,
        "synthesis.lps": sum(parent_layer(s) == "synthesis" for s in lps) / per,
        "synthesis.memory_max": attr_max(strategies, "memory"),
        "eval.product_s": sum(s[3] - s[2] for s in chains) / per,
        "eval.solve_s": sum(s[3] - s[2] for s in named("eval.payoff_law_reach", "eval.payoff_law_mean")) / per,
        "eval.product_states_max": attr_max(chains, "states"),
        "eval.largest_scc": attr_max(chains, "largest_scc"),
        "eval.linear_systems": len(systems) / per,
        "eval.system_rows_max": attr_max(systems, "rows"),
        "eval.rhs_max": attr_max(systems, "rhs"),
        "verify.time_s": outer_time("verify") / per,
        "trace.wall_s": sum(traced_walls) / per,
        "trace.overhead_frac": statistics.median(t / p for t, p in zip(traced_walls, plain_walls)) - 1,
    }
