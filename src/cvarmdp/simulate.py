"""Seeded Monte Carlo sampling of payoffs under a fixed strategy.

Used to cross-validate exact laws with empirical estimates.  Simulation never
decides queries; rationals are converted to floats only at the sampling
boundary.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .model import MarkovChain, Mdp, ModelError, Rational, StrategySpec, induced_chain
from .risk import FiniteDistribution, cvar, expectation, var

__all__ = [
    "SimConfig",
    "sample_payoffs",
    "empirical_measures",
    "empirical_distribution",
    "samples_csv",
]

# RNG streams per sample (see ``sample_payoffs``); changing the count changes
# every seeded sample.
BLOCKS = 8


@dataclass(frozen=True)
class SimConfig:
    runs: int = 10_000
    horizon: int = 10_000
    seed: int = 0
    burn_in: int = 1_000

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ModelError("runs must be >= 1")
        if self.horizon < 1:
            raise ModelError("horizon must be >= 1")
        if not 0 <= self.burn_in < self.horizon:
            raise ModelError("need 0 <= burn_in < horizon")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")


def _compile_chain(mc: MarkovChain, dim_index: int):
    """Index the chain and convert transition rows to float arrays."""
    states = list(mc.states)
    index = {s: i for i, s in enumerate(states)}
    succ: List[np.ndarray] = []
    prob: List[np.ndarray] = []
    for s in states:
        row = mc.delta[s]
        succ.append(np.array([index[t] for t in row], dtype=np.int64))
        prob.append(np.array([float(p) for p in row.values()], dtype=np.float64))
    reward = np.array([float(mc.rewards[s][dim_index]) for s in states])
    target = np.array([s in mc.targets for s in states], dtype=bool)
    init_states = np.array([index[s] for s in mc.initial_distribution], dtype=np.int64)
    init_prob = np.array(
        [float(p) for p in mc.initial_distribution.values()], dtype=np.float64
    )
    return states, succ, prob, reward, target, init_states, init_prob


def _step(rng, state, active, succ, cum):
    """Advance every active run one transition (grouped by current state)."""
    out = state.copy()
    for s in np.unique(state[active]):
        mask = active & (state == s)
        if len(succ[s]) == 1:
            out[mask] = succ[s][0]
        else:
            u = rng.random(int(mask.sum()))
            idx = np.searchsorted(cum[s], u, side="right")
            out[mask] = succ[s][np.minimum(idx, len(succ[s]) - 1)]
    return out


def _run_block(
    rng: np.random.Generator,
    runs: int,
    cfg: SimConfig,
    objective: str,
    compiled,
) -> np.ndarray:
    _, succ, prob, reward, target, init_states, init_prob = compiled
    cum = [np.cumsum(p) for p in prob]
    if len(init_states) > 1:
        pick = np.searchsorted(np.cumsum(init_prob), rng.random(runs), side="right")
        state = init_states[np.minimum(pick, len(init_states) - 1)]
    else:
        state = np.full(runs, init_states[0], dtype=np.int64)
    if objective == "reach":
        value = np.zeros(runs)
        absorbed = target[state]
        value[absorbed] = reward[state[absorbed]]
        active = ~absorbed
        for _ in range(cfg.horizon):
            if not active.any():
                break
            state = _step(rng, state, active, succ, cum)
            hit = active & target[state]
            value[hit] = reward[state[hit]]
            active &= ~target[state]
        return value
    total = np.zeros(runs)
    everyone = np.ones(runs, dtype=bool)
    for step in range(cfg.horizon):
        if step >= cfg.burn_in:
            total += reward[state]
        state = _step(rng, state, everyone, succ, cum)
    return total / (cfg.horizon - cfg.burn_in)


def sample_payoffs(
    mdp: Mdp,
    strategy: StrategySpec,
    objective: str,
    cfg: SimConfig,
    dim_index: int = 0,
) -> np.ndarray:
    """Simulate ``cfg.runs`` independent runs; one payoff sample each.

    Reachability runs stop at absorption (or the horizon, yielding 0 if no
    target was hit); mean-payoff runs average rewards over steps
    ``burn_in..horizon``.  Runs are partitioned into ``BLOCKS`` blocks whose
    RNG streams derive from ``(seed, block)``, so results are bit-identical
    regardless of how blocks would be scheduled.
    """
    if objective not in ("reach", "mean"):
        raise ModelError(f"unknown objective {objective!r}")
    mc = induced_chain(mdp, strategy)
    compiled = _compile_chain(mc, dim_index)
    sizes = [cfg.runs // BLOCKS] * BLOCKS
    for i in range(cfg.runs % BLOCKS):
        sizes[i] += 1
    parts = []
    for block, size in enumerate(sizes):
        if size == 0:
            continue
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, block))))
        parts.append(_run_block(rng, size, cfg, objective, compiled))
    return np.concatenate(parts) if parts else np.empty(0)


def empirical_distribution(samples: Sequence[float]) -> FiniteDistribution:
    """Empirical distribution of the samples, as exact atom frequencies."""
    if len(samples) == 0:
        raise ModelError("no samples")
    atoms: Dict[Rational, Rational] = {}
    n = len(samples)
    for x in samples:
        key = Fraction(float(x)).limit_denominator(10**9)
        atoms[key] = atoms.get(key, Fraction(0)) + Fraction(1, n)
    return FiniteDistribution(atoms)


def empirical_measures(
    samples: Sequence[float], p: Rational, q: Rational
) -> Tuple[Rational, float, Rational]:
    """(E, VaR_q, CVaR_p) of the empirical distribution of the samples."""
    dist = empirical_distribution(samples)
    return expectation(dist), var(dist, q), cvar(dist, p)


def samples_csv(samples: Sequence[float]) -> str:
    """The samples as CSV text: a ``run,payoff`` header, then one row per run."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["run", "payoff"])
    for i, x in enumerate(samples):
        writer.writerow([i, repr(float(x))])
    return out.getvalue()
