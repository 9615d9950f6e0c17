"""Canonical JSON (de)serialization for models, queries, strategies, verdicts.

Rationals travel as strings ``"a/b"``; floats in input files are rejected to
preserve exactness.  Serialization is canonical (sorted keys, fixed layout),
so generate -> parse -> serialize round-trips byte-identically.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .model import (
    Constraint,
    Mdp,
    ModelError,
    Query,
    Rational,
    StrategySpec,
    Verdict,
    rat,
    reserved_action_problems,
    validate,
    validate_query,
)

__all__ = [
    "model_to_json",
    "model_from_json",
    "query_to_json",
    "query_from_json",
    "strategy_to_json",
    "strategy_from_json",
    "verdict_to_json",
    "parse_dimacs",
]


def _rat_str(x: Rational) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _reject_float(text: str) -> None:
    raise ModelError(f"floats are rejected; write {text!r} as a rational string 'a/b'")


def _put(table: dict, key: Any, value: Any, where: str) -> None:
    """``table[key] = value``; a key given twice is an error, not a silent overwrite."""
    if key in table:
        raise ModelError(f"{where}: {key!r} given twice")
    table[key] = value


def _unique_keys(pairs: List[Tuple[str, Any]]) -> dict:
    doc: dict = {}
    for key, value in pairs:
        _put(doc, key, value, "JSON object")
    return doc


def _load_json(text: str) -> Any:
    """Parse an input document; malformed or too deeply nested JSON is a
    ``ModelError``, and so is any float or a key repeated in one object."""
    try:
        return json.loads(text, parse_float=_reject_float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise ModelError("malformed JSON: nested too deeply") from None


_JSON_TYPE = {str: "string", list: "list", dict: "object", bool: "boolean"}


def _object(doc: Any, where: str, required: Tuple[str, ...], optional: Tuple[str, ...] = ()) -> dict:
    """``doc``, checked to be a JSON object that has every ``required`` field
    and no other field than those and the ``optional`` ones: a misspelt field
    would otherwise be dropped without a word and leave its default in place."""
    if not isinstance(doc, dict):
        raise ModelError(f"{where} must be a JSON object, got {doc!r}")
    fields = required + optional
    unknown = sorted(k for k in doc if k not in fields)
    if unknown:
        raise ModelError(f"{where}: unknown field {unknown[0]!r}; expected one of {', '.join(fields)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ModelError(f"{where}: missing field {missing[0]!r}")
    return doc


def _entries(docs: Any, kind: str, required: Tuple[str, ...], optional: Tuple[str, ...] = ()) -> List[dict]:
    """The list of ``kind`` entries of a document, each checked by ``_object``."""
    if not isinstance(docs, list):
        raise ModelError(f"{kind}s must be a list")
    return [_object(d, kind, required, optional) for d in docs]


def _field(doc: dict, key: str, kind: type, where: str, default: Any = None) -> Any:
    """``doc[key]``, or ``default`` when it is absent, checked to be a ``kind``."""
    value = doc.get(key, default)
    if not isinstance(value, kind):
        raise ModelError(f"{where}: field {key!r} must be a {_JSON_TYPE[kind]}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# models


def model_to_json(mdp: Mdp) -> str:
    doc = {
        "initial": mdp.initial,
        "states": [
            {
                "name": s,
                "rewards": [_rat_str(r) for r in mdp.rewards[s]],
                "target": s in mdp.targets,
            }
            for s in sorted(mdp.states)
        ],
        "actions": [
            {
                "name": a,
                "from": s,
                "transitions": {t: _rat_str(p) for t, p in mdp.delta[a].items()},
            }
            for s in sorted(mdp.states)
            for a in sorted(mdp.available.get(s, ()))
        ],
    }
    return _dumps(doc)


def model_from_json(text: str) -> Mdp:
    doc = _object(_load_json(text), "model", ("initial", "states", "actions"))
    initial = _field(doc, "initial", str, "model")

    states: List[str] = []
    rewards: Dict[str, Tuple[Fraction, ...]] = {}
    targets: List[str] = []
    for sd in _entries(doc["states"], "state", ("name",), ("rewards", "target")):
        name = _field(sd, "name", str, "state")
        states.append(name)
        rewards[name] = tuple(
            rat(r, f"reward of {name!r}") for r in _field(sd, "rewards", list, f"state {name!r}", ["0"])
        )
        if _field(sd, "target", bool, f"state {name!r}", False):
            targets.append(name)

    available: Dict[str, List[str]] = {s: [] for s in states}
    delta: Dict[str, Dict[str, Fraction]] = {}
    for ad in _entries(doc["actions"], "action", ("name", "from", "transitions")):
        name = _field(ad, "name", str, "action")
        src = _field(ad, "from", str, f"action {name!r}")
        if src not in available:
            raise ModelError(f"action {name!r} from unknown state {src!r}")
        available[src].append(name)
        delta[name] = {
            t: rat(p, f"transition {name!r}->{t!r}")
            for t, p in _field(ad, "transitions", dict, f"action {name!r}").items()
        }
    # targets are absorbing by definition; give action-less ones a self-loop
    for t in targets:
        if not available[t]:
            loop = f"stay::{t}"
            available[t].append(loop)
            delta[loop] = {t: Fraction(1)}

    mdp = Mdp(
        states=tuple(states),
        available={s: tuple(a) for s, a in available.items()},
        delta=delta,
        initial=initial,
        rewards=rewards,
        targets=frozenset(targets),
    )
    problems = validate(mdp).problems + reserved_action_problems(delta)
    if problems:
        raise ModelError("; ".join(problems))
    return mdp


# ---------------------------------------------------------------------------
# queries


def query_to_json(query: Query) -> str:
    constraints = []
    for c in query.constraints:
        cd: Dict[str, Any] = {"dim": c.dim}
        if c.expectation is not None:
            cd["e"] = _rat_str(c.expectation)
        if c.cvar is not None:
            cd["cvar"] = {"p": _rat_str(c.cvar[0]), "c": _rat_str(c.cvar[1])}
        if c.var is not None:
            cd["var"] = {"q": _rat_str(c.var[0]), "v": _rat_str(c.var[1])}
        constraints.append(cd)
    return _dumps({"objective": query.objective, "constraints": constraints})


def _parse_pair(obj: Any, where: str, keys: Tuple[str, str]) -> Tuple[Fraction, Fraction]:
    obj = _object(obj, where, keys)
    return tuple(rat(obj[k], f"{where}.{k}") for k in keys)


def query_from_json(text: str) -> Query:
    doc = _object(_load_json(text), "query", ("objective",), ("constraints",))
    constraints = []
    for cd in _entries(doc.get("constraints", []), "constraint", (), ("dim", "e", "cvar", "var")):
        dim = cd.get("dim", 0)
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ModelError(f"dim: expected an integer, got {dim!r}")
        if dim < 0:
            raise ModelError(f"dim: must be nonnegative, got {dim}")
        kwargs: Dict[str, Any] = {"dim": dim}
        if "e" in cd:
            kwargs["expectation"] = rat(cd["e"], "e")
        if "cvar" in cd:
            kwargs["cvar"] = _parse_pair(cd["cvar"], "cvar", ("p", "c"))
        if "var" in cd:
            kwargs["var"] = _parse_pair(cd["var"], "var", ("q", "v"))
        constraints.append(Constraint(**kwargs))
    query = Query(objective=doc["objective"], constraints=tuple(constraints))
    report = validate_query(query, query.dim)
    if not report.ok:
        raise ModelError("; ".join(report.problems))
    return query


# ---------------------------------------------------------------------------
# strategies

# Memory elements and model states may be nested tuples (product
# constructions); encode them structurally so they survive JSON.


def _enc_term(x: Any) -> Any:
    if isinstance(x, tuple):
        return {"t": [_enc_term(e) for e in x]}
    if isinstance(x, (str, int)):
        return x
    raise ModelError(f"cannot serialize term {x!r}")


def _dec_term(obj: Any) -> Any:
    if isinstance(obj, dict) and obj.keys() == {"t"} and isinstance(obj["t"], list):
        return tuple(_dec_term(e) for e in obj["t"])
    if isinstance(obj, (str, int)) and not isinstance(obj, bool):
        return obj
    raise ModelError(f'term must be a string, an integer or {{"t": [...]}}, got {obj!r}')


def _dec_dist(obj: Any, where: str) -> Dict[Any, Fraction]:
    """A distribution over terms, written as a list of [term, probability] pairs."""
    if not isinstance(obj, list) or not all(isinstance(e, list) and len(e) == 2 for e in obj):
        raise ModelError(f"{where}: expected a list of [term, probability] pairs, got {obj!r}")
    dist: Dict[Any, Fraction] = {}
    for m, p in obj:
        _put(dist, _dec_term(m), rat(p, where), where)
    return dist


def _term_key(x: Any) -> str:
    return json.dumps(_enc_term(x), sort_keys=True)


def _strategy_doc(strategy: StrategySpec) -> dict:
    return {
        "memory": [_enc_term(m) for m in strategy.memory],
        "initial_memory": [
            [_enc_term(m), _rat_str(p)]
            for m, p in sorted(strategy.initial_memory.items(), key=lambda kv: _term_key(kv[0]))
        ],
        "next_move": [
            {
                "state": _enc_term(s),
                "memory": _enc_term(m),
                "move": {a: _rat_str(p) for a, p in sorted(move.items())},
            }
            for (s, m), move in sorted(
                strategy.next_move.items(), key=lambda kv: (_term_key(kv[0][0]), _term_key(kv[0][1]))
            )
        ],
        "memory_update": [
            {
                "action": a,
                "state": _enc_term(s),
                "memory": _enc_term(m),
                "dist": [
                    [_enc_term(m2), _rat_str(p)]
                    for m2, p in sorted(dist.items(), key=lambda kv: _term_key(kv[0]))
                ],
            }
            for (a, s, m), dist in sorted(
                strategy.memory_update.items(),
                key=lambda kv: (kv[0][0], _term_key(kv[0][1]), _term_key(kv[0][2])),
            )
        ],
    }


def strategy_to_json(strategy: StrategySpec) -> str:
    return _dumps(_strategy_doc(strategy))


def strategy_from_json(text: str) -> StrategySpec:
    doc = _object(_load_json(text), "strategy", ("memory", "initial_memory", "next_move"), ("memory_update",))
    memory = tuple(_dec_term(m) for m in _field(doc, "memory", list, "strategy"))
    initial_memory = _dec_dist(doc["initial_memory"], "initial_memory")
    next_move = {}
    for nd in _entries(doc["next_move"], "next_move", ("state", "memory", "move")):
        move = _field(nd, "move", dict, "next_move")
        key = (_dec_term(nd["state"]), _dec_term(nd["memory"]))
        _put(next_move, key, {a: rat(p, "next_move") for a, p in move.items()}, "next_move")
    memory_update = {}
    for ud in _entries(doc.get("memory_update", []), "memory_update", ("action", "state", "memory", "dist")):
        action = _field(ud, "action", str, "memory_update")
        key = (action, _dec_term(ud["state"]), _dec_term(ud["memory"]))
        _put(memory_update, key, _dec_dist(ud["dist"], "memory_update"), "memory_update")
    return StrategySpec(
        memory=memory,
        initial_memory=initial_memory,
        next_move=next_move,
        memory_update=memory_update,
    )


# ---------------------------------------------------------------------------
# verdicts / certificates (audit output; one-way)


def _audit(obj: Any) -> Any:
    """A certificate value as JSON: rationals as strings, a mapping as its
    [key, value] pairs in the order of the keys' reprs."""
    if isinstance(obj, Fraction):
        return _rat_str(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Mapping):
        return [[_audit(k), _audit(v)] for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [_audit(x) for x in obj]
    raise TypeError(f"a certificate holds no {type(obj).__name__}: {obj!r}")


def verdict_to_json(verdict: Verdict) -> str:
    doc = {
        "status": verdict.status,
        "witness": _strategy_doc(verdict.witness) if verdict.witness else None,
        "certificate": _audit(verdict.certificate),
    }
    return _dumps(doc)


# ---------------------------------------------------------------------------
# DIMACS CNF


def _dimacs_int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelError(f"non-integer token {token!r} in DIMACS line {line!r}") from None


def parse_dimacs(text: str):
    """Parse DIMACS CNF into (num_vars, clauses).

    A ``%`` line ends the formula (the SATLIB trailer).  An empty clause
    makes the formula unsatisfiable outright; it is rejected, not dropped.
    """
    num_vars: Optional[int] = None
    clauses: List[Tuple[int, ...]] = []
    current: List[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ModelError(f"bad problem line: {line!r}")
            num_vars = _dimacs_int(parts[2], line)
            continue
        for token in line.split():
            lit = _dimacs_int(token, line)
            if lit != 0:
                current.append(lit)
            elif current:
                clauses.append(tuple(current))
                current = []
            else:
                raise ModelError(f"empty clause in DIMACS line {line!r}")
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        num_vars = max((abs(l) for cl in clauses for l in cl), default=1)
    return num_vars, tuple(clauses)
