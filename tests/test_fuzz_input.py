"""Fuzzing of the input loaders: a valid document with one field or line
replaced by an arbitrary value either loads or raises ``ModelError``.

Any other exception would reach the CLI as an internal error (exit 70)
instead of invalid input (exit 65).
"""
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarmdp import serialize as S
from cvarmdp.gadgets import example
from cvarmdp.model import Constraint, ModelError, Query, StrategySpec

_MODEL = json.loads(S.model_to_json(example("choice")[0]))
_QUERY = json.loads(
    S.query_to_json(
        Query(
            objective="reach",
            constraints=(
                Constraint(dim=0, expectation=F(6), cvar=(F(1, 20), F(5, 2)), var=(F(1, 10), F(1))),
            ),
        )
    )
)
_STRATEGY = json.loads(
    S.strategy_to_json(
        StrategySpec(
            memory=("search", ("remain", 1)),
            initial_memory={"search": F(1)},
            next_move={
                ("s0", "search"): {"a": F(3, 4), "b": F(1, 4)},
                (("s", 2), ("remain", 1)): {"a": F(1)},
            },
            memory_update={("a", "s1", "search"): {"search": F(1, 2), ("remain", 1): F(1, 2)}},
        )
    )
)
_DIMACS = "c a comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n%\n0\n"

_atoms = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=10**20)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["s0", "s1", "a", "b", "t", "search", "1/2", "0", "1", "-1", "1/0", "reach"])
)
json_values = st.recursive(
    _atoms,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["t", "p", "c", "name", "s0", "a", "x"]), children, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, its root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _loads_or_rejects(loader, text):
    try:
        loader(text)
    except ModelError:
        pass


def _positions(doc):
    """One case per position, each with a share of a 200-example budget."""
    paths = list(_paths(doc))
    return [pytest.param(p, id="/".join(map(str, p)) or "root") for p in paths], 200 // len(paths)


_MODEL_AT, _MODEL_N = _positions(_MODEL)
_QUERY_AT, _QUERY_N = _positions(_QUERY)
_STRATEGY_AT, _STRATEGY_N = _positions(_STRATEGY)


@pytest.mark.parametrize("path", _MODEL_AT)
@settings(derandomize=True, deadline=None, max_examples=_MODEL_N)
@given(value=json_values)
def test_model_from_json_loads_or_rejects(path, value):
    _loads_or_rejects(S.model_from_json, json.dumps(_replaced(_MODEL, path, value)))


@pytest.mark.parametrize("path", _QUERY_AT)
@settings(derandomize=True, deadline=None, max_examples=_QUERY_N)
@given(value=json_values)
def test_query_from_json_loads_or_rejects(path, value):
    _loads_or_rejects(S.query_from_json, json.dumps(_replaced(_QUERY, path, value)))


@pytest.mark.parametrize("path", _STRATEGY_AT)
@settings(derandomize=True, deadline=None, max_examples=_STRATEGY_N)
@given(value=json_values)
def test_strategy_from_json_loads_or_rejects(path, value):
    _loads_or_rejects(S.strategy_from_json, json.dumps(_replaced(_STRATEGY, path, value)))


_tokens = st.sampled_from(["p", "cnf", "c", "%", "0", "-0", "1", "-3", "99", "x", "1.5", "\u0661"])
_DIMACS_LINES = _DIMACS.splitlines()


@pytest.mark.parametrize("line", range(len(_DIMACS_LINES)))
@settings(derandomize=True, deadline=None, max_examples=200 // len(_DIMACS_LINES))
@given(replacement=st.lists(_tokens | st.text(max_size=3), max_size=5).map(" ".join))
def test_parse_dimacs_loads_or_rejects(line, replacement):
    lines = list(_DIMACS_LINES)
    lines[line] = replacement
    _loads_or_rejects(S.parse_dimacs, "\n".join(lines))
