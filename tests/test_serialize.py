"""Serialization tests: canonical round trips, exactness, DIMACS."""
import json
from fractions import Fraction as F

import pytest

from cvarmdp import serialize as S
from cvarmdp.gadgets import Cnf3, example, sat_reduction
from cvarmdp.model import ModelError
from cvarmdp.solver import decide
from lemmas import write_dimacs


class TestModelRoundTrip:
    def test_byte_identical(self):
        for name in ("choice", "loop", "negative"):
            mdp, _ = example(name)
            text = S.model_to_json(mdp)
            again = S.model_to_json(S.model_from_json(text))
            assert again == text

    def test_floats_rejected(self):
        mdp, _ = example("choice")
        text = S.model_to_json(mdp).replace('"9/10"', "0.9")
        with pytest.raises(ModelError):
            S.model_from_json(text)

    def test_malformed_json_rejected(self):
        with pytest.raises(ModelError):
            S.model_from_json("{not json")

    def test_invalid_model_rejected(self):
        mdp, _ = example("choice")
        text = S.model_to_json(mdp).replace('"9/10"', '"8/10"')  # row sums < 1
        with pytest.raises(ModelError):
            S.model_from_json(text)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["states"][0].__setitem__("rewards", "10"), "'rewards' must be a list"),
            (lambda doc: doc.__setitem__("states", {"s0": {}}), "states must be a list"),
            (lambda doc: doc["states"][0].__setitem__("name", 0), "'name' must be a string"),
        ],
    )
    def test_ill_typed_fields_rejected(self, edit, message):
        mdp, _ = example("choice")
        doc = json.loads(S.model_to_json(mdp))
        edit(doc)
        with pytest.raises(ModelError, match=message):
            S.model_from_json(json.dumps(doc))

    def test_actionless_target_gets_self_loop(self):
        text = """
        {"initial": "s",
         "states": [{"name": "s", "rewards": ["0"], "target": false},
                    {"name": "t", "rewards": ["1"], "target": true}],
         "actions": [{"name": "go", "from": "s", "transitions": {"t": "1"}}]}
        """
        mdp = S.model_from_json(text)
        assert mdp.available["t"]


class TestQueryRoundTrip:
    def test_byte_identical_and_equal(self):
        for name in ("choice", "loop", "negative"):
            _, query = example(name)
            text = S.query_to_json(query)
            parsed = S.query_from_json(text)
            assert parsed == query
            assert S.query_to_json(parsed) == text

    def test_interior_levels_enforced(self):
        text = '{"objective": "reach", "constraints": [{"dim": 0, "cvar": {"p": "1", "c": "2"}}]}'
        with pytest.raises(ModelError):
            S.query_from_json(text)


class TestStrategyRoundTrip:
    def test_memoryless_witness(self):
        mdp, query = example("choice")
        verdict = decide(mdp, query)
        text = S.strategy_to_json(verdict.witness)
        parsed = S.strategy_from_json(text)
        assert parsed == verdict.witness
        assert S.strategy_to_json(parsed) == text

    def test_two_memory_witness_with_structured_memory(self):
        mdp, query = example("loop")
        verdict = decide(mdp, query)
        text = S.strategy_to_json(verdict.witness)
        parsed = S.strategy_from_json(text)
        assert parsed == verdict.witness


class TestVerdictJson:
    def test_contains_status_witness_certificate(self):
        mdp, query = example("choice")
        verdict = decide(mdp, query)
        text = S.verdict_to_json(verdict)
        assert '"status": "SAT"' in text
        assert '"witness"' in text and '"certificate"' in text

    def test_unsat_has_null_witness(self):
        import json

        from cvarmdp.model import Constraint, Query

        mdp, _ = example("choice")
        q = Query(objective="reach", constraints=(Constraint(dim=0, expectation=F(100)),))
        verdict = decide(mdp, q)
        doc = json.loads(S.verdict_to_json(verdict))
        assert doc["status"] == "UNSAT" and doc["witness"] is None


class TestDimacs:
    def test_parse_with_comments(self):
        nv, clauses = S.parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 0\n")
        assert nv == 3
        assert clauses == ((1, -2, 3), (-1,))

    def test_satlib_trailer_ends_the_formula(self):
        text = "c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n"
        assert S.parse_dimacs(text) == (3, ((1, -2, 3), (-1, 2)))

    def test_roundtrip(self):
        nv, clauses = 2, ((1, -2), (2,))
        text = write_dimacs(nv, clauses)
        assert S.parse_dimacs(text) == (nv, clauses)

    def test_feeds_reduction(self):
        nv, clauses = S.parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        mdp, _, query = sat_reduction(Cnf3(nv, clauses))
        assert decide(mdp, query).status == "UNSAT"
