"""Pins on the exact LPs and witnesses that ``decide`` produces.

Every LP handed to the simplex is recorded as the SHA-256 of its ``lp.dump``
text, so any change to a row, a right-hand side, a variable list or the row
order shows up here.  The hashes cover the reachability flow LP, the
multi-dimensional mean-payoff LP, the MEC gain LP and the transshipment LP
that completes a quotient flow inside a MEC.  Witnesses are pinned by the
SHA-256 of their canonical JSON.
"""
import hashlib
from fractions import Fraction as F

import pytest

import cvarmdp.lp as lpmod
from cvarmdp import serialize
from cvarmdp.gadgets import example
from cvarmdp.model import Constraint, Mdp, Query
from cvarmdp.solver import decide


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def lp_log(on_lp):
    log = []
    on_lp(lambda prog, optimize, res: log.append(_sha(lpmod.dump(prog))))
    return log


def _two_mecs() -> Mdp:
    # choose once between two absorbing loops with opposing dimensions
    return Mdp(
        states=("s", "u", "w"),
        available={"s": ("to_u", "to_w"), "u": ("lu",), "w": ("lw",)},
        delta={
            "to_u": {"u": F(1)},
            "to_w": {"w": F(1)},
            "lu": {"u": F(1)},
            "lw": {"w": F(1)},
        },
        initial="s",
        rewards={"s": (F(0), F(0)), "u": (F(8), F(0)), "w": (F(0), F(8))},
    )


EXAMPLE_LPS = {
    "choice": ["92fb8695c7b3b83264cff66cda3d443021504d5241b907f857f51e7f6a98e438"],
    "loop": [
        "6ad79f8f7a55a627ba1b0e09be1bfbc6a6bb2ffc949cef20e85837ebdf4db76a",
        "ccbe9c6df05d3d1c85c6694273e04045e41f935b6e0e393154fb3dca92a0da2b",
        "f20b94f1fd81a6ac4d63cad1f14561fc50bb5fae1425747ba8a22cf1ec621175",
        "1eda7f0b83eb62244c1a5d770a5a709e63ad004f6f4db1065133e2259c34d71b",
        "fccdbe86613312ff736c12999fbcee963038a93926a2e3f217fe930c6bfe0c6b",
        "b814835274b907c9fa47e73c83db56aad3b27ddc31a12a7a6dfcadc87d03e47c",
        "ccf8dabb0dc8ae00a32eee483e1c7413d36f946750215f19e23cc8bea627a82a",
    ],
    # no attraction: one guess LP on the quotient with a commit at s0, then
    # the transshipment LP of the committed MEC {s0}
    "negative": [
        "ccdd47824b5f42382867447e5f817023e4c3ae5bccc27437b71b8f2cef359add",
        "ccf8dabb0dc8ae00a32eee483e1c7413d36f946750215f19e23cc8bea627a82a",
    ],
}

EXAMPLE_WITNESSES = {
    "choice": "0dc81452e0c934070ec1ceac0c9be64ef7dfc6d3b81e7cc73a104404b20d0577",
    "loop": "70140b21c095f40c1b08d0e9562a0fa33bd9ee8cb078d6eecf050cc112eae16e",
    "negative": "4bf2fe17e9bd675421dc09869ca3851b55b2f94a80a84b6a91b1154bb029ce19",
}

# gain LPs (max and min per MEC and CVaR dimension), then one
# Rockafellar-Uryasev epigraph LP of the multi-dimensional mean-payoff LP per
# grid point at or above the CVaR bound 7 (7, 15/2, 8), each infeasible, so
# no MEC labelling is solved
TWO_MECS_CVAR_COUNT = 7
TWO_MECS_CVAR_FIRST = [
    "de1e232ff7be74523d2396b0f8b253c35790272989b6f6a932097a8d468d48d6",
    "2b2264621c81089ea861c56f483b923e8e29d7c7e90d92eaa2e3e2eea005fec5",
    "579c7bb4822c40949a220b4c56ba434a1f4facee16479a01efe003095e7b0104",
    "579c7bb4822c40949a220b4c56ba434a1f4facee16479a01efe003095e7b0104",
    "48fd3f5b3801decff646cbc53e7c1d42c89ef455dc50a28d9e7fe0619dd4e5c0",
    "2e8f13543a71e2be08772b84c251c13db08b7ed52e76eac423b5353581065530",
    "99fadd050566a356f47ceb87fe42a7a361b5fc481a4a8a66140d158db9b8e541",
]


@pytest.mark.parametrize("name", sorted(EXAMPLE_LPS))
def test_example_lps_and_witness(name, lp_log):
    verdict = decide(*example(name))
    assert verdict.status == "SAT"
    assert lp_log == EXAMPLE_LPS[name]
    assert _sha(serialize.strategy_to_json(verdict.witness)) == EXAMPLE_WITNESSES[name]


def test_mean_multi_cvar_sweep_lps(lp_log):
    query = Query(
        objective="mean",
        constraints=(
            Constraint(dim=0, cvar=(F(1, 2), F(7))),
            Constraint(dim=1, expectation=F(1)),
        ),
    )
    assert decide(_two_mecs(), query).status == "UNSAT"
    assert len(lp_log) == TWO_MECS_CVAR_COUNT
    assert lp_log[:20] == TWO_MECS_CVAR_FIRST


def test_mean_multi_search_remain_witness(lp_log):
    query = Query(
        objective="mean",
        constraints=(
            Constraint(dim=0, expectation=F(4)),
            Constraint(dim=1, expectation=F(4)),
        ),
    )
    verdict = decide(_two_mecs(), query)
    assert verdict.status == "SAT"
    assert lp_log == ["9050c5ee6ab1a560f5f15be73eb133471ea1d0c5476490e6b05bce83501e5152"]
    # arrival updates carry only their nonzero memory entries, as in the
    # witnesses that realize_quotient_flow builds
    witness = verdict.witness
    for dist in [witness.initial_memory, *witness.memory_update.values()]:
        assert all(p != 0 for p in dist.values())
    assert (
        _sha(serialize.strategy_to_json(witness))
        == "d6b2da91804fc3012911bec26cad50c5bfb39bc8f15ef033c15a518a41f239b9"
    )
