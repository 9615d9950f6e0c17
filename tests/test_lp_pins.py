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
import cvarmdp.solver as solver
from cvarmdp import serialize
from cvarmdp.gadgets import example
from cvarmdp.model import Constraint, Mdp, Query
from cvarmdp.solver import decide


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def lp_log(monkeypatch):
    log = []

    def record(module, name):
        orig = getattr(module, name)

        def wrapped(prog, *args, **kwargs):
            log.append(_sha(lpmod.dump(prog)))
            return orig(prog, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    record(solver, "solve_feasibility")
    record(solver, "solve_optimize")
    record(lpmod, "solve_feasibility")  # the transshipment LP's lookup
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
    "choice": ["839ef79eef04c75e4fee747172f566094e9e618eaef6d83caf280bf42fb58d33"],
    "loop": [
        "6ad79f8f7a55a627ba1b0e09be1bfbc6a6bb2ffc949cef20e85837ebdf4db76a",
        "ccbe9c6df05d3d1c85c6694273e04045e41f935b6e0e393154fb3dca92a0da2b",
        "f20b94f1fd81a6ac4d63cad1f14561fc50bb5fae1425747ba8a22cf1ec621175",
        "252c3306572ef717ca21fcf543ed4f678701c35669ab5e432c81dc2359e6bf50",
        "3982a379cb7f7d956ad2ce64417bda2b8691369932a9c38ccd270cae0d9caa52",
        "b29c4eb9b23d15762ae880e457b01e6bd680309f3125dfec6ce25445dd757215",
        "a7b453cbd1bb8b5d44bb2ffa25a5245fc56669d3976e45aa42826f7d9e7a985d",
    ],
    "negative": [
        "5a154e7293eeb1acc56a4b8df5f496adc04290cb957bee817c4679c09ec96c9e",
        "0cd7e4d5a438e519ad5775a265bd2ea6adf3b796b672395c8b42b64fab2a28dd",
        "f7b9e664bb753305f2dc8a6402daae1012796a737e8a79c79bf2908d7fbf82fb",
        "ee86bc869ffd76941a7f24595ade9c4606a32418458e1172fd52f44a2ad44c67",
        "83cd3407fc7f8fa96a7fabc158542ee4a9ad8249f55fcf1ef057b8a89296335d",
        "e319bb4b58c95edea24257def834f7ecb80695c6cddc2b0e9720fcf686d82e5c",
        "a7b453cbd1bb8b5d44bb2ffa25a5245fc56669d3976e45aa42826f7d9e7a985d",
    ],
}

EXAMPLE_WITNESSES = {
    "choice": "9ce7e8ad2c7d0987bf7e2c84d61d98ab22786dbd86ca51f71124daeaedcb8cc2",
    "loop": "16007979ffadc2f997b6bbd08a791144722b39e186225e589899c8cdcaf08863",
    "negative": "66e6c4995c3d2dd2b267227c2b97279ca5ebb2fda794a7090d89abbef80d349b",
}

# gain LPs (max and min per MEC and CVaR dimension), then the
# classification sweep of the multi-dimensional mean-payoff LP
TWO_MECS_CVAR_COUNT = 72
TWO_MECS_CVAR_FIRST = [
    "de1e232ff7be74523d2396b0f8b253c35790272989b6f6a932097a8d468d48d6",
    "2b2264621c81089ea861c56f483b923e8e29d7c7e90d92eaa2e3e2eea005fec5",
    "579c7bb4822c40949a220b4c56ba434a1f4facee16479a01efe003095e7b0104",
    "579c7bb4822c40949a220b4c56ba434a1f4facee16479a01efe003095e7b0104",
    "480817de5a89c6323a0bdc97aa55ed12aeb6485a2c01db704f691d6cce9c4222",
    "8e1d7c4e8d39eea86f2aae66cecc7c041ef4bc3090acc5e1d026bb9c1980cd6f",
    "ecd34989ed70e33f1078dde323efd3575689e7b7e1d9fadaa56617d58292f786",
    "747fb202fc491cf6abdff2f2b378ddb449c1173b7cc2c22e9b2f781a73e352b0",
    "785020a0500caba2bf0709881b4cbe055a7b9b1c8930af975af52f05923c5ed0",
    "688d0fd8ca7b52e3418423de2d9600e187d063a498b7cf6a2ba06f88a3a0590f",
    "83b9ebc89029ec19066529edaa694f598187defb72440119df7839e2540febaf",
    "5657714c6267080e3b17a8daa3eee7b9c06054a910a8b9fa7cd0f6abd0547746",
    "0539a72c114a2f5f85d811b0917f2fc912235b0c7448dda8208b62a2606cc92a",
    "05781e8fc5d154047d52c578189616d3f38f622b1cb34f099fec7eaac8f4d5cd",
    "01d8ea8bf69deae7663cb4f1544883d0aa6d292ff1a683bd9a4c73de507911eb",
    "5ba6baa4f59a5e0dfa85de74e663419db7aa4488bc7df0782c8bb8040de38b6e",
    "4a1dd0514685a2f1a6608b986ec389565149462971dea72f081f21e87a083da8",
    "cb794c6eee412ed02be28ecc1acac027d54caf8b5fd57c1d1107f636d5454502",
    "0b01cd2eebf3269ab16f60ac2ac5aa1c4b190c6a4db2e279a6e31cbaf8dd6709",
    "de4681ee7b470b96b726e53116657b1d021bf357535293a64344e238cb1cc909",
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
    assert lp_log == ["77f3736b00acea5576df5dfbfe2acb41b03c8ce0905854757c55f746036606e1"]
    # arrival updates carry only their nonzero memory entries, as in the
    # witnesses that realize_quotient_flow builds
    witness = verdict.witness
    for dist in [witness.initial_memory, *witness.memory_update.values()]:
        assert all(p != 0 for p in dist.values())
    assert (
        _sha(serialize.strategy_to_json(witness))
        == "a5b70e472cd0ad7fd068da87a8767d2df6bee207ae830e1adb314e20f905d7d3"
    )
