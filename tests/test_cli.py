"""CLI tests: subcommands, exit codes, emitted files."""
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import cvarmdp.cli as cli
from cvarmdp import serialize as S
from cvarmdp.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_SAT,
    EXIT_UNKNOWN,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
)
from cvarmdp.gadgets import example
from cvarmdp.model import Verdict, memoryless


@pytest.fixture
def choice_files(tmp_path):
    mdp, query = example("choice")
    model = tmp_path / "model.json"
    queryf = tmp_path / "query.json"
    model.write_text(S.model_to_json(mdp))
    queryf.write_text(S.query_to_json(query))
    return model, queryf, tmp_path


@pytest.fixture
def gamble_file(choice_files):
    """A strategy for the choice model that always gambles."""
    path = choice_files[2] / "gamble.json"
    path.write_text(S.strategy_to_json(memoryless({"s0": {"b": F(1)}})))
    return path


def _rename(entries, name, old, new):
    """Rename field ``old`` of the entry called ``name`` to ``new``."""
    entry = next(e for e in entries if e["name"] == name)
    entry[new] = entry.pop(old)


class TestCheck:
    def test_sat_exit_and_artifacts(self, choice_files, capsys):
        model, query, tmp = choice_files
        code = main(["check", str(model), str(query), "--out", str(tmp / "run")])
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        assert out.startswith("SAT")
        witness = S.strategy_from_json((tmp / "run.witness.json").read_text())
        assert witness.next_move
        cert = json.loads((tmp / "run.certificate.json").read_text())
        assert cert["status"] == "SAT"

    def test_unsat_exit(self, choice_files, tmp_path, capsys):
        model, _, tmp = choice_files
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"objective": "reach", "constraints": [{"dim": 0, "e": "100"}]}'
        )
        code = main(["check", str(model), str(bad), "--out", str(tmp / "u")])
        assert code == EXIT_UNSAT
        assert capsys.readouterr().out.startswith("UNSAT")

    def test_invalid_input_exit(self, choice_files, capsys):
        model, _, tmp = choice_files
        code = main(["check", str(model), str(tmp / "missing.json")])
        assert code == EXIT_INVALID

    def test_usage_error_exit(self, capsys):
        assert main(["check"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_is_a_usage_error(self, choice_files, capsys, grid):
        model, query, tmp = choice_files
        assert main(["check", str(model), str(query), "--grid", grid, "--out", str(tmp / "g")]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --grid: must be a positive integer, not {grid}\n")
        assert not (tmp / "g.certificate.json").exists()

    @pytest.mark.parametrize(
        "constraint",
        [
            '{"dim": 3, "e": "1"}',  # beyond the 1-dimensional model
            '{"dim": 0, "cvar": {"p": "1/2"}}',  # CVaR bound missing
            '{"dim": "x", "e": "1"}',  # dimension is not an integer
        ],
    )
    def test_malformed_query_is_invalid_input(self, choice_files, tmp_path, capsys, constraint):
        model, _, tmp = choice_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"objective": "reach", "constraints": [%s]}' % constraint)
        code = main(["check", str(model), str(bad), "--out", str(tmp / "b")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input:")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["states"][0].pop("name"),
            lambda doc: doc["actions"][0].pop("name"),
            lambda doc: doc["actions"][0].pop("from"),
            lambda doc: doc["actions"][0].pop("transitions"),
            lambda doc: doc["states"].__setitem__(0, "s0"),
            lambda doc: doc["actions"].__setitem__(0, ["a"]),
            lambda doc: doc["actions"][0].__setitem__("transitions", [["s1", "1"]]),
            lambda doc: doc["states"][1].__setitem__("target", "no"),
            lambda doc: doc.__setitem__("initial", ["x"]),
        ],
        ids=[
            "state-without-name",
            "action-without-name",
            "action-without-from",
            "action-without-transitions",
            "state-not-an-object",
            "action-not-an-object",
            "transitions-not-an-object",
            "target-not-a-boolean",
            "initial-not-a-string",
        ],
    )
    def test_malformed_model_is_invalid_input(self, tmp_path, capsys, edit):
        model, query = tmp_path / "m.json", tmp_path / "q.json"
        assert main(["generate", "--example", "choice", str(model), str(query)]) == EXIT_SAT
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        code = main(["check", str(model), str(query), "--out", str(tmp_path / "b")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input:")

    def test_reserved_action_name_is_invalid_input(self, tmp_path, capsys):
        model, query = tmp_path / "m.json", tmp_path / "q.json"
        assert main(["generate", "--example", "choice", str(model), str(query)]) == EXIT_SAT
        doc = json.loads(model.read_text())
        doc["actions"][0]["name"] = "__commit[0]"
        model.write_text(json.dumps(doc))
        code = main(["check", str(model), str(query), "--out", str(tmp_path / "r")])
        assert code == EXIT_INVALID
        assert "action '__commit[0]' starts with the reserved prefix '__'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "constraints, message",
        [
            ('"constraints": [{"dim": 0, "E": "100"}]', "constraint: unknown field 'E'"),  # "e" exits UNSAT
            ('"constraints": [{"cvar": {"p": "1/2", "c": "0", "v": "1"}}]', "cvar: unknown field 'v'"),
            ('"constraints": [{"var": {"q": "1/2", "v": "0", "c": "1"}}]', "var: unknown field 'c'"),
            ('"constraint": [{"dim": 0, "e": "100"}]', "query: unknown field 'constraint'"),
            ('"constraints": [{"dim": -1, "e": "1"}]', "dim: must be nonnegative, got -1"),
        ],
        ids=["constraint", "cvar", "var", "query", "negative-dim"],
    )
    def test_misspelt_query_field_is_named(self, choice_files, tmp_path, capsys, constraints, message):
        model, _, tmp = choice_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"objective": "reach", %s}' % constraints)
        code = main(["check", str(model), str(bad), "--out", str(tmp / "b")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"invalid input: {message}")

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: _rename(doc["states"], "t10", "rewards", "reward"), "reward"),
            (lambda doc: _rename(doc["actions"], "b", "from", "form"), "form"),
            (lambda doc: doc.__setitem__("targets", ["t10"]), "targets"),
        ],
        ids=["state", "action", "model"],
    )
    def test_misspelt_model_field_is_named(self, tmp_path, capsys, edit, field):
        # t10 written with "reward" used to get reward 0, flipping SAT to UNSAT
        model, query = tmp_path / "m.json", tmp_path / "q.json"
        assert main(["generate", "--example", "choice", str(model), str(query)]) == EXIT_SAT
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        code = main(["check", str(model), str(query), "--out", str(tmp_path / "b")])
        assert code == EXIT_INVALID
        assert f"unknown field {field!r}" in capsys.readouterr().err

    def test_solver_crash_is_internal_error(self, choice_files, monkeypatch, capsys):
        model, query, tmp = choice_files

        def boom(*args, **kwargs):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(cli, "decide", boom)
        code = main(["check", str(model), str(query), "--out", str(tmp / "x")])
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: simulated defect\n"

    def test_unverifiable_witness_is_internal_error(self, choice_files, monkeypatch, capsys):
        model, query, tmp = choice_files
        # always keeping the sure 5 misses E >= 6
        corrupted = Verdict("SAT", witness=memoryless({"s0": {"a": F(1)}}))
        monkeypatch.setattr(cli, "decide", lambda *args, **kwargs: corrupted)
        code = main(["check", str(model), str(query), "--out", str(tmp / "c")])
        assert code == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert "SAT" not in captured.out
        assert "witness failed re-verification" in captured.err
        assert not (tmp / "c.witness.json").exists()


class TestEvaluate:
    def test_table_with_exact_values(self, choice_files, capsys):
        model, _, tmp = choice_files
        sigma = memoryless({"s0": {"a": F(3, 4), "b": F(1, 4)}})
        strat = tmp / "sigma.json"
        strat.write_text(S.strategy_to_json(sigma))
        code = main(
            ["evaluate", str(model), str(strat), "--p", "1/20", "--q", "1/20"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        assert "6" in out and "5/2" in out

    def test_witness_missing_a_reached_pair_is_invalid_input(self, tmp_path, capsys):
        # a witness lists only the (state, memory) pairs it reaches, so the
        # evaluation needs every move it lists
        model, query = tmp_path / "m.json", tmp_path / "q.json"
        assert main(["generate", "--example", "slow(1/8)", str(model), str(query)]) == EXIT_SAT
        assert main(["check", str(model), str(query), "--out", str(tmp_path / "w")]) == EXIT_SAT
        doc = json.loads((tmp_path / "w.witness.json").read_text())
        assert len(doc["next_move"]) == 4
        for i, entry in enumerate(doc["next_move"]):
            strat = tmp_path / "cut.json"
            strat.write_text(json.dumps(dict(doc, next_move=doc["next_move"][:i] + doc["next_move"][i + 1 :])))
            capsys.readouterr()
            assert main(["evaluate", str(model), str(strat), "--objective", "mean"]) == EXIT_INVALID
            undefined = f"strategy undefined at state {entry['state']!r}, memory {entry['memory']!r}"
            assert undefined in capsys.readouterr().err


class TestStrategyInput:
    @pytest.mark.parametrize(
        "move, problem",
        [
            ({"a": F(1, 2)}, "sum to 1/2, not 1"),
            ({"a": F(1), "b": F(1, 2)}, "sum to 3/2, not 1"),
        ],
    )
    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_non_stochastic_strategy_is_invalid_input(
        self, choice_files, capsys, command, move, problem
    ):
        model, _, tmp = choice_files
        strat = tmp / "bad.json"
        strat.write_text(S.strategy_to_json(memoryless({"s0": move})))
        code = main([command, str(model), str(strat)])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert problem in captured.err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["next_move"][0].__setitem__("move", []),
            lambda doc: doc.__setitem__("memory", [["m"]]),
        ],
        ids=["move-not-an-object", "memory-term-a-list"],
    )
    def test_malformed_strategy_is_invalid_input(self, tmp_path, capsys, edit):
        model = tmp_path / "m.json"
        assert main(["generate", "--example", "choice", str(model)]) == EXIT_SAT
        doc = json.loads(S.strategy_to_json(memoryless({"s0": {"a": F(1)}})))
        edit(doc)
        strat = tmp_path / "bad.json"
        strat.write_text(json.dumps(doc))
        code = main(["evaluate", str(model), str(strat)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input:")

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.__setitem__("memory_updates", doc.pop("memory_update")), "memory_updates"),
            (lambda doc: doc["next_move"][0].__setitem__("moves", {}), "moves"),
            (lambda doc: doc["memory_update"][0].__setitem__("dists", []), "dists"),
        ],
        ids=["strategy", "next_move", "memory_update"],
    )
    def test_misspelt_strategy_field_is_named(self, tmp_path, capsys, edit, field):
        # without its memory updates the slow(1/8) witness read E = 87/11,
        # VaR = CVaR = 0 in place of 6, 5 and 5/2, and still exited 0
        model, query = tmp_path / "m.json", tmp_path / "q.json"
        assert main(["generate", "--example", "slow(1/8)", str(model), str(query)]) == EXIT_SAT
        assert main(["check", str(model), str(query), "--out", str(tmp_path / "w")]) == EXIT_SAT
        doc = json.loads((tmp_path / "w.witness.json").read_text())
        edit(doc)
        strat = tmp_path / "bad.json"
        strat.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", str(model), str(strat), "--objective", "mean"]) == EXIT_INVALID
        assert f"unknown field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["model", "query", "strategy"])
    def test_deeply_nested_json_is_invalid_input(self, choice_files, capsys, which):
        model, query, tmp = choice_files
        strat = tmp / "sigma.json"
        strat.write_text(S.strategy_to_json(memoryless({"s0": {"a": F(1)}})))
        {"model": model, "query": query, "strategy": strat}[which].write_text("[" * 200000)
        if which == "query":
            code = main(["check", str(model), str(query), "--out", str(tmp / "d")])
        else:
            code = main(["evaluate", str(model), str(strat)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input:")


class TestRepeatedInput:
    """A key or an entry given twice is invalid input, never a silent overwrite."""

    @pytest.mark.parametrize(
        "which, old, new",
        [
            # t10 read with the second "rewards" got reward 0 and exited UNSAT
            ("model", '"rewards": ["10"]', '"rewards": ["10"], "rewards": ["0"]'),
            # the constraint read with the second "e" exited UNSAT
            ("query", '"e": "6"', '"e": "6", "e": "100"'),
        ],
    )
    def test_repeated_key_is_invalid_input(self, choice_files, capsys, which, old, new):
        model, query, tmp = choice_files
        path = {"model": model, "query": query}[which]
        text = json.dumps(json.loads(path.read_text()))
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        code = main(["check", str(model), str(query), "--out", str(tmp / "r")])
        assert code == EXIT_INVALID
        assert "given twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "example_name, objective, edit",
        [
            # the second entry used to win: E = 9, VaR = CVaR = 0, exit 0
            (
                "choice",
                "reach",
                lambda doc: doc["next_move"].append({"state": "s0", "memory": "search", "move": {"b": "1"}}),
            ),
            (
                "slow(1/8)",
                "mean",
                lambda doc: doc["memory_update"].append(dict(doc["memory_update"][0], dist=[["search", "1"]])),
            ),
            ("choice", "reach", lambda doc: doc["initial_memory"].append(doc["initial_memory"][0])),
        ],
        ids=["next_move", "memory_update", "initial_memory"],
    )
    def test_repeated_strategy_entry_is_invalid_input(self, tmp_path, capsys, example_name, objective, edit):
        model, query = tmp_path / "m.json", tmp_path / "q.json"
        assert main(["generate", "--example", example_name, str(model), str(query)]) == EXIT_SAT
        assert main(["check", str(model), str(query), "--out", str(tmp_path / "w")]) == EXIT_SAT
        doc = json.loads((tmp_path / "w.witness.json").read_text())
        edit(doc)
        strat = tmp_path / "twice.json"
        strat.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", str(model), str(strat), "--objective", objective]) == EXIT_INVALID
        assert "given twice" in capsys.readouterr().err


def test_import_does_not_load_numpy():
    # numpy serves only the Monte Carlo sampler: the exact library and every
    # other command start without it
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, cvarmdp, cvarmdp.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out == "False\n"


class TestSimulate:
    def test_exact_and_empirical_columns(self, choice_files, capsys):
        model, _, tmp = choice_files
        sigma = memoryless({"s0": {"a": F(3, 4), "b": F(1, 4)}})
        strat = tmp / "sigma.json"
        strat.write_text(S.strategy_to_json(sigma))
        csv_path = tmp / "runs.csv"
        code = main(
            [
                "simulate",
                str(model),
                str(strat),
                "--runs",
                "400",
                "--horizon",
                "50",
                "--burn-in",
                "0",
                "--seed",
                "5",
                "--csv",
                str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        assert "E~" in out
        assert csv_path.read_text().startswith("run,payoff")

    def test_negative_seed_is_invalid_input(self, choice_files, gamble_file, capsys):
        # numpy's SeedSequence raises ValueError on it, which exits 70
        code = main(["simulate", str(choice_files[0]), str(gamble_file), "--seed", "-1"])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: seed must be >= 0\n"


def test_simulate_without_numpy(choice_files, gamble_file, monkeypatch, capsys):
    # numpy is an optional dependency of the sampler alone: its absence is
    # EX_UNAVAILABLE (69), not an internal error
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "cvarmdp.simulate", raising=False)
    assert main(["simulate", str(choice_files[0]), str(gamble_file)]) == 69
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cvarmdp simulate needs numpy, which is not installed\n"


class TestMec:
    def test_prints_decomposition(self, choice_files, capsys):
        model, _, _ = choice_files
        assert main(["mec", str(model)]) == EXIT_SAT
        out = capsys.readouterr().out
        assert "3 maximal end component(s)" in out


class TestGenerate:
    def test_example_instance(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        query = tmp_path / "q.json"
        code = main(["generate", "--example", "choice", str(model), str(query)])
        assert code == EXIT_SAT
        assert S.model_from_json(model.read_text()).initial == "s0"
        S.query_from_json(query.read_text())

    def test_random_instance(self, tmp_path):
        model = tmp_path / "m.json"
        code = main(
            ["generate", "--random", "--states", "5", "--seed", "3", str(model)]
        )
        assert code == EXIT_SAT
        S.model_from_json(model.read_text())

    def test_random_with_query_file_is_a_usage_error(self, tmp_path, capsys):
        model, query = tmp_path / "m.json", tmp_path / "q.json"
        assert main(["generate", "--random", str(model), str(query)]) == 64
        assert capsys.readouterr().err == "error: a query file needs --example; --random writes only a model\n"
        assert not model.exists() and not query.exists()

    def test_unknown_example_invalid(self, tmp_path):
        assert main(["generate", "--example", "nope", str(tmp_path / "m.json")]) == EXIT_INVALID

    @pytest.mark.parametrize("name", ["slow(1/0)", "slow(abc)"])
    def test_malformed_slow_parameter_invalid(self, tmp_path, name):
        assert main(["generate", "--example", name, str(tmp_path / "m.json")]) == EXIT_INVALID

    def test_empty_reward_range_invalid(self, tmp_path, capsys):
        argv = ["generate", "--random", "--reward-lo", "5", "--reward-hi", "1", str(tmp_path / "m.json")]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "invalid input: reward range 5..1 is empty\n"
        assert not (tmp_path / "m.json").exists()


class TestUnwritableOutput:
    """An output path that cannot be written exits 73 (EX_CANTCREAT) with
    one line naming it, never as an internal error."""

    def test_check_writes_before_reporting(self, choice_files, capsys):
        model, query, tmp = choice_files
        prefix = tmp / "missing" / "run"
        code = main(["check", str(model), str(query), "--out", str(prefix)])
        assert code == cli.EXIT_CANTCREAT == 73
        captured = capsys.readouterr()
        assert captured.out == ""  # no verdict without its certificate
        assert captured.err == f"cannot write {prefix}.certificate.json: No such file or directory\n"

    @pytest.mark.parametrize("flags", [["--example", "choice"], ["--random"]])
    def test_generate(self, tmp_path, capsys, flags):
        out = tmp_path / "missing" / "m.json"
        assert main(["generate", *flags, str(out)]) == 73
        assert capsys.readouterr().err == f"cannot write {out}: No such file or directory\n"

    def test_generate_query(self, tmp_path, capsys):
        model, query = tmp_path / "m.json", tmp_path / "missing" / "q.json"
        assert main(["generate", "--example", "choice", str(model), str(query)]) == 73
        assert capsys.readouterr().err == f"cannot write {query}: No such file or directory\n"

    def test_gadget_sat(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        model = tmp_path / "missing" / "m.json"
        assert main(["gadget-sat", str(cnf), str(model), str(tmp_path / "q.json")]) == 73
        assert capsys.readouterr().err == f"cannot write {model}: No such file or directory\n"

    def test_simulate_csv(self, choice_files, gamble_file, capsys):
        model, _, tmp = choice_files
        csv_path = tmp / "missing" / "runs.csv"
        argv = ["simulate", str(model), str(gamble_file), "--runs", "20", "--horizon", "5", "--burn-in", "0"]
        argv += ["--csv", str(csv_path)]
        assert main(argv) == 73
        assert capsys.readouterr().err == f"cannot write {csv_path}: No such file or directory\n"


class TestGadgetSat:
    def test_full_pipeline(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        model = tmp_path / "m.json"
        query = tmp_path / "q.json"
        assert main(["gadget-sat", str(cnf), str(model), str(query)]) == EXIT_SAT
        code = main(["check", str(model), str(query), "--out", str(tmp_path / "g")])
        assert code == EXIT_UNSAT

    @pytest.mark.parametrize(
        "text",
        ["p cnf 1 2\n1 0\n0\n", "p cnf x 1\n1 0\n", "p cnf 1 1\n1 a 0\n"],
        ids=["empty-clause", "non-integer-header", "non-integer-literal"],
    )
    def test_malformed_cnf_is_invalid_input(self, tmp_path, capsys, text):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text)
        code = main(["gadget-sat", str(cnf), str(tmp_path / "m.json"), str(tmp_path / "q.json")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid input:")
