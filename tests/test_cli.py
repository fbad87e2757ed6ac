import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from powermap import GaReport
from powermap.cli import main
from powermap.config import load_run_config, resolved_config_dict
from powermap.evaluate import score
from powermap.io import load_dictionary_arrays, load_dictionary_json
from powermap.knn import PredictorConfig
from powermap.oracle import OracleError
from powermap.special import NumericalError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, **overrides):
    data = {
        "search_space": {
            "coefficients": [{"lower": 0.1, "upper": 0.5, "step": 0.1}],
            "sample_size": {"lower": 20, "upper": 80, "step": 20},
        },
        "oracle": {
            "nsim": 40,
            "alpha": 0.05,
            "sigma2": 1.0,
            "scheme": "normal",
            "test": {"kind": "t_single", "tested_indices": [1]},
        },
        "ga": {"population_size": 8, "iterations": 3},
        "predictor": {"k": 3},
        "master_seed": 5,
        "oracle_seed": 77,
        "worker_count": 1,
        "output": {"directory": str(tmp_path / "out"), "prefix": "run"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestLearn:
    def test_writes_exports(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "-c", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "run_dictionary.csv").exists()
        assert (out / "run_dictionary.json").exists()
        report = json.loads((out / "run_report.json").read_text())
        assert report["oracle_queries"] >= 1
        assert sum(s["new_queries"] for s in report["per_iteration"]) == report["oracle_queries"]
        assert report["config"]["oracle"]["nsim"] == 40  # self-describing output

    def test_repeat_runs_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "-c", str(config)]) == 0
        first = (tmp_path / "out" / "run_dictionary.json").read_bytes()
        first_csv = (tmp_path / "out" / "run_dictionary.csv").read_bytes()
        assert main(["learn", "-c", str(config)]) == 0
        assert (tmp_path / "out" / "run_dictionary.json").read_bytes() == first
        assert (tmp_path / "out" / "run_dictionary.csv").read_bytes() == first_csv

    def test_missing_section_names_field(self, tmp_path, capsys):
        config = write_config(tmp_path)
        data = json.loads(config.read_text())
        del data["ga"]["population_size"]
        config.write_text(json.dumps(data))
        assert main(["learn", "-c", str(config)]) == 2
        assert "population_size" in capsys.readouterr().err

    def test_flag_overrides_win(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "-c", str(config), "--iterations", "1", "--prefix", "alt"]) == 0
        report = json.loads((tmp_path / "out" / "alt_report.json").read_text())
        assert report["config"]["ga"]["iterations"] == 1

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["learn", "-c", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_config_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        assert main(["learn", "-c", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: 'utf-8' codec" in err

    @pytest.mark.parametrize("named", ["top level", "oracle"])
    def test_flags_onto_malformed_config_exit_2(self, tmp_path, capsys, named):
        config = write_config(tmp_path, oracle="fast")
        if named == "top level":
            config.write_text("[1, 2]")
        assert main(["learn", "-c", str(config), "--nsim", "5", "--workers", "1"]) == 2
        assert named in capsys.readouterr().err


    @pytest.mark.parametrize(
        "named, section, value",
        [
            ("predictor.k", "predictor", {"k": 2.9}),
            ("oracle.nsim", "oracle", {"nsim": True}),
            ("ga.mutation_prob", "ga", {"mutation_prob": True}),
            ("worker_count", "worker_count", 1.7),
            ("oracle.scheme", "oracle", {"scheme": 5}),
            ("ga.iterations", "ga", {"iterations": "3"}),
            (
                "oracle.test.tested_indices",
                "oracle",
                {"test": {"kind": "t_single", "tested_indices": [1.9]}},
            ),
            (
                "search_space.coefficients[0].lower",
                "search_space",
                {
                    "coefficients": [{"lower": "0.1", "upper": 0.5, "step": 0.1}],
                    "sample_size": {"lower": 20, "upper": 80, "step": 20},
                },
            ),
        ],
    )
    def test_no_coercion_exit_2_naming_field(self, tmp_path, capsys, named, section, value):
        config = write_config(tmp_path, **{section: value})
        assert main(["learn", "-c", str(config)]) == 2
        assert f"{named}: expected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "named, section, make",
        [
            ("master_seed", "master_seed", lambda: list(range(1_000_000))),
            ("master_seed", "master_seed", lambda: "x" * 5_000_000),
            ("oracle.test", "oracle", lambda: {"test": {"kind": "t_single", "tested_indices": [1] * 1_000_000}}),
            ("oracle", "oracle", lambda: {"scheme": "x" * 5_000_000}),
            ("predictor", "predictor", lambda: {"metric": "x" * 5_000_000}),
            ("oracle.test", "oracle", lambda: {"test": {"kind": "x" * 5_000_000, "tested_indices": [1]}}),
        ],
        ids=["long-list", "long-string", "many-duplicates", "long-scheme", "long-metric", "long-kind"],
    )
    def test_long_bad_values_are_cut_in_messages(self, tmp_path, capsys, named, section, make):
        config = write_config(tmp_path, **{section: make()})
        assert main(["learn", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{named}: " in err
        assert len(err.encode()) < 1024
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal, value", [("NaN", float("nan")), ("Infinity", float("inf"))])
    def test_non_finite_selection_lambda_exits_2_before_queries(
        self, tmp_path, capsys, literal, value
    ):
        config = write_config(tmp_path, ga={"selection_lambda": value})
        assert f'"selection_lambda": {literal}' in config.read_text()
        assert main(["learn", "-c", str(config)]) == 2
        assert "ga: selection_lambda must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestLoadTimeModelChecks:
    """A config whose grid the model or scheme cannot fit exits 2 at load,
    naming the field, before any oracle query or output."""

    @pytest.mark.parametrize("command", ["learn", "brute-force"])
    @pytest.mark.parametrize(
        "named, section, value",
        [
            ("search_space.sample_size.lower", "search_space", {"sample_size": {"lower": 3, "upper": 200, "step": 5}}),
            ("oracle.scheme", "oracle", {"scheme": "experiment"}),
            ("oracle.test.tested_indices", "oracle", {"test": {"kind": "t_single", "tested_indices": [3]}}),
        ],
    )
    def test_exits_2_naming_field(self, tmp_path, capsys, command, named, section, value):
        data = json.loads((CONFIGS / "desk.json").read_text())
        data[section].update(value)
        data["output"] = {"directory": str(tmp_path / "out"), "prefix": "run"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert main([command, "-c", str(config)]) == 2
        assert f"{named}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestResolvedConfig:
    def test_desk_export_metadata_frozen(self):
        # The config block every desk export embeds, key order included.
        expected = {
            "search_space": {
                "coefficients": [
                    {"lower": 0.1, "upper": 0.3, "step": 0.05},
                    {"lower": 0.3, "upper": 0.9, "step": 0.05},
                ],
                "sample_size": {"lower": 50.0, "upper": 200.0, "step": 5.0},
            },
            "oracle": {
                "nsim": 200,
                "alpha": 0.05,
                "sigma2": 1.0,
                "scheme": "normal",
                "test": {"kind": "t_single", "tested_indices": [1]},
            },
            "predictor": {"k": 5, "metric": "normalized_euclidean"},
            "master_seed": 1,
            "oracle_seed": 2022,
            "output": {"directory": "runs/desk", "prefix": "desk"},
            "ga": {
                "population_size": 200,
                "iterations": 30,
                "selection_lambda": 1.0,
                "mutation_prob": 0.05,
            },
        }
        resolved = resolved_config_dict(load_run_config(CONFIGS / "desk.json"))
        assert json.dumps(resolved) == json.dumps(expected)


class TestBruteForce:
    def test_row_count_matches_grid(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["brute-force", "-c", str(config), "--prefix", "brute"]) == 0
        csv_lines = (tmp_path / "out" / "brute_dictionary.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 5 * 4  # header + grid size

    def test_budget_guard_refuses_with_size(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["brute-force", "-c", str(config), "--grid-budget", "3"]) == 2
        err = capsys.readouterr().err
        assert "20" in err and "budget" in err


class TestExitCodes:
    """Each documented exit code, reached through main: an `error:` line on
    stderr, never a traceback."""

    def test_missing_config_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["learn", "-c", str(missing)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_out_dir_that_is_a_file_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["brute-force", "-c", str(write_config(tmp_path)), "--out-dir", str(blocker)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err

    @pytest.mark.parametrize(
        "command, target, error",
        [("learn", "powermap.ga.run", OracleError), ("brute-force", "powermap.cli.brute_force_manifold", NumericalError)],
    )
    def test_runtime_failure_exits_3(self, tmp_path, capsys, monkeypatch, command, target, error):
        def fail(*args, **kwargs):
            raise error("simulated failure")

        monkeypatch.setattr(target, fail)
        assert main([command, "-c", str(write_config(tmp_path))]) == 3
        assert capsys.readouterr().err == "error: simulated failure\n"
        assert not (tmp_path / "out").exists()

    def test_learn_without_ga_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        data = json.loads(config.read_text())
        del data["ga"]
        config.write_text(json.dumps(data))
        assert main(["learn", "-c", str(config)]) == 2
        assert "error: ga: required section is missing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--master-seed", "-1", "master_seed: must be >= 0, got -1"), ("--workers", "0", "worker_count: must be >= 1, got 0")],
    )
    def test_flag_out_of_range_exits_2_naming_field(self, tmp_path, capsys, flag, value, message):
        assert main(["learn", "-c", str(write_config(tmp_path)), flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["ga", "predictor", "output", "metadata"])
def test_null_section_exits_2_naming_it(tmp_path, capsys, monkeypatch, section):
    """An explicit null is a mistyped section, not an absent one, in a
    config and in an export alike."""
    monkeypatch.chdir(tmp_path)  # the default output directory is relative
    if section == "metadata":
        assert main(["brute-force", "-c", str(write_config(tmp_path))]) == 0
        export = tmp_path / "out" / "run_dictionary.json"
        export.write_text(json.dumps({**json.loads(export.read_text()), "metadata": None}))
        argv = ["evaluate", "--ga", str(export), "--brute", str(export)]
    else:
        argv = ["learn", "-c", str(write_config(tmp_path, **{section: None}))]
    assert main(argv) == 2
    assert f"{section}: expected an object, got null\n" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("prefix", ["", "."])
def test_exports_land_inside_out_dir_whatever_the_prefix(tmp_path, monkeypatch, prefix):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out" / "d"
    assert main(["learn", "-c", str(write_config(tmp_path)), "--out-dir", str(out), "--prefix", prefix]) == 0
    names = ("dictionary.csv", "dictionary.json", "report.json")
    assert sorted(path.name for path in out.iterdir()) == sorted(f"{prefix}_{name}" for name in names)
    assert [path.name for path in (tmp_path / "out").iterdir()] == ["d"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("prefix", ["/abs/x", "../x", "a/"])
def test_prefix_with_a_path_separator_exits_2(tmp_path, monkeypatch, capsys, source, prefix):
    """A prefix that would put an export outside --out-dir, from --prefix or
    from output.prefix, exits 2 naming it, and nothing is written."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if prefix.startswith("/"):
        prefix = str(tmp_path / prefix[1:])
    if source == "flag":
        argv = ["learn", "-c", str(write_config(tmp_path)), "--prefix", prefix]
    else:
        argv = ["learn", "-c", str(write_config(tmp_path, output={"prefix": prefix}))]
    assert main(argv) == 2
    assert f"output: prefix must not contain a path separator, got {prefix!r}" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["config.json", "work"]


@pytest.mark.parametrize("reader", ["config", "export"])
@pytest.mark.parametrize("fault", ["not-json", "long-integer"])
def test_unreadable_json_exits_2_naming_the_file(tmp_path, capsys, reader, fault):
    """Invalid JSON, or an integer literal beyond Python's 4,300-digit
    conversion limit, is a validation error that names the file."""
    config = write_config(tmp_path)
    assert main(["brute-force", "-c", str(config)]) == 0
    export = tmp_path / "out" / "run_dictionary.json"
    target, number = (config, '"master_seed": 5,') if reader == "config" else (export, '"schema_version": 1,')
    text = target.read_text()
    assert text.count(number) == 1
    target.write_text("{not json" if fault == "not-json" else text.replace(number, number[:-2] + "9" * 5000 + ","))
    queries = tmp_path / "q.csv"
    queries.write_text("theta_1,n\n0.3,40\n")
    capsys.readouterr()
    argv = (
        ["learn", "-c", str(config)] if reader == "config"
        else ["predict", "--dictionary", str(export), "--queries", str(queries), "--out", str(tmp_path / "p.csv")]
    )
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: " + ("not valid JSON" if fault == "not-json" else ""))
    assert len(err.encode()) < 1024
    assert not (tmp_path / "p.csv").exists()


def test_unreachable_upper_bound_prints_a_note(tmp_path, capsys):
    config = write_config(tmp_path, search_space={"coefficients": [{"lower": 0.1, "upper": 0.55, "step": 0.1}]})
    assert main(["brute-force", "-c", str(config)]) == 0
    err = capsys.readouterr().err
    assert "note: theta_1 grid tops out at 0.5 (upper bound 0.55 is not reachable with step 0.1)" in err


def test_export_metadata_names_command_and_queries(tmp_path):
    config = str(write_config(tmp_path))
    out = tmp_path / "out"
    assert main(["learn", "-c", config]) == 0
    assert main(["brute-force", "-c", config, "--prefix", "brute"]) == 0
    _, genes, _, learned = load_dictionary_arrays(out / "run_dictionary.json")
    report = json.loads((out / "run_report.json").read_text())
    assert learned["command"] == "learn"
    assert learned["oracle_queries"] == report["oracle_queries"] == len(genes)
    space, genes, _, brute = load_dictionary_arrays(out / "brute_dictionary.json")
    assert brute["command"] == "brute-force"
    assert brute["oracle_queries"] == space.grid_size == len(genes) == 20


class TestPredict:
    @pytest.fixture()
    def brute_export(self, tmp_path):
        config = write_config(tmp_path)
        main(["brute-force", "-c", str(config), "--prefix", "brute"])
        return tmp_path / "out" / "brute_dictionary.json"

    def test_stored_point_with_k1_echoes_value(self, tmp_path, brute_export):
        d, space, _ = load_dictionary_json(brute_export)
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\n0.3,40\n")
        out = tmp_path / "pred.csv"
        code = main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out), "--k", "1",
        ])
        assert code == 0
        stored = d[space.snap([0.3, 40])]
        line = out.read_text().strip().splitlines()[1]
        assert line == f"0.300000,40.000000,{stored:.6f}"

    @pytest.mark.parametrize("key", ["genes", "power"])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, brute_export, capsys, key):
        """predict and evaluate name the entry."""
        payload = json.loads(brute_export.read_text())
        entry = payload["entries"][3]
        entry[key] = [10**400, *entry["genes"][1:]] if key == "genes" else 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\n0.3,40\n")
        capsys.readouterr()
        for argv in (
            ["predict", "--dictionary", str(bad), "--queries", str(queries), "--out", str(tmp_path / "p.csv")],
            ["evaluate", "--ga", str(brute_export), "--brute", str(bad)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"entries[3].{key}: an integer too large for a float" in err

    def test_empty_queries_gives_header_only(self, tmp_path, brute_export):
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\n")
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out),
        ]) == 0
        assert out.read_text().strip() == "theta_1,n,predicted_power"

    def test_malformed_row_exits_2(self, tmp_path, brute_export, capsys):
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\nnope,40\n")
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out),
        ]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_query_exits_2(self, tmp_path, brute_export, capsys, value):
        queries = tmp_path / "q.csv"
        queries.write_text(f"theta_1,n\n0.3,40\n{value},40\n")
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "finite" in err
        assert not out.exists()

    def test_queries_not_utf8_exit_2_naming_it(self, tmp_path, brute_export, capsys):
        queries = tmp_path / "q.csv"
        queries.write_bytes(b"theta_1,n\n0.3,40\n\xff,40\n")
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out),
        ]) == 2
        assert f"{queries}: 'utf-8' codec" in capsys.readouterr().err
        assert not out.exists()

    def test_bom_query_file_predicts_like_plain(self, tmp_path, brute_export):
        """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark."""
        rows = b"theta_1,n\n0.3,40\n0.25,50\n"
        outputs = []
        for name, text in (("plain", rows), ("bom", b"\xef\xbb\xbf" + rows)):
            queries, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_pred.csv"
            queries.write_bytes(text)
            assert main([
                "predict", "--dictionary", str(brute_export),
                "--queries", str(queries), "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_over_long_query_field_exits_2_naming_it(self, tmp_path, brute_export, capsys):
        """A field beyond csv.field_size_limit() (131,072 characters)."""
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\n0.3,40\n" + "1" * 200_000 + ",40\n")
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out),
        ]) == 2
        assert f"{queries}: line 3: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_query_lines_are_skipped(self, tmp_path, brute_export):
        outputs = []
        for name, text in (("plain", "theta_1,n\n0.3,40\n0.25,50\n"), ("blank", "theta_1,n\n\n0.3,40\n\n0.25,50\n\n")):
            queries, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_pred.csv"
            queries.write_text(text)
            assert main([
                "predict", "--dictionary", str(brute_export),
                "--queries", str(queries), "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "text, named",
        [
            ("theta_1,n\n0.3," + "x" * 100_000 + "\n", "line 2: could not convert string to float: 'xxx"),
            (",".join(f"c{j}" for j in range(100_000)) + "\n0.3,40\n", "header ['c0', 'c1'"),
        ],
        ids=["long-field", "long-header"],
    )
    def test_long_query_content_is_cut_in_messages(self, tmp_path, brute_export, capsys, text, named):
        queries = tmp_path / "q.csv"
        queries.write_text(text)
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{queries}: {named}" in err
        assert len(err.encode()) < 1024
        assert not out.exists()

    def test_k_below_one_exits_2_without_queries(self, tmp_path, brute_export, capsys):
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\n")
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out), "--k", "0",
        ]) == 2
        assert "k must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def _predict_from(self, tmp_path, payload):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\n0.3,40\n")
        return main([
            "predict", "--dictionary", str(broken),
            "--queries", str(queries), "--out", str(tmp_path / "pred.csv"), "--k", "1",
        ])

    def test_dictionary_without_entries_exits_2(self, tmp_path, brute_export, capsys):
        payload = json.loads(brute_export.read_text())
        del payload["entries"]
        assert self._predict_from(tmp_path, payload) == 2
        assert "entries" in capsys.readouterr().err

    def test_dictionary_not_json_exits_2_naming_it(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        queries = tmp_path / "q.csv"
        queries.write_text("theta_1,n\n")
        assert main([
            "predict", "--dictionary", str(broken),
            "--queries", str(queries), "--out", str(tmp_path / "pred.csv"),
        ]) == 2
        assert str(broken) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda entry: {k: v for k, v in entry.items() if k != "power"}, "entries[1].power: required field is missing"),
            (lambda entry: 7, "entries[1]: expected an object, got 7"),
        ],
        ids=["no-power", "a-number"],
    )
    def test_malformed_entry_exits_2_naming_it(self, tmp_path, brute_export, capsys, make, message):
        payload = json.loads(brute_export.read_text())
        payload["entries"][1] = make(payload["entries"][1])
        assert self._predict_from(tmp_path, payload) == 2
        assert message in capsys.readouterr().err

    def test_off_grid_genes_exit_2(self, tmp_path, brute_export, capsys):
        payload = json.loads(brute_export.read_text())
        payload["entries"] = [{"genes": [99, 99], "values": [0.3, 40.0], "power": 0.5}]
        assert self._predict_from(tmp_path, payload) == 2
        assert "off the 5 x 4 grid" in capsys.readouterr().err

    def test_batch_matches_library_predictions(self, tmp_path, brute_export):
        import numpy as np
        from powermap.knn import DictionaryIndex

        d, space, _ = load_dictionary_json(brute_export)
        rng = np.random.default_rng(0)
        queries = tmp_path / "q.csv"
        points = [
            (float(rng.uniform(0.1, 0.5)), float(rng.integers(20, 80)))
            for _ in range(20)
        ]
        queries.write_text(
            "theta_1,n\n" + "\n".join(f"{a},{b}" for a, b in points) + "\n"
        )
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--dictionary", str(brute_export),
            "--queries", str(queries), "--out", str(out), "--k", "3",
        ]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 20
        wants = DictionaryIndex(space, *d.arrays()).predict(points, 3, "normalized_euclidean")
        for line, want in zip(lines, wants):
            assert float(line.split(",")[-1]) == pytest.approx(want, abs=5e-7)


class TestEvaluate:
    def test_identical_exports_give_zero_rmse(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["brute-force", "-c", str(config), "--prefix", "brute"])
        brute = tmp_path / "out" / "brute_dictionary.json"
        assert main(["evaluate", "--ga", str(brute), "--brute", str(brute)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rmse_seen_only"] == 0.0
        assert payload["rmse_full_grid"] == 0.0
        assert payload["query_ratio"] == 1.0

    def test_k_below_one_exits_2_on_a_covered_grid(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["brute-force", "-c", str(config), "--prefix", "brute"])
        brute = tmp_path / "out" / "brute_dictionary.json"
        assert main(["evaluate", "--ga", str(brute), "--brute", str(brute), "--k", "0"]) == 2
        assert "k must be >= 1" in capsys.readouterr().err

    def test_pipeline_learn_then_evaluate(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["learn", "-c", str(config)]) == 0
        assert main(["brute-force", "-c", str(config), "--prefix", "brute"]) == 0
        out = tmp_path / "out"
        report_path = tmp_path / "eval.json"
        assert main([
            "evaluate",
            "--ga", str(out / "run_dictionary.json"),
            "--brute", str(out / "brute_dictionary.json"),
            "--k", "3",
            "--out", str(report_path),
        ]) == 0
        payload = json.loads(report_path.read_text())
        # learn and brute share oracle_seed 77: overlapping points agree exactly
        assert payload["rmse_seen_only"] == 0.0
        assert 0.0 < payload["query_ratio"] <= 1.0

    def test_desk_report_equals_chromosome_loop(self, tmp_path, capsys):
        """The report JSON of a desk learn scored against a brute-force export
        (at another nsim, so that seen points differ) has the bytes of the
        per-Chromosome reference loop's report."""
        from test_evaluate import reference_evaluate

        desk = str(CONFIGS / "desk.json")
        assert main(["learn", "-c", desk, "--out-dir", str(tmp_path), "--prefix", "run"]) == 0
        assert main(["brute-force", "-c", desk, "--nsim", "50", "--out-dir", str(tmp_path), "--prefix", "brute"]) == 0
        report = tmp_path / "eval.json"
        learned_path, brute_path = tmp_path / "run_dictionary.json", tmp_path / "brute_dictionary.json"
        assert main(["evaluate", "--ga", str(learned_path), "--brute", str(brute_path), "--out", str(report)]) == 0
        learned, space, metadata = load_dictionary_json(learned_path)
        brute, _, _ = load_dictionary_json(brute_path)
        ga = GaReport(learned, metadata["oracle_queries"], per_iteration=[], elapsed_seconds=0.0)
        want = reference_evaluate(ga, brute, space, PredictorConfig.k)
        assert want.rmse_seen_only > 0.0
        assert report.read_bytes() == (json.dumps(dataclasses.asdict(want), indent=1) + "\n").encode()

    def test_repeat_calls_match_fresh_processes(self, tmp_path, capsys):
        """main builds its parser once per process: an option given to one
        call must not carry over to the next."""
        config = write_config(tmp_path)
        assert main(["learn", "-c", str(config)]) == 0
        assert main(["brute-force", "-c", str(config), "--prefix", "brute"]) == 0
        out = tmp_path / "out"
        argv = ["evaluate", "--ga", str(out / "run_dictionary.json"),
                "--brute", str(out / "brute_dictionary.json")]
        capsys.readouterr()
        calls = (["--k", "3"], [])
        in_process = []
        for extra in calls:
            assert main(argv + extra) == 0
            in_process.append(capsys.readouterr().out)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "powermap.cli", *argv, *extra], capture_output=True,
                text=True, check=True, env={**os.environ, "PYTHONPATH": path},
            ).stdout
            for extra in calls
        ]
        assert in_process == fresh
        assert fresh[0] != fresh[1]  # k = 3 against the default k

    @pytest.mark.parametrize(
        "metadata, named",
        [
            (["x"], "metadata: expected an object"),
            ({"oracle_queries": True}, "metadata.oracle_queries"),
            ({"oracle_queries": -1}, "metadata.oracle_queries"),
            ({"oracle_queries": 19}, "metadata.oracle_queries"),  # the export has 20 entries
            ({"oracle_queries": 21}, "metadata.oracle_queries"),  # the grid has 20 points
            ({"oracle_queries": 10**400}, "metadata.oracle_queries"),
            ({"oracle_queries": -(10**400)}, "metadata.oracle_queries"),
        ],
    )
    def test_malformed_metadata_exits_2(self, tmp_path, capsys, metadata, named):
        config = write_config(tmp_path)
        main(["brute-force", "-c", str(config), "--prefix", "brute"])
        brute = tmp_path / "out" / "brute_dictionary.json"
        payload = json.loads(brute.read_text())
        payload["metadata"] = metadata
        learned = tmp_path / "learned.json"
        learned.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "--ga", str(learned), "--brute", str(brute)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert len(err.replace(str(learned), "")) < 200  # a long count is cut

    def test_config_metric_is_honoured(self, tmp_path, capsys):
        """A -c config's predictor.metric ranks the neighbours: the report
        equals score's under that predictor, and differs from the default
        metric's."""
        data = json.loads((CONFIGS / "desk.json").read_text())
        data["predictor"] = {"k": 3, "metric": "raw_euclidean"}
        data["output"] = {"directory": str(tmp_path), "prefix": "run"}
        config = tmp_path / "raw.json"
        config.write_text(json.dumps(data))
        assert main(["learn", "-c", str(config)]) == 0
        assert main(["brute-force", "-c", str(config), "--nsim", "50", "--prefix", "brute"]) == 0
        learned, brute = tmp_path / "run_dictionary.json", tmp_path / "brute_dictionary.json"
        argv = ["evaluate", "--ga", str(learned), "--brute", str(brute), "--out", str(tmp_path / "eval.json")]
        assert main([*argv, "-c", str(config)]) == 0
        raw = (tmp_path / "eval.json").read_bytes()
        space, genes, powers, metadata = load_dictionary_arrays(learned)
        _, brute_genes, brute_powers, _ = load_dictionary_arrays(brute)
        want = score(
            (genes, powers), (brute_genes, brute_powers), space,
            PredictorConfig(3, "raw_euclidean"), metadata["oracle_queries"],
        )
        assert raw == (json.dumps(dataclasses.asdict(want), indent=1) + "\n").encode()
        assert main([*argv, "--k", "3"]) == 0
        assert (tmp_path / "eval.json").read_bytes() != raw

    def test_mismatched_spaces_exit_2(self, tmp_path, capsys):
        config_a = write_config(tmp_path)
        main(["brute-force", "-c", str(config_a), "--prefix", "a"])
        other = tmp_path / "other"
        other.mkdir()
        config_b = write_config(
            other,
            search_space={
                "coefficients": [{"lower": 0.1, "upper": 0.9, "step": 0.1}],
                "sample_size": {"lower": 20, "upper": 80, "step": 20},
            },
        )
        main(["brute-force", "-c", str(config_b), "--prefix", "b"])
        assert main([
            "evaluate",
            "--ga", str(tmp_path / "out" / "a_dictionary.json"),
            "--brute", str(other / "out" / "b_dictionary.json"),
        ]) == 2
        assert "spaces" in capsys.readouterr().err


class TestWorkerDeterminism:
    def test_exports_identical_across_worker_counts(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "-c", str(config), "--workers", "1"]) == 0
        out = tmp_path / "out"
        stash = tmp_path / "stash"
        stash.mkdir()
        for name in ("run_dictionary.csv", "run_dictionary.json"):
            shutil.copy(out / name, stash / name)
        assert main(["learn", "-c", str(config), "--workers", "2"]) == 0
        for name in ("run_dictionary.csv", "run_dictionary.json"):
            assert (out / name).read_bytes() == (stash / name).read_bytes()


@pytest.mark.parametrize("reader", ["learn", "brute-force", "predict", "evaluate --ga", "evaluate --brute"])
def test_deeply_nested_json_exits_2_naming_it(tmp_path, capsys, reader):
    """JSON nested too deeply to decode is a validation error that names
    the file, whichever command reads it."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    export = tmp_path / "out" / "run_dictionary.json"
    queries = tmp_path / "q.csv"
    queries.write_text("theta_1,n\n0.3,40\n")
    argv = {
        "learn": ["learn", "-c", str(deep)],
        "brute-force": ["brute-force", "-c", str(deep)],
        "predict": ["predict", "--dictionary", str(deep), "--queries", str(queries), "--out", str(tmp_path / "p.csv")],
        "evaluate --ga": ["evaluate", "--ga", str(deep), "--brute", str(export)],
        "evaluate --brute": ["evaluate", "--ga", str(export), "--brute", str(deep)],
    }[reader]
    if reader.startswith("evaluate"):
        assert main(["brute-force", "-c", str(write_config(tmp_path))]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{deep}: JSON nested too deeply to decode" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_import_leaves_numpy_random_unloaded():
    """predict and evaluate never draw, so importing the CLI must not load
    numpy.random where numpy loads it lazily: it adds ~6 MB to a process's
    peak RSS, and start-up time to every command."""
    code = (
        "import sys, numpy; lazy = 'numpy.random' not in sys.modules; "
        "import powermap.cli; print(lazy, 'numpy.random' in sys.modules)"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert out != ["True", "True"]


def test_import_leaves_the_pool_stack_unloaded():
    """A fresh interpreter that imports the CLI and builds its parser loads
    neither concurrent.futures nor multiprocessing, which only a fan-out
    uses; a 2-worker evaluate_many after that still returns the 1-worker
    values."""
    code = (
        "import json, sys\n"
        "import powermap.cli\n"
        "powermap.cli.build_parser()\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing'))\n"
        "from powermap import OracleConfig, ParameterRange, PowerOracle, SearchSpace, TestSpec\n"
        "space = SearchSpace((ParameterRange(0.1, 0.3, 0.1),), ParameterRange(30, 100, 10))\n"
        "config = OracleConfig(50, 0.05, 1.0, TestSpec((1,), 't_single'))\n"
        "values = []\n"
        "for workers in (1, 2):\n"
        "    with PowerOracle(space, config, 17, worker_count=workers) as oracle:\n"
        "        values.append(oracle.evaluate_many(list(space.enumerate_grid())))\n"
        "print(json.dumps({'loaded': loaded, 'values': values}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout)
    assert out["loaded"] == []
    serial, fanned = out["values"]
    assert len(serial) == 24 and fanned == serial
