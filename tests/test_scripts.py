import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from powermap import GaConfig, brute_force_manifold, run, score
from powermap.config import load_run_config
from powermap.knn import PredictorConfig

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_scores_under_the_config_metric(tmp_path):
    """run_sweep's rmse columns are score's under the config's predictor,
    here the raw metric, which ranks neighbours differently from the
    normalized one on this grid."""
    data = {
        "search_space": {
            "coefficients": [{"lower": 0.1, "upper": 0.5, "step": 0.1}],
            "sample_size": {"lower": 20, "upper": 80, "step": 20},
        },
        "oracle": {"nsim": 40, "test": {"kind": "t_single", "tested_indices": [1]}},
        "predictor": {"k": 2, "metric": "raw_euclidean"},
        "oracle_seed": 77,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sweep.csv"
    argv = ["-c", str(path), "--populations", "4", "--iterations", "2", "--seeds", "3", "--out", str(out)]
    assert load_script("run_sweep").main(argv) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    config = load_run_config(path)
    reference = brute_force_manifold(config.space, config.oracle, 77).arrays()
    report = run(config.space, config.oracle, GaConfig(4, 2, master_seed=3), oracle_seed=77)
    raw, normalized = (
        score(report.dictionary.arrays(), reference, config.space, PredictorConfig(2, metric), report.oracle_queries)
        for metric in ("raw_euclidean", "normalized_euclidean")
    )
    assert f"{raw.rmse_full_grid:.6f}" != f"{normalized.rmse_full_grid:.6f}"
    assert row["rmse_full"] == f"{raw.rmse_full_grid:.6f}"
    assert row["rmse_seen"] == f"{raw.rmse_seen_only:.6f}"


def test_bench_layers_run(tmp_path, monkeypatch):
    """One repeat of each layer of scripts/bench.py, the per-layer timing
    tool: every layer reads a positive, finite time (or peak RSS), but the
    page-fault count, which is a whole number and may be 0, and the GA
    layer puts back the oracle function it stubs. No BENCH file is
    written."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts its src/ first
    bench = load_script("bench")
    real = bench.oracle_mod.estimate_many
    layers = {
        **bench.oracle_layers(1),
        **bench.ga_layer(1),
        **bench.knn_and_io_layers(1, tmp_path),
        **bench.end_to_end(1, 1, tmp_path),
        **bench.cold_layers(1, 1, tmp_path),
    }
    assert len(layers) == 28
    faults = layers.pop("oracle.interaction_minflt")
    assert faults >= 0 and faults == int(faults)
    assert all(math.isfinite(value) and value > 0 for value in layers.values()), layers
    assert bench.oracle_mod.estimate_many is real


def test_perfbench_tracer_installs(tmp_path):
    """Every name the benchmark's tracer wraps still exists: a rename
    otherwise breaks only traced benchmark runs."""
    code = "import sys, trace_layers; trace_layers.Tracer(sys.argv[1]).install()"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "workers")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr


def test_perfbench_tracer_counts_a_learn(tmp_path):
    """A learn runs to the end with the benchmark's tracer installed, and
    the tracer's GA counters read what they read on the Chromosome-list
    loop: the tracer hashes the populations that initialize_population and
    crossover_best_two return, so their members must stay hashable."""
    config = {
        "search_space": {
            "coefficients": [{"lower": 0.1, "upper": 0.5, "step": 0.1}],
            "sample_size": {"lower": 20, "upper": 80, "step": 20},
        },
        "oracle": {"nsim": 40, "test": {"kind": "t_single", "tested_indices": [1]}},
        "ga": {"population_size": 12, "iterations": 4},
        "master_seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = (
        "import json, sys, trace_layers\n"
        "tracer = trace_layers.Tracer(sys.argv[1])\n"
        "tracer.install()\n"
        "from powermap import cli\n"
        "code = cli.main(['learn', '-c', sys.argv[2], '--out-dir', sys.argv[3]])\n"
        "print(json.dumps({'exit': code, **tracer.counters}))\n"
    )
    env_path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "workers"), str(path), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": env_path},
    )
    assert done.returncode == 0, done.stderr
    counters = json.loads(done.stdout.splitlines()[-1])
    assert counters["exit"] == 0
    assert counters["ga.duplicates"] == 43
    assert counters["ga.reproduce.calls"] == 4  # one per generation
    assert counters["ga.operators.calls"] == 9  # one initialize, four mutate and crossover
