#!/usr/bin/env python3
"""Time each layer of powermap on its own, and the desk runs end to end.

Writes BENCH_<label>.json at the repo root with the medians of REPEATS
runs per layer (E2E_REPEATS for the end-to-end runs), the time of one Tier-1
run, the git revision, the Python and numpy versions, the CPUs available,
and this process's peak RSS.
Seeds and inputs are fixed, so two checkouts measured on one machine compare
layer by layer. Run it on a clean checkout of a commit, so that git_rev names
the measured code.

Layers:
  oracle.desk_point_ms.n*         one estimate_power on the desk grid
                                  (t test, nsim 200) at n = 50, 100, 200
  oracle.interaction_point_ms.n*  one interaction-brute point (partial F test
                                  of slope 3, experiment scheme, nsim 1000)
                                  at n = 50, 500
  oracle.desk_generation_ms       PowerOracle.evaluate_many over a fixed
                                  10-point desk batch, the size of a desk GA
                                  generation's new members
  oracle.fanout_ms.w*             PowerOracle.evaluate_many over the 20-point
                                  interaction-brute sub-box with 1 and 2
                                  workers, the pool's start included
  oracle.interaction_minflt       minor page faults (ru_minflt) of one such
                                  evaluate_many at 1 worker, median
  ga.bookkeeping_ms               ga.run on the desk config with the oracle's
                                  batch function, estimate_many, stubbed by a
                                  cheap monotone surface
  ga.interaction_bookkeeping_ms   the same on the interaction config's GA
                                  (population 1,000, 10 iterations)
  knn.index_build_ms,             one DictionaryIndex over 325 desk entries,
  knn.predict_ms                  then one predict of the 1,690 other points
  knn.interaction_predict_ms      one predict of 1,000 off-grid points over
                                  6,000 entries of the 59,150-point
                                  interaction grid
                                  (each predict builds its index's entry
                                  groups, as each command's one predict does)
  io.export_ms, io.load_ms        JSON + CSV export, then JSON load (the
                                  loader the CLI calls), of a 2,015-entry
                                  desk dictionary
  io.interaction_load_ms          the JSON load of those 6,000 interaction
                                  entries, as predict reads them
  io.predictions_write_ms         write_predictions_csv of those 1,000
                                  points' predictions
  e2e.predict_ms                  `powermap predict`, in-process, of those
                                  1,000 points from those 6,000 entries
                                  exported as JSON
  e2e.learn_s, e2e.brute_force_s  `powermap learn` / `brute-force` on
                                  configs/desk.json, in-process
  e2e.interaction_brute_ms        `powermap brute-force` on perfbench's
                                  interaction-brute config (the 20-point
                                  sub-box, oracle seed 10,001), in-process,
                                  1 worker
  cold.import_ms,                 a fresh interpreter imports powermap.cli
  cold.import_peak_rss_mb         and builds its parser (perfbench's setup
                                  probe): wall time to its first line of
                                  output, and its peak RSS (VmHWM)
  cold.critical_values_ms         the desk's 31 critical values, with
                                  oracle.critical_value's cache cleared
  cold.learn_s                    a fresh interpreter runs `powermap learn`
                                  on configs/desk.json (E2E_REPEATS runs)

and, outside the medians:
  tier1_s, tier1_passed           one run of the Tier-1 test command in a
                                  fresh interpreter: seconds, tests passed

Run from a checkout (it imports that checkout's src/):
    python scripts/bench.py --label my-change
"""

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from powermap import (  # noqa: E402
    Chromosome,
    GaConfig,
    OracleConfig,
    ParameterRange,
    PowerDictionary,
    PowerOracle,
    SearchSpace,
    TestSpec,
    estimate_power,
    run,
)
from powermap import io as io_mod  # noqa: E402
from powermap import oracle as oracle_mod  # noqa: E402
from powermap.cli import main as cli_main  # noqa: E402
from powermap.config import load_run_config  # noqa: E402
from powermap.knn import DictionaryIndex  # noqa: E402

DESK = ROOT / "configs" / "desk.json"
INTERACTION = ROOT / "configs" / "interaction_study.json"
REPEATS = 15  # runs per layer
E2E_REPEATS = 3  # runs per end-to-end command


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    return parser.parse_args(argv)


def median_time(func, repeats: int) -> float:
    """Median wall seconds of repeats calls, after one warm-up call."""
    func()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def median_faults(func, repeats: int) -> float:
    """Median minor page faults of this process over repeats calls, after
    one warm-up call."""
    func()
    samples = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        func()
        samples.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(samples)


def interaction_subbox() -> tuple[SearchSpace, OracleConfig]:
    """The interaction-brute sub-box: interaction 0.05-0.50 at n = 50, 500."""
    space = SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.2, 0.2, 0.05),
            ParameterRange(0.6, 0.6, 0.05),
            ParameterRange(0.05, 0.50, 0.05),
        ),
        sample_size_range=ParameterRange(50, 500, 450),
    )
    return space, OracleConfig(1000, 0.05, 1.0, TestSpec((3,), "f_joint"), "experiment")


def oracle_layers(repeats: int) -> dict:
    desk = load_run_config(DESK)
    out = {}
    for n in (50, 100, 200):
        chromosome = Chromosome((2, 6, (n - 50) // 5))  # beta = (0.2, 0.6)
        seconds = median_time(lambda: estimate_power(chromosome, desk.space, desk.oracle, 2022), repeats)
        out[f"oracle.desk_point_ms.n{n}"] = 1e3 * seconds
    grid = list(desk.space.enumerate_grid())
    batch = [grid[i] for i in np.random.default_rng(0).choice(len(grid), 10, replace=False)]
    generation = PowerOracle(desk.space, desk.oracle, 2022)
    seconds = median_time(lambda: generation.evaluate_many(batch), repeats)
    out["oracle.desk_generation_ms"] = 1e3 * seconds
    space, config = interaction_subbox()
    for j, n in enumerate((50, 500)):
        chromosome = Chromosome((0, 0, 5, j))  # interaction 0.3
        seconds = median_time(lambda: estimate_power(chromosome, space, config, 10_001), repeats)
        out[f"oracle.interaction_point_ms.n{n}"] = 1e3 * seconds
    subbox = list(space.enumerate_grid())
    serial = PowerOracle(space, config, 10_001)
    out["oracle.interaction_minflt"] = median_faults(lambda: serial.evaluate_many(subbox), repeats)
    for workers in (1, 2):

        def fan_out():
            with PowerOracle(space, config, 10_001, worker_count=workers) as oracle:
                oracle.evaluate_many(subbox)

        out[f"oracle.fanout_ms.w{workers}"] = 1e3 * median_time(fan_out, repeats)
    return out


def ga_layer(repeats: int) -> dict:
    """ga.run on the desk and interaction configs with a stand-in oracle:
    power rising in the first slope and in n, like the real surface, at no
    simulation cost."""
    out = {}
    real = oracle_mod.estimate_many
    try:
        for name, path in (("ga.bookkeeping_ms", DESK), ("ga.interaction_bookkeeping_ms", INTERACTION)):
            loaded = load_run_config(path)
            counts = loaded.space.grid_counts
            scale = (counts[0] - 1) * (counts[-1] - 1)

            def stub(chromosomes, space, config, master_seed, scale=scale):
                return [c.genes[0] * c.genes[-1] / scale for c in chromosomes]

            oracle_mod.estimate_many = stub
            ga = GaConfig(loaded.ga.population_size, loaded.ga.iterations, master_seed=1)
            seconds = median_time(lambda: run(loaded.space, loaded.oracle, ga, oracle_seed=2022), repeats)
            out[name] = 1e3 * seconds
            if path == DESK:
                out["ga.bookkeeping_ms_per_generation"] = 1e3 * seconds / (ga.iterations + 1)
    finally:
        oracle_mod.estimate_many = real
    return out


def synthetic_dictionary(space: SearchSpace, size: int) -> PowerDictionary:
    grid = list(space.enumerate_grid())
    rng = np.random.default_rng(0)
    dictionary = PowerDictionary()
    for i in sorted(rng.choice(len(grid), size=size, replace=False)):
        dictionary.insert(grid[i], float(rng.random()))
    return dictionary


def knn_and_io_layers(repeats: int, scratch: Path) -> dict:
    space = load_run_config(DESK).space
    learned = synthetic_dictionary(space, 325)
    points = [space.decode(c) for c in space.enumerate_grid() if c not in learned]
    index = DictionaryIndex(space, *learned.arrays())
    predict_s = median_time(lambda: index.predict(points, 5, "normalized_euclidean"), repeats)
    wide = load_run_config(INTERACTION).space
    wide_dictionary = synthetic_dictionary(wide, 6000)
    wide_index = DictionaryIndex(wide, *wide_dictionary.arrays())
    lower, upper = (np.array([getattr(r, end) for r in wide.ranges]) for end in ("lower", "upper"))
    queries = lower + np.random.default_rng(1).random((1000, wide.dimension)) * (upper - lower)
    wide_s = median_time(lambda: wide_index.predict(queries, 5, "normalized_euclidean"), repeats)
    full = synthetic_dictionary(space, space.grid_size)
    json_path, csv_path = scratch / "bench_dictionary.json", scratch / "bench_dictionary.csv"

    def export():
        io_mod.export_dictionary_json(json_path, full, space, {"command": "bench"})
        io_mod.export_dictionary_csv(csv_path, full, space)

    wide_path, queries_path = scratch / "bench_interaction.json", scratch / "bench_queries.csv"
    io_mod.export_dictionary_json(wide_path, wide_dictionary, wide, {"command": "bench"})
    with open(queries_path, "w", newline="") as fh:
        csv.writer(fh).writerows([io_mod.dictionary_csv_header(wide)[:-1], *queries.tolist()])
    _, query_points = io_mod.load_queries_csv(queries_path, wide)
    predictions = wide_index.predict(query_points, 5, "normalized_euclidean")
    predictions_path = scratch / "bench_predictions.csv"
    argv = ["predict", "--dictionary", str(wide_path), "--queries", str(queries_path),
            "--out", str(predictions_path), "--k", "5"]

    def predict_command():
        with contextlib.redirect_stderr(io.StringIO()):
            if cli_main(argv) != 0:
                raise SystemExit("powermap predict failed")

    return {
        "knn.index_build_ms": 1e3 * median_time(lambda: DictionaryIndex(space, *learned.arrays()), repeats),
        "knn.predict_ms": 1e3 * predict_s,
        "knn.per_query_us": 1e6 * predict_s / len(points),
        "knn.interaction_predict_ms": 1e3 * wide_s,
        "io.export_ms": 1e3 * median_time(export, repeats),
        "io.load_ms": 1e3 * median_time(lambda: io_mod.load_dictionary_arrays(json_path), repeats),
        "io.interaction_load_ms": 1e3 * median_time(lambda: io_mod.load_dictionary_arrays(wide_path), repeats),
        "io.predictions_write_ms": 1e3 * median_time(
            lambda: io_mod.write_predictions_csv(predictions_path, wide, query_points, predictions), repeats
        ),
        "e2e.predict_ms": 1e3 * median_time(predict_command, repeats),
    }


def interaction_brute_config(scratch: Path) -> Path:
    """perfbench's interaction-brute config at its --seed 1: the shipped
    interaction study cut to the 20-point sub-box, the partial F test of the
    interaction, oracle seed 10,001 and no GA section."""
    config = json.loads(INTERACTION.read_text())
    config.pop("_comment", None)
    config.pop("ga", None)
    coefficients = config["search_space"]["coefficients"]
    coefficients[0] = {**coefficients[0], "lower": 0.2, "upper": 0.2}
    coefficients[1] = {**coefficients[1], "lower": 0.6, "upper": 0.6}
    config["search_space"]["sample_size"] = {"lower": 50, "upper": 500, "step": 450}
    config["oracle"]["test"] = {"kind": "f_joint", "tested_indices": [3]}
    config["oracle_seed"] = 10_001
    path = scratch / "interaction_brute.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


def end_to_end(repeats: int, e2e_repeats: int, scratch: Path) -> dict:
    """The desk learn and brute-force (e2e_repeats runs each), and the
    interaction-brute round (repeats runs), in-process."""
    interaction = str(interaction_brute_config(scratch))
    runs = [
        ("e2e.learn_s", 1.0, e2e_repeats, ["learn", "-c", str(DESK), "--prefix", "bench"]),
        ("e2e.brute_force_s", 1.0, e2e_repeats, ["brute-force", "-c", str(DESK), "--prefix", "bench"]),
        ("e2e.interaction_brute_ms", 1e3, repeats,
         ["brute-force", "-c", interaction, "--workers", "1", "--prefix", "brute"]),
    ]
    out = {}
    for name, unit, count, argv in runs:

        def once(argv=[*argv, "--out-dir", str(scratch)]):
            with contextlib.redirect_stderr(io.StringIO()):
                if cli_main(argv) != 0:
                    raise SystemExit(f"powermap {argv[0]} failed")

        out[name] = unit * median_time(once, count)
    return out


# Imports powermap.cli from the src/ in argv[1], builds the parser, then
# prints the process's peak RSS in KiB.
COLD_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import powermap.cli\n"
    "powermap.cli.build_parser()\n"
    "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')), flush=True)\n"
)
COLD_LEARN = "import sys; sys.path.insert(0, sys.argv[1]); from powermap.cli import main; sys.exit(main(sys.argv[2:]))"


def cold_layers(repeats: int, e2e_repeats: int, scratch: Path) -> dict:
    """What a fresh process pays before and for its work: the import probe
    (after one unmeasured start that warms the file cache), the desk's
    critical values from an empty cache, and a desk learn in a fresh
    interpreter."""
    src = str(ROOT / "src")
    seconds, peaks = [], []
    for i in range(repeats + 1):
        start = time.perf_counter()
        probe = subprocess.Popen([sys.executable, "-c", COLD_PROBE, src], stdout=subprocess.PIPE, text=True)
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.close()
        if probe.wait() != 0:
            raise SystemExit("a fresh interpreter could not import powermap.cli")
        if i:
            seconds.append(elapsed)
            peaks.append(int(line) / 1024)
    desk = load_run_config(DESK)
    sizes, p, k = desk.space.sample_size_range, desk.space.n_coefficients, len(desk.oracle.test.tested_indices)
    tests = [(k, int(sizes.value_at(i)) - p - 1, desk.oracle.alpha) for i in range(sizes.grid_count)]

    def critical_values():
        oracle_mod.critical_value.cache_clear()
        for test in tests:
            oracle_mod.critical_value(*test)

    argv = ["learn", "-c", str(DESK), "--out-dir", str(scratch), "--prefix", "cold"]
    learn = [sys.executable, "-c", COLD_LEARN, src, *argv]
    return {
        "cold.import_ms": 1e3 * statistics.median(seconds),
        "cold.import_peak_rss_mb": statistics.median(peaks),
        "cold.critical_values_ms": 1e3 * median_time(critical_values, repeats),
        "cold.learn_s": median_time(lambda: subprocess.run(learn, capture_output=True, check=True), e2e_repeats),
    }


def tier1() -> tuple[float, int]:
    """Wall seconds and pass count of one Tier-1 run in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"the Tier-1 suite failed:\n{result.stdout[-2000:]}")
    return seconds, int(re.findall(r"(\d+) passed", result.stdout)[-1])


def provenance() -> dict:
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "git_rev": result.stdout.strip() if result.returncode == 0 else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        layers = {
            **oracle_layers(REPEATS),
            **ga_layer(REPEATS),
            **knn_and_io_layers(REPEATS, scratch),
            **end_to_end(REPEATS, E2E_REPEATS, scratch),
            **cold_layers(REPEATS, E2E_REPEATS, scratch),
        }
    tier1_s, tier1_passed = tier1()
    payload = {
        "label": args.label,
        **provenance(),
        "repeats": REPEATS,
        "e2e_repeats": E2E_REPEATS,
        "medians": {name: round(value, 6) for name, value in layers.items()},
        "tier1_s": round(tier1_s, 3),
        "tier1_passed": tier1_passed,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
