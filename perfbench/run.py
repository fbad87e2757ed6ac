"""powermap benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload desk-learn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --refresh-references

Run from anywhere inside a checkout; inputs, outputs and cached references
go to .perfbench/ at its root. The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CACHE = WORK / "cache"

SETUP_PROBES = 15
CLIENT_TIMEOUT_S = 150

PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import powermap.cli\n"
    "powermap.cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import powermap.cli and build
    its parser, after one unmeasured start that warms the file cache."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            fail(f"a fresh interpreter cannot import powermap.cli from {SRC}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_client(workload, out: Path, seconds: float, trace: bool) -> dict:
    plan = {
        "src": str(SRC),
        "commands": workload.commands,
        "out": str(out / "rounds"),
        "seconds": seconds,
        "trace": trace,
        "trace_dir": str(out / "trace-workers"),
    }
    plan_path, result_path = out / "plan.json", out / "result.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    with open(out / "client.log", "w") as log:
        try:
            code = subprocess.run([sys.executable, str(HERE / "client.py"), str(plan_path), str(result_path)],
                                  stdout=log, stderr=log, cwd=ROOT, timeout=CLIENT_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail(f"the client did not finish within {CLIENT_TIMEOUT_S} s; see {out / 'client.log'}")
    if code != 0:
        fail(f"the client exited {code}; see {out / 'client.log'}")
    return json.loads(result_path.read_text())


def layer_metrics(trace: dict, traced_rounds: list[dict], untraced: dict, import_s: float, ties: int) -> dict:
    """Per-layer metrics, per traced round."""
    rounds = len(traced_rounds)
    c = trace["counters"]
    workers = trace["workers"]

    def total(name: str) -> float:
        return (c.get(name, 0.0) + sum(w["counters"].get(name, 0.0) for w in workers)) / rounds

    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    oracle_child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
            if name.startswith("oracle."):
                oracle_child_time[parent] += end - start
    cli_self = sum(end - start - child_time[i] for i, (name, _, start, end) in enumerate(spans) if name == "cli.main")
    ga_own = sum(end - start - oracle_child_time[i] for i, (name, _, start, end) in enumerate(spans) if name == "ga.run")

    points = c.get("oracle.estimate_power.calls", 0.0) + len(workers)
    point_s = c.get("oracle.estimate_power.s", 0.0) + sum(w["end"] - w["start"] for w in workers)
    replications = c.get("oracle.replications", 0.0) + sum(w["nsim"] for w in workers)
    pool_start = 0.0
    for i, created in enumerate(trace["pools"]):
        until = trace["pools"][i + 1] if i + 1 < len(trace["pools"]) else float("inf")
        starts = [w["start"] for w in workers if created <= w["start"] < until]
        pool_start += min(starts) - created if starts else 0.0
    capacity = c.get("oracle.pooled_capacity_s", 0.0)
    members = c.get("ga.members_evaluated", 0.0)
    predictions = c.get("knn.nearest.calls", 0.0)
    traced_run_s = statistics.median(r["run_s"] for r in traced_rounds)
    values = {
        "cli.import_s": (import_s, "s"),
        "cli.command_s": (total("cli.main.s"), "s"),
        "cli.self_s": (cli_self / rounds, "s"),
        "grid.decode_calls": (total("grid.decode.calls"), "count"),
        "grid.enumerate_s": (total("grid.enumerate.s"), "s"),
        "special.cdf_calls": (total("special.cdf.calls"), "count"),
        "special.cdf_s": (total("special.cdf.s"), "s"),
        "regression.sample_calls": (total("regression.sample.calls"), "count"),
        "regression.sample_s": (total("regression.sample.s"), "s"),
        "regression.fit_calls": (total("regression.fit.calls"), "count"),
        "regression.fit_s": (total("regression.fit.s"), "s"),
        "regression.test_s": (total("regression.test.s"), "s"),
        "oracle.queries": (total("oracle.queries"), "count"),
        "oracle.point_ms": (1e3 * point_s / points if points else 0.0, "ms"),
        "oracle.replication_us": (1e6 * point_s / replications if replications else 0.0, "us"),
        "oracle.evaluate_many_s": (total("oracle.evaluate_many.s"), "s"),
        "oracle.pool_start_s": (pool_start / rounds, "s"),
        "oracle.worker_utilisation": (sum(w["cpu"] for w in workers) / capacity if capacity else 0.0, "ratio"),
        "oracle.worker_peak_rss_mb": (max((w["rss_kb"] for w in workers), default=0) / 1024.0, "MB"),
        "ga.generations": (total("ga.reproduce.calls"), "count"),
        "ga.members_evaluated": (members / rounds, "count"),
        "ga.memo_hit_ratio": ((members - c.get("ga.queries", 0.0)) / members if members else 0.0, "ratio"),
        "ga.duplicates": (total("ga.duplicates"), "count"),
        "ga.bookkeeping_s": (ga_own / rounds, "s"),
        "ga.operators_s": (total("ga.operators.s") + total("ga.reproduce.s"), "s"),
        "knn.index_build_ms": (1e3 * total("knn.index_build.s"), "ms"),
        "knn.predictions": (predictions / rounds, "count"),
        "knn.per_prediction_us": (1e6 * c.get("knn.nearest.s", 0.0) / predictions if predictions else 0.0, "us"),
        "knn.tie_mismatches": (ties / rounds, "count"),
        "evaluate.s": (total("evaluate.evaluate.s"), "s"),
        "evaluate.unseen_points": (total("evaluate.unseen_points"), "count"),
        "evaluate.brute_force_s": (total("evaluate.brute_force.s"), "s"),
        "io.load_s": (total("io.load.s"), "s"),
        "io.load_entries": (total("io.load_entries"), "count"),
        "io.export_s": (total("io.export.s"), "s"),
        "io.bytes_written": (total("io.bytes_written"), "B"),
        "io.predictions_write_s": (total("io.predictions_write.s"), "s"),
        "trace.overhead_s": (traced_run_s - untraced["run_s"], "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def refresh_references() -> None:
    """Recompute every cached reference and print, per exact surface, its
    largest numerical error estimate, absolute and as a share of the
    oracle's standard error at that point."""
    sys.path.insert(0, str(HERE))
    import numpy as np

    import reference
    import workloads

    shutil.rmtree(CACHE, ignore_errors=True)
    report = {}
    for name, second in (
        ("desk-learn", {"nodes x2": lambda b, n, s2, a: reference.desk_power(b, n, s2, a, nodes=384),
                        "normal-cdf route": reference.desk_power_normal_cdf}),
        ("interaction-brute", {"nodes 96->160": lambda b, n, s2, a: reference.interaction_power(b, n, s2, a, nodes=160)}),
    ):
        workload = workloads.WORKLOADS[name](ROOT, WORK / "refresh" / name, CACHE, 0, False)
        workload.work.mkdir(parents=True, exist_ok=True)
        workload.prepare()
        config = json.loads(workload.config_path.read_text())["oracle"]
        values = workloads._values(workload.space, workload.genes)
        beta = values[:, 0] if name == "desk-learn" else values[:, 2]
        pairs = sorted({(float(b), int(n)) for b, n in zip(beta, values[:, -1])})
        first = {"desk-learn": reference.desk_power, "interaction-brute": reference.interaction_power}[name]
        for label, other in second.items():
            exact = np.array([first(b, n, config["sigma2"], config["alpha"]) for b, n in pairs])
            alt = np.array([other(b, n, config["sigma2"], config["alpha"]) for b, n in pairs])
            se = np.sqrt(np.clip(exact * (1 - exact), 0.0, None) / config["nsim"])
            err = np.abs(exact - alt)
            # A value within 1e-12 of 0 or 1 has no Monte-Carlo spread to compare with.
            live = se > 1e-6
            report[f"{name}: {label}"] = {
                "points": len(pairs),
                "max_abs_error": float(err.max()),
                "max_error_over_se": float((err[live] / se[live]).max()),
            }
    print(json.dumps(report, indent=1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refresh-references", action="store_true",
                        help="recompute the cached exact references and print their error estimates")
    args = parser.parse_args()
    for needed in (SRC / "powermap" / "cli.py", ROOT / "configs" / "desk.json",
                   ROOT / "configs" / "interaction_study.json"):
        if not needed.is_file():
            fail(f"{needed} is missing; run from a powermap checkout")
    if args.refresh_references:
        refresh_references()
        return
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    out = WORK / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, out, CACHE, args.seed, bool(args.trace))
    workload.prepare()
    setup_s = None if args.trace else setup_seconds()
    result = run_client(workload, out, args.seconds, bool(args.trace))

    rounds = result["rounds"]
    attempted = failed = 0
    correct = True
    for r in rounds:
        for outcome in workload.check(Path(r["dir"]), r["codes"]):
            attempted += 1
            failed += outcome.failed
            for problem in outcome.problems:
                correct = False
                print(f"perfbench: {r['dir']}: {problem}", file=sys.stderr)
            if outcome.known_fault and r is rounds[0]:
                print(f"perfbench: known fault: {outcome.known_fault}", file=sys.stderr)
    if args.trace:
        traced = rounds[1:]
        log = result["trace"]["nearest"]
        ties = workload.audit_ties(Path(traced[-1]["dir"]), log)
        metrics = layer_metrics(result["trace"], traced, rounds[0], result["import_s"], ties)
        (out / "trace.json").write_text(json.dumps(result["trace"]))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
