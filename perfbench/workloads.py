"""The three workloads: generated inputs, the command sequence of one round,
the checks of each round's outputs, and the per-workload k-NN tie audit.

Each workload is a class with
    prepare()                 write inputs (from the seed), compute references
    commands                  argument lists for powermap.cli.main, "{round}"
                              standing for the round's output directory
    check(directory, codes)   one Outcome per operation of the round
    audit_ties(directory, log)
                              k-NN answers logged by the tracer that differ
                              from the documented neighbour rule
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

# False-alarm budget of the Monte-Carlo agreement checks, per run. Rounds of
# a run repeat the same seeds, so their outputs are identical and share one
# false-alarm event per distinct output.
RUN_ALPHA = 1e-3
# Agreement of two floating-point RMSE/mean computations of the same terms.
FLOAT_TOL = 1e-12
K = 5


@dataclass
class Outcome:
    problems: list[str]  # each one makes the run incorrect
    known_fault: str | None = None  # fails the operation, leaves the run correct

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.known_fault is not None


def _grid(counts) -> np.ndarray:
    return np.array(np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")).reshape(len(counts), -1).T


def _counts(space: dict) -> list[int]:
    ranges = space["coefficients"] + [space["sample_size"]]
    return [int(math.floor((r["upper"] - r["lower"]) / r["step"] + 1e-9)) + 1 for r in ranges]


def _values(space: dict, genes: np.ndarray) -> np.ndarray:
    ranges = space["coefficients"] + [space["sample_size"]]
    lowers = np.array([r["lower"] for r in ranges])
    steps = np.array([r["step"] for r in ranges])
    values = lowers + genes * steps
    values[:, -1] = np.rint(values[:, -1])
    return values


def _dictionary_json(path: Path, space: dict, genes: np.ndarray, powers: np.ndarray, command: str) -> None:
    values = _values(space, genes)
    payload = {
        "schema_version": 1,
        "search_space": space,
        "metadata": {"command": command, "oracle_queries": len(genes)},
        "entries": [
            {"genes": [int(x) for x in g], "values": [float(x) for x in v], "power": float(p)}
            for g, v, p in zip(genes, values, powers)
        ],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _load_entries(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    payload = json.loads(path.read_text())
    genes = np.array([e["genes"] for e in payload["entries"]], dtype=np.int64)
    powers = np.array([e["power"] for e in payload["entries"]], dtype=float)
    return payload, genes, powers


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cached(cache: Path, name: str, key: dict, compute) -> list[float]:
    """Reference values stored under cache/, recomputed when their inputs change."""
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    path = cache / f"{name}-{digest}.json"
    if path.exists():
        return json.loads(path.read_text())["values"]
    values = compute()
    cache.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "values": values}))
    return values


def _mc_problems(label: str, powers, exact, nsim: int, alpha: float) -> list[str]:
    result = reference.mc_agreement(np.asarray(powers), np.asarray(exact), nsim, alpha)
    if result["ok"]:
        return []
    return [f"{label}: values disagree with exact power: {result}"]


# ---------------------------------------------------------------- desk-learn


class DeskLearn:
    """learn on configs/desk.json as shipped for two exploration seeds that
    share its oracle seed, each export then scored by evaluate against the
    exact surface.

    Master seed 1 (the shipped one) does not depend on --seed; its evaluate
    is held to the exact tie rule. The seed-derived exploration seed's
    evaluate accepts any choice among neighbours tied exactly at the k-th
    distance.
    """

    def __init__(self, root: Path, work: Path, cache: Path, seed: int, trace: bool) -> None:
        self.config_path = root / "configs" / "desk.json"
        self.work, self.cache = work, cache
        self.seeds = [1, 1000 + abs(seed) % 1_000_000]
        self.exact_path = work / "exact_dictionary.json"

    def prepare(self) -> None:
        config = json.loads(self.config_path.read_text())
        self.space = config["search_space"]
        oracle = config["oracle"]
        self.nsim, alpha, sigma2 = oracle["nsim"], oracle["alpha"], oracle["sigma2"]
        if oracle["scheme"] != "normal" or oracle["test"] != {"kind": "t_single", "tested_indices": [1]}:
            raise SystemExit("desk-learn: the exact reference covers the normal-scheme t test on slope 1 only")
        if len(self.space["coefficients"]) != 2:
            raise SystemExit("desk-learn: the exact reference assumes two slopes")
        self.counts = _counts(self.space)
        self.genes = _grid(self.counts)
        values = _values(self.space, self.genes)
        pairs = sorted({(round(b, 12), int(n)) for b, n in zip(values[:, 0], values[:, -1])})
        key = {"pairs": pairs, "alpha": alpha, "sigma2": sigma2}
        table = _cached(
            self.cache, "desk-exact", key,
            lambda: [reference.desk_power(b, n, sigma2, alpha) for b, n in pairs],
        )
        lookup = dict(zip(pairs, table))
        self.exact = np.clip([lookup[(round(b, 12), int(n))] for b, n in zip(values[:, 0], values[:, -1])], 0.0, 1.0)
        self.flat = {tuple(g): i for i, g in enumerate(self.genes.tolist())}
        _dictionary_json(self.exact_path, self.space, self.genes, self.exact, "exact")
        self.alpha = RUN_ALPHA / len(self.seeds)
        # Self-test on the exact values at the points a desk learn visits.
        if not reference.shifted_surface_rejected(self.exact[:: max(1, len(self.exact) // 320)], self.nsim, self.alpha):
            raise SystemExit("desk-learn: the agreement check does not reject a 3-SE shift")

    @property
    def commands(self) -> list[list[str]]:
        out = []
        for m in self.seeds:
            out.append(["learn", "-c", str(self.config_path), "--master-seed", str(m),
                        "--workers", "1", "--out-dir", "{round}", "--prefix", f"m{m}"])
            out.append(["evaluate", "--ga", f"{{round}}/m{m}_dictionary.json",
                        "--brute", str(self.exact_path), "--k", str(K), "--out", f"{{round}}/m{m}_evaluate.json"])
        return out

    def check(self, directory: Path, codes: list[int]) -> list[Outcome]:
        outcomes = []
        for i, m in enumerate(self.seeds):
            learn, evaluate = Outcome([]), Outcome([])
            outcomes += [learn, evaluate]
            if codes[2 * i] != 0:
                learn.problems.append(f"learn m{m} exited {codes[2 * i]}")
                evaluate.problems.append("no learned export to evaluate")
                continue
            try:
                learn.problems += self._check_learn(directory, m)
            except (OSError, ValueError, KeyError) as exc:
                learn.problems.append(f"learn m{m}: unreadable output: {exc!r}")
                evaluate.problems.append("no learned export to evaluate")
                continue
            if codes[2 * i + 1] != 0:
                evaluate.problems.append(f"evaluate m{m} exited {codes[2 * i + 1]}")
                continue
            try:
                problems, fault = self._check_evaluate(directory, m, strict_ties=(m == 1))
            except (OSError, ValueError, KeyError) as exc:
                problems, fault = [f"evaluate m{m}: unreadable output: {exc!r}"], None
            evaluate.problems += problems
            evaluate.known_fault = fault
        return outcomes

    def _check_learn(self, directory: Path, m: int) -> list[str]:
        problems = []
        payload, genes, powers = _load_entries(directory / f"m{m}_dictionary.json")
        report = json.loads((directory / f"m{m}_report.json").read_text())
        per_iteration = sum(s["new_queries"] for s in report["per_iteration"])
        queries = {report["oracle_queries"], payload["metadata"]["oracle_queries"], len(genes), per_iteration}
        if len(queries) != 1:
            problems.append(f"m{m}: queries, entries and sum of new_queries differ: {sorted(queries)}")
        keys = [tuple(g) for g in genes.tolist()]
        if keys != sorted(set(keys)) or any(k not in self.flat for k in keys):
            problems.append(f"m{m}: entries are not distinct grid points in gene order")
            return problems
        if len(_csv_rows(directory / f"m{m}_dictionary.csv")) != len(keys) + 1:
            problems.append(f"m{m}: CSV export row count differs from the JSON export")
        exact = self.exact[[self.flat[k] for k in keys]]
        return problems + _mc_problems(f"m{m}", powers, exact, self.nsim, self.alpha)

    def _check_evaluate(self, directory: Path, m: int, strict_ties: bool) -> tuple[list[str], str | None]:
        _, genes, powers = _load_entries(directory / f"m{m}_dictionary.json")
        report = json.loads((directory / f"m{m}_evaluate.json").read_text())
        rows = [self.flat[tuple(g)] for g in genes.tolist()]
        size = len(self.genes)
        base = math.fsum((powers - self.exact[rows]) ** 2)
        seen_rmse = math.sqrt(base / len(rows))
        unseen = np.setdiff1d(np.arange(size), rows)
        pred, lo, hi, _ = reference.grid_fill_in(genes, powers, self.genes[unseen], self.counts, K)

        def rmse(fill):
            return math.sqrt((base + math.fsum((fill - self.exact[unseen]) ** 2)) / size)

        problems = []
        expect = {"rmse_seen_only": seen_rmse, "query_ratio": len(rows) / size,
                  "grid_size": size, "ga_queries": len(rows)}
        for name, value in expect.items():
            if abs(report[name] - value) > FLOAT_TOL:
                problems.append(f"evaluate m{m}: {name} = {report[name]!r}, expected {value!r}")
        got = report["rmse_full_grid"]
        if strict_ties:
            want = rmse(pred)
            if abs(got - want) > FLOAT_TOL:
                return problems, (f"evaluate m{m}: rmse_full_grid = {got!r}, the exact tie rule gives {want!r}"
                                  " (DictionaryIndex.nearest orders lattice ties by float rounding)")
            return problems, None
        gap_lo = np.where((lo <= self.exact[unseen]) & (self.exact[unseen] <= hi), 0.0,
                          np.minimum(np.abs(lo - self.exact[unseen]), np.abs(hi - self.exact[unseen])))
        gap_hi = np.maximum(np.abs(lo - self.exact[unseen]), np.abs(hi - self.exact[unseen]))
        low = math.sqrt((base + math.fsum(gap_lo**2)) / size)
        high = math.sqrt((base + math.fsum(gap_hi**2)) / size)
        if not low - FLOAT_TOL <= got <= high + FLOAT_TOL:
            problems.append(f"evaluate m{m}: rmse_full_grid = {got!r} outside the admissible [{low!r}, {high!r}]")
        return problems, None

    def audit_ties(self, directory: Path, log: list) -> int:
        """Neighbour sets from DictionaryIndex.nearest that differ from the
        exact rule, over the evaluate calls of every traced round (each round
        re-learns the same dictionaries, read back from the last round)."""
        lowers = np.array([r["lower"] for r in self.space["coefficients"] + [self.space["sample_size"]]])
        steps = np.array([r["step"] for r in self.space["coefficients"] + [self.space["sample_size"]]])
        mismatches, position = 0, 0
        while position < len(log):
            for m in self.seeds:
                _, genes, powers = _load_entries(directory / f"m{m}_dictionary.json")
                rows = [self.flat[tuple(g)] for g in genes.tolist()]
                unseen = np.setdiff1d(np.arange(len(self.genes)), rows)
                _, _, _, chosen = reference.grid_fill_in(genes, powers, self.genes[unseen], self.counts, K)
                block = log[position : position + len(unseen)]
                position += len(unseen)
                for (point, got), want, q in zip(block, chosen, self.genes[unseen]):
                    snapped = np.rint((np.array(point) - lowers) / steps).astype(np.int64)
                    if not np.array_equal(snapped, q):
                        raise SystemExit("desk-learn: k-NN log does not follow the unseen grid order")
                    if sorted(map(tuple, got)) != sorted(tuple(genes[i]) for i in want):
                        mismatches += 1
        return mismatches


# ------------------------------------------------------- interaction-brute


class InteractionBrute:
    """brute-force over a 20-point sub-box of the interaction grid, the
    partial F test of slope 3, nsim as shipped.

    Untraced runs use one worker: with two, run_s spread over 10% between
    runs on a 2-core machine. Traced runs use two, so that the pool's start,
    fan-out and worker memory are measured there.
    """

    sample_sizes = {"lower": 50, "upper": 500, "step": 450}

    def __init__(self, root: Path, work: Path, cache: Path, seed: int, trace: bool) -> None:
        self.shipped = root / "configs" / "interaction_study.json"
        self.src = root / "src"
        self.work, self.cache = work, cache
        self.seed = seed
        self.workers = 2 if trace else 1
        self.config_path = work / "brute.json"

    def prepare(self) -> None:
        config = json.loads(self.shipped.read_text())
        config.pop("_comment", None)
        coefficients = config["search_space"]["coefficients"]
        coefficients[0] = {"lower": 0.2, "upper": 0.2, "step": coefficients[0]["step"]}
        coefficients[1] = {"lower": 0.6, "upper": 0.6, "step": coefficients[1]["step"]}
        config["search_space"]["sample_size"] = dict(self.sample_sizes)
        config["oracle"]["test"] = {"kind": "f_joint", "tested_indices": [3]}
        config["oracle_seed"] = 10_000 + abs(self.seed) % 1_000_000
        config.pop("ga", None)
        self.config_path.write_text(json.dumps(config, indent=1) + "\n")
        self.space, oracle = config["search_space"], config["oracle"]
        self.nsim, alpha, sigma2 = oracle["nsim"], oracle["alpha"], oracle["sigma2"]
        if oracle["scheme"] != "experiment":
            raise SystemExit("interaction-brute: the exact reference covers the experiment scheme only")
        self.oracle_seed = config["oracle_seed"]
        self.counts = _counts(self.space)
        self.genes = _grid(self.counts)
        values = _values(self.space, self.genes)
        pairs = [(round(float(b), 12), int(n)) for b, n in zip(values[:, 2], values[:, 3])]
        key = {"pairs": pairs, "alpha": alpha, "sigma2": sigma2}
        self.exact = np.clip(_cached(
            self.cache, "interaction-exact", key,
            lambda: [reference.interaction_power(b, n, sigma2, alpha) for b, n in pairs],
        ), 0.0, 1.0)
        # Two points re-estimated in this process with one worker; the
        # exports must match them bit for bit.
        sample = np.random.default_rng([self.seed, 2]).choice(len(self.genes), size=2, replace=False)
        sys.path.insert(0, str(self.src))
        from powermap.config import load_run_config
        from powermap.grid import Chromosome
        from powermap.oracle import estimate_power

        config = load_run_config(self.config_path)
        self.resampled = {
            int(i): estimate_power(Chromosome(tuple(int(g) for g in self.genes[i])), config.space,
                                   config.oracle, config.resolved_oracle_seed)
            for i in sample
        }

    @property
    def commands(self) -> list[list[str]]:
        return [["brute-force", "-c", str(self.config_path), "--workers", str(self.workers),
                 "--out-dir", "{round}", "--prefix", "brute"]]

    def check(self, directory: Path, codes: list[int]) -> list[Outcome]:
        outcome = Outcome([])
        if codes[0] != 0:
            outcome.problems.append(f"brute-force exited {codes[0]}")
            return [outcome]
        try:
            payload, genes, powers = _load_entries(directory / "brute_dictionary.json")
            rows = _csv_rows(directory / "brute_dictionary.csv")
        except (OSError, ValueError, KeyError) as exc:
            outcome.problems.append(f"unreadable output: {exc!r}")
            return [outcome]
        if not np.array_equal(genes, self.genes) or len(rows) != len(self.genes) + 1:
            outcome.problems.append("the export does not hold every sub-box point exactly once")
            return [outcome]
        if payload["metadata"]["oracle_queries"] != len(self.genes):
            outcome.problems.append(f"oracle_queries = {payload['metadata']['oracle_queries']}")
        outcome.problems += _mc_problems("brute-force", powers, self.exact, self.nsim, RUN_ALPHA)
        for i, value in self.resampled.items():
            if powers[i] != value:
                outcome.problems.append(
                    f"point {self.genes[i].tolist()}: exported {powers[i]!r}, one-worker estimate {value!r}")
        return [outcome]

    def audit_ties(self, directory: Path, log: list) -> int:
        return 0


# ------------------------------------------------------ interaction-predict


class InteractionPredict:
    """predict from a synthetic 6,000-entry dictionary on the full interaction
    grid, for off-grid queries drawn uniformly in its box."""

    entries = 6000
    queries = 1000

    def __init__(self, root: Path, work: Path, cache: Path, seed: int, trace: bool) -> None:
        self.shipped = root / "configs" / "interaction_study.json"
        self.work, self.seed = work, seed
        self.dictionary_path = work / "dictionary.json"
        self.queries_path = work / "queries.csv"

    def prepare(self) -> None:
        self.space = json.loads(self.shipped.read_text())["search_space"]
        counts = _counts(self.space)
        rng = np.random.default_rng([self.seed, 3])
        flat = np.sort(rng.choice(math.prod(counts), size=self.entries, replace=False))
        self.genes = np.array(np.unravel_index(flat, counts)).T
        self.powers = rng.integers(0, 1001, size=self.entries) / 1000.0
        _dictionary_json(self.dictionary_path, self.space, self.genes, self.powers, "synthetic")
        ranges = self.space["coefficients"] + [self.space["sample_size"]]
        lowers = np.array([r["lower"] for r in ranges])
        uppers = np.array([r["upper"] for r in ranges])
        raw = lowers + rng.random((self.queries, len(ranges))) * (uppers - lowers)
        self.query_text = [[f"{v:.6f}" for v in row] for row in raw]
        header = [f"theta_{j + 1}" for j in range(len(ranges) - 1)] + ["n"]
        with open(self.queries_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(self.query_text)
        points = np.array([[float(v) for v in row] for row in self.query_text])
        self.lo, self.hi = reference.off_grid_predictions(
            _values(self.space, self.genes), self.powers, points, uppers - lowers, K)
        self.header = header + ["predicted_power"]

    @property
    def commands(self) -> list[list[str]]:
        return [["predict", "--dictionary", str(self.dictionary_path), "--queries", str(self.queries_path),
                 "--out", "{round}/predictions.csv", "--k", str(K), "--metric", "normalized_euclidean"]]

    def check(self, directory: Path, codes: list[int]) -> list[Outcome]:
        outcome = Outcome([])
        if codes[0] != 0:
            outcome.problems.append(f"predict exited {codes[0]}")
            return [outcome]
        try:
            rows = _csv_rows(directory / "predictions.csv")
        except OSError as exc:
            outcome.problems.append(f"unreadable output: {exc!r}")
            return [outcome]
        if rows[:1] != [self.header] or len(rows) != self.queries + 1:
            outcome.problems.append(f"output has header {rows[:1]} and {len(rows) - 1} rows")
            return [outcome]
        if [r[:-1] for r in rows[1:]] != self.query_text:
            outcome.problems.append("output rows do not echo the queries in order")
        got = np.array([float(r[-1]) for r in rows[1:]])
        # Predictions are written with six decimals.
        bad = np.flatnonzero((got < self.lo - 5.000001e-7) | (got > self.hi + 5.000001e-7))
        if len(bad):
            i = int(bad[0])
            outcome.problems.append(
                f"{len(bad)} predictions differ from the mean of the k nearest entries; "
                f"row {i + 2}: {got[i]} not in [{self.lo[i]}, {self.hi[i]}]")
        return [outcome]

    def audit_ties(self, directory: Path, log: list) -> int:
        """Predictions whose returned neighbours average outside the
        admissible range of the k nearest entries."""
        ranges = self.space["coefficients"] + [self.space["sample_size"]]
        spans = np.array([r["upper"] - r["lower"] for r in ranges])
        points = np.array([entry[0] for entry in log])
        lo, hi = reference.off_grid_predictions(_values(self.space, self.genes), self.powers, points, spans, K)
        index = {tuple(g): p for g, p in zip(self.genes.tolist(), self.powers)}
        got = np.array([math.fsum(index[tuple(g)] for g in entry[1]) / K for entry in log])
        return int(np.sum((got < lo - FLOAT_TOL) | (got > hi + FLOAT_TOL)))


WORKLOADS = {
    "desk-learn": DeskLearn,
    "interaction-brute": InteractionBrute,
    "interaction-predict": InteractionPredict,
}
