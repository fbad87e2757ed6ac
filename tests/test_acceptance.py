"""End-to-end acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with its measured numbers.

The trend criteria (4-6) share one desk-scale experiment: a brute-forced
5 x 13 x 31 grid plus a (population size, iterations) sweep of the search,
five exploration seeds per cell, all sharing the brute-force oracle seed.

Takes ~8 s on 2 vCPUs, ~7 s of it in the shared sweep fixture. Run with
`pytest tests/test_acceptance.py -v -s` to watch progress.
"""

import json
import math
import shutil
import time
from dataclasses import dataclass

import numpy as np
import pytest

import powermap.ga
from powermap import (
    Chromosome,
    GaConfig,
    OracleConfig,
    ParameterRange,
    PowerOracle,
    SearchSpace,
    TestSpec,
    brute_force_manifold,
    estimate_power,
    evaluate,
    ols_fit,
    rmse,
    run,
    run_test,
    selection_probabilities,
)
from powermap.cli import main as cli_main
from powermap.evaluate import SweepRow, write_sweep_csv
from powermap.knn import NeighborQuery, k_nearest
from powermap.special import f_cdf, regularized_incomplete_beta, student_t_cdf

ORACLE_SEED = 20220905
GA_SEEDS = (101, 102, 103, 104, 105)
SWEEP_NS = (100, 400)
SWEEP_IS = (10, 50)
WORKERS = 4

# Frozen one-time reference: two-sided single-slope t test, effect 0.3,
# noise variance 1, n=100, regressor drawn iid standard normal -> random-design
# power, the noncentral-t tail with delta = 0.3*sqrt(S) and 98 degrees of
# freedom averaged over S ~ chi2(99) (quadrature).
NONCENTRAL_T_REFERENCE = 0.8332577
# 4 Monte-Carlo SE at nsim=10,000: 4 * sqrt(0.833 * 0.167 / 10_000).
REFERENCE_BAND = 0.015


def desk_space() -> SearchSpace:
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.10, 0.30, 0.05),
            ParameterRange(0.30, 0.90, 0.05),
        ),
        sample_size_range=ParameterRange(50, 200, 5),
    )


def desk_oracle_config() -> OracleConfig:
    return OracleConfig(
        nsim=200,
        alpha=0.05,
        sigma2=1.0,
        test=TestSpec((1,), "t_single"),
        scheme="normal",
    )


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def sign_test_p(successes: int, trials: int) -> float:
    """One-sided exact sign test: P(X >= successes) under fair coin."""
    return sum(math.comb(trials, j) for j in range(successes, trials + 1)) / 2**trials


@dataclass
class SweepData:
    grid_mean: float
    reports: dict  # (N, I, seed) -> EvaluationReport
    dict_means: dict  # (N, I, seed) -> mean dictionary power
    elapsed_seconds: float


@pytest.fixture(scope="module")
def desk_sweep(tmp_path_factory) -> SweepData:
    space = desk_space()
    config = desk_oracle_config()
    started = time.perf_counter()
    brute = brute_force_manifold(space, config, ORACLE_SEED, worker_count=WORKERS)
    grid_mean = float(np.mean(list(brute.values())))
    reports, dict_means = {}, {}
    for population_size in SWEEP_NS:
        for iterations in SWEEP_IS:
            for seed in GA_SEEDS:
                report = run(
                    space,
                    config,
                    GaConfig(
                        population_size=population_size,
                        iterations=iterations,
                        master_seed=seed,
                    ),
                    oracle_seed=ORACLE_SEED,
                    worker_count=WORKERS,
                )
                key = (population_size, iterations, seed)
                reports[key] = evaluate(report, brute, space, k=5)
                dict_means[key] = float(np.mean(list(report.dictionary.values())))
    elapsed = time.perf_counter() - started

    rows = []
    for population_size in SWEEP_NS:
        for iterations in SWEEP_IS:
            cell = [reports[(population_size, iterations, s)] for s in GA_SEEDS]
            rows.append(
                SweepRow(
                    population_size=population_size,
                    iterations=iterations,
                    oracle_queries=round(np.mean([r.ga_queries for r in cell])),
                    query_ratio=float(np.mean([r.query_ratio for r in cell])),
                    rmse_seen=float(np.mean([r.rmse_seen_only for r in cell])),
                    rmse_full=float(np.mean([r.rmse_full_grid for r in cell])),
                    elapsed_ms=elapsed * 1000 / len(reports),
                )
            )
    sweep_csv = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    write_sweep_csv(sweep_csv, rows)
    print(f"\nsweep summary written to {sweep_csv}")
    return SweepData(grid_mean, reports, dict_means, elapsed)


class TestCriterion1:
    def test_null_calibration(self):
        """Under a true null the estimated rejection probability is the test
        level, per seed and on average; single-threaded under 30 s."""
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.0, 0.0, 0.05),) * 3,
            sample_size_range=ParameterRange(100, 100, 5),
        )
        config = OracleConfig(
            nsim=1000,
            alpha=0.05,
            sigma2=1.0,
            test=TestSpec((1, 2, 3), "f_joint"),
            scheme="normal",
        )
        c = Chromosome((0, 0, 0, 0))
        started = time.perf_counter()
        estimates = [estimate_power(c, space, config, seed) for seed in range(1, 21)]
        elapsed = time.perf_counter() - started
        band = 0.021  # 3 * sqrt(0.05 * 0.95 / 1000)
        worst = max(abs(e - 0.05) for e in estimates)
        mean = float(np.mean(estimates))
        ok = worst <= band and abs(mean - 0.05) <= 0.005 and elapsed < 30
        criterion(
            1,
            ok,
            f"20 seeds, worst |estimate-0.05| = {worst:.4f} (band {band}), "
            f"mean = {mean:.4f} (band 0.005), {elapsed:.1f} s",
        )


class TestCriterion2:
    def test_analytic_power_cross_check(self):
        """A large-replication estimate agrees with the random-design
        noncentral-t reference for a single-slope model."""
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.3, 0.3, 0.05),),
            sample_size_range=ParameterRange(100, 100, 5),
        )
        config = OracleConfig(
            nsim=10_000,
            alpha=0.05,
            sigma2=1.0,
            test=TestSpec((1,), "t_single"),
            scheme="normal",
        )
        started = time.perf_counter()
        estimate = estimate_power(Chromosome((0, 0)), space, config, 7)
        elapsed = time.perf_counter() - started
        diff = abs(estimate - NONCENTRAL_T_REFERENCE)
        ok = diff <= REFERENCE_BAND and elapsed < 60
        criterion(
            2,
            ok,
            f"estimate {estimate:.4f} vs reference {NONCENTRAL_T_REFERENCE:.4f} "
            f"(|diff| = {diff:.4f} <= {REFERENCE_BAND}), {elapsed:.1f} s",
        )


class _RecordingOracle(PowerOracle):
    """Counts how many times each chromosome reaches the oracle."""

    calls: dict = {}

    def evaluate_many(self, chromosomes):
        for c in chromosomes:
            self.calls[c] = self.calls.get(c, 0) + 1
        return super().evaluate_many(chromosomes)


class TestCriterion3:
    def test_memoization_exactness(self, monkeypatch):
        """Across the whole desk run, every query count identity holds and no
        chromosome is ever re-queried."""
        _RecordingOracle.calls = {}
        monkeypatch.setattr(powermap.ga, "PowerOracle", _RecordingOracle)
        config = GaConfig(population_size=200, iterations=30, master_seed=1)
        report = run(desk_space(), desk_oracle_config(), config, oracle_seed=ORACLE_SEED)
        repeats = sum(v - 1 for v in _RecordingOracle.calls.values())
        bound = 200 * (30 + 1)
        ok = (
            report.oracle_queries == len(report.dictionary)
            and report.oracle_queries <= bound
            and repeats == 0
        )
        criterion(
            3,
            ok,
            f"queries {report.oracle_queries} == dictionary {len(report.dictionary)} "
            f"<= {bound}, re-queries {repeats}",
        )


class TestCriterion4:
    def test_rmse_trends(self, desk_sweep):
        """Full-grid RMSE strictly improves with more iterations at fixed
        population size and with a larger population at fixed iterations."""
        details = []
        ok = desk_sweep.elapsed_seconds < 900
        details.append(f"sweep elapsed {desk_sweep.elapsed_seconds:.0f} s < 900 s")

        def series(population_size, iterations):
            return np.array(
                [
                    desk_sweep.reports[(population_size, iterations, s)].rmse_full_grid
                    for s in GA_SEEDS
                ]
            )

        for population_size in SWEEP_NS:
            low, high = series(population_size, 10), series(population_size, 50)
            wins = int(np.sum(high < low))
            p = sign_test_p(wins, len(GA_SEEDS))
            ok &= high.mean() < low.mean() and p < 0.05
            details.append(
                f"N={population_size}: rmse {low.mean():.4f}->{high.mean():.4f}, "
                f"{wins}/5 seeds improve (p={p:.4f})"
            )
        for iterations in SWEEP_IS:
            small, large = series(100, iterations), series(400, iterations)
            wins = int(np.sum(large < small))
            p = sign_test_p(wins, len(GA_SEEDS))
            ok &= large.mean() < small.mean() and p < 0.05
            details.append(
                f"I={iterations}: rmse {small.mean():.4f}->{large.mean():.4f}, "
                f"{wins}/5 seeds improve (p={p:.4f})"
            )
        criterion(4, ok, "; ".join(details))


class TestCriterion5:
    def test_query_ratio_headline(self, desk_sweep):
        """The best sweep configuration reads less than half the grid while
        keeping full-grid RMSE low."""
        best = [desk_sweep.reports[(400, 50, s)] for s in GA_SEEDS]
        ratio = float(np.mean([r.query_ratio for r in best]))
        err = float(np.mean([r.rmse_full_grid for r in best]))
        ok = ratio < 0.5 and err < 0.15
        criterion(
            5,
            ok,
            f"N=400, I=50: mean query_ratio {ratio:.3f} < 0.5, "
            f"mean rmse_full_grid {err:.4f} < 0.15",
        )


class TestCriterion6:
    def test_high_power_bias(self, desk_sweep):
        """Dictionaries concentrate on the high-power region: their mean power
        exceeds the grid mean in nearly every run (pooled sign test)."""
        outcomes = [
            desk_sweep.dict_means[key] > desk_sweep.grid_mean
            for key in desk_sweep.dict_means
        ]
        wins, trials = sum(outcomes), len(outcomes)
        p = sign_test_p(wins, trials)
        ok = p < 0.05
        criterion(
            6,
            ok,
            f"dictionary mean > grid mean ({desk_sweep.grid_mean:.4f}) in "
            f"{wins}/{trials} runs (sign test p={p:.2e})",
        )


class TestCriterion7:
    def test_determinism_under_parallelism(self, tmp_path):
        """One config, one seed: exports are byte-identical for 1 and 4
        workers."""
        out_dir = tmp_path / "out"
        config = {
            "search_space": {
                "coefficients": [
                    {"lower": 0.10, "upper": 0.30, "step": 0.05},
                    {"lower": 0.30, "upper": 0.90, "step": 0.05},
                ],
                "sample_size": {"lower": 50, "upper": 200, "step": 5},
            },
            "oracle": {
                "nsim": 200,
                "alpha": 0.05,
                "sigma2": 1.0,
                "scheme": "normal",
                "test": {"kind": "t_single", "tested_indices": [1]},
            },
            "ga": {"population_size": 100, "iterations": 10},
            "predictor": {"k": 5},
            "master_seed": 101,
            "oracle_seed": ORACLE_SEED,
            "output": {"directory": str(out_dir), "prefix": "det"},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        names = ("det_dictionary.csv", "det_dictionary.json")

        assert cli_main(["learn", "-c", str(config_path), "--workers", "1"]) == 0
        stash = tmp_path / "stash"
        stash.mkdir()
        for name in names:
            shutil.copy(out_dir / name, stash / name)
        assert cli_main(["learn", "-c", str(config_path), "--workers", "4"]) == 0
        identical = all(
            (out_dir / name).read_bytes() == (stash / name).read_bytes()
            for name in names
        )
        criterion(7, identical, "dictionary exports byte-identical for 1 vs 4 workers")


class TestCriterion8:
    def test_unit_property_identities(self):
        """Representative instances of every library identity at its stated
        tolerance (the per-module suites cover the full breadth)."""
        rng = np.random.default_rng(88)
        checks = []

        # softmax: normalization and shift invariance
        fitness = rng.random(50)
        probs = selection_probabilities(fitness, 1.0)
        shifted = selection_probabilities(fitness + 0.37, 1.0)
        checks.append(abs(probs.sum() - 1.0) <= 1e-12)
        checks.append(bool(np.allclose(probs, shifted, atol=1e-12)))

        # OLS: orthogonality and agreement with the normal-equations oracle
        X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
        y = X @ rng.uniform(-1, 1, 4) + rng.standard_normal(60)
        fit = ols_fit(X, y)
        residuals = y - X @ fit.coefficients
        scale = np.linalg.norm(X, axis=0) * np.linalg.norm(y)
        checks.append(bool(np.all(np.abs(X.T @ residuals) <= 1e-8 * scale)))
        oracle_coef = np.linalg.solve(X.T @ X, X.T @ y)
        checks.append(bool(np.allclose(fit.coefficients, oracle_coef, atol=1e-8)))

        # F = t^2 for a single tested coefficient
        t_res = run_test(fit, TestSpec((2,), "t_single"), alpha=0.05)
        restricted = ols_fit(X[:, [0, 1, 3]], y)
        f_res = run_test(
            fit, TestSpec((2,), "f_joint"), alpha=0.05, restricted_sse=restricted.sse
        )
        checks.append(abs(f_res.statistic - t_res.statistic**2) <= 1e-9 * max(1, f_res.statistic))
        checks.append(abs(f_res.p_value - t_res.p_value) <= 1e-9)

        # t/F CDFs: symmetry, monotonicity, table spot checks at 1e-4
        xs = np.linspace(-6, 6, 25)
        checks.append(
            all(abs(student_t_cdf(-x, 17) - (1 - student_t_cdf(x, 17))) <= 1e-12 for x in xs)
        )
        t_vals = [student_t_cdf(x, 17) for x in xs]
        f_vals = [f_cdf(x, 4, 40) for x in np.linspace(0, 8, 25)]
        checks.append(all(a <= b for a, b in zip(t_vals, t_vals[1:])))
        checks.append(all(a <= b for a, b in zip(f_vals, f_vals[1:])))
        checks.append(abs(student_t_cdf(1.984, 100) - 0.9750016131) <= 1e-4)
        checks.append(abs(f_cdf(2.70, 3, 96) - 0.9500378354) <= 1e-4)
        checks.append(abs(regularized_incomplete_beta(2, 3, 0.25) - 0.26171875) <= 1e-10)

        # kNN equals an exhaustive sort
        from powermap import PowerDictionary

        space = desk_space()
        d = PowerDictionary()
        while len(d) < 60:
            c = space.random_chromosome(rng)
            if c not in d:
                d.insert(c, float(rng.random()))
        point = (0.22, 0.61, 117.0)
        got = k_nearest(d, space, NeighborQuery(point=point, k=7))
        spans = [r.upper - r.lower for r in space.ranges]
        rows = sorted(
            (
                math.sqrt(
                    sum(
                        ((v - q) / s) ** 2
                        for v, q, s in zip(space.decode(c), point, spans)
                    )
                ),
                c.genes,
            )
            for c in d.keys()
        )
        checks.append([nb.chromosome.genes for nb in got] == [r[1] for r in rows[:7]])

        # RMSE identities
        checks.append(rmse([0.1, 0.5], [0.1, 0.5]) == 0.0)
        checks.append(abs(rmse([0.0, 0.0], [0.3, 0.4]) - math.sqrt(0.125)) <= 1e-12)

        # decode/snap round trip
        checks.append(
            all(
                space.snap(space.decode(c)) == c
                for c in (space.random_chromosome(rng) for _ in range(200))
            )
        )

        ok = all(checks)
        criterion(8, ok, f"{sum(checks)}/{len(checks)} identity groups hold")
