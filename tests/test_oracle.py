import copy
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import roots_legendre

import powermap.oracle as oracle_mod
from powermap import (
    Chromosome,
    GridError,
    OracleConfig,
    OracleError,
    ParameterRange,
    PowerOracle,
    SearchSpace,
    TestSpec,
    estimate_power,
    f_cdf,
    ols_fit,
    run_test,
)
from powermap.config import load_run_config
from powermap.regression import generate_mlr_sample

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Two-sided single-slope t test, beta=0.3, sigma2=1, n=100, regressor drawn
# iid standard normal: random-design power, the noncentral-t tail with
# noncentrality 0.3 * sqrt(S) averaged over S ~ chi2(99), 98 degrees of
# freedom (frozen one-time quadrature).
NONCENTRAL_T_REFERENCE = 0.8332577


def point_space(betas, n):
    return SearchSpace(
        coefficient_ranges=tuple(ParameterRange(b, b, 0.05) for b in betas),
        sample_size_range=ParameterRange(n, n, 5),
    )


def t_config(nsim, tested=1, scheme="normal"):
    return OracleConfig(
        nsim=nsim, alpha=0.05, sigma2=1.0, test=TestSpec((tested,), "t_single"),
        scheme=scheme,
    )


class TestEstimatePower:
    def test_null_rate_within_binomial_band(self):
        space = point_space([0.0], 100)
        estimate = estimate_power(Chromosome((0, 0)), space, t_config(1000), 11)
        assert abs(estimate - 0.05) <= 0.021  # 3 sigma at nsim=1000

    def test_granularity(self):
        space = point_space([0.2], 60)
        config = t_config(40)
        estimate = estimate_power(Chromosome((0, 0)), space, config, 3)
        assert estimate == pytest.approx(round(estimate * 40) / 40, abs=1e-15)
        assert 0.0 <= estimate <= 1.0

    def test_deterministic_and_order_free(self):
        space = point_space([0.25], 80)
        config = t_config(300)
        first = estimate_power(Chromosome((0, 0)), space, config, 99)
        second = estimate_power(Chromosome((0, 0)), space, config, 99)
        assert first == second

    def test_distinct_seeds_vary(self):
        space = point_space([0.25], 80)
        config = t_config(300)
        values = {estimate_power(Chromosome((0, 0)), space, config, s) for s in range(8)}
        assert len(values) > 1

    def test_matches_noncentral_t_reference(self):
        space = point_space([0.3], 100)
        estimate = estimate_power(Chromosome((0, 0)), space, t_config(10_000), 7)
        # 4 SE of a binomial share at nsim=10,000: 4 * sqrt(0.83 * 0.17 / 1e4)
        assert estimate == pytest.approx(NONCENTRAL_T_REFERENCE, abs=0.015)

    def test_overwhelming_effect_always_rejects(self):
        space = point_space([5.0], 100)
        estimate = estimate_power(Chromosome((0, 0)), space, t_config(500), 21)
        assert estimate == 1.0

    def test_f_joint_route(self):
        space = point_space([0.4, 0.0], 100)
        config = OracleConfig(
            nsim=500, alpha=0.05, sigma2=1.0,
            test=TestSpec((1, 2), "f_joint"), scheme="normal",
        )
        estimate = estimate_power(Chromosome((0, 0, 0)), space, config, 5)
        assert 0.9 < estimate <= 1.0  # beta_1=0.4 at n=100 is a strong effect

    def test_sample_size_precondition(self):
        space = point_space([0.1, 0.1, 0.1], 4)
        with pytest.raises(OracleError, match="sample size"):
            estimate_power(Chromosome((0,) * 4), space, t_config(10), 1)

    def test_tested_index_validated_against_space(self):
        space = point_space([0.1], 50)
        with pytest.raises(ValueError, match="exceed"):
            estimate_power(Chromosome((0, 0)), space, t_config(10, tested=2), 1)

    def test_experiment_scheme_validated_against_space(self):
        space = point_space([0.1, 0.1], 50)
        with pytest.raises(
            ValueError, match=r"^scheme: the experiment scheme requires exactly 3 coefficients, got 2$"
        ):
            estimate_power(Chromosome((0, 0, 0)), space, t_config(10, scheme="experiment"), 1)


class TestMonotoneCalibration:
    def test_power_increases_along_effect_and_sample_rays(self):
        """Averaged over 10 master seeds, estimated power is non-decreasing
        in the tested effect and in n, up to 2-sigma Monte-Carlo noise."""
        nsim, seeds = 200, range(10)
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.1, 0.5, 0.1),),
            sample_size_range=ParameterRange(20, 180, 40),
        )
        config = t_config(nsim)

        def mean_power(genes):
            c = Chromosome(genes)
            return np.mean([estimate_power(c, space, config, s) for s in seeds])

        sigma = np.sqrt(2 * 0.25 / (nsim * len(seeds)))  # worst-case p(1-p)
        along_beta = [mean_power((i, 2)) for i in range(5)]
        along_n = [mean_power((2, j)) for j in range(5)]
        for series in (along_beta, along_n):
            for lo, hi in zip(series, series[1:]):
                assert hi >= lo - 2 * sigma


class TestOracleConfigValidation:
    def test_bad_nsim(self):
        with pytest.raises(ValueError):
            OracleConfig(nsim=0, alpha=0.05, sigma2=1.0, test=TestSpec((1,), "t_single"))

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            OracleConfig(nsim=10, alpha=1.0, sigma2=1.0, test=TestSpec((1,), "t_single"))

    def test_bad_sigma2(self):
        with pytest.raises(ValueError):
            OracleConfig(nsim=10, alpha=0.05, sigma2=0.0, test=TestSpec((1,), "t_single"))

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            OracleConfig(
                nsim=10, alpha=0.05, sigma2=1.0,
                test=TestSpec((1,), "t_single"), scheme="lattice",
            )


class TestPowerOracle:
    def test_counter_increments_once_per_estimate(self):
        space = point_space([0.2], 50)
        with PowerOracle(space, t_config(20), 1) as oracle:
            assert oracle.total_queries == 0
            oracle.evaluate(Chromosome((0, 0)))
            assert oracle.total_queries == 1
            oracle.evaluate_many([Chromosome((0, 0)), Chromosome((0, 0))])
            assert oracle.total_queries == 3

    def test_worker_count_does_not_change_values(self):
        """24 points over 2 workers: chunks of 3 points per worker task."""
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.1, 0.3, 0.1),),
            sample_size_range=ParameterRange(30, 100, 10),
        )
        chroms = list(space.enumerate_grid())
        config = t_config(100)
        with PowerOracle(space, config, 17, worker_count=1) as serial:
            base = serial.evaluate_many(chroms)
        with PowerOracle(space, config, 17, worker_count=2) as parallel:
            fanned = parallel.evaluate_many(chroms)
        assert base == fanned

    def test_negative_seed_rejected(self):
        space = point_space([0.2], 50)
        with pytest.raises(ValueError):
            PowerOracle(space, t_config(20), -1)

    def test_worker_count_floor(self):
        with pytest.raises(ValueError, match="worker_count must be >= 1, got 0"):
            PowerOracle(point_space([0.2], 50), t_config(20), 1, worker_count=0)

    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, affinity):
        """The pool has min(worker_count, CPUs this process may use)
        processes; the chunks and the values do not change. A stub stands in
        for the pool and maps in this process."""
        pools, chunks = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def map(self, fn, parts):
                chunks.extend(parts)
                return map(fn, parts)

            def shutdown(self):
                pass

        monkeypatch.setattr(oracle_mod, "ProcessPoolExecutor", InProcessPool)
        if affinity:
            monkeypatch.setattr(oracle_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        else:
            monkeypatch.delattr(oracle_mod.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: 3)
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.1, 0.3, 0.1),),
            sample_size_range=ParameterRange(30, 100, 10),
        )
        chroms = list(space.enumerate_grid())
        with PowerOracle(space, t_config(20), 17) as serial:
            base = serial.evaluate_many(chroms)
        for workers, chunk_count in ((64, 24), (2, 8)):
            chunks.clear()
            with PowerOracle(space, t_config(20), 17, worker_count=workers) as oracle:
                assert oracle.evaluate_many(chroms) == base
            assert len(chunks) == chunk_count  # sized by worker_count
        assert pools == [3, 2]


def scalar_reject(X, y, config):
    """ols_fit + run_test's decision on one sample's rows."""
    keep = [0] + [j for j in range(1, X.shape[1]) if j not in config.test.tested_indices]
    fit = ols_fit(X, y)
    restricted = ols_fit(X[:, keep], y).sse if config.test.kind == "f_joint" else None
    return run_test(fit, config.test, config.alpha, restricted).reject


def decode_params(space, chromosome):
    """Decoded coefficient vector and integer sample size."""
    values = space.decode(chromosome)
    return values[:-1], int(values[-1])


def scalar_power(chromosome, space, config, seed):
    """Reference rejection share: one replication at a time through the
    public scalar path, rows drawn by generate_mlr_sample from one stream
    keyed on (seed, genes). The oracle draws other values; only the law of a
    replication is shared."""
    beta, n = decode_params(space, chromosome)
    rng = np.random.default_rng(np.random.SeedSequence((seed, *chromosome.genes)))
    rejections = 0
    for _ in range(config.nsim):
        X, y = generate_mlr_sample(beta, n, config.sigma2, config.scheme, rng)
        rejections += scalar_reject(X, y, config)
    return rejections / config.nsim


def streams(key):
    """The oracle's normal and chi-square generators for a seed key."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(key).spawn(2)]


def desk_space():
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.10, 0.30, 0.05),
            ParameterRange(0.30, 0.90, 0.05),
        ),
        sample_size_range=ParameterRange(50, 200, 5),
    )


def interaction_space():
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.2, 0.2, 0.05),
            ParameterRange(0.6, 0.6, 0.05),
            ParameterRange(0.05, 0.50, 0.05),
        ),
        sample_size_range=ParameterRange(50, 500, 450),
    )


KERNEL_CASES = [
    # desk t test on slope 1
    (desk_space(), t_config(200), (0, 3, 20)),
    (desk_space(), t_config(200), (2, 5, 10)),
    (desk_space(), t_config(200), (4, 12, 30)),
    (desk_space(), t_config(200, tested=2), (1, 0, 0)),
    # partial F test of the interaction, experiment scheme, n = 50 and 500
    (
        interaction_space(),
        OracleConfig(200, 0.05, 1.0, TestSpec((3,), "f_joint"), "experiment"),
        (0, 0, 3, 0),
    ),
    (
        interaction_space(),
        OracleConfig(200, 0.05, 1.0, TestSpec((3,), "f_joint"), "experiment"),
        (0, 0, 1, 1),
    ),
    # joint F test of both slopes with sigma2 != 1
    (
        desk_space(),
        OracleConfig(200, 0.05, 2.5, TestSpec((1, 2), "f_joint"), "normal"),
        (3, 7, 12),
    ),
    # the smallest residual df: n = p + 2, df = 1
    (point_space([0.9, 0.5], 4), t_config(200), (0, 0, 0)),
    (
        point_space([0.2, 0.6, 0.5], 5),
        OracleConfig(200, 0.05, 1.0, TestSpec((3,), "f_joint"), "experiment"),
        (0, 0, 0, 0),
    ),
    # sigma2 = 1e-8: a tested effect of 0.2 sigma beside an untested slope
    # 9,000 sigma wide
    (
        point_space([2e-5, 0.9], 100),
        OracleConfig(200, 0.05, 1e-8, TestSpec((1,), "t_single"), "normal"),
        (0, 0, 0),
    ),
    # experiment scheme at odd n, where the x1 = -1 half is one row shorter,
    # with the tested slopes last and then not last: the interaction, the
    # condition x1, the measure x2, and x2 with the interaction
    (
        point_space([0.2, 0.6, 0.3], 55),
        OracleConfig(200, 0.05, 1.0, TestSpec((3,), "f_joint"), "experiment"),
        (0, 0, 0, 0),
    ),
    (
        point_space([0.3, 0.6, 0.3], 77),
        OracleConfig(200, 0.05, 1.0, TestSpec((1,), "t_single"), "experiment"),
        (0, 0, 0, 0),
    ),
    (
        point_space([0.2, 0.2, 0.4], 101),
        OracleConfig(200, 0.05, 1.5, TestSpec((2,), "t_single"), "experiment"),
        (0, 0, 0, 0),
    ),
    (
        point_space([0.2, 0.15, 0.3], 63),
        OracleConfig(200, 0.05, 1.0, TestSpec((2, 3), "f_joint"), "experiment"),
        (0, 0, 0, 0),
    ),
]
EXPERIMENT_CASES = [case for case in KERNEL_CASES if case[1].scheme == "experiment"]


def row_halves(X, groups):
    """Experiment scheme: each half's sqrt(m) times the mean of x2, and its
    sum of squares of x2 about that mean, from one sample's rows, as two
    (2,) arrays, the x1 = -1 half first."""
    assert (X[:, 1] == np.repeat([-1.0, 1.0], groups)).all()
    halves = np.split(X[:, 2], groups[:1])
    means = [np.sqrt(len(half)) * half.mean() for half in halves]
    return np.array(means), np.array([np.sum((half - half.mean()) ** 2) for half in halves])


def factor_block(X, noise, point):
    """The tested block of one sample's factor, the bottom right
    (k+1) x (k+1) of the Cholesky factor of the Gram of its design
    [1, slopes in column order, e]."""
    design = np.column_stack([X[:, [0, *(j + 1 for j in point.order)]], noise])
    return np.linalg.cholesky(design.T @ design)[-point.tested - 1 :, -point.tested - 1 :]


class TestBatchedKernel:
    @pytest.mark.parametrize("space, config, genes", KERNEL_CASES)
    def test_equals_scalar_loop(self, space, config, genes):
        """Each replication's decision from its rows, through the kernel, is
        ols_fit + run_test's on the same rows, read off the tested block of
        the rows' exact factor. Under the experiment scheme the block's
        design part C comes from the halves' means and sums of squares
        through _design_factor, within 1e-9 of the exact C."""
        c = Chromosome(genes)
        point = oracle_mod._points([c], space, config)
        beta, n = decode_params(space, c)
        rng = np.random.default_rng(np.random.SeedSequence((7, *genes)))
        samples, halves, expected = [], [], []
        for _ in range(300):
            # generate_mlr_sample draws the noise first: a copy of the
            # stream gives the sample's e without rounding.
            noise = copy.deepcopy(rng).standard_normal(n)
            X, y = generate_mlr_sample(beta, n, config.sigma2, config.scheme, rng)
            samples.append(factor_block(X, noise, point))
            if config.scheme == "experiment":
                halves.append(row_halves(X, point.groups[:, 0, 0]))
            expected.append(scalar_reject(X, y, config))
        exact = np.stack(samples, axis=-1)[..., None, :]
        block = [list(row[: i + 1]) for i, row in enumerate(exact)]
        collinear = False
        if config.scheme == "experiment":
            k = point.tested
            means, squares = (np.stack(part, axis=-1)[:, None, :] for part in zip(*halves))
            design, collinear = oracle_mod._design_factor(means, squares, point)
            scale = np.abs(exact[:k, :k]).max(axis=(0, 1))
            assert [len(row) for row in design] == list(range(1, k + 1))
            for i, row in enumerate(design):
                assert (np.abs(np.array(row) - exact[i, : i + 1]) <= 1e-9 * scale).all()
            block = [*design, block[k]]
        reject, degenerate = oracle_mod._factor_rejections(block, point)
        assert not (degenerate | collinear).any()
        assert reject[0].tolist() == expected

    @pytest.mark.parametrize("space, config, genes", KERNEL_CASES)
    def test_chunking_does_not_change_values(self, space, config, genes, monkeypatch):
        """One replication per block, and all of nsim in one block."""
        c = Chromosome(genes)
        base = estimate_power(c, space, config, 3)
        for block_rows in (1, 1 << 40):
            monkeypatch.setattr(oracle_mod, "_BLOCK_ROWS", block_rows)
            assert estimate_power(c, space, config, 3) == base

    def test_critical_value_inverts_f_cdf(self):
        for k, df in ((1, 98), (3, 46), (2, 1)):
            crit = oracle_mod.critical_value(k, df, 0.05)
            assert f_cdf(crit, k, df) == pytest.approx(0.95, abs=1e-12)


def bisected_critical_value(k, df, alpha):
    """The reference: bisection on f_cdf, from [0, 1] doubled upward, down
    to two adjacent doubles."""
    target = 1.0 - alpha
    lo, hi = 0.0, 1.0
    while f_cdf(hi, k, df) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if f_cdf(mid, k, df) < target:
            lo = mid
        else:
            hi = mid


def config_tests(name):
    """(tested slopes, residual df, alpha) of every grid point of a shipped
    config, in sample-size order."""
    config = load_run_config(CONFIGS / name)
    sizes, p = config.space.sample_size_range, config.space.n_coefficients
    k = len(config.oracle.test.tested_indices)
    return [(k, int(sizes.value_at(i)) - p - 1, config.oracle.alpha) for i in range(sizes.grid_count)]


class TestCriticalValue:
    @pytest.mark.parametrize(
        "k, df, alpha",
        config_tests("desk.json") + config_tests("interaction_study.json")
        + [(1, 98, 0.05), (3, 46, 0.05), (2, 1, 0.05)],
    )
    def test_matches_bisection(self, k, df, alpha):
        """Every (k, df) the shipped configs reach: the Newton solve lands
        within 1e-12 of the value of the bisection's double."""
        crit = oracle_mod.critical_value(k, df, alpha)
        assert abs(crit - bisected_critical_value(k, df, alpha)) <= 1e-12 * crit

    @pytest.mark.parametrize(
        "alpha, most_calls",
        [(1e-6, 64), (0.001, 10), (0.01, 10), (0.05, 10), (0.1, 10), (0.5, 10), (0.9, 10), (0.99, 20)],
    )
    def test_safeguards_converge_off_the_configs(self, monkeypatch, alpha, most_calls):
        """Small df, many tested slopes and alphas far from 0.05, where the
        start is poorer and f_cdf coarser: the solve still ends within 10
        f_cdf calls (more at the two extreme alphas below), within 1e-8 of
        the bisection's value (f_cdf's own accuracy in the heavy tail of
        df = 1). At alpha = 1e-6, f_cdf's last
        digits near 1 - alpha are flat or noisy at small df, so some solves
        end on a bracket of two adjacent doubles, in no more calls than the
        bisection takes. At alpha = 0.99 neither start formula has a value
        for some (k, df), and the solve starts from 1."""
        calls = []
        monkeypatch.setattr(oracle_mod, "f_cdf", lambda *args: calls.append(args) or f_cdf(*args))
        for k in (1, 2, 3, 10, 30):
            for df in (1, 2, 3, 10, 100, 1000):
                calls.clear()
                crit = oracle_mod.critical_value.__wrapped__(k, df, alpha)
                assert len(calls) <= most_calls, (k, df)
                assert abs(crit - bisected_critical_value(k, df, alpha)) <= 1e-8 * crit, (k, df)

    def test_few_f_cdf_calls_per_cold_value(self, monkeypatch):
        """Each of the desk's 31 critical values, computed cold, takes at
        most 8 f_cdf calls (the bisection took about 55)."""
        calls = []
        monkeypatch.setattr(oracle_mod, "f_cdf", lambda *args: calls.append(args) or f_cdf(*args))
        oracle_mod.critical_value.cache_clear()
        for k, df, alpha in config_tests("desk.json"):
            calls.clear()
            oracle_mod.critical_value(k, df, alpha)
            assert 1 <= len(calls) <= 8, (k, df)


class TestStreams:
    @pytest.mark.parametrize(
        "key",
        [(0,), (2022, 2, 6, 0), (10_001, 0, 0, 5, 1, 17, 3), (2**32 - 1, 0), (2**32, 7), (3**50, 0, 1)],
    )
    def test_equal_the_spawned_children(self, key):
        """_streams builds SeedSequence(key).spawn(2)'s children directly."""
        for built, spawned in zip(oracle_mod._streams(key), streams(key)):
            assert built.standard_normal(64).tolist() == spawned.standard_normal(64).tolist()
            dfs = [1.0, 7.0, 99.0]
            assert built.chisquare(dfs, (8, 3)).tolist() == spawned.chisquare(dfs, (8, 3)).tolist()


class TestChiSquareDraw:
    """The identity the oracle's one draw routine rests on."""

    @pytest.mark.parametrize("df", [1, 2, 47, 497])
    def test_twice_a_gamma_is_the_chi_square(self, df):
        gamma, chi = np.random.default_rng(df), np.random.default_rng(df)
        assert (2.0 * gamma.standard_gamma(df / 2, (16, 3))).tolist() == chi.chisquare(df, (16, 3)).tolist()

    def test_zero_shape_is_zero_and_reads_no_bits(self):
        mixed, plain = np.random.default_rng(5), np.random.default_rng(5)
        draws = mixed.standard_gamma([0.5, 0.0, 1.5], (4, 3))
        assert draws[:, 1].tolist() == [0.0] * 4
        assert draws[:, [0, 2]].tolist() == plain.standard_gamma([0.5, 1.5], (4, 2)).tolist()
        assert mixed.standard_gamma(0.0) == 0.0
        assert mixed.standard_normal(8).tolist() == plain.standard_normal(8).tolist()


def small_n_space():
    """The interaction grid at n = 5, where the x1 = -1 half has two rows
    and a singular Wishart, and at n = 50."""
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.2, 0.2, 0.05),
            ParameterRange(0.6, 0.6, 0.05),
            ParameterRange(0.1, 0.5, 0.2),
        ),
        sample_size_range=ParameterRange(5, 50, 45),
    )


def few_rows_space():
    """The interaction model at n = 5, 6, 7 and 50 (sample-size genes 0, 1,
    2 and 45): at n = 5 the x1 = -1 half has two rows, at odd n it is one
    row shorter than the x1 = +1 half."""
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.2, 0.6, 0.4),
            ParameterRange(0.3, 0.6, 0.3),
            ParameterRange(0.1, 0.5, 0.2),
        ),
        sample_size_range=ParameterRange(5, 50, 1),
    )


# Mixed batches, each value the one estimate_power gives for its point alone
# (master seed 9): under the normal scheme since it draws the tested block of
# the factor, under the experiment scheme since it draws the halves' sums and
# the noise block.
BATCHES = [
    pytest.param(
        desk_space(), t_config(200),
        {(0, 3, 20): 0.135, (2, 5, 10): 0.45, (4, 12, 30): 0.995, (1, 0, 0): 0.14, (4, 12, 0): 0.49},
        id="desk",
    ),
    pytest.param(
        desk_space(), OracleConfig(200, 0.05, 2.5, TestSpec((1, 2), "f_joint"), "normal"),
        {(3, 7, 12): 0.975, (0, 0, 0): 0.23, (4, 12, 30): 1.0},
        id="two-slope-f",
    ),
    pytest.param(
        small_n_space(), OracleConfig(200, 0.05, 1.0, TestSpec((3,), "f_joint"), "experiment"),
        {(0, 0, 0, 0): 0.05, (0, 0, 2, 0): 0.085, (0, 0, 1, 1): 0.49, (0, 0, 2, 1): 0.9},
        id="experiment-n5-n50",
    ),
    pytest.param(
        few_rows_space(), OracleConfig(200, 0.05, 1.0, TestSpec((1,), "t_single"), "experiment"),
        {(1, 0, 2, 0): 0.03, (0, 1, 1, 1): 0.045, (1, 1, 0, 2): 0.1, (0, 0, 1, 45): 0.27, (1, 1, 2, 45): 0.995},
        id="experiment-slope-1",
    ),
    pytest.param(
        few_rows_space(), OracleConfig(200, 0.05, 1.3, TestSpec((2,), "t_single"), "experiment"),
        {(1, 0, 2, 0): 0.015, (0, 1, 1, 1): 0.09, (1, 1, 0, 2): 0.1, (0, 0, 1, 45): 0.455, (1, 1, 2, 45): 0.94},
        id="experiment-slope-2",
    ),
    pytest.param(
        few_rows_space(), OracleConfig(200, 0.05, 1.0, TestSpec((2, 3), "f_joint"), "experiment"),
        {(1, 0, 2, 0): 0.025, (0, 1, 1, 1): 0.11, (1, 1, 0, 2): 0.09, (0, 0, 1, 45): 0.695, (1, 1, 2, 45): 0.995},
        id="experiment-slopes-2-3",
    ),
    pytest.param(
        few_rows_space(), OracleConfig(200, 0.05, 1.0, TestSpec((1, 2, 3), "f_joint"), "experiment"),
        {(1, 0, 2, 0): 0.04, (0, 1, 1, 1): 0.105, (1, 1, 0, 2): 0.16, (0, 0, 1, 45): 0.785, (1, 1, 2, 45): 0.995},
        id="experiment-all-slopes",
    ),
]


class TestBatchIndependence:
    @pytest.mark.parametrize("space, config, values", BATCHES)
    @pytest.mark.parametrize("block_rows", [1, 7, oracle_mod._BLOCK_ROWS, 1 << 40])
    def test_batch_equals_each_point_alone(self, space, config, values, block_rows, monkeypatch):
        """Blocks of 1 and 7 replications split points; the default holds
        five whole desk points; 1 << 40 holds the batch."""
        batch = [Chromosome(genes) for genes in values]
        expected = list(values.values())
        monkeypatch.setattr(oracle_mod, "_BLOCK_ROWS", block_rows)
        assert [estimate_power(c, space, config, 9) for c in batch] == expected
        with PowerOracle(space, config, 9) as oracle:
            assert oracle.evaluate_many(batch) == expected
            assert oracle.evaluate_many(batch[::-1] + batch[:1]) == expected[::-1] + expected[:1]

    def test_bad_point_inside_a_batch_raises(self):
        """The first bad point of a batch raises what it raises alone."""
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.1, 0.3, 0.1), ParameterRange(0.3, 0.5, 0.1)),
            sample_size_range=ParameterRange(3, 53, 25),
        )
        good, small, off_grid = Chromosome((0, 0, 1)), Chromosome((1, 2, 0)), Chromosome((0, 3, 1))
        with PowerOracle(space, t_config(20), 1) as oracle:
            with pytest.raises(GridError, match="gene 3 out of range for theta_2"):
                oracle.evaluate_many([good, off_grid, small])
            with pytest.raises(GridError, match="chromosome has 2 genes"):
                oracle.evaluate_many([good, Chromosome((0, 0)), good])
            with pytest.raises(OracleError, match="sample size 3 cannot fit 2 slopes"):
                oracle.evaluate_many([good, good, small, off_grid])
            alone = estimate_power(good, space, t_config(20), 1)
            assert oracle.evaluate_many([good, good]) == [alone, alone]
        with PowerOracle(space, t_config(20, tested=3), 1) as oracle:
            with pytest.raises(ValueError, match="exceed"):
                oracle.evaluate_many([good, good])


def chi2_rule(df, nodes):
    """Nodes and weights with sum(w * f(x)) ~= E f(S), S ~ chi2(df):
    Gauss-Legendre between the 1e-16 quantiles, the density folded into the
    weights. The density must be smooth there, so df >= 2."""
    lo, hi = stats.chi2.ppf(1e-16, df), stats.chi2.isf(1e-16, df)
    t, w = roots_legendre(nodes)
    x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    return x, 0.5 * (hi - lo) * w * stats.chi2.pdf(x, df)


def exact_normal_power(tested_betas, n, p, sigma2, alpha):
    """Random-design power of the F test of k of p slopes (the t test when
    k = 1) under the normal scheme: given the design, F is noncentral
    F(k, n-p-1) with noncentrality ||beta_T||^2 S / sigma2, where
    S ~ chi2(n - 1 - (p - k)); the untested slopes drop out."""
    k, df = len(tested_betas), n - p - 1
    s, w = chi2_rule(n - 1 - (p - k), 192)
    lam = np.sum(np.square(tested_betas)) * s / sigma2
    return float(w @ stats.ncf.sf(stats.f.isf(alpha, k, df), k, df, lam))


def exact_interaction_power(beta3, n, sigma2, alpha):
    """Random-design power of the test of the interaction under the
    experiment scheme: the fit splits into one regression on x2 per
    condition, so F(1, n-4) has noncentrality
    4 beta3^2 / (sigma2 (1/S+ + 1/S-)) with S- ~ chi2(n//2 - 1) and
    S+ ~ chi2(n - n//2 - 1) independent."""
    half, df = n // 2, n - 4
    sm, wm = chi2_rule(half - 1, 96)
    sp, wp = chi2_rule(n - half - 1, 96)
    lam = 4.0 * beta3**2 / (sigma2 * (1.0 / sp[:, None] + 1.0 / sm[None, :]))
    return float(wp @ stats.ncf.sf(stats.f.isf(alpha, 1, df), 1, df, lam) @ wm)


def design_average_power(betas, n, test, sigma2, alpha, designs=20_000):
    """Random-design power of a test of the tested slopes under the
    experiment scheme, and its standard error: scipy's conditional power
    averaged over designs drawn as rows by generate_mlr_sample. Given its
    design X, the F statistic is noncentral F(k, n-4) with
    lambda = beta_T^T V_T^-1 beta_T / sigma2, V_T the tested block of
    (X^T X)^-1, the OLS covariance over sigma2. At lambda = 0 the tail is
    stats.f.sf's: scipy 1.17.1's ncf.sf(2.70, 3, 96, 0.0) returns -0.95."""
    rng = np.random.default_rng(np.random.SeedSequence((31, n)))
    X = np.stack([generate_mlr_sample(betas, n, sigma2, "experiment", rng)[0] for _ in range(designs)])
    tested = list(test.tested_indices)
    covariance = np.linalg.inv(X.transpose(0, 2, 1) @ X)[:, tested][:, :, tested]
    beta = np.asarray(betas)[[j - 1 for j in tested]]
    lam = np.einsum("i,dij,j->d", beta, np.linalg.inv(covariance), beta) / sigma2
    k, df = len(tested), n - len(betas) - 1
    critical = stats.f.isf(alpha, k, df)
    tail = np.full(designs, stats.f.sf(critical, k, df))
    live = lam > 0
    tail[live] = stats.ncf.sf(critical, k, df, lam[live])
    return tail.mean(), tail.std(ddof=1) / np.sqrt(designs)


LAW_NSIM = 200_000
# Thirteen law checks, each two-sided at 4 SE (a normal tail of 6.3e-5): a
# sampler with the right law fails any of them with probability under 1e-3.
LAW_BAND = 4.0
INTERACTION = TestSpec((3,), "f_joint")
LAW_POINTS = [
    pytest.param([1.5, 0.5], 4, TestSpec((1,), "t_single"), "normal",
                 exact_normal_power([1.5], 4, 2, 1.0, 0.05), id="desk-t-df1"),
    pytest.param([0.3, 0.5], 60, TestSpec((1,), "t_single"), "normal",
                 exact_normal_power([0.3], 60, 2, 1.0, 0.05), id="desk-t-n60"),
    pytest.param([0.2, 0.3], 40, TestSpec((1, 2), "f_joint"), "normal",
                 exact_normal_power([0.2, 0.3], 40, 2, 1.0, 0.05), id="two-slope-f"),
    # every slope tested, so the drawn block is the whole factor but its
    # intercept row
    pytest.param([0.2, 0.15, 0.25], 50, TestSpec((1, 2, 3), "f_joint"), "normal",
                 exact_normal_power([0.2, 0.15, 0.25], 50, 3, 1.0, 0.05), id="three-slope-f"),
    # a tested slope that is not last in config order moves to the last column
    pytest.param([0.3, 0.25, 0.5], 60, TestSpec((2,), "t_single"), "normal",
                 exact_normal_power([0.25], 60, 3, 1.0, 0.05), id="t-slope-2-of-3"),
    pytest.param([0.2, 0.6, 0.25], 50, INTERACTION, "experiment",
                 exact_interaction_power(0.25, 50, 1.0, 0.05), id="interaction-n50"),
    pytest.param([0.2, 0.6, 0.25], 55, INTERACTION, "experiment",
                 exact_interaction_power(0.25, 55, 1.0, 0.05), id="interaction-n55"),
    pytest.param([0.2, 0.6, 0.1], 500, INTERACTION, "experiment",
                 exact_interaction_power(0.1, 500, 1.0, 0.05), id="interaction-n500"),
]


class TestSamplerLaw:
    @pytest.mark.parametrize("betas, n, test, scheme, exact", LAW_POINTS)
    def test_matches_exact_power(self, betas, n, test, scheme, exact):
        config = OracleConfig(LAW_NSIM, 0.05, 1.0, test, scheme)
        estimate = estimate_power(Chromosome((0,) * (len(betas) + 1)), point_space(betas, n), config, 5)
        assert abs(estimate - exact) <= LAW_BAND * np.sqrt(exact * (1 - exact) / LAW_NSIM)

    @pytest.mark.parametrize(
        "betas, n, test",
        [
            pytest.param([0.3, 0.6, 0.3], 55, TestSpec((1,), "t_single"), id="t-condition"),
            pytest.param([0.2, 0.25, 0.4], 60, TestSpec((2,), "t_single"), id="t-measure"),
            pytest.param([0.2, 0.15, 0.3], 63, TestSpec((2, 3), "f_joint"), id="f-measure-interaction"),
            pytest.param([0.2, 0.15, 0.25], 50, TestSpec((1, 2, 3), "f_joint"), id="f-all-slopes"),
        ],
    )
    def test_experiment_matches_design_average(self, betas, n, test):
        """Experiment scheme, tested slopes other than the interaction alone:
        the reference averages over designs drawn as rows, so it shares no
        sums with the kernel."""
        config = OracleConfig(LAW_NSIM, 0.05, 1.0, test, "experiment")
        estimate = estimate_power(Chromosome((0,) * (len(betas) + 1)), point_space(betas, n), config, 5)
        reference, reference_se = design_average_power(betas, n, test, 1.0, 0.05)
        se = np.sqrt(reference * (1 - reference) / LAW_NSIM + reference_se**2)
        assert abs(estimate - reference) <= LAW_BAND * se

    def test_singular_wishart_half_matches_scalar_path(self):
        """Experiment scheme at n = 5: the x1 = -1 half has m - 1 = 1 < q = 2
        and a singular Wishart, and chi2(1) has no smooth density for the
        quadrature above, so the reference is drawn rows."""
        space, genes = point_space([0.2, 0.6, 3.0], 5), Chromosome((0, 0, 0, 0))
        scalar = OracleConfig(20_000, 0.05, 1.0, INTERACTION, "experiment")
        config = OracleConfig(LAW_NSIM, 0.05, 1.0, INTERACTION, "experiment")
        estimate = estimate_power(genes, space, config, 5)
        reference = scalar_power(genes, space, scalar, 5)
        pooled = (estimate * config.nsim + reference * scalar.nsim) / (config.nsim + scalar.nsim)
        se = np.sqrt(pooled * (1 - pooled) * (1 / config.nsim + 1 / scalar.nsim))
        assert abs(estimate - reference) <= LAW_BAND * se


def _constant_halves(keys, levels):
    """Experiment scheme: wrap the design kernel so that the replications
    whose first drawn normal, sqrt(m) times the x1 = -1 half's mean of x2,
    is in keys (all of them, for None) have x2 equal to levels[h] on every
    row of half h, as if their rows had been: that mean, and S = 0."""
    real = oracle_mod._design_factor

    def broken(means, squares, point):
        hit = np.isin(means[0], keys) if keys is not None else True
        means = np.where(hit, np.sqrt(point.groups) * np.reshape(levels, (2, 1, 1)), means)
        return real(means, np.where(hit, 0.0, squares), point)

    return "_design_factor", broken


def _edited_factors(keys, pivot, value):
    """Wrap the reading of the tested blocks so that the replications whose
    B[1, 0] is in keys (all of them, for None) have B[pivot, pivot] = value.
    B[1, 0] is a drawn normal: the first under the normal scheme, and under
    the experiment scheme with one tested slope z's first, drawn normal 2."""
    real = oracle_mod._factor_rejections

    def broken(block, point):
        block = [list(row) for row in block]
        hit = np.isin(block[1][0], keys) if keys is not None else True
        block[pivot][pivot] = np.where(hit, value, block[pivot][pivot])
        return real(block, point)

    return "_factor_rejections", broken


def _zero_sse(keys):
    """A noise pivot of 1e-300: not zero, but the SSE, its square, is."""
    return _edited_factors(keys, -1, 1e-300)


def _zero_tested_pivot(keys):
    """A zero pivot for the first tested slope: its column in the span of the
    columns before it."""
    return _edited_factors(keys, 0, 0.0)


def _measure_times_condition(keys):
    """Experiment scheme: the measure x2 = 0.7 x1 on every row, so x2 is
    collinear with x1 and x1 * x2 with the intercept, up to Gram rounding."""
    return _constant_halves(keys, (-0.7, 0.7))


def _constant_measure(keys):
    """Experiment scheme: the measure x2 = 0.7 on every row, so x2 is
    collinear with the intercept and x1 * x2 with x1, up to Gram rounding."""
    return _constant_halves(keys, (0.7, 0.7))


def experiment_case(nsim):
    """Odd n, and the condition x1 tested, so that its column is not last."""
    config = OracleConfig(nsim, 0.05, 1.0, TestSpec((1,), "t_single"), "experiment")
    return point_space([0.3, 0.6, 0.3], 55), config, (0, 0, 0, 0)


def redrawn_case(breaker, space, config, genes, seed, rows=(3, 17, 40), key=0):
    """The kernel broken at the given replications of one point, as the
    seam's name and its wrapper, and that point's estimate when each of them
    is replaced by attempt 1 on its own streams. The breaker wraps a seam,
    _factor_rejections or _design_factor, and finds the rows by their drawn
    normal number key."""
    point = oracle_mod._points([Chromosome(genes)], space, config)

    def replications(key, nsim):
        return oracle_mod._replications([streams(key)], nsim, point)

    drawn = oracle_mod._draw([streams((seed, *genes))], config.nsim, point)[1][key, 0]
    seam, broken = breaker(drawn[list(rows)])
    reject, degenerate = replications((seed, *genes), config.nsim)
    assert not degenerate.any()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, seam, broken)
        _, flagged = replications((seed, *genes), config.nsim)
    assert np.flatnonzero(flagged).tolist() == list(rows)
    for row in rows:
        reject[0, row] = replications((seed, *genes, row, 1), 1)[0][0, 0]
    return seam, broken, np.count_nonzero(reject) / config.nsim


class TestDegenerateDraws:
    def test_degenerate_row_is_redrawn_from_its_own_stream(self):
        """A zero SSE under each scheme. The rows are found by z's first
        entry B[1, 0]: drawn normal 0 under the normal scheme, 2 under the
        experiment scheme."""
        for case, key in (((desk_space(), t_config(50), (2, 5, 10)), 0), (experiment_case(50), 2)):
            with pytest.MonkeyPatch.context() as patch:
                self._check_redrawn(_zero_sse, *case, patch, key)

    @pytest.mark.parametrize("tested", [(1,), (1, 2)], ids=["t", "two-slope-f"])
    def test_zero_tested_pivot_is_redrawn(self, tested, monkeypatch):
        config = OracleConfig(50, 0.05, 2.5, TestSpec(tested, "t_single" if len(tested) == 1 else "f_joint"))
        self._check_redrawn(_zero_tested_pivot, desk_space(), config, (3, 7, 12), monkeypatch)

    def test_duplicated_regressor_is_redrawn(self, monkeypatch):
        self._check_redrawn(_measure_times_condition, *experiment_case(50), monkeypatch)

    def test_constant_measure_is_redrawn(self, monkeypatch):
        self._check_redrawn(_constant_measure, *experiment_case(50), monkeypatch)

    @staticmethod
    def _check_redrawn(breaker, space, config, genes, monkeypatch, key=0):
        seed, c = 4, Chromosome(genes)
        seam, broken, expected = redrawn_case(breaker, space, config, genes, seed, key=key)
        monkeypatch.setattr(oracle_mod, seam, broken)
        assert estimate_power(c, space, config, seed) == expected
        monkeypatch.setattr(oracle_mod, "_BLOCK_ROWS", 1)
        assert estimate_power(c, space, config, seed) == expected

    @pytest.mark.parametrize("block_rows", [1, 7, oracle_mod._BLOCK_ROWS])
    def test_degenerate_row_of_a_later_point_is_redrawn_from_its_stream(self, block_rows, monkeypatch):
        """The second point of a batch: its forced rows are redrawn from its
        own keys, and the points around it keep their values."""
        space, config, seed = desk_space(), t_config(50), 4
        batch = [Chromosome(g) for g in ((0, 3, 20), (2, 5, 10), (4, 12, 30))]
        alone = [estimate_power(c, space, config, seed) for c in batch]
        seam, broken, expected = redrawn_case(_zero_sse, space, config, batch[1].genes, seed)
        monkeypatch.setattr(oracle_mod, seam, broken)
        monkeypatch.setattr(oracle_mod, "_BLOCK_ROWS", block_rows)
        with PowerOracle(space, config, seed) as oracle:
            assert oracle.evaluate_many(batch) == [alone[0], expected, alone[2]]

    def test_always_degenerate_raises(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, *_zero_sse(None))
        with pytest.raises(OracleError, match="degenerate"):
            estimate_power(Chromosome((0, 0, 0)), desk_space(), t_config(20), 1)

    def test_always_degenerate_experiment_raises(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, *_constant_measure(None))
        space, config, genes = experiment_case(20)
        with pytest.raises(OracleError, match="degenerate"):
            estimate_power(Chromosome(genes), space, config, 1)
