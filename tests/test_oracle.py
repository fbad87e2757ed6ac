import numpy as np
import pytest

import powermap.oracle as oracle_mod
from powermap import (
    Chromosome,
    OracleConfig,
    OracleError,
    ParameterRange,
    PowerOracle,
    SearchSpace,
    TestSpec,
    estimate_power,
    f_cdf,
    generate_mlr_sample,
    ols_fit,
    run_test,
)

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
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.1, 0.3, 0.1),),
            sample_size_range=ParameterRange(30, 60, 10),
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


def scalar_power(chromosome, space, config, seed, replace=None):
    """Reference rejection share: one replication at a time through the
    public scalar path, on the oracle's stream for this grid point.

    replace maps a replication row to the stream its sample is taken from
    instead (the row's draws are still consumed from the main stream).
    """
    beta, n = space.decode_params(chromosome)
    rng = np.random.default_rng(np.random.SeedSequence((seed, *chromosome.genes)))
    keep = [0] + [j for j in range(1, len(beta) + 1) if j not in config.test.tested_indices]
    rejections = 0
    for row in range(config.nsim):
        X, y = generate_mlr_sample(beta, n, config.sigma2, config.scheme, rng)
        if replace and row in replace:
            X, y = generate_mlr_sample(beta, n, config.sigma2, config.scheme, replace[row])
        fit = ols_fit(X, y)
        restricted = ols_fit(X[:, keep], y).sse if config.test.kind == "f_joint" else None
        rejections += run_test(fit, config.test, config.alpha, restricted).reject
    return rejections / config.nsim


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


class TestBatchedKernel:
    @pytest.mark.parametrize("space, config, genes", KERNEL_CASES)
    def test_equals_scalar_loop(self, space, config, genes):
        c = Chromosome(genes)
        assert estimate_power(c, space, config, 7) == scalar_power(c, space, config, 7)

    @pytest.mark.parametrize(
        "space, config, genes", [KERNEL_CASES[i] for i in (0, 3, 6, 9)] + EXPERIMENT_CASES
    )
    def test_chunking_does_not_change_values(self, space, config, genes, monkeypatch):
        c = Chromosome(genes)
        base = estimate_power(c, space, config, 3)
        # One replication and all of nsim, per matmul chunk and per
        # Cholesky block.
        for chunk_bytes in (1, 1 << 40):
            for block_rows in (1, 1 << 40):
                monkeypatch.setattr(oracle_mod, "_CHUNK_BYTES", chunk_bytes)
                monkeypatch.setattr(oracle_mod, "_BLOCK_ROWS", block_rows)
                assert estimate_power(c, space, config, 3) == base

    def test_critical_value_inverts_f_cdf(self):
        for k, df in ((1, 98), (3, 46), (2, 1)):
            crit = oracle_mod.critical_value(k, df, 0.05)
            assert f_cdf(crit, k, df) == pytest.approx(0.95, abs=1e-12)


def _edited_regressors(rows_to_break, edit):
    """Wrap the Gram kernel so that the replications whose first noise draw
    is in rows_to_break (all of them, for None) have their regressor draws
    changed in place by edit: an (rows, n, p) array under the normal scheme,
    the measure x2 as an (rows, n, 1) array under the experiment scheme."""
    real = oracle_mod._gram

    def broken(draws, point):
        draws = draws.copy()
        hit = np.isin(draws[:, 0], rows_to_break) if rows_to_break is not None else slice(None)
        regressors = draws[:, point.n :].reshape(len(draws), point.n, -1)
        edited = regressors[hit]
        edit(edited)
        regressors[hit] = edited
        return real(draws, point)

    return broken


def _zero_regressors(rows_to_break):
    """All-zero regressors: a rank-deficient design."""
    return _edited_regressors(rows_to_break, lambda x: x.fill(0.0))


def _duplicate_regressor(rows_to_break):
    """Regressor 2 equal to regressor 1: a design whose Gram pivot is
    rounding, not zero."""

    def edit(x):
        x[:, :, 1] = x[:, :, 0]

    return _edited_regressors(rows_to_break, edit)


def _constant_measure(rows_to_break):
    """Experiment scheme: the measure x2 constant, so x2 is collinear with
    the intercept and x1 * x2 with x1, up to Gram rounding."""
    return _edited_regressors(rows_to_break, lambda x: x.fill(0.7))


def experiment_case(nsim):
    """Odd n, and the condition x1 tested, so that its column is not last."""
    config = OracleConfig(nsim, 0.05, 1.0, TestSpec((1,), "t_single"), "experiment")
    return point_space([0.3, 0.6, 0.3], 55), config, (0, 0, 0, 0)


class TestDegenerateDraws:
    def test_degenerate_row_is_redrawn_from_its_own_stream(self, monkeypatch):
        self._check_redrawn(_zero_regressors, desk_space(), t_config(50), (2, 5, 10), monkeypatch)

    def test_duplicated_regressor_is_redrawn(self, monkeypatch):
        self._check_redrawn(_duplicate_regressor, desk_space(), t_config(50), (2, 5, 10), monkeypatch)

    def test_constant_measure_is_redrawn(self, monkeypatch):
        self._check_redrawn(_constant_measure, *experiment_case(50), monkeypatch)

    @staticmethod
    def _check_redrawn(breaker, space, config, genes, monkeypatch):
        seed, c, rows = 4, Chromosome(genes), (3, 17, 40)
        _, n = space.decode_params(c)
        regressors = 1 if config.scheme == "experiment" else space.n_coefficients
        draws = np.random.default_rng(np.random.SeedSequence((seed, *genes))).standard_normal(
            (config.nsim, n * (1 + regressors))  # n noise draws, then the regressors
        )
        monkeypatch.setattr(oracle_mod, "_gram", breaker(draws[rows, 0]))
        got = estimate_power(c, space, config, seed)
        replacements = {
            row: np.random.default_rng(np.random.SeedSequence((seed, *genes, row, 1)))
            for row in rows
        }
        assert got == scalar_power(c, space, config, seed, replace=replacements)
        monkeypatch.setattr(oracle_mod, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(oracle_mod, "_BLOCK_ROWS", 1)
        assert estimate_power(c, space, config, seed) == got

    def test_always_degenerate_raises(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_gram", _zero_regressors(None))
        with pytest.raises(OracleError, match="degenerate"):
            estimate_power(Chromosome((0, 0, 0)), desk_space(), t_config(20), 1)

    def test_always_degenerate_experiment_raises(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_gram", _constant_measure(None))
        space, config, genes = experiment_case(20)
        with pytest.raises(OracleError, match="degenerate"):
            estimate_power(Chromosome(genes), space, config, 1)
