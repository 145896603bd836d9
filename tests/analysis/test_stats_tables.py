"""Analysis-utility tests: intervals, batch means, tables."""

from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from repro.analysis import (
    ComparisonRow,
    batch_means,
    comparison_table,
    format_probability,
    mean_confidence_interval,
    render_table,
    wilson_interval,
)
from repro.errors import ConfigurationError


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 100)
        assert lo < 0.07 < hi

    def test_zero_successes_nonzero_width(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi > 1e-3  # Wald would give zero width here

    def test_all_successes(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert lo < 1.0

    def test_coverage_monte_carlo(self, rng):
        # ~95 % of intervals should contain the true p.
        p, n, trials = 0.05, 400, 800
        hits = 0
        draws = rng.binomial(n, p, size=trials)
        for k in draws:
            lo, hi = wilson_interval(int(k), n)
            hits += lo <= p <= hi
        assert hits / trials > 0.92

    @pytest.mark.parametrize("confidence", [
        0.01, 0.5, 0.68, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_z_matches_scipy_normal_quantile(self, confidence):
        # wilson_interval takes z from the standard library; scipy's
        # norm.ppf is the reference it replaced.
        q = 0.5 + confidence / 2.0
        z = float(stats.norm.ppf(q))
        assert NormalDist().inv_cdf(q) == pytest.approx(z, rel=1e-14, abs=0)
        for successes, trials in ((0, 1000), (7, 100), (50, 50)):
            p_hat = successes / trials
            denom = 1.0 + z * z / trials
            centre = (p_hat + z * z / (2 * trials)) / denom
            half = (z / denom) * np.sqrt(
                p_hat * (1.0 - p_hat) / trials
                + z * z / (4.0 * trials * trials))
            want = (max(0.0, centre - half), min(1.0, centre + half))
            got = wilson_interval(successes, trials, confidence)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-16)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 4)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 10, confidence=1.0)


class TestMeanCi:
    def test_contains_true_mean_usually(self, rng):
        data = rng.normal(10.0, 2.0, size=200)
        mean, lo, hi = mean_confidence_interval(data)
        assert lo < mean < hi
        assert abs(mean - 10.0) < 1.0

    def test_degenerate_sample(self):
        mean, lo, hi = mean_confidence_interval([5.0, 5.0, 5.0])
        assert mean == lo == hi == 5.0

    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0])


class TestBatchMeans:
    def test_iid_matches_plain_mean(self, rng):
        data = rng.normal(3.0, 1.0, size=4000)
        mean, se = batch_means(data, batches=20)
        assert mean == pytest.approx(float(np.mean(data)), abs=1e-9)
        assert se == pytest.approx(1.0 / np.sqrt(4000), rel=0.5)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            batch_means([1.0, 2.0], batches=1)
        with pytest.raises(ConfigurationError):
            batch_means(rng.random(10), batches=20)


class TestFormatting:
    def test_format_probability_bands(self):
        assert format_probability(0.0) == "0"
        assert format_probability(1.0) == "1"
        assert format_probability(0.00324) == "0.00324"
        assert format_probability(1.4e-7) == "1.40e-07"

    def test_render_table_alignment(self):
        out = render_table(["N", "p"], [[28, "0.00014"], [29, "0.318"]],
                           title="Table 2")
        lines = out.splitlines()
        assert lines[0] == "Table 2"
        assert "N" in lines[2] and "p" in lines[2]
        assert len(lines) == 6

    def test_render_table_validation(self):
        with pytest.raises(ConfigurationError):
            render_table([], [])
        with pytest.raises(ConfigurationError):
            render_table(["a"], [["x", "y"]])


class TestComparison:
    def test_conservative_flag(self):
        good = ComparisonRow("28", analytic=0.01, simulated=0.005)
        bad = ComparisonRow("29", analytic=0.001, simulated=0.005)
        assert good.conservative
        assert not bad.conservative
        assert good.slack == pytest.approx(0.005)

    def test_conservative_uses_ci(self):
        row = ComparisonRow("30", analytic=0.004, simulated=0.005,
                            ci_low=0.003, ci_high=0.008)
        assert row.conservative  # bound above the CI's lower edge

    def test_table_renders(self):
        rows = [ComparisonRow("28", 0.00014, 0.0, ci_low=0.0,
                              ci_high=0.001)]
        out = comparison_table(rows, title="perror")
        assert "conservative" in out
        assert "yes" in out
