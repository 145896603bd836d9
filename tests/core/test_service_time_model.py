"""RoundServiceTimeModel tests (§3.1/§3.2 assembly)."""

import numpy as np
import pytest

from repro.core import RoundServiceTimeModel, oyang_seek_bound
from repro.distributions import LogNormal
from repro.errors import ConfigurationError, ModelError
from repro.server.simulation import simulate_rounds


@pytest.fixture(scope="module")
def mz_model(viking, paper_sizes):
    return RoundServiceTimeModel.for_disk(viking, paper_sizes)


@pytest.fixture(scope="module")
def sz_model(viking_single_zone, paper_sizes):
    return RoundServiceTimeModel.for_disk(viking_single_zone, paper_sizes,
                                          multizone=False)


class TestAssembly:
    def test_mean_decomposition(self, mz_model):
        n = 26
        expected = (mz_model.seek(n)
                    + n * mz_model.rot / 2
                    + n * mz_model.transfer.mean())
        assert mz_model.mean(n) == pytest.approx(expected)

    def test_var_decomposition(self, mz_model):
        n = 26
        expected = (n * mz_model.rot ** 2 / 12
                    + n * mz_model.transfer.var())
        assert mz_model.var(n) == pytest.approx(expected)

    def test_seek_uses_oyang(self, viking, mz_model):
        assert mz_model.seek(27) == pytest.approx(
            oyang_seek_bound(viking.seek_curve, viking.cylinders, 27))

    def test_log_mgf_rejects_bad_n(self, mz_model):
        with pytest.raises(ConfigurationError):
            mz_model.log_mgf(0)
        with pytest.raises(ConfigurationError):
            mz_model.log_mgf(-3)

    def test_rejects_mgf_less_transfer(self):
        with pytest.raises(ModelError):
            RoundServiceTimeModel(seek_bound=lambda n: 0.1, rot=8.34e-3,
                                  transfer=LogNormal(0.0, 1.0))

    def test_for_disk_single_zone_uses_disk_rate(self, viking_single_zone,
                                                 paper_sizes):
        m = RoundServiceTimeModel.for_disk(viking_single_zone, paper_sizes,
                                           multizone=False)
        rate = viking_single_zone.zone_map.r_min
        assert m.transfer.mean() == pytest.approx(paper_sizes.mean() / rate)

    def test_for_disk_multizone_collapse_preserves_mean(self, viking,
                                                        paper_sizes):
        # multizone=False on a zoned disk collapses to the harmonic-mean
        # rate, which preserves E[T_trans].
        full = RoundServiceTimeModel.for_disk(viking, paper_sizes,
                                              multizone=True)
        collapsed = RoundServiceTimeModel.for_disk(viking, paper_sizes,
                                                   multizone=False)
        assert collapsed.transfer.mean() == pytest.approx(
            full.transfer.mean(), rel=1e-9)
        # ... but under-states the variance (zone variability lost).
        assert collapsed.transfer.var() < full.transfer.var()


class TestBounds:
    def test_p_late_monotone_in_n(self, mz_model):
        bounds = mz_model.p_late_curve(range(20, 33), 1.0)
        assert bounds == sorted(bounds)

    def test_p_late_monotone_in_t(self, mz_model):
        values = [mz_model.b_late(27, t) for t in (0.8, 0.9, 1.0, 1.1, 1.3)]
        assert values == sorted(values, reverse=True)

    def test_p_late_caches(self, mz_model):
        a = mz_model.p_late(26, 1.0)
        b = mz_model.p_late(26, 1.0)
        assert a is b

    def test_p_late_saturates_under_overload(self, mz_model):
        # At N where the mean already exceeds the round, the bound is 1.
        n = 50
        assert mz_model.mean(n) > 1.0
        assert mz_model.b_late(n, 1.0) == 1.0

    def test_bound_dominates_simulation(self, viking, paper_sizes):
        model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        rng = np.random.default_rng(5)
        for n in (26, 28, 30):
            batch = simulate_rounds(viking, paper_sizes, n, 1.0, 4000, rng)
            simulated = float(np.mean(batch.service_times >= 1.0))
            assert model.b_late(n, 1.0) >= simulated

    def test_utilisation(self, mz_model):
        u = mz_model.utilisation(26, 1.0)
        assert 0.5 < u < 1.0
        with pytest.raises(ConfigurationError):
            mz_model.utilisation(26, 0.0)


class TestPaperNumbersSection31:
    """§3.1 worked example (single-zone)."""

    def test_transfer_moments(self, sz_model):
        assert sz_model.transfer.mean() == pytest.approx(0.02174, rel=2e-3)
        assert sz_model.transfer.var() == pytest.approx(0.00011815,
                                                        rel=3e-3)

    def test_p_late_27(self, sz_model):
        assert sz_model.b_late(27, 1.0) == pytest.approx(0.0103, rel=0.10)

    def test_p_late_26(self, sz_model):
        assert sz_model.b_late(26, 1.0) == pytest.approx(0.00225, rel=0.10)


class TestPaperNumbersSection32:
    """§3.2 worked example (Table 1 multi-zone disk)."""

    def test_p_late_26(self, mz_model):
        assert mz_model.b_late(26, 1.0) == pytest.approx(0.00324, rel=0.15)

    def test_p_late_27(self, mz_model):
        assert mz_model.b_late(27, 1.0) == pytest.approx(0.0133, rel=0.15)
