"""Heterogeneous stream-class extension tests."""

import pytest

from repro.core import RoundServiceTimeModel, n_max_plate
from repro.core.heterogeneous import (
    StreamClass,
    class_mixture_model,
    fixed_mix_p_late,
)
from repro.distributions import Gamma, Mixture
from repro.errors import ConfigurationError
from repro.server.simulation import estimate_p_late


@pytest.fixture(scope="module")
def classes():
    return [
        StreamClass("audio", Gamma.from_mean_std(64_000.0, 20_000.0),
                    share=0.5),
        StreamClass("video", Gamma.from_mean_std(300_000.0, 150_000.0),
                    share=0.5),
    ]


class TestMixtureModel:
    def test_transfer_is_mixture(self, viking, classes):
        model = class_mixture_model(viking, classes)
        assert isinstance(model.transfer, Mixture)
        # Mixture mean between pure-class means.
        audio_only = class_mixture_model(viking, classes[:1])
        video_only = class_mixture_model(viking, classes[1:])
        assert (audio_only.transfer.mean() < model.transfer.mean()
                < video_only.transfer.mean())

    def test_mixed_load_admits_between_pure_loads(self, viking, classes):
        mixed = n_max_plate(class_mixture_model(viking, classes), 1.0,
                            0.01)
        audio = n_max_plate(class_mixture_model(viking, classes[:1]), 1.0,
                            0.01)
        video = n_max_plate(class_mixture_model(viking, classes[1:]), 1.0,
                            0.01)
        assert video <= mixed <= audio
        assert audio > video  # light streams pack denser

    def test_bound_dominates_mixed_simulation(self, viking, classes):
        # Simulate with the *size* mixture (each request drawn from a
        # random class) and check the analytic mixture bound covers it.
        model = class_mixture_model(viking, classes)
        size_mixture = Mixture([(c.share, c.size_dist) for c in classes])
        n = n_max_plate(model, 1.0, 0.05)
        sim = estimate_p_late(viking, size_mixture, n, 1.0, rounds=8000,
                              seed=3)
        assert model.b_late(n, 1.0) >= sim.p_late

    def test_empty_classes_rejected(self, viking):
        with pytest.raises(ConfigurationError):
            class_mixture_model(viking, [])

    def test_share_validation(self):
        with pytest.raises(ConfigurationError):
            StreamClass("bad", Gamma(1.0, 1.0), share=0.0)


class TestFixedMix:
    def test_matches_single_class_model(self, viking, classes):
        # A fixed mix of only video requests equals the plain model.
        video = classes[1]
        plain = RoundServiceTimeModel.for_disk(viking, video.size_dist)
        fixed = fixed_mix_p_late(viking, {"video": 26}, classes, 1.0)
        assert fixed == pytest.approx(plain.b_late(26, 1.0), rel=1e-6)

    def test_fixed_mix_tighter_than_mixture(self, viking, classes):
        # Pinning the mix removes multinomial variability, so the fixed
        # bound is no looser than the mixture bound at the same split.
        n = 30
        counts = {"audio": n // 2, "video": n - n // 2}
        mixture_model = class_mixture_model(viking, classes)
        fixed = fixed_mix_p_late(viking, counts, classes, 1.0)
        mixture = mixture_model.b_late(n, 1.0)
        assert fixed <= mixture * 1.0001

    def test_more_video_is_worse(self, viking, classes):
        a = fixed_mix_p_late(viking, {"audio": 20, "video": 10}, classes,
                             1.0)
        b = fixed_mix_p_late(viking, {"audio": 10, "video": 20}, classes,
                             1.0)
        assert a < b

    def test_zero_count_class_ignored(self, viking, classes):
        with_zero = fixed_mix_p_late(viking, {"audio": 0, "video": 26},
                                     classes, 1.0)
        without = fixed_mix_p_late(viking, {"video": 26}, classes, 1.0)
        assert with_zero == pytest.approx(without, rel=1e-9)

    def test_validation(self, viking, classes):
        with pytest.raises(ConfigurationError):
            fixed_mix_p_late(viking, {"nope": 5}, classes, 1.0)
        with pytest.raises(ConfigurationError):
            fixed_mix_p_late(viking, {"audio": 0}, classes, 1.0)
        with pytest.raises(ConfigurationError):
            fixed_mix_p_late(viking, {"audio": -1, "video": 2}, classes,
                             1.0)
