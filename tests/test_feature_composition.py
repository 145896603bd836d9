"""Cross-feature composition tests.

The extensions are designed to be orthogonal knobs on the same core
model; these tests pin down that they actually compose -- e.g. a
fault-injected, outer-band-placed, heterogeneous round model still
feeds every admission solver.
"""

import numpy as np
import pytest

from repro.core import (
    GlitchModel,
    MultiZoneTransferModel,
    RoundServiceTimeModel,
    n_max_perror,
    n_max_plate,
    with_recalibration,
)
from repro.core.gss import n_max_gss
from repro.core.heterogeneous import StreamClass, class_mixture_model
from repro.core.trickmode import n_max_with_ff
from repro.disk import OuterZonesPlacement
from repro.distributions import Gamma
from repro.server.simulation import simulate_rounds


class TestPlacementTimesFaults:
    def test_combined_model_and_simulation(self, viking, paper_sizes):
        # Outer-band placement + thermal recalibration, both in the
        # model and in the simulator, bound still conservative.
        placement = OuterZonesPlacement(fraction=0.3)
        transfer = MultiZoneTransferModel(
            viking.zone_map, paper_sizes,
            zone_probabilities=placement.zone_probabilities(
                viking.geometry)).gamma_approximation()
        base = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        placed = RoundServiceTimeModel(
            seek_bound=lambda n: base.seek(n), rot=viking.rot,
            transfer=transfer)
        faulty = with_recalibration(placed, prob=0.05, duration=0.075)

        batch = simulate_rounds(viking, paper_sizes, 29, 1.0, 15_000,
                                np.random.default_rng(1),
                                placement=placement, recal_prob=0.05,
                                recal_duration=0.075)
        simulated = float(np.mean(batch.service_times > 1.0))
        assert faulty.b_late(29, 1.0) >= simulated
        # Placement gains and fault losses partially offset: the
        # combined N_max sits between the plain-faulty and plain-placed
        # limits.
        n_combined = n_max_plate(faulty, 1.0, 0.01)
        n_placed = n_max_plate(placed, 1.0, 0.01)
        n_faulty = n_max_plate(with_recalibration(base, 0.05, 0.075),
                               1.0, 0.01)
        assert n_faulty <= n_combined <= n_placed


class TestHeterogeneousTimesEverything:
    @pytest.fixture(scope="class")
    def classes(self):
        return [
            StreamClass("audio", Gamma.from_mean_std(64_000.0, 20_000.0),
                        share=0.5),
            StreamClass("video", Gamma.from_mean_std(300_000.0,
                                                     150_000.0),
                        share=0.5),
        ]

    def test_mixture_model_feeds_stream_level_admission(self, viking,
                                                        classes):
        model = class_mixture_model(viking, classes)
        glitch = GlitchModel(model, 1.0)
        n = n_max_perror(glitch, 1200, 12, 0.01)
        assert 10 < n < 60
        assert glitch.p_error(n, 1200, 12) <= 0.01

    def test_mixture_model_feeds_gss(self, viking, classes):
        model = class_mixture_model(viking, classes)
        scan = n_max_gss(model, 1.0, 1, 0.01)
        grouped = n_max_gss(model, 1.0, 4, 0.01)
        assert 0 < grouped < scan

    def test_mixture_model_feeds_trickmode(self, viking, classes):
        model = class_mixture_model(viking, classes)
        base = n_max_with_ff(model, 1.0, 0.01, 0.0, 2)
        ff = n_max_with_ff(model, 1.0, 0.01, 0.25, 2)
        assert 0 < ff < base

    def test_mixture_model_accepts_faults(self, viking, classes):
        model = class_mixture_model(viking, classes)
        faulty = with_recalibration(model, 0.05, 0.075)
        assert faulty.b_late(20, 1.0) > model.b_late(20, 1.0)


class TestTruncatedLawsThroughTheStack:
    def test_truncated_pareto_everywhere(self, viking):
        # A heavy-tailed capped size law drives every solver without
        # special-casing.
        from repro.workload.fragmentsize import (
            truncated_pareto_fragment_sizes,
        )

        law = truncated_pareto_fragment_sizes(200_000.0, 100_000.0,
                                              cap=2e6)
        model = RoundServiceTimeModel.for_disk(viking, law)
        glitch = GlitchModel(model, 1.0)
        assert n_max_plate(model, 1.0, 0.01) > 20
        assert n_max_perror(glitch, 1200, 12, 0.01) > 20
        assert n_max_gss(model, 1.0, 2, 0.01) > 15
        faulty = with_recalibration(model, 0.02, 0.05)
        assert faulty.b_late(26, 1.0) >= model.b_late(26, 1.0)
