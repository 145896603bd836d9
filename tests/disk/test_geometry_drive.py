"""DiskGeometry and DiskDrive unit tests."""

import numpy as np
import pytest

from repro.disk import (
    DiskDrive,
    DiskGeometry,
    DiskRequest,
    ZoneMap,
    quantum_viking_2_1,
    seagate_hawk_1lp,
)
from repro.errors import ConfigurationError, GeometryError

ROT = 8.34e-3


class TopDrawRng:
    """Stands in for a Generator whose every draw is the largest value
    ``Generator.random`` can return, 1 - 2**-53."""

    TOP = 1.0 - 2.0 ** -53

    def random(self, size=None):
        return self.TOP if size is None else np.full(size, self.TOP)


@pytest.fixture(scope="module")
def geometry():
    return quantum_viking_2_1().geometry


class TestGeometry:
    def test_zone_split_covers_all_cylinders(self, geometry):
        bounds = geometry.zone_bounds
        assert bounds[0] == 0
        assert bounds[-1] == 6720
        assert np.all(np.diff(bounds) > 0)
        assert int(np.sum(geometry.zone_cylinder_counts)) == 6720

    def test_equal_tracks_per_zone(self, geometry):
        # 6720 / 15 = 448 exactly.
        assert np.all(geometry.zone_cylinder_counts == 448)

    def test_zone_of_cylinder_boundaries(self, geometry):
        assert geometry.zone_of_cylinder(0) == 0
        assert geometry.zone_of_cylinder(447) == 0
        assert geometry.zone_of_cylinder(448) == 1
        assert geometry.zone_of_cylinder(6719) == 14

    def test_zone_of_cylinder_vectorised(self, geometry):
        zones = geometry.zone_of_cylinder(np.array([0, 448, 6719]))
        assert list(zones) == [0, 1, 14]

    def test_out_of_range_cylinder(self, geometry):
        with pytest.raises(GeometryError):
            geometry.zone_of_cylinder(6720)
        with pytest.raises(GeometryError):
            geometry.zone_of_cylinder(-1)

    def test_cylinder_range_of_zone(self, geometry):
        assert geometry.cylinder_range_of_zone(0) == (0, 448)
        assert geometry.cylinder_range_of_zone(14) == (6272, 6720)
        with pytest.raises(GeometryError):
            geometry.cylinder_range_of_zone(15)

    def test_rate_of_cylinder_uses_zone(self, geometry):
        z = geometry.zone_map
        assert float(geometry.rate_of_cylinder(0)) == pytest.approx(z.r_min)
        assert float(geometry.rate_of_cylinder(6719)) == pytest.approx(
            z.r_max)

    def test_total_capacity(self, geometry):
        expected = float(np.sum(448 * geometry.zone_map.capacities))
        assert geometry.total_capacity == pytest.approx(expected)
        # ~0.5 GB per surface for this drive: sanity order of magnitude.
        assert 0.4e9 < geometry.total_capacity < 0.6e9

    def test_sampled_cylinders_weighted_by_capacity(self, geometry, rng):
        cyl = geometry.sample_cylinder(rng, size=200_000)
        zones = geometry.zone_of_cylinder(cyl)
        freq = np.bincount(zones, minlength=15) / zones.size
        assert freq == pytest.approx(
            geometry.zone_map.zone_probabilities, abs=0.005)

    def test_sample_cylinder_scalar(self, geometry, rng):
        c = geometry.sample_cylinder(rng)
        assert isinstance(c, int)
        assert 0 <= c < 6720

    def test_top_draw_picks_the_last_cylinder(self):
        # The Hawk's zone CDF ends at 1 - 2**-53, so the top draw lies
        # past it and must be clamped to the last zone.
        geometry = seagate_hawk_1lp().geometry
        assert geometry.sample_cylinder(TopDrawRng()) == 2759
        assert list(geometry.sample_cylinder(TopDrawRng(), size=3)) == [
            2759] * 3

    def test_rejects_fewer_cylinders_than_zones(self):
        with pytest.raises(ConfigurationError):
            DiskGeometry(10, ZoneMap.linear(15, 100.0, 200.0, ROT))

    def test_remainder_cylinders_spread(self):
        geom = DiskGeometry(10, ZoneMap.linear(3, 100.0, 200.0, ROT))
        assert list(geom.zone_cylinder_counts) == [4, 3, 3]

    def test_surfaces_scale_capacity(self):
        zm = ZoneMap.linear(3, 100.0, 200.0, ROT)
        single = DiskGeometry(30, zm, surfaces=1)
        double = DiskGeometry(30, zm, surfaces=2)
        assert double.total_capacity == pytest.approx(
            2 * single.total_capacity)


class TestDrive:
    def test_serve_moves_arm_and_accumulates(self, geometry, rng):
        spec = quantum_viking_2_1()
        drive = DiskDrive(geometry, spec.seek_curve)
        req = DiskRequest(stream_id=0, size=200_000.0, cylinder=3000)
        breakdown = drive.serve(req, rng)
        assert drive.arm_cylinder == 3000
        assert drive.served == 1
        assert drive.busy_time == pytest.approx(breakdown.total)
        assert breakdown.seek == pytest.approx(
            float(spec.seek_curve(3000)))
        assert 0.0 <= breakdown.rotation <= ROT
        rate = float(geometry.rate_of_cylinder(3000))
        assert breakdown.transfer == pytest.approx(200_000.0 / rate)

    def test_transfer_faster_on_outer_tracks(self, geometry):
        spec = quantum_viking_2_1()
        drive = DiskDrive(geometry, spec.seek_curve)
        inner = drive.transfer_time(100_000.0, 0)
        outer = drive.transfer_time(100_000.0, 6719)
        assert outer < inner
        assert inner / outer == pytest.approx(95744.0 / 58368.0)

    def test_seek_time_symmetric(self, geometry):
        spec = quantum_viking_2_1()
        drive = DiskDrive(geometry, spec.seek_curve, initial_cylinder=1000)
        up = drive.seek_time_to(1500)
        drive.park(2000)
        down = drive.seek_time_to(1500)
        assert up == pytest.approx(down)

    def test_park_charges_no_time(self, geometry):
        spec = quantum_viking_2_1()
        drive = DiskDrive(geometry, spec.seek_curve)
        drive.park(5000)
        assert drive.busy_time == 0.0
        assert drive.arm_cylinder == 5000

    def test_bad_initial_position(self, geometry):
        spec = quantum_viking_2_1()
        with pytest.raises(GeometryError):
            DiskDrive(geometry, spec.seek_curve, initial_cylinder=9999)

    def test_bad_targets(self, geometry):
        spec = quantum_viking_2_1()
        drive = DiskDrive(geometry, spec.seek_curve)
        with pytest.raises(GeometryError):
            drive.seek_time_to(6720)
        with pytest.raises(GeometryError):
            drive.park(-1)


class TestRequest:
    def test_rejects_bad_requests(self):
        with pytest.raises(ConfigurationError):
            DiskRequest(stream_id=0, size=0.0, cylinder=0)
        with pytest.raises(ConfigurationError):
            DiskRequest(stream_id=0, size=100.0, cylinder=-1)

    def test_breakdown_total(self):
        from repro.disk import ServiceBreakdown
        b = ServiceBreakdown(seek=1.0, rotation=2.0, transfer=3.0)
        assert b.total == 6.0
