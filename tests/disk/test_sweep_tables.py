"""The sweep kernel's lookup tables return exactly what they replace.

The zone bucket table must pick the zone that the clamped
``searchsorted`` over the zone CDF picks, for every draw, and the seek
table must hold the seek curve's value at every integer distance to the
bit; the round kernel's bit-identity rests on both.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import (SeekCurve, ZoneMap, modern_av_drive,
                        quantum_viking_2_1, scaled_viking, seagate_hawk_1lp,
                        single_zone_viking)
from repro.disk.sweepkernel import (ZONE_BUCKETS, placement_tables,
                                    seek_table, zones_of_draws)

PRESETS = [quantum_viking_2_1(), single_zone_viking(), seagate_hawk_1lp(),
           modern_av_drive(), scaled_viking()]
#: Viking re-split into 2..40 zones; several of these CDFs end at
#: 0.9999999999999999 or 1.0000000000000002.  (A one-zone split of the
#: Viking's capacity range is rejected; ``single_zone_viking`` is the
#: one-zone case.)
RESPLIT = [quantum_viking_2_1().with_zones(z) for z in range(2, 41)]
#: Four equal zones put CDF steps exactly on bucket edges.  More zones
#: than buckets, with a CDF ending below 1, put the last steps in one
#: straddling bucket, whose search needs the last-zone clamp.
FOUR_EQUAL = replace(single_zone_viking(), name="four equal zones",
                     zone_map=ZoneMap([76800.0] * 4, 8.34e-3))
MANY_ZONES = quantum_viking_2_1().with_zones(4097)
DISKS = PRESETS + RESPLIT + [FOUR_EQUAL, MANY_ZONES]
TOP = 1.0 - 2.0 ** -53


def searched_zones(tables, u):
    return np.minimum(np.searchsorted(tables.cum_probs, u, side="right"),
                      tables.zones - 1)


def probe_draws(tables):
    """Every bucket edge, every CDF step and its float neighbours, and
    both ends of [0, 1)."""
    steps = tables.cum_probs
    points = np.concatenate((
        np.arange(ZONE_BUCKETS) / ZONE_BUCKETS, steps,
        np.nextafter(steps, 0.0), np.nextafter(steps, 2.0), [0.0, TOP]))
    return points[(points >= 0.0) & (points < 1.0)]


class TestZoneBuckets:
    @pytest.mark.parametrize("spec", DISKS, ids=lambda spec: spec.name)
    def test_lookup_equals_clamped_searchsorted(self, spec):
        tables = placement_tables(spec.geometry)
        u = probe_draws(tables)
        assert np.array_equal(zones_of_draws(tables, u),
                              searched_zones(tables, u))

    def test_some_cdfs_end_off_one(self):
        # The probes above include CDFs that stop short of 1 (so the
        # top draws need the clamp) and ones that overshoot it.
        ends = {float(placement_tables(spec.geometry).cum_probs[-1])
                for spec in DISKS}
        assert {0.9999999999999999, 1.0, 1.0000000000000002} <= ends
        steps = placement_tables(FOUR_EQUAL.geometry).cum_probs
        assert list(steps * ZONE_BUCKETS) == [1024, 2048, 3072, 4096]

    def test_top_draw_takes_the_last_zone(self):
        tables = placement_tables(seagate_hawk_1lp().geometry)
        assert tables.cum_probs[-1] == TOP
        assert zones_of_draws(tables, np.array([TOP]))[0] == 8

    def test_top_draw_in_a_straddling_bucket(self):
        tables = placement_tables(MANY_ZONES.geometry)
        assert tables.cum_probs[-1] < TOP
        assert tables.zone_buckets[-1] == -1
        assert zones_of_draws(tables, np.array([TOP]))[0] == 4096

    def test_one_zone_never_searches(self):
        tables = placement_tables(single_zone_viking().geometry)
        assert np.all(tables.zone_buckets == 0)

    def test_steps_on_bucket_edges_split_no_bucket(self):
        tables = placement_tables(FOUR_EQUAL.geometry)
        assert np.all(tables.zone_buckets >= 0)
        assert list(tables.zone_buckets[::1024]) == [0, 1, 2, 3]

    def test_only_boundary_buckets_straddle(self):
        tables = placement_tables(quantum_viking_2_1().geometry)
        straddling = int(np.sum(tables.zone_buckets < 0))
        assert 0 < straddling <= tables.zones - 1

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, len(DISKS) - 1),
           draws=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          min_size=1, max_size=64))
    def test_random_draws(self, index, draws):
        tables = placement_tables(DISKS[index].geometry)
        u = np.array(draws).reshape(-1, 1)
        assert np.array_equal(zones_of_draws(tables, u),
                              searched_zones(tables, u))


class TestSeekTable:
    @pytest.mark.parametrize("spec", PRESETS, ids=lambda spec: spec.name)
    def test_every_distance_bitwise(self, spec):
        curve = spec.seek_curve
        table = seek_table(curve, spec.cylinders)
        expected = np.array([curve(float(d))
                             for d in range(spec.cylinders)])
        assert table.shape == (spec.cylinders,)
        assert np.array_equal(table.view(np.int64),
                              expected.view(np.int64))
        assert table[0] == 0.0
        # Both branches are in the table.
        assert 0 < curve.threshold < spec.cylinders

    def test_memoised_by_value_and_read_only(self):
        fields = dict(a_sqrt=1e-3, b_sqrt=1e-4, a_lin=3e-3, b_lin=2e-6,
                      threshold=100)
        first = seek_table(SeekCurve(**fields), 500)
        assert seek_table(SeekCurve(**fields), 500) is first
        assert seek_table(SeekCurve(**fields), 400) is not first
        with pytest.raises(ValueError):
            first[1] = 0.0
