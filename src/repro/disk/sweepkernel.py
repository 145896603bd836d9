"""Shared vectorised sweep kernel.

Both simulation paths of the repo score the same arithmetic -- seek
times along a SCAN sweep, zone transfer rates under sector-uniform
placement -- but until now each recomputed its lookup tables per call
(the Monte-Carlo path) or per *request* (the event-driven path).  This
module is the single home of that arithmetic:

- :class:`PlacementTables` -- per-geometry lookup tables (zone bounds,
  cylinder counts, transfer rates, the capacity-weighted zone CDF of
  eq. 3.2.1 and a bucket table over it), built once and cached on the
  :class:`DiskGeometry`;
- :func:`zones_of_draws` -- the one zone pick of sector-uniform
  placement: a uniform draw's zone from the bucket table, falling back
  to ``searchsorted`` only in the few buckets that straddle a zone
  boundary;
- :func:`sample_cylinders_rates` -- batched cylinder/rate draws, the
  machinery factored out of ``repro.server.simulation`` (RNG
  consumption is **bit-identical** to the historical inline code, so
  seeded Monte-Carlo results are unchanged);
- :func:`seek_table` -- a drive's seek time at every integer distance,
  so the round kernel prices a sweep with one gather;
- :func:`plan_sweep` -- the deterministic per-round precompute of the
  event-driven scheduler: given a round's batch in serve order, the
  per-request seek and transfer times as arrays, replacing one Python
  ``searchsorted``/``SeekCurve`` round-trip per request with one
  vectorised evaluation per round.

Determinism contract: the tables return exactly what the expressions
they replace return.  The zone pick equals the clamped
``searchsorted(cum_probs, u, "right")`` for every ``u`` in [0, 1)
(see :func:`zones_of_draws`), and ``seek_table(...)[d]`` is the same
elementwise ``SeekCurve`` expression evaluated at ``float(d)``.
:func:`plan_sweep` draws no random numbers, and its elementwise
arithmetic matches the scalar code it replaced bit for bit.
Rotational latencies stay *outside* this kernel on the event path --
they are drawn lazily, one scalar ``uniform`` per actually served
request, because an abandoned request (deadline passed, disk died
mid-sweep) must not consume the stream's RNG.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import GeometryError

__all__ = [
    "ZONE_BUCKETS",
    "PlacementTables",
    "placement_tables",
    "zones_of_draws",
    "sample_zoned",
    "sample_cylinders_rates",
    "seek_table",
    "plan_sweep",
]

#: Buckets of the zone-pick table.  A power of two, so ``u * ZONE_BUCKETS``
#: is exact and bucket ``b`` holds exactly the draws in
#: ``[b / ZONE_BUCKETS, (b + 1) / ZONE_BUCKETS)``.
ZONE_BUCKETS = 4096


class PlacementTables:
    """Precomputed per-geometry lookup tables.

    Attributes
    ----------
    zone_bounds:
        Cylinder boundaries; zone ``z`` covers
        ``[zone_bounds[z], zone_bounds[z+1])``.
    zone_counts:
        Cylinders per zone.
    rates:
        Transfer rate (bytes/s) per zone.
    cum_probs:
        CDF of the capacity-weighted zone law (eq. 3.2.1): zone ``z``
        is picked when a uniform draw lands in
        ``[cum_probs[z-1], cum_probs[z])``, and a draw at or past
        ``cum_probs[-1]`` (which rounding can leave just below 1)
        picks the last zone.
    zone_buckets:
        ``ZONE_BUCKETS`` entries: the zone of every draw in bucket
        ``b``, or -1 where the bucket straddles a zone boundary.
    """

    __slots__ = ("cylinders", "zones", "zone_bounds", "zone_counts",
                 "rates", "cum_probs", "zone_buckets")

    def __init__(self, geometry) -> None:
        zone_map = geometry.zone_map
        self.cylinders = int(geometry.cylinders)
        self.zones = int(zone_map.zones)
        # Copies detached from the geometry's private arrays, computed
        # with the exact expressions the per-call code used, so every
        # float matches bit for bit.
        self.zone_bounds = np.array(geometry.zone_bounds)
        self.zone_counts = np.array(geometry.zone_cylinder_counts)
        self.rates = np.array(zone_map.rates)
        weights = self.zone_counts * zone_map.capacities
        probs = weights / np.sum(weights)
        self.cum_probs = np.cumsum(probs)
        # Bucket b's draws pick zones from low[b] (its lower edge's
        # zone) to high[b] (the last zone starting below its upper
        # edge); where the clamped pair agrees, that is every draw's
        # zone.
        edges = np.arange(ZONE_BUCKETS + 1) / ZONE_BUCKETS
        low = np.minimum(np.searchsorted(self.cum_probs, edges[:-1],
                                         side="right"), self.zones - 1)
        high = np.minimum(np.searchsorted(self.cum_probs, edges[1:],
                                          side="left"), self.zones - 1)
        self.zone_buckets = np.where(low == high, low, -1)


def placement_tables(geometry) -> PlacementTables:
    """The (cached) lookup tables of ``geometry``.

    Built on first use and memoised on the geometry instance, so every
    round of every drive sharing the geometry reuses one table set.
    """
    tables = getattr(geometry, "_sweep_tables", None)
    if tables is None:
        tables = PlacementTables(geometry)
        geometry._sweep_tables = tables
    return tables


def zones_of_draws(tables: PlacementTables, u: np.ndarray) -> np.ndarray:
    """Zone of each uniform draw ``u`` in [0, 1) under the
    capacity-weighted zone law: equal to
    ``np.minimum(np.searchsorted(tables.cum_probs, u, side="right"),
    tables.zones - 1)`` for every draw.

    ``ZONE_BUCKETS`` is a power of two, so ``b = int(u * ZONE_BUCKETS)``
    is exact and ``b / ZONE_BUCKETS <= u < (b + 1) / ZONE_BUCKETS``.  The
    clamped ``searchsorted`` is monotone in ``u``, so a bucket whose
    edges give one zone gives it to every draw inside; only draws in
    buckets that straddle a zone boundary (at most one bucket per
    boundary) are searched.
    """
    zone = tables.zone_buckets[(u * ZONE_BUCKETS).astype(np.intp)]
    straddling = zone < 0
    # ``count_nonzero`` skips the ufunc-reduction setup of ``any()``,
    # about 1 us of a few-draw call.
    if np.count_nonzero(straddling):
        found = np.searchsorted(tables.cum_probs, u[straddling],
                                side="right")
        zone[straddling] = np.minimum(found, tables.zones - 1)
    return zone


def sample_zoned(tables: PlacementTables, rng: np.random.Generator,
                 shape) -> tuple[np.ndarray, np.ndarray]:
    """Sector-uniform cylinders and their zones: one ``rng.random(shape)``
    for the zone pick, then one for the position within the zone."""
    zone = zones_of_draws(tables, rng.random(shape))
    # The position is >= 0, so the cast's truncation is its floor.
    offset = (rng.random(shape) * tables.zone_counts[zone]).astype(np.int64)
    return tables.zone_bounds[zone] + offset, zone


def sample_cylinders_rates(spec, rng: np.random.Generator,
                           shape, placement=None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Cylinders and their zone transfer rates under a placement policy
    (default: sector-uniform, eq. 3.2.1).

    Factored out of ``repro.server.simulation``; the RNG is consumed
    exactly as the historical inline code consumed it (one
    ``rng.random(shape)`` for the zone pick, one for the within-zone
    position -- or one for the policy-CDF inverse), so seeded results
    are bit-identical before and after the refactor.
    """
    geometry = spec.geometry
    tables = placement_tables(geometry)
    if placement is not None:
        cdf = np.cumsum(placement.cylinder_probabilities(geometry))
        cylinders = np.searchsorted(cdf, rng.random(shape), side="right")
        cylinders = np.minimum(cylinders, tables.cylinders - 1)
        zone = np.searchsorted(tables.zone_bounds, cylinders,
                               side="right") - 1
        return cylinders.astype(np.int64), tables.rates[zone]
    cylinders, zone = sample_zoned(tables, rng, shape)
    return cylinders, tables.rates[zone]


@lru_cache(maxsize=16)
def seek_table(seek_curve, cylinders: int) -> np.ndarray:
    """Read-only seek time of every distance in ``[0, cylinders)``:
    ``seek_table(curve, c)[d]`` is ``curve(float(d))`` to the bit,
    because the curve is evaluated elementwise on ``float(d)`` either
    way.

    Memoised by value: :class:`~repro.disk.seek.SeekCurve` is a frozen
    dataclass, so the drives of one process that share a curve and a
    cylinder count (every unpickled copy of a spec included) share one
    table.
    """
    table = np.asarray(seek_curve(np.arange(cylinders, dtype=float)),
                       dtype=float)
    table.flags.writeable = False
    return table


def plan_sweep(geometry, seek_curve, arm_cylinder: int,
               cylinders: np.ndarray, sizes: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-request seek and transfer times of one SCAN sweep.

    ``cylinders``/``sizes`` are the round's batch **in serve order**;
    the first seek starts from ``arm_cylinder``.  Returns
    ``(seeks, transfers)`` float arrays aligned with the batch.  The
    plan is valid for any served *prefix* of the batch -- exactly the
    shapes an aborted sweep (deadline passed, disk failed mid-round)
    can take -- because each entry only depends on its predecessor.
    """
    cyl = np.asarray(cylinders, dtype=np.int64)
    if cyl.size == 0:
        return (np.empty(0, dtype=float), np.empty(0, dtype=float))
    if np.any((cyl < 0) | (cyl >= geometry.cylinders)):
        raise GeometryError(
            f"cylinder out of range [0, {geometry.cylinders})")
    tables = placement_tables(geometry)
    previous = np.concatenate(([int(arm_cylinder)], cyl[:-1]))
    seeks = np.asarray(seek_curve(np.abs(cyl - previous)), dtype=float)
    zone = np.searchsorted(tables.zone_bounds, cyl, side="right") - 1
    transfers = np.asarray(sizes, dtype=float) / tables.rates[zone]
    return seeks, transfers
