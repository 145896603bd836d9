"""Disk geometry: cylinders, zone boundaries, capacity-weighted placement.

The paper assumes every zone holds the same number of tracks; we map
cylinders to zones by splitting the cylinder range into ``Z`` equal
slices (innermost zone = highest-numbered cylinders or lowest is a
convention; we put zone 0 at the *low* cylinder numbers and let callers
not care, since seek distances only depend on differences).

"Uniform over all sectors" placement (§2.2) means a request's track is
chosen with probability proportional to its capacity; within the
equal-tracks-per-zone assumption this makes the zone law
``P[zone i] = C_i / C`` (eq. 3.2.1) and the cylinder *within* a zone
uniform.
"""

from __future__ import annotations

import numpy as np

from repro.disk.sweepkernel import (placement_tables, sample_zoned,
                                    zones_of_draws)
from repro.disk.zones import ZoneMap
from repro.errors import ConfigurationError, GeometryError

__all__ = ["DiskGeometry"]


class DiskGeometry:
    """Cylinder layout of a zoned disk.

    Parameters
    ----------
    cylinders:
        Total number of cylinders (``CYL`` in the paper).
    zone_map:
        The zone capacity profile.
    surfaces:
        Number of recording surfaces (tracks per cylinder).  It scales
        total capacity but does not affect the service-time model, whose
        track switches are folded into rotational latency.
    """

    def __init__(self, cylinders: int, zone_map: ZoneMap,
                 surfaces: int = 1) -> None:
        if cylinders < zone_map.zones:
            raise ConfigurationError(
                f"cylinders ({cylinders}) must be >= zones "
                f"({zone_map.zones})")
        if surfaces < 1:
            raise ConfigurationError(
                f"surfaces must be >= 1, got {surfaces!r}")
        self.cylinders = int(cylinders)
        self.zone_map = zone_map
        self.surfaces = int(surfaces)
        # Zone boundaries: zone z covers cylinders
        # [bounds[z], bounds[z+1]).  Equal split, remainder spread over
        # the first zones.
        z = zone_map.zones
        base, extra = divmod(self.cylinders, z)
        counts = np.full(z, base, dtype=int)
        counts[:extra] += 1
        self._bounds = np.concatenate(([0], np.cumsum(counts)))
        self._counts = counts

    # ------------------------------------------------------------------
    @property
    def zones(self) -> int:
        """Number of zones."""
        return self.zone_map.zones

    @property
    def zone_bounds(self) -> np.ndarray:
        """Cylinder boundaries: zone ``z`` covers
        ``[zone_bounds[z], zone_bounds[z+1])`` (read-only)."""
        view = self._bounds.view()
        view.flags.writeable = False
        return view

    @property
    def zone_cylinder_counts(self) -> np.ndarray:
        """Cylinders per zone (read-only)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def zone_of_cylinder(self, cylinder) -> np.ndarray | int:
        """Zone index (0 = innermost profile entry) of a cylinder."""
        cyl = np.asarray(cylinder)
        if np.any((cyl < 0) | (cyl >= self.cylinders)):
            raise GeometryError(
                f"cylinder out of range [0, {self.cylinders})")
        result = np.searchsorted(self._bounds, cyl, side="right") - 1
        if np.ndim(cylinder) == 0:
            return int(result)
        return result

    def cylinder_range_of_zone(self, zone: int) -> tuple[int, int]:
        """Half-open cylinder interval ``[start, stop)`` of a zone."""
        if not (0 <= zone < self.zones):
            raise GeometryError(f"zone {zone} out of range [0, {self.zones})")
        return int(self._bounds[zone]), int(self._bounds[zone + 1])

    @property
    def total_capacity(self) -> float:
        """Total formatted capacity in bytes."""
        return float(np.sum(self._counts * self.zone_map.capacities)
                     * self.surfaces)

    # ------------------------------------------------------------------
    def rate_of_cylinder(self, cylinder):
        """Transfer rate (bytes/s) at a cylinder (vectorised)."""
        zone = self.zone_of_cylinder(cylinder)
        return self.zone_map.rates[zone]

    def sample_cylinder(self, rng: np.random.Generator, size=None):
        """Sample cylinders under sector-uniform placement.

        Zone chosen with probability proportional to zone capacity
        (``counts_z * C_z``); cylinder uniform within the zone.  For the
        paper's equal-track zones this reduces to eq. (3.2.1).  The zone
        pick is the sweep kernel's, with its clamp of a draw past a CDF
        that rounding left just below 1.
        """
        tables = placement_tables(self)
        if size is not None:
            return sample_zoned(tables, rng, size)[0]
        # One cylinder, the same two draws: the position in scalar
        # arithmetic, as numpy's per-call cost dominates at this size.
        zone = int(zones_of_draws(tables, rng.random(1))[0])
        width = int(tables.zone_counts[zone])
        return int(tables.zone_bounds[zone]) + int(rng.random() * width)

    def __repr__(self) -> str:
        return (f"DiskGeometry(cylinders={self.cylinders}, "
                f"zones={self.zones}, surfaces={self.surfaces}, "
                f"capacity={self.total_capacity / 1e9:.2f} GB)")
