"""Disk-farm admission: heterogeneous drives and degraded mode.

The paper analyses one disk and multiplies by ``D`` under uniform load
(§3).  Two practical farm questions fall outside that treatment:

**Heterogeneous farms.**  With stride-1 striping every stream visits
every disk once per ``D`` rounds, so each disk serves ``ceil(N/D)``
requests per round regardless of its speed -- the farm's admission is
bound by its *weakest* disk::

    N_max_farm = D * min_i n_max_i

Adding a slow disk to a fast farm can therefore *reduce* total
capacity (bench A18 demonstrates the crossover), which is why real
deployments stripe within homogeneous groups.

**Degraded mode.**  When a disk fails, its mirror serves both its own
round batch and the failed disk's (classic RAID-1 read degradation:
double load on the survivor).  A server that must keep its guarantee
*through* a single failure admits against the doubled-batch bound.

Both scans solve disk by disk in-process: repeated drives of a farm
are answered by the in-memory bound cache (:mod:`repro.cache`), which
made the serial loop about 3.7x faster than a per-call worker pool on
bench A18's workload (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import bisect_max_n
from repro.core.admission import n_max_perror, n_max_plate
from repro.core.glitch import GlitchModel
from repro.core.service_time import RoundServiceTimeModel
from repro.disk.presets import DiskSpec
from repro.distributions import Distribution
from repro.errors import ConfigurationError

__all__ = ["FarmPlan", "plan_farm", "degraded_mode_n_max",
           "degraded_modes", "mirror_of", "shed_target"]


def mirror_of(disk: int, disks: int) -> int | None:
    """RAID-1 partner of ``disk`` in a farm of ``disks`` drives.

    Disks pair up as ``(0, 1), (2, 3), ...``; on an odd-sized farm the
    last disk has no partner and ``None`` is returned (a failure there
    is unrecoverable -- its requests are lost until recovery).
    """
    if not (0 <= disk < disks):
        raise ConfigurationError(
            f"disk {disk} out of range [0, {disks})")
    partner = disk ^ 1
    return partner if partner < disks else None


def shed_target(disks: int, failure_proof: int) -> int:
    """Farm-wide stream count the load-shedding policy degrades to.

    ``failure_proof`` is the per-disk limit of
    :func:`degraded_mode_n_max`: with stride-1 striping the survivor of
    a mirrored pair absorbs its partner's batch, so keeping every disk's
    healthy batch at ``failure_proof`` (total ``disks *
    failure_proof`` streams) keeps the doubled batch within the
    degraded-mode Chernoff bound.
    """
    if disks < 1:
        raise ConfigurationError(f"disks must be >= 1, got {disks!r}")
    if failure_proof < 0:
        raise ConfigurationError(
            f"failure_proof must be >= 0, got {failure_proof!r}")
    return disks * failure_proof


@dataclass(frozen=True)
class FarmPlan:
    """Admission plan of a (possibly heterogeneous) striped farm."""

    per_disk_n_max: tuple[int, ...]
    binding_disk: int
    n_max_total: int

    @property
    def wasted_streams(self) -> int:
        """Streams lost to heterogeneity: what the farm would admit if
        every disk matched its own limit vs the weakest-disk rule."""
        return sum(self.per_disk_n_max) - self.n_max_total


def plan_farm(specs: list[DiskSpec], size_dist: Distribution, t: float,
              m: int, g: int, epsilon: float,
              multizone: bool = True) -> FarmPlan:
    """Admission plan for a striped farm of the given disks.

    Every disk gets its own §3 model; the farm admits
    ``D * min_i n_max_i`` because striping loads all disks equally.
    """
    if not specs:
        raise ConfigurationError("need at least one disk")
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(
            f"epsilon must be in (0, 1), got {epsilon!r}")
    limits = []
    for spec in specs:
        model = RoundServiceTimeModel.for_disk(spec, size_dist,
                                               multizone=multizone)
        limits.append(n_max_perror(GlitchModel(model, t), m, g, epsilon))
    binding = min(range(len(limits)), key=lambda i: limits[i])
    return FarmPlan(per_disk_n_max=tuple(limits), binding_disk=binding,
                    n_max_total=len(specs) * limits[binding])


def degraded_mode_n_max(spec: DiskSpec, size_dist: Distribution,
                        t: float, delta: float,
                        multizone: bool = True, *,
                        exact: bool = False) -> tuple[int, int]:
    """Per-disk stream limits ``(healthy, failure_proof)``.

    ``healthy`` is the usual eq. (3.1.7) limit.  ``failure_proof`` is
    the largest per-disk count whose *doubled* batch (the survivor of a
    mirrored pair absorbing its partner's requests) still meets the
    round deadline with probability ``1 - delta`` -- the admission level
    at which a single disk failure stays invisible to every stream.

    The doubled-batch predicate inherits ``b_late``'s monotonicity in
    ``n``, so the scan is the same O(log) bisection the healthy solver
    uses (``exact=True`` falls back to the exhaustive scan, correct for
    any predicate; the test suite pins bisection == brute force).
    """
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(
            f"delta must be in (0, 1), got {delta!r}")
    model = RoundServiceTimeModel.for_disk(spec, size_dist,
                                           multizone=multizone)
    healthy = n_max_plate(model, t, delta, exact=exact)
    if healthy < 1:
        return healthy, 0
    failure_proof = bisect_max_n(
        lambda n: model.b_late(2 * n, t) <= delta, healthy,
        full_scan=exact)
    return healthy, failure_proof


def degraded_modes(specs: list[DiskSpec], size_dist: Distribution,
                   t: float, delta: float,
                   multizone: bool = True) -> list[tuple[int, int]]:
    """:func:`degraded_mode_n_max` for every disk of a farm."""
    if not specs:
        raise ConfigurationError("need at least one disk")
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(
            f"delta must be in (0, 1), got {delta!r}")
    return [degraded_mode_n_max(spec, size_dist, t, delta,
                                multizone=multizone) for spec in specs]
