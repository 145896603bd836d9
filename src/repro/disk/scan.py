"""SCAN (elevator) batch service.

During each round all requests of one disk are sorted by cylinder and
served in a single sweep of the arm (§2.3).  The sweep direction
alternates between rounds (classic elevator), and the first seek of a
sweep starts from wherever the previous sweep left the arm.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.disk.drive import DiskDrive
from repro.disk.request import DiskRequest, ServiceBreakdown

__all__ = [
    "order_scan",
    "order_fifo",
    "order_sstf",
    "order_cscan",
    "batch_seek_time",
    "sweep_service",
    "lumped_seek_time",
]


def order_scan(requests: Sequence[DiskRequest],
               ascending: bool = True) -> list[DiskRequest]:
    """Return the requests in SCAN order.

    Ties on the same cylinder keep their input order (stable sort), which
    matches a drive that serves co-located requests in rotational order.
    """
    ordered = sorted(requests, key=lambda r: r.cylinder)
    if not ascending:
        ordered.reverse()
    return ordered


def order_fifo(requests: Sequence[DiskRequest]) -> list[DiskRequest]:
    """Arrival order -- the no-scheduling baseline."""
    return list(requests)


def order_sstf(requests: Sequence[DiskRequest],
               start_cylinder: int) -> list[DiskRequest]:
    """Shortest-seek-time-first: greedily pick the nearest pending
    request.  Classic throughput heuristic; can starve edge requests in
    open systems, but inside a fixed round batch it simply reorders."""
    pending = list(requests)
    ordered: list[DiskRequest] = []
    position = start_cylinder
    while pending:
        nearest = min(pending, key=lambda r: abs(r.cylinder - position))
        pending.remove(nearest)
        ordered.append(nearest)
        position = nearest.cylinder
    return ordered


def order_cscan(requests: Sequence[DiskRequest]) -> list[DiskRequest]:
    """Circular SCAN: always sweep in ascending order; the arm flies
    back to the batch's lowest cylinder before each round.  Uniform
    service (no direction-dependent latency skew) at the cost of the
    fly-back seek, which :func:`batch_seek_time` charges."""
    return sorted(requests, key=lambda r: r.cylinder)


def batch_seek_time(drive: DiskDrive, ordered: Sequence[DiskRequest],
                    include_initial: bool = True) -> float:
    """Total seek time of serving ``ordered`` as given, starting from
    the drive's arm position (the drive is not moved)."""
    if not ordered:
        return 0.0
    cylinders = np.array([r.cylinder for r in ordered], dtype=float)
    hops = np.abs(np.diff(cylinders))
    total = float(np.sum(drive.seek_curve(hops))) if hops.size else 0.0
    if include_initial:
        total += float(drive.seek_curve(
            abs(cylinders[0] - drive.arm_cylinder)))
    return total


def lumped_seek_time(drive: DiskDrive, requests: Sequence[DiskRequest],
                     ascending: bool = True,
                     include_initial: bool = True) -> float:
    """Total seek time of one SCAN sweep over ``requests``.

    This is the simulated counterpart of the Oyang bound ``SEEK`` used by
    the analytic model; ablation A5 compares the two.  The drive's arm is
    *not* moved.

    Parameters
    ----------
    include_initial:
        Whether to charge the seek from the arm's current position to the
        first request of the sweep.
    """
    return batch_seek_time(drive, order_scan(requests, ascending),
                           include_initial)


def sweep_service(drive: DiskDrive, requests: Sequence[DiskRequest],
                  rng: np.random.Generator, ascending: bool = True
                  ) -> list[tuple[DiskRequest, ServiceBreakdown]]:
    """Serve a batch with one SCAN sweep, mutating the drive state.

    Returns ``(request, breakdown)`` pairs in service order; completion
    times are the running sums of the breakdown totals.
    """
    ordered = order_scan(requests, ascending=ascending)
    return [(request, drive.serve(request, rng)) for request in ordered]
