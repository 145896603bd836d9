"""Workload substrate: fragment-size laws and VBR video traces.

The paper's experiments draw fragment sizes from a Gamma law whose
moments come from "statistical studies of the size distribution of
compressed-video data fragments [Ros95, KH95]".  This package provides

- the parametric laws (:mod:`repro.workload.fragmentsize`), including
  the exact Table-1 parameter set,
- a synthetic MPEG GoP-structured VBR *trace* generator
  (:mod:`repro.workload.vbr`) in the spirit of those studies,
- constant-display-time fragmentation of traces (§2.1,
  :mod:`repro.workload.fragmentation`), and
- an object catalog / session generator (:mod:`repro.workload.catalog`)
  for full-server experiments.
"""

from repro.workload.fragmentsize import (
    paper_fragment_sizes,
    lognormal_fragment_sizes,
    truncated_pareto_fragment_sizes,
)
from repro.workload.vbr import MpegGopModel
from repro.workload.fragmentation import fragment_trace
from repro.workload.catalog import VideoObject, Catalog
from repro.workload.arrivals import PoissonArrivals, DiurnalArrivals
from repro.workload.trace_io import (
    save_trace,
    load_trace,
    save_catalog,
    load_catalog,
)

__all__ = [
    "paper_fragment_sizes",
    "lognormal_fragment_sizes",
    "truncated_pareto_fragment_sizes",
    "MpegGopModel",
    "fragment_trace",
    "VideoObject",
    "Catalog",
    "PoissonArrivals",
    "DiurnalArrivals",
    "save_trace",
    "load_trace",
    "save_catalog",
    "load_catalog",
]
