"""scipy stays off the start-up and model-build paths.

At run time the admission control needs closed forms only, and loading
``scipy.stats`` took most of a ``repro serve`` start.  A fresh
interpreter imports the serve and CLI modules, builds a daemon against
an empty bound store, and runs the ``paper-model`` benchmark child's
imports and model build plus one cold ``AdmissionTable`` build; no
``scipy`` module may be loaded at any of those points.  Then the lazy
import must still serve ``Gamma.cdf``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = r"""
import json
import sys

def loaded():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

perfbench, result_path, table_cache = sys.argv[1:4]
seen = {}

import repro.serve, repro.cli
seen["import"] = loaded()

from repro.cache import cache_stats
from repro.serve import ServeConfig, ServeDaemon
ServeDaemon(ServeConfig(disks=64))
stats = cache_stats()
seen["daemon_cold_solves"] = stats.misses - stats.disk_hits
seen["daemon"] = loaded()

sys.path.insert(0, perfbench)
import paper_model
paper_model._child(["--result", result_path, "--mode", "setup"])
from repro.cache import clear_cache, set_persistent_cache_dir
from repro.core import AdmissionTable, GlitchModel, RoundServiceTimeModel
from repro.disk import quantum_viking_2_1
from repro.distributions import Gamma
clear_cache()
set_persistent_cache_dir(table_cache)
model = RoundServiceTimeModel.for_disk(
    quantum_viking_2_1(), Gamma.from_mean_std(200_000.0, 100_000.0))
AdmissionTable(GlitchModel(model, 0.8), m=1200, g=12).build(
    plate_thresholds=(0.01,), perror_thresholds=(0.01,))
seen["model"] = loaded()

import scipy.stats
seen["lazy_cdf_equal"] = bool(
    Gamma(2.0, 1.0).cdf(1.0) == scipy.stats.gamma(a=2).cdf(1.0))
print(json.dumps(seen))
"""


def test_no_scipy_on_startup_or_model_paths(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    env["REPRO_CACHE_DIR"] = str(tmp_path / "daemon-cache")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"),
         str(tmp_path / "setup.json"), str(tmp_path / "table-cache")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import"] == [], "import repro.serve, repro.cli"
    assert seen["daemon_cold_solves"] > 0
    assert seen["daemon"] == [], "cold ServeDaemon build"
    assert seen["model"] == [], "paper-model child imports + table build"
    assert seen["lazy_cdf_equal"]
