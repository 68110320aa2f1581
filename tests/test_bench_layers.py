"""Guard for the benchmark's layer map (``bench/layers.py``).

The traced benchmark run wraps public names of the program; a name that
no longer resolves is reported as a ``missing`` layer and the run goes
on.  These tests make a rename that drops a layer fail instead, and
check that the batch and scalar trial loops feed the fault-sampling
layer the same counts.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench.layers import WRAP_POINTS

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_every_wrap_point_resolves():
    unresolved = []
    for point in WRAP_POINTS:
        try:
            owner = importlib.import_module(point.module)
            for part in point.qualname.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{point.module}.{point.qualname}: {exc}")
    assert unresolved == []


#: Traces one Citadel campaign (3DP, TSV-Swap 4, DDS; TSV FIT 1430) and
#: prints the sampling layer's counts.  ``scalar`` collects engine
#: metrics, which keeps the campaign off the batch kernel.
_TRACED_CAMPAIGN = """
import json, sys
from bench.layers import install
recorder = install()
from repro.core.parity3dp import make_3dp
from repro.faults.rates import FailureRates
from repro.reliability.experiments import run_campaign
from repro.stack.geometry import StackGeometry
geometry = StackGeometry()
run_campaign(
    geometry, FailureRates.paper_baseline(tsv_device_fit=1430.0),
    make_3dp(geometry), 2000, 7, shard_size=1000, tsv_swap_standby=4,
    use_dds=True, collect_metrics=sys.argv[1] == "scalar",
)
metrics = recorder.metrics()
print(json.dumps({name: metrics[name] for name in (
    "faults.injector.calls", "faults.injector.faults_sampled",
    "reliability.batch.fast_trials",
)}))
"""


@pytest.mark.parametrize("path", ["batch", "scalar"])
def test_sampling_layer_counts_do_not_depend_on_the_path(path):
    """Both trial loops sample through two wrapped calls per trial and
    count every fault once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _TRACED_CAMPAIGN, path],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    counts = json.loads(completed.stdout.splitlines()[-1])
    assert counts["faults.injector.calls"] == 4000
    assert counts["faults.injector.faults_sampled"] == 4230
    # The batch run screened its trials on the kernel; the scalar did not.
    assert (counts["reliability.batch.fast_trials"] > 0) == (path == "batch")


#: Traces the same campaign under a stratified or importance plan, with
#: engine metrics on, and prints the sampling layer's fault count next
#: to the engine's.
_TRACED_SAMPLED_CAMPAIGN = """
import json, sys
from bench.layers import install
recorder = install()
from repro.core.parity3dp import make_3dp
from repro.faults.rates import FailureRates
from repro.reliability.experiments import run_campaign
from repro.stack.geometry import StackGeometry
geometry = StackGeometry()
result = run_campaign(
    geometry, FailureRates.paper_baseline(tsv_device_fit=1430.0),
    make_3dp(geometry), 2000, 7, shard_size=1000, tsv_swap_standby=4,
    use_dds=True, collect_metrics=True, sampling=sys.argv[1],
)
print(json.dumps({
    "layer": recorder.metrics()["faults.injector.faults_sampled"],
    "engine": result.metrics.counter("engine/faults_sampled"),
}))
"""


@pytest.mark.parametrize(
    "sampling,faults", [("stratified", 4799), ("importance", 4237)]
)
def test_sampled_plans_count_their_faults(sampling, faults):
    """The stratified and importance samplers draw through the wrapped
    ``sample_specs``, so the layer counts every fault the engine saw."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _TRACED_SAMPLED_CAMPAIGN, sampling],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    counts = json.loads(completed.stdout.splitlines()[-1])
    assert counts == {"layer": faults, "engine": faults}
