"""Guard for the benchmark's layer map (``bench/layers.py``).

The traced benchmark run wraps public names of the program; a name that
no longer resolves is reported as a ``missing`` layer and the run goes
on.  This test makes a rename that drops a layer fail instead.
"""

import importlib

from bench.layers import WRAP_POINTS


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
