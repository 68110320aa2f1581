"""REPRO007 — telemetry discipline in instrumented modules.

The observability layer (``repro.telemetry``) owns every side channel of
the instrumented hot paths: console output goes through
``telemetry.console.out``/``err`` (so stdout stays a clean result
artifact), and wall-clock readings go through ``telemetry.registry``
timers built on ``time.monotonic`` (``time.time`` is not monotonic and
leaks nondeterminism into anything that records it).  This rule flags,
in the reliability engine, the core correction stack (with 3DP's
component kernel), the ECC models (with the pairwise kernel of
``ecc/incremental.py``), the perf model and the CLI:

* any call to the builtin ``print(...)``;
* any call to ``time.time()`` (including ``from time import time``).

``time.monotonic()`` stays allowed — it is the sanctioned clock for
timers and progress throttling.  The telemetry package itself is exempt:
it is the module these helpers live in.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import Checker, FileContext, Finding
from tools.reprolint.rules.common import imported_names, module_aliases


class TelemetryDisciplineChecker(Checker):
    code = "REPRO007"
    name = "telemetry-discipline"
    description = (
        "instrumented modules must not call print() or time.time(); "
        "route output through repro.telemetry.console and clocks through "
        "telemetry timers (time.monotonic)"
    )
    include = (
        "src/repro/reliability/*",
        "src/repro/core/*",
        "src/repro/ecc/*",
        "src/repro/perf/*",
        "src/repro/replay/*",
        "src/repro/service/*",
        "src/repro/cli.py",
    )
    exclude = ("src/repro/telemetry/*",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        time_aliases = module_aliases(ctx.tree, "time")
        time_func_names = {
            name for name in imported_names(ctx.tree, "time") if name == "time"
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield self.finding(
                    ctx, node,
                    "print() in an instrumented module; use "
                    "repro.telemetry.console.out()/err() so stdout stays "
                    "a clean result artifact",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ):
                yield self.finding(
                    ctx, node,
                    "time.time() is wall-clock and non-monotonic; use "
                    "time.monotonic() (telemetry timers) instead",
                )
            elif isinstance(func, ast.Name) and func.id in time_func_names:
                yield self.finding(
                    ctx, node,
                    "time() imported from the time module is wall-clock; "
                    "use time.monotonic() (telemetry timers) instead",
                )
