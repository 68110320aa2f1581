"""Rule registry for reprolint.

Each rule lives in its own module and registers by being listed in
``ALL_CHECKERS`` (per-file rules) or ``ALL_PROJECT_CHECKERS``
(whole-program rules that run in pass 2 over the assembled
:class:`~tools.reprolint.project.ProjectContext`).  Adding a rule =
write a :class:`~tools.reprolint.engine.Checker` /
:class:`~tools.reprolint.engine.ProjectChecker` subclass, import it
here, append it to the right tuple.
"""

from __future__ import annotations

from typing import Optional, Tuple, Type

from tools.reprolint.engine import Checker, ProjectChecker
from tools.reprolint.rules.repro001_rng import UnseededRandomChecker
from tools.reprolint.rules.repro002_geometry import MagicGeometryLiteralChecker
from tools.reprolint.rules.repro003_floateq import FloatEqualityChecker
from tools.reprolint.rules.repro004_mutable_defaults import MutableDefaultChecker
from tools.reprolint.rules.repro005_units import FitUnitDisciplineChecker
from tools.reprolint.rules.repro006_dataclass_validation import (
    DataclassValidationChecker,
)
from tools.reprolint.rules.repro007_telemetry import TelemetryDisciplineChecker
from tools.reprolint.rules.repro008_taint import DeterminismTaintChecker
from tools.reprolint.rules.repro009_locks import LockDisciplineChecker
from tools.reprolint.rules.repro011_contract_args import (
    ContractMessageCallChecker,
)

ALL_CHECKERS: Tuple[Type[Checker], ...] = (
    UnseededRandomChecker,
    MagicGeometryLiteralChecker,
    FloatEqualityChecker,
    MutableDefaultChecker,
    FitUnitDisciplineChecker,
    DataclassValidationChecker,
    TelemetryDisciplineChecker,
    ContractMessageCallChecker,
)

ALL_PROJECT_CHECKERS: Tuple[Type[ProjectChecker], ...] = (
    DeterminismTaintChecker,
    LockDisciplineChecker,
)


def checker_by_code(code: str) -> Optional[Type[Checker]]:
    for cls in (*ALL_CHECKERS, *ALL_PROJECT_CHECKERS):
        if cls.code == code:
            return cls
    return None


__all__ = [
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "checker_by_code",
    "DeterminismTaintChecker",
    "LockDisciplineChecker",
    "UnseededRandomChecker",
    "MagicGeometryLiteralChecker",
    "FloatEqualityChecker",
    "MutableDefaultChecker",
    "FitUnitDisciplineChecker",
    "DataclassValidationChecker",
    "TelemetryDisciplineChecker",
    "ContractMessageCallChecker",
]
