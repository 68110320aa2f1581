"""Incremental kernel for the pairwise-predicate correction models.

SECDED, 2D-ECC, RAID-5 and the symbol code all decide uncorrectability
as a *monotone disjunction*: the live set is fatal iff some single fault
is fatal alone or some unordered pair is jointly fatal.  That structure
buys two short-circuits the from-scratch path cannot use:

* **monotonicity** — adding a fault can only add disjuncts, so once any
  test has fired the trial verdict can never revert; ``observe`` answers
  immediately without re-scanning;
* **locality** — a new arrival can only change the verdict through pairs
  it participates in, so one arrival costs one pass over the live list
  instead of the O(F^2) all-pairs pass that ``is_uncorrectable`` redoes
  after every arrival.

There is no occupancy index: the batch kernel screens every naive
campaign of these schemes, so this kernel runs on fallback trials and on
telemetry or sampled runs, which hold at most a handful of live faults
at Table I rates.  BCH pools bit counts over *groups* of line-sharing
faults, not bare pairs, and answers from its own predicate through the
:class:`~repro.ecc.base.CorrectionModel` fallback — see
``repro.ecc.bch``.

This module is part of the instrumented correction stack: reprolint's
REPRO007 telemetry discipline applies to it.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.ecc.base import CorrectionModel
from repro.faults.types import Fault
from repro.stack.geometry import StackGeometry


class IncrementalPairwiseModel(CorrectionModel):
    """Shared incremental kernel for monotone single/pair predicates.

    Subclasses supply the predicate as two hooks — ``_fatal_alone`` and
    the *symmetric* ``_fatal_pair``.  Both the shared
    ``is_uncorrectable`` and the incremental path evaluate exactly these
    hooks, so the two paths cannot drift apart.

    The benchmark's per-layer wrap table resolves this class by its
    module and name, so a rename reads ``null`` in every traced ``ecc``
    metric until the table follows it.
    """

    incremental_kernel = True

    def __init__(self, geometry: StackGeometry) -> None:
        super().__init__(geometry)
        self._inc_fatal = False

    # -------------------------- predicate hooks ----------------------- #
    def _fatal_alone(self, fault: Fault) -> bool:
        raise NotImplementedError

    def _fatal_pair(self, a: Fault, b: Fault) -> bool:
        raise NotImplementedError

    # ----------------------- from-scratch predicate ------------------- #
    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        for fault in faults:
            if self._fatal_alone(fault):
                return True
        for a, b in itertools.combinations(faults, 2):
            if self._fatal_pair(a, b):
                return True
        return False

    # ----------------------- incremental protocol --------------------- #
    def begin_trial(self) -> None:
        self._inc_live = []
        self._inc_fatal = False

    def observe(self, fault: Fault) -> bool:
        if not self._inc_fatal:
            if self._fatal_alone(fault):
                self._inc_fatal = True
            else:
                for other in self._inc_live:
                    if self._fatal_pair(fault, other):
                        self._inc_fatal = True
                        break
        self._inc_live.append(fault)
        return self._inc_fatal

    def rebuild(self, live: Sequence[Fault]) -> None:
        current = {f.uid for f in self._inc_live}
        removal_only = all(f.uid in current for f in live)
        if removal_only and not self._inc_fatal:
            # Dropping faults from a correctable set cannot fire a
            # monotone predicate: keep the survivors without re-testing.
            self._inc_live = list(live)
            return
        # Additions (DDS re-exposure) or an uncorrectable carry-over:
        # replay the set through the kernel.
        self.begin_trial()
        for fault in live:
            self.observe(fault)
