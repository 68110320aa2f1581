"""Registry of correction-scheme factories.

Single source of truth for the scheme names accepted everywhere a
campaign is described — the ``repro reliability`` CLI, the campaign
service's job specs (:mod:`repro.service.jobs`) and scripted sweeps.
Each entry maps a stable public name to a factory
``StackGeometry -> CorrectionModel``.

The ``citadel`` entry is the 3DP correction model; the TSV-Swap and DDS
mitigations it implies are engine-level features, applied by
:func:`scheme_mitigations` when a :class:`repro.service.jobs.CampaignSpec`
(the campaign description of the CLI and the service) is built.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.parity3dp import make_1dp, make_2dp, make_3dp
from repro.ecc import BCHCode, RAID5, SECDED, SymbolCode, TwoDimECC
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy

#: name -> factory(geometry) for every correctability model.
SCHEMES: Dict[str, Callable[[StackGeometry], object]] = {
    "1dp": make_1dp,
    "2dp": make_2dp,
    "3dp": make_3dp,
    "citadel": make_3dp,  # + TSV-Swap + DDS, wired by the engine config
    "symbol-same-bank": lambda g: SymbolCode(g, StripingPolicy.SAME_BANK),
    "symbol-across-banks": lambda g: SymbolCode(g, StripingPolicy.ACROSS_BANKS),
    "symbol-across-channels": lambda g: SymbolCode(
        g, StripingPolicy.ACROSS_CHANNELS
    ),
    "bch": lambda g: BCHCode(g),
    "raid5": lambda g: RAID5(g),
    "secded": lambda g: SECDED(g),
    "2d-ecc": lambda g: TwoDimECC(g),
}

#: TSV-Swap stand-by budget implied by the ``citadel`` scheme.
CITADEL_DEFAULT_STANDBY_TSVS = 4


def scheme_mitigations(
    scheme: str, tsv_swap: Optional[int], dds: bool
) -> Tuple[Optional[int], bool]:
    """The ``(TSV-Swap stand-by budget, DDS)`` a ``scheme`` campaign runs
    with, given the requested ones: ``citadel`` is 3DP + TSV-Swap(4) +
    DDS, so it fills in an unset budget and always enables DDS; every
    other scheme runs exactly what was asked."""
    if scheme == "citadel":
        if tsv_swap is None:
            tsv_swap = CITADEL_DEFAULT_STANDBY_TSVS
        return tsv_swap, True
    return tsv_swap, dds
