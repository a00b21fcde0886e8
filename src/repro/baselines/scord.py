"""ScoRD: the hardware scoped-race detector (ISCA'20), as a mode of iGUARD.

ScoRD is the authors' earlier proposal: the same scoped-race detection
logic implemented in *new GPU hardware*.  iGUARD "borrows its race
detection logic to detect improper use of scopes", extending it with ITS
(the WarpBarID / ThreadID machinery) and the lockset technique.  ScoRD is
therefore naturally expressed as a configuration of our detector:

- ``its_support=False`` — no syncwarp tracking; same-warp accesses are
  assumed lockstep-ordered, so ITS races are missed (the paper found 5
  previously unreported ITS races in ScoRD's own benchmark suite);
- ``lockset=False`` — ScoRD uses happens-before for lock inference rather
  than locksets;
- hardware cost model — metadata is updated by dedicated units alongside
  the memory pipeline, so overheads stay below 1x-ish (Table 1: "Low").
"""

from __future__ import annotations

from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.core.contention import ContentionParams
from repro.core.detector import DetectorCosts, IGuard


#: Hardware-assist cost model: dedicated units hide almost all latency.
SCORD_COSTS = DetectorCosts(
    nvbit_fixed=0.0,
    nvbit_fraction=0.0,
    nvbit_per_instruction=0.0,
    setup_fixed=5.0,
    setup_fraction=0.02,
    misc_fixed=2.0,
    misc_fraction=0.01,
    instrument_per_event=0.0,
    check_per_access=1.5,
    sync_per_event=0.5,
    coalesced_skip=0.0,
)

#: Hardware arbitration replaces software spin locks on metadata.
SCORD_CONTENTION = ContentionParams(retry_cost=0.5, backoff_cost=0.2)


class ScoRD(IGuard):
    """iGUARD's logic in its ScoRD configuration with hardware costs."""

    name = "ScoRD"

    def __init__(self, config: IGuardConfig = DEFAULT_CONFIG):
        super().__init__(
            config=config.scord_mode(),
            costs=SCORD_COSTS,
            contention_params=SCORD_CONTENTION,
        )
