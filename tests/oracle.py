"""Reference states built independently of the pipelines, for cross-checks.

``pdc_emit`` expands a down-conversion emission of one or two pairs as
one state.  The pipelines never build it: stage 1 treats a double
emission as two independent single pairs.  It is kept here as input for
an oracle that compares the two pictures.
"""

import math
from itertools import combinations_with_replacement

from kerrpurify import BranchState, ModeLabel, PureState, single_pair_state
from kerrpurify.sources import CLEAN


def pdc_emit(order: int) -> PureState:
    """Normalized emission of the given order (1 or 2 pairs).

    Order 2 carries pair-level statistics: each emitted pair is an
    independent copy of the single-pair superposition, so crossed patterns
    carry amplitude 2 and doubled patterns sqrt(2) before normalization
    (4:2 in probability).
    """
    if order == 1:
        return single_pair_state()
    if order != 2:
        raise ValueError("emission order must be 1 or 2")
    branches = []
    for (i, t1), (j, t2) in combinations_with_replacement(list(enumerate(CLEAN)), 2):
        occ: dict[ModeLabel, int] = {}
        for m in t1 + t2:
            occ[m] = occ.get(m, 0) + 1
        amp = 2.0 if i != j else math.sqrt(2.0)
        branches.append(BranchState.of(occ, amp))
    return PureState.of(branches).normalize()
