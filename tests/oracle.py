"""References built independently of the pipelines, for cross-checks.

``pdc_emit`` expands a down-conversion emission of one or two pairs as
one state.  The pipelines never build it: stage 1 treats a double
emission as two independent single pairs.  It is kept here as input for
an oracle that compares the two pictures.

``per_medium_phases`` runs a detector the long way, in phases: one
``PhaseTag`` step per Kerr medium and branch at the config's angles,
from the media of ``MEDIA``, a table of its own written from the paper
rather than read from the library's.
The library's detectors add probe counts and read them as phases only
at the end; ``rendered_phases`` reads a count-valued state that way, so
the two can be compared at any angles.
"""

import math
from itertools import combinations_with_replacement

from kerrpurify import (BranchState, ModeLabel, Party, Pol, PureState, Spatial, Variant, pbs,
                        single_pair_state)
from kerrpurify.sources import CLEAN

U, L, H, V = Spatial.UPPER, Spatial.LOWER, Pol.H, Pol.V

# Each party's Kerr media per detector, after Sheng, Deng and Zhou, PRA 77,
# 042308 (2008), and the cross-Kerr parity gate of Nemoto and Munro, PRL 93,
# 250502 (2004): (spatial port, polarization, QndConfig angle, sign); n
# photons in that mode shift the party's own probe by n * sign * angle.
# qnd3's media sit behind a PBS on the party's two ports.
MEDIA = {
    Variant.QND1: ((U, H, "theta", 1), (L, V, "theta", 1),
                   (U, V, "theta_prime", 1), (L, H, "theta_prime", 1)),
    Variant.QND2: ((U, H, "theta", 1), (L, V, "theta", 1)),  # theta = pi: the parity
    Variant.QND3: ((U, H, "theta", 1), (U, V, "theta", 1),
                   (L, H, "theta_prime", 1), (L, V, "theta_prime", 1)),
    Variant.QND4: ((U, H, "theta", 1), (L, H, "theta", -1)),
}


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


def _merged(items) -> dict:
    """{key: summed amplitude} over (key, amplitude) items, dropping the
    amplitudes that cancel."""
    out: dict = {}
    for key, amplitude in items:
        out[key] = out.get(key, 0) + amplitude
    return {k: a for k, a in out.items() if abs(a) >= 1e-12}


def rendered_phases(state: PureState, cfg) -> dict:
    """{(occupations, phase_a, phase_b): amplitude}: the state's probe counts
    read as phases at ``cfg``'s angles, branches of one phase pair added."""
    return _merged(((b.occupations, *map(cfg.phase, b.probe)), b.amplitude)
                   for b in state.branches)


def per_medium_phases(state: PureState, cfg) -> dict:
    """The detector ``cfg`` names, in phases: after qnd3's beam splitters,
    each medium of ``MEDIA`` adds sign * angle per photon in its
    mode to its party's phase, one ``PhaseTag`` step per medium and branch.
    Returns what ``rendered_phases`` returns.  The one-photon-per-port
    check of qnd2 and qnd4 is the caller's."""
    if cfg.variant == Variant.QND3:
        state = pbs(pbs(state, Party.ALICE), Party.BOB)
    items = []
    for b in state.branches:
        phases = [cfg.phase(counts) for counts in b.probe]
        for spatial, pol, angle, sign in MEDIA[cfg.variant]:
            for party in Party:
                n = b.occupation(ModeLabel(party, spatial, pol))
                phases[party] = phases[party] + getattr(cfg, angle) * (sign * n)
        items.append(((b.occupations, *phases), b.amplitude))
    return _merged(items)


def assert_same_phases(got: dict, want: dict, tol: float = 1e-12) -> None:
    assert got.keys() == want.keys(), set(got) ^ set(want)
    for key, amplitude in got.items():
        assert abs(amplitude - want[key]) <= tol, (key, amplitude, want[key])
