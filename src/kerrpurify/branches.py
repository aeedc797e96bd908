"""Reference branch transformations for the four QND detector gadgets.

Each case pins down the exact normalized output (occupation patterns,
amplitudes, probe counts) that a detector must produce for one
physically meaningful input class: single emitted pairs with and
without a transmission bit flip, double emissions with zero, one or
two flipped pairs, the four two-pair Bell products through the
parity-check detector, and the opposite-shift parity layout.  Inputs
and expectations are ``sources.operator_state`` polynomials over the
source's pair terms; a two-pair term (``HHVV`` and the like) is an
upper pair term plus a lower one.

Probe counts hold no angle, so each case compares its detector's output
with its expectation once per process.  At an angle pair the suite
builds the configs, which reject angles whose phases would not keep the
counts apart, and renders the counts of a mismatch as phases; a passing
case prints no phase, so it returns one frozen result at every pair.
Once every case is known to pass, a suite at any pair runs no case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .fock import ConfigError, PhaseTag, PureState
from .qnd import QndConfig, Variant, apply_qnd, default_config
from .sources import (
    A1H, A1V, A2H, A2V, B1H, B1V, B2H, B2V,
    CLEAN, FLIPPED, U1, U2, U3, U4, F1, F2, F3, F4,
    operator_state,
)

# output-port terms of the two-Kerr detector acting on a flipped pair
G1, G2, G3, G4 = (A1V, B2H), (A1H, B2V), (A2V, B1H), (A2H, B1V)

# two pairs, one on the upper ports and one on the lower, named by the
# polarizations of (a1, b1, a2, b2): an upper pair term plus a lower one
HHHH, HHVV, VVHH, VVVV = U1 + U3, U1 + U4, U2 + U3, U2 + U4
HHHV, HHVH, VVHV, VVVH = U1 + F4, U1 + F3, U2 + F4, U2 + F3
VHHH, VHVV, HVHH, HVVV = F1 + U3, F1 + U4, F2 + U3, F2 + U4
VHVH, VHHV, HVVH, HVHV = F1 + F3, F1 + F4, F2 + F3, F2 + F4


# each phase recipe of the expected entries as probe counts (a, b), the phase
# a*theta + b*theta'; qnd2's theta is pi, so its "pi" is one theta
_COUNTS = {"0": (0, 0), "pi": (1, 0), "t": (1, 0), "tp": (0, 1), "2t": (2, 0),
           "2tp": (0, 2), "t+tp": (1, 1), "-t": (-1, 0)}


@dataclass(frozen=True, eq=False)  # a module constant, hashed by identity for its cache
class BranchCase:
    case_id: str
    variant: Variant
    description: str
    input_entries: tuple
    expected_entries: tuple  # (coeff, groups, (phase_recipe_a, phase_recipe_b))

    def input_state(self) -> PureState:
        return operator_state(self.input_entries)

    def expected_state(self) -> PureState:
        return operator_state([(coeff, groups, (_COUNTS[ra], _COUNTS[rb]))
                               for coeff, groups, (ra, rb) in self.expected_entries])

    @functools.cache  # the counts hold no angle: one comparison per process
    def mismatches(self) -> tuple:
        """The branches where the detector's output and the expectation differ."""
        actual = apply_qnd(self.input_state(), self.variant)
        return _mismatches(actual, self.expected_state())

    @functools.cache  # a pass prints no phase, so every angle pair shares it
    def passing_result(self) -> CaseResult:
        return CaseResult(self.case_id, self.description, True)


BRANCH_CASES = (
    BranchCase(
        "qnd1-single-clean", Variant.QND1,
        "one emitted pair, no errors: equal shifts, spatial classes split",
        ((1, (CLEAN,)),),
        (
            (1, ((U1, U4),), ("t", "t")),
            (1, ((U2, U3),), ("tp", "tp")),
        ),
    ),
    BranchCase(
        "qnd1-single-flipped", Variant.QND1,
        "one emitted pair with a bit flip: the parties read different shifts",
        ((1, (FLIPPED,)),),
        (
            (1, ((F1, F4),), ("tp", "t")),
            (1, ((F2, F3),), ("t", "tp")),
        ),
    ),
    BranchCase(
        "qnd1-double-clean", Variant.QND1,
        "double emission, no errors: equal shifts 2t, 2t' or t+t'",
        ((1, (CLEAN, CLEAN)),),
        (
            (1, ((U1, U4), (U1, U4)), ("2t", "2t")),
            (1, ((U2, U3), (U2, U3)), ("2tp", "2tp")),
            (2, ((U1, U4), (U2, U3)), ("t+tp", "t+tp")),
        ),
    ),
    BranchCase(
        "qnd1-double-one-flip", Variant.QND1,
        "double emission, one pair flipped: no branch with equal shifts",
        ((1, (CLEAN, FLIPPED)),),
        (
            (1, ((U1, U4), (F1, F4)), ("t+tp", "2t")),
            (1, ((U1, U4), (F2, F3)), ("2t", "t+tp")),
            (1, ((U2, U3), (F1, F4)), ("2tp", "t+tp")),
            (1, ((U2, U3), (F2, F3)), ("t+tp", "2tp")),
        ),
    ),
    BranchCase(
        "qnd1-double-two-flips", Variant.QND1,
        "double emission, both pairs flipped: t+t' branch survives the keep rule",
        ((1, (FLIPPED, FLIPPED)),),
        (
            (1, ((F2, F3), (F2, F3)), ("2t", "2tp")),
            (1, ((F1, F4), (F1, F4)), ("2tp", "2t")),
            (2, ((F1, F4), (F2, F3)), ("t+tp", "t+tp")),
        ),
    ),
    BranchCase(
        "qnd2-phi-phi", Variant.QND2,
        "phi+ x phi+ through the parity gadget: equal shifts pi,pi or 0,0",
        ((1, ((HHHH, HHVV, VVHH, VVVV),)),),
        (
            (1, ((HHHH, VVVV),), ("pi", "pi")),
            (1, ((HHVV, VVHH),), ("0", "0")),
        ),
    ),
    BranchCase(
        "qnd2-phi-psi", Variant.QND2,
        "phi+ x psi+: the parties never read equal shifts",
        ((1, ((HHHV, HHVH, VVHV, VVVH),)),),
        (
            (1, ((HHVH, VVHV),), ("0", "pi")),
            (1, ((HHHV, VVVH),), ("pi", "0")),
        ),
    ),
    BranchCase(
        "qnd2-psi-phi", Variant.QND2,
        "psi+ x phi+: the parties never read equal shifts",
        ((1, ((VHHH, VHVV, HVHH, HVVV),)),),
        (
            (1, ((VHHH, HVVV),), ("0", "pi")),
            (1, ((VHVV, HVHH),), ("pi", "0")),
        ),
    ),
    BranchCase(
        "qnd2-psi-psi", Variant.QND2,
        "psi+ x psi+: equal shifts, kept and indistinguishable from no-error",
        ((1, ((VHVH, VHHV, HVVH, HVHV),)),),
        (
            (1, ((VHVH, HVHV),), ("pi", "pi")),
            (1, ((VHHV, HVVH),), ("0", "0")),
        ),
    ),
    BranchCase(
        "qnd3-single-clean", Variant.QND3,
        "one pair, no errors, two-Kerr detector: equal shifts per output port",
        ((1, (CLEAN,)),),
        (
            (1, ((U1, U2),), ("t", "t")),
            (1, ((U3, U4),), ("tp", "tp")),
        ),
    ),
    BranchCase(
        "qnd3-single-flipped", Variant.QND3,
        "one flipped pair, two-Kerr detector: different shifts, crossed ports",
        ((1, (FLIPPED,)),),
        (
            (1, ((G1, G2),), ("t", "tp")),
            (1, ((G3, G4),), ("tp", "t")),
        ),
    ),
    BranchCase(
        "qnd3-double-clean", Variant.QND3,
        "double emission, no errors, two-Kerr detector: keep the t+t' class",
        ((1, (CLEAN, CLEAN)),),
        (
            (1, ((U1, U2), (U1, U2)), ("2t", "2t")),
            (1, ((U3, U4), (U3, U4)), ("2tp", "2tp")),
            (2, ((U1, U2), (U3, U4)), ("t+tp", "t+tp")),
        ),
    ),
    BranchCase(
        "qnd3-double-two-flips", Variant.QND3,
        "double emission, both pairs flipped, two-Kerr detector",
        ((1, (FLIPPED, FLIPPED)),),
        (
            (1, ((G3, G4), (G3, G4)), ("2tp", "2t")),
            (1, ((G1, G2), (G1, G2)), ("2t", "2tp")),
            (2, ((G1, G2), (G3, G4)), ("t+tp", "t+tp")),
        ),
    ),
    BranchCase(
        "qnd4-two-pair-parity", Variant.QND4,
        "opposite-shift parity layout: even parity at 0, odd split into +t / -t",
        ((1, ((HHHH, VVVV, HHVV, VVHH),)),),
        (
            (1, ((HHHH, VVVV),), ("0", "0")),
            (1, ((HHVV,),), ("t", "t")),
            (1, ((VVHH,),), ("-t", "-t")),
        ),
    ),
)

CASE_IDS = tuple(c.case_id for c in BRANCH_CASES)


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    description: str
    passed: bool
    detail: str = ""


def _mismatches(actual: PureState, expected: PureState) -> tuple:
    """The (actual, expected) branch pairs of one key that differ, amplitudes
    to 1e-10; a branch missing on one side is None there."""
    want = {b.key(): b for b in expected.branches}
    pairs = [(b, want.pop(b.key(), None)) for b in actual.branches]
    return tuple((got, exp) for got, exp in pairs + [(None, b) for b in want.values()]
                 if got is None or exp is None or abs(got.amplitude - exp.amplitude) > 1e-10)


def _describe(mismatches: tuple, cfg: QndConfig) -> str:
    """The first mismatch in the order of the printed keys, with its probe
    counts printed as phases at ``cfg``'s angles."""

    def printed(pair):
        branch = pair[0] or pair[1]
        return str(branch.occupations), str(tuple(map(cfg.phase, branch.probe)))

    got, exp = min(mismatches, key=printed)
    branch = got or exp
    tag_a, tag_b = map(cfg.phase, branch.probe)
    label = f"branch {dict(branch.occupations)} probes ({tag_a}, {tag_b})"
    if got is None:
        return f"missing {label} (expected amplitude {exp.amplitude:.6g})"
    if exp is None:
        return f"unexpected {label} (amplitude {got.amplitude:.6g})"
    return f"{label}: amplitude {got.amplitude:.12g}, expected {exp.amplitude:.12g}"


def run_branch_case(case: BranchCase, cfg: QndConfig) -> CaseResult:
    """The case's check, a mismatch reported at the angles of ``cfg``, a
    config of the case's detector; a pass is the case's one frozen result."""
    for name, value, kind in (("case", case, BranchCase), ("cfg", cfg, QndConfig)):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} is a {kind.__name__}, not {type(value).__name__}")
    if cfg.variant != case.variant:
        raise ConfigError(f"case {case.case_id} runs {case.variant.value}, "
                          f"not {cfg.variant.value}")
    mismatches = case.mismatches()
    if not mismatches:
        return case.passing_result()
    return CaseResult(case.case_id, case.description, False, _describe(mismatches, cfg))


@functools.cache  # the counts hold no angle: one verdict per process
def _passing_suite() -> tuple:
    """Every case's frozen passing result, in case order, or () if a case fails."""
    failing = any(case.mismatches() for case in BRANCH_CASES)
    return () if failing else tuple(case.passing_result() for case in BRANCH_CASES)


def run_branch_suite(theta: PhaseTag | None = None,
                     theta_prime: PhaseTag | None = None,
                     only=None) -> list:
    """Run the transformation suite, or only the case ids ``only`` names;
    an empty selection raises ValueError like an unknown case id.

    theta/theta_prime override the defaults of the one- and two-Kerr
    detectors (the opposite-shift layout uses theta).  The qnd1, qnd3 and qnd4
    configs are built first, in that order, so angles that make any of them
    invalid raise whatever ``only`` selects; only a failing case then runs,
    described at the pair's phases (a parity case at the default's fixed pi).
    """
    if only is not None:
        try:
            ids = set(only)  # read once; an empty iterator is truthy, its set is not
        except TypeError:  # True, 3: not a collection of ids
            raise ValueError(f"only is a collection of case ids, not {only!r}") from None
        if not ids:
            raise ValueError("only names no case id; pass None to run every case")
        if isinstance(only, str):
            raise ValueError(f"only is a collection of case ids, not the string {only!r}")
        only = ids
        if unknown := only - set(CASE_IDS):
            raise ValueError(f"unknown case ids: {sorted(unknown)}")
    base = map(default_config, (Variant.QND1, Variant.QND3, Variant.QND4))
    # only None is no angle given: 0, "" or False is an angle the config refuses
    cfgs = {d.variant: QndConfig(d.variant, d.theta if theta is None else theta,
                                 d.theta_prime and (d.theta_prime if theta_prime is None
                                                    else theta_prime))  # None for qnd4
            for d in base}
    if passing := _passing_suite():  # every case passes, at any pair
        return [r for r in passing if only is None or r.case_id in only]
    cfgs[Variant.QND2] = default_config(Variant.QND2)  # pi, whatever the pair
    return [run_branch_case(case, cfgs[case.variant]) for case in BRANCH_CASES
            if only is None or case.case_id in only]
