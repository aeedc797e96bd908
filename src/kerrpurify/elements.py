"""Passive linear optics and local unitaries.

Polarizing beam splitter (H transmits, V reflects), the two-port
coupler that folds a party's spatial modes into one output, bit- and
phase-flips, and diagonal-basis measurement.

Everything here is a pure function on immutable states; photon number
and norm are preserved (measurements preserve summed probability).
"""

from __future__ import annotations

import math

from .fock import (
    AmbiguousRoutingError,
    BranchState,
    ModeLabel,
    OccupancyViolationError,
    Party,
    Pol,
    PureState,
    Spatial,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def pbs(state: PureState, party: Party) -> PureState:
    """Polarizing beam splitter on one party's upper and lower ports.

    H-polarized photons keep their port, V-polarized photons swap
    ports.  Applying the same PBS twice is the identity.
    """
    def route(m: ModeLabel) -> ModeLabel:
        if m.party != party or m.pol != Pol.V:
            return m
        if m.spatial == Spatial.UPPER:
            return ModeLabel(party, Spatial.LOWER, Pol.V)
        if m.spatial == Spatial.LOWER:
            return ModeLabel(party, Spatial.UPPER, Pol.V)
        return m

    return state.map_branches(lambda b: b.map_modes(route))


def coupler(state: PureState, party: Party) -> PureState:
    """Fold a party's spatial modes into the single merged output port.

    By protocol construction the preceding homodyne outcome already
    fixed which spatial port each polarization occupies, so the merge
    is deterministic.  A branch holding same-polarization photons in
    two different ports has no well-defined routing and signals a
    pipeline bug upstream.
    """
    def merge(b: BranchState) -> BranchState:
        for polarization in Pol:
            occupied = {
                m.spatial
                for m, n in b.occupations
                if m.party == party and m.pol == polarization and n > 0
            }
            if len(occupied - {Spatial.MERGED}) > 1:
                raise AmbiguousRoutingError(
                    f"{party.name}: {polarization.name} photons in both spatial ports"
                )
        return b.map_modes(
            lambda m: ModeLabel(party, Spatial.MERGED, m.pol) if m.party == party else m
        )

    return state.map_branches(merge)


def sigma_x(state: PureState, party: Party, spatials=None) -> PureState:
    """Bit flip: swap H and V occupations for one party's photons."""
    targets = set(spatials) if spatials is not None else set(Spatial)

    def flip(m: ModeLabel) -> ModeLabel:
        if m.party == party and m.spatial in targets:
            return ModeLabel(m.party, m.spatial, Pol.V if m.pol == Pol.H else Pol.H)
        return m

    return state.map_branches(lambda b: b.map_modes(flip))


def sigma_z(state: PureState, party: Party, spatials=None) -> PureState:
    """Phase flip: each V photon of the party contributes a factor -1."""
    targets = set(spatials) if spatials is not None else set(Spatial)

    def phase(b: BranchState) -> BranchState:
        n_v = sum(
            n for m, n in b.occupations
            if m.party == party and m.spatial in targets and m.pol == Pol.V
        )
        return b.with_amplitude(b.amplitude * (-1) ** n_v)

    return state.map_branches(phase)


def diagonal_outcomes(state: PureState, party: Party, spatial: Spatial) -> dict:
    """Measure the single photon at (party, spatial) in the |+/-> basis.

    Returns {'+': (prob, post), '-': (prob, post)}; the measured photon
    is absorbed.  Every branch must hold exactly one photon in the
    designated port.
    """
    h = ModeLabel(party, spatial, Pol.H)
    v = ModeLabel(party, spatial, Pol.V)
    for b in state.branches:
        if b.occupation(h) + b.occupation(v) != 1:
            raise OccupancyViolationError(
                f"diagonal measurement at {party.name}/{spatial.name} needs exactly one photon"
            )

    results = {}
    for outcome, v_coeff in (("+", INV_SQRT2), ("-", -INV_SQRT2)):
        projected = []
        for b in state.branches:
            if b.occupation(h) == 1:
                coeff = INV_SQRT2
                removed = h
            else:
                coeff = v_coeff
                removed = v
            occ = dict(b.occupations)
            occ[removed] -= 1
            projected.append(BranchState.of(occ, b.amplitude * coeff, b.probe))
        post = PureState.of(projected)
        prob = post.norm_squared()
        results[outcome] = (prob, post.normalize() if prob > 1e-24 else post)
    return results
