"""Linear elements: PBS, coupler, flips, diagonal measurement."""

import math
from itertools import permutations

import pytest

from kerrpurify import (
    AmbiguousRoutingError,
    BranchState,
    ModeLabel,
    OccupancyViolationError,
    Party,
    Pol,
    PureState,
    Spatial,
    bell_pair,
    coupler,
    create_photon,
    diagonal_outcomes,
    overlap,
    pbs,
    product_state,
    sigma_x,
    sigma_z,
)
from kerrpurify.sources import operator_state

from conftest import assert_states_equal, photon_distribution, random_pure_state

A1H = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.H)
A1V = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.V)
A2H = ModeLabel(Party.ALICE, Spatial.LOWER, Pol.H)
A2V = ModeLabel(Party.ALICE, Spatial.LOWER, Pol.V)


def permanent(matrix) -> complex:
    """Permanent by permutation sum: an oracle for small linear-optics checks."""
    total = 0.0 + 0.0j
    for perm in permutations(range(len(matrix))):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total


def one_photon(m):
    return create_photon(operator_state([(1, ())]), m)


class TestPbs:
    def test_h_transmits(self):
        assert pbs(one_photon(A1H), Party.ALICE) == one_photon(A1H)

    def test_v_reflects(self):
        assert pbs(one_photon(A1V), Party.ALICE) == one_photon(A2V)

    def test_two_photon_composition(self):
        st = create_photon(one_photon(A1H), A2V)
        out = pbs(st, Party.ALICE)
        expected = create_photon(one_photon(A1H), A1V)
        assert_states_equal(out, expected)

    def test_two_photon_against_permanent_oracle(self):
        # single-party mode order: (upper H, upper V, lower H, lower V)
        modes = (A1H, A1V, A2H, A2V)
        u = [[0.0] * 4 for _ in range(4)]
        u[0][0] = 1.0   # upper H -> upper H
        u[2][2] = 1.0   # lower H -> lower H
        u[3][1] = 1.0   # upper V -> lower V
        u[1][3] = 1.0   # lower V -> upper V
        st = create_photon(one_photon(A1H), A2V)
        out = pbs(st, Party.ALICE)
        # amplitude <out_pattern| U |in_pattern> = permanent of the submatrix
        in_idx = [0, 3]
        for b in out.branches:
            out_idx = [modes.index(m) for m, n in b.occupations for _ in range(n)]
            sub = [[u[i][j] for j in in_idx] for i in out_idx]
            assert abs(b.amplitude - permanent(sub)) < 1e-12

    def test_double_pass_identity(self, rng):
        for _ in range(300):
            st = random_pure_state(rng)
            round_trip = pbs(pbs(st, Party.BOB), Party.BOB)
            assert_states_equal(round_trip, st)


class TestCoupler:
    def test_lower_pair_to_merged(self):
        lower = bell_pair("phi+", Spatial.LOWER)
        merged = coupler(coupler(lower, Party.ALICE), Party.BOB)
        assert_states_equal(merged, bell_pair("phi+", Spatial.MERGED))

    def test_vacuum(self):
        assert coupler(operator_state([(1, ())]), Party.ALICE) == operator_state([(1, ())])

    def test_ambiguous_routing(self):
        st = create_photon(one_photon(A1H), A2H)
        with pytest.raises(AmbiguousRoutingError):
            coupler(st, Party.ALICE)

    def test_superposed_ports_merge(self):
        # one photon split over upper-H and lower-V merges cleanly
        st = PureState.of([
            BranchState.of({A1H: 1}, 1 / math.sqrt(2)),
            BranchState.of({A2V: 1}, 1 / math.sqrt(2)),
        ])
        out = coupler(st, Party.ALICE)
        mh = ModeLabel(Party.ALICE, Spatial.MERGED, Pol.H)
        mv = ModeLabel(Party.ALICE, Spatial.MERGED, Pol.V)
        assert {m for b in out.branches for m, _ in b.occupations} == {mh, mv}


class TestSigmaOps:
    def test_sigma_x_removes_bit_flip(self):
        flipped = bell_pair("psi+", Spatial.MERGED)
        assert_states_equal(
            sigma_x(flipped, Party.ALICE), bell_pair("phi+", Spatial.MERGED)
        )

    def test_sigma_z_on_h_only(self):
        st = create_photon(one_photon(A1H), A2H)
        assert_states_equal(sigma_z(st, Party.ALICE), st)

    def test_sigma_z_sign(self):
        st = bell_pair("phi+", Spatial.UPPER)
        assert_states_equal(sigma_z(st, Party.ALICE), bell_pair("phi-", Spatial.UPPER))

    def test_involutions(self, rng):
        for _ in range(300):
            st = random_pure_state(rng)
            assert_states_equal(sigma_x(sigma_x(st, Party.ALICE), Party.ALICE), st)
            assert_states_equal(sigma_z(sigma_z(st, Party.BOB), Party.BOB), st)

    def test_spatial_scoping(self):
        st = create_photon(one_photon(A1H), A2H)
        out = sigma_x(st, Party.ALICE, {Spatial.UPPER})
        expected = create_photon(one_photon(A1V), A2H)
        assert_states_equal(out, expected)


class TestMeasureDiagonal:
    def test_h_photon_even_split(self):
        st = one_photon(A1H)
        outcomes = diagonal_outcomes(st, Party.ALICE, Spatial.UPPER)
        for key in ("+", "-"):
            prob, post = outcomes[key]
            assert abs(prob - 0.5) < 1e-12
            assert sum(n for _, n in post.branches[0].occupations) == 0

    def test_four_photon_projection_to_phi_plus(self):
        # both parties read '+' on the lower pair of the all-equal
        # four-photon superposition; the upper pair lands on phi+
        joint = PureState.of(
            list(
                product_state(bell_pair("phi+", Spatial.UPPER),
                              bell_pair("phi+", Spatial.LOWER)).branches
            )
        )
        # restrict to the HHHH + VVVV half
        kept = PureState.of(
            b for b in joint.branches
            if all(n == b.occupations[0][1] for _, n in b.occupations)
            and len({m.pol for m, _ in b.occupations}) == 1
        ).normalize()
        p_a, after_a = diagonal_outcomes(kept, Party.ALICE, Spatial.LOWER)["+"]
        p_b, after_b = diagonal_outcomes(after_a, Party.BOB, Spatial.LOWER)["+"]
        assert abs(p_a * p_b - 0.25) < 1e-12
        assert abs(overlap(after_b, bell_pair("phi+", Spatial.UPPER)) - 1.0) < 1e-12

    def test_mixed_outcomes_need_phase_fix(self):
        joint = product_state(bell_pair("phi+", Spatial.UPPER),
                              bell_pair("phi+", Spatial.LOWER))
        kept = PureState.of(
            b for b in joint.branches
            if len({m.pol for m, _ in b.occupations}) == 1
        ).normalize()
        _, after_a = diagonal_outcomes(kept, Party.ALICE, Spatial.LOWER)["+"]
        _, after_b = diagonal_outcomes(after_a, Party.BOB, Spatial.LOWER)["-"]
        fixed = sigma_z(after_b, Party.ALICE)
        assert abs(overlap(fixed, bell_pair("phi+", Spatial.UPPER)) - 1.0) < 1e-12

    def test_occupancy_guard(self):
        st = create_photon(one_photon(A1H), A1V)
        with pytest.raises(OccupancyViolationError):
            diagonal_outcomes(st, Party.ALICE, Spatial.UPPER)

    def test_outcome_probabilities_sum(self, rng):
        for _ in range(100):
            st = bell_pair("phi+", Spatial.UPPER)
            outs = diagonal_outcomes(st, Party.ALICE, Spatial.UPPER)
            assert abs(sum(p for p, _ in outs.values()) - 1.0) < 1e-10


class TestConservation:
    def test_norm_and_photon_number(self, rng):
        ops = [
            lambda s: pbs(s, Party.ALICE),
            lambda s: sigma_x(s, Party.BOB),
            lambda s: sigma_z(s, Party.ALICE),
                ]
        for _ in range(250):
            st = random_pure_state(rng)
            before = photon_distribution(st)
            for op in ops:
                out = op(st)
                assert abs(out.norm_squared() - 1.0) < 1e-10
                after = photon_distribution(out)
                assert set(after) == set(before)
                for n, p in before.items():
                    assert abs(after[n] - p) < 1e-10
