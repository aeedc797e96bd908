"""Kerr primitive, detector gadget configs, X-quadrature homodyne readout."""

import contextlib
import io
import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrpurify import (
    BranchState,
    ConfigError,
    EnsembleState,
    KerrMedium,
    ModeLabel,
    OccupancyViolationError,
    Party,
    PhaseTag,
    Pol,
    PureState,
    QndConfig,
    Spatial,
    Variant,
    ZERO_COUNTS,
    ZERO_PHASE,
    PI,
    apply_kerr,
    apply_qnd,
    create_photon,
    default_config,
    homodyne_x,
    pbs,
    probe_outcomes,
    project_probe,
    single_pair_state,
)
from kerrpurify import cli, qnd
from kerrpurify.branches import BRANCH_CASES, HHHH, HHVV, VVHH, VVVV, operator_state

from conftest import (assert_states_equal, photon_distribution, random_angle_pair,
                      random_pure_state)
from oracle import assert_same_phases, per_medium_phases, rendered_phases

A1H = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.H)
THETA = PhaseTag(1, 4)


class TestKerrPrimitive:
    # a shift by theta adds the probe counts (1, 0); QndConfig.phase reads them
    def medium(self, counts=(1, 0)):
        return KerrMedium(A1H, counts, Party.ALICE)

    def test_one_photon_shifts_probe(self):
        st = create_photon(operator_state([(1, ())]), A1H)
        out = apply_kerr(st, self.medium())
        assert out.branches[0].probe[Party.ALICE] == (1, 0)
        assert out.branches[0].probe[Party.BOB] == ZERO_COUNTS
        assert default_config(Variant.QND1).phase((1, 0)) == THETA

    def test_vacuum_unshifted(self):
        out = apply_kerr(operator_state([(1, ())]), self.medium())
        assert out.branches[0].probe[Party.ALICE] == ZERO_COUNTS

    def test_two_photons_double_shift(self):
        st = create_photon(create_photon(operator_state([(1, ())]), A1H), A1H)
        out = apply_kerr(st, self.medium())
        assert out.branches[0].probe[Party.ALICE] == (2, 0)
        assert default_config(Variant.QND1).phase((2, 0)) == THETA * 2

    def test_signal_untouched(self):
        st = create_photon(operator_state([(1, ())]), A1H)
        out = apply_kerr(st, self.medium())
        assert out.branches[0].occupations == st.branches[0].occupations
        assert out.branches[0].amplitude == st.branches[0].amplitude

    def test_additivity_equals_summed_medium(self, rng):
        # counts add as ints, and the phases they read add mod 2*pi
        cfg = QndConfig(Variant.QND1, PhaseTag(1, 8), PhaseTag(5, 8))
        for _ in range(1000):
            st = random_pure_state(rng)
            a, b = (tuple(int(n) for n in rng.integers(-8, 8, size=2)) for _ in range(2))
            two = apply_kerr(apply_kerr(st, KerrMedium(A1H, a, Party.ALICE)),
                             KerrMedium(A1H, b, Party.ALICE))
            summed = (a[0] + b[0], a[1] + b[1])
            one = apply_kerr(st, KerrMedium(A1H, summed, Party.ALICE))
            assert_states_equal(two, one)
            assert cfg.phase(summed) == cfg.phase(a) + cfg.phase(b)


class TestConfig:
    # a config checks itself when built: an invalid one never exists
    def test_equal_phases_rejected(self):
        with pytest.raises(ConfigError):
            QndConfig(Variant.QND1, THETA, THETA)

    def test_degenerate_class_rejected(self):
        # 2 * (1/4) == (5/4) + (1/4) - ... pick theta'=7/4: theta+theta' = 0
        with pytest.raises(ConfigError):
            QndConfig(Variant.QND1, PhaseTag(1, 4), PhaseTag(7, 4))

    def test_parity_detector_needs_pi(self):
        with pytest.raises(ConfigError):
            QndConfig(Variant.QND2, PhaseTag(1, 2))

    @pytest.mark.parametrize("variant, theta", [(Variant.QND2, PI), (Variant.QND4, THETA)],
                             ids=["qnd2", "qnd4"])
    @pytest.mark.parametrize("theta_prime", [PhaseTag(1, 3), PhaseTag(3, 4)], ids=["1/3", "3/4"])
    def test_single_angle_detectors_reject_theta_prime(self, variant, theta, theta_prime):
        # no medium of qnd2 or qnd4 reads theta': a config that set it would
        # be a second name, and a second cached table, for one detector
        with pytest.raises(ConfigError, match="theta_prime"):
            QndConfig(variant, theta, theta_prime)

    def test_opposite_shift_detector_rejects_pi(self):
        with pytest.raises(ConfigError):
            QndConfig(Variant.QND4, PI)

    def test_defaults_valid(self):
        for v in Variant:
            default_config(v)

    @pytest.mark.parametrize("variant, angles", [
        (Variant.QND1, (Fraction(1, 4), Fraction(3, 4))),
        (Variant.QND3, (Fraction(1, 4), Fraction(3, 4))),
        (Variant.QND1, (0.25, 0.75)),
        (Variant.QND1, (THETA, Fraction(3, 4))),
        (Variant.QND3, (0.25, PhaseTag(3, 4))),
        (Variant.QND2, (1.0,)),
        (Variant.QND2, (1,)),
        (Variant.QND4, (Fraction(1, 4),)),
    ], ids=["qnd1-fractions", "qnd3-fractions", "qnd1-floats", "qnd1-fraction-prime",
            "qnd3-float-theta", "qnd2-float", "qnd2-int", "qnd4-fraction"])
    def test_an_angle_that_is_not_a_phase_tag_is_rejected(self, variant, angles):
        # a config that exists is valid: its probe phases are exact tags
        with pytest.raises(ConfigError, match="PhaseTag"):
            QndConfig(variant, *angles)


class TestCouplingTable:
    def test_module_docstring_draws_the_table(self):
        # the docstring's rows "(port,pol) -> +-angle", read in order under
        # each detector's heading, are that detector's _COUPLINGS entry
        drawn = {}
        for line in qnd.__doc__.splitlines():
            heading = re.match(r"  (QND[1-4]) ", line)
            if heading:
                media = drawn.setdefault(Variant(heading.group(1).lower()), [])
            for port, pol, sign, angle in re.findall(r"\((upper|lower),([HV])\) -> ([+-])(theta'?)",
                                                     line):
                media.append((Spatial[port.upper()], Pol[pol], angle.replace("'", "_prime"),
                              1 if sign == "+" else -1))
        assert drawn == {v: list(rows) for v, rows in qnd._COUPLINGS.items()}


def _check_ports(state: PureState, cfg: QndConfig) -> None:
    if cfg.variant in (Variant.QND2, Variant.QND4) and any(
            b.photons(party=party, spatial=spatial) != 1 for b in state.branches
            for party in Party for spatial in (Spatial.UPPER, Spatial.LOWER)):
        raise OccupancyViolationError("one photon per port")


def _per_medium_apply_qnd(state: PureState, cfg: QndConfig) -> PureState:
    """Reference detector: after qnd3's PBS, one ``apply_kerr`` (a count step
    per branch) for each _COUPLINGS medium; qnd2's theta is pi, so its theta
    count is then taken mod 2."""
    _check_ports(state, cfg)
    if cfg.variant == Variant.QND3:
        state = pbs(pbs(state, Party.ALICE), Party.BOB)
    for spatial, pol, angle, sign in qnd._COUPLINGS[cfg.variant]:
        counts = (sign, 0) if angle == "theta" else (0, sign)
        for party in Party:
            state = apply_kerr(state, KerrMedium(ModeLabel(party, spatial, pol), counts, party))
    if cfg.variant == Variant.QND2:
        state = state.map_branches(lambda b: BranchState(
            b.occupations, b.amplitude, tuple((a % 2, c) for a, c in b.probe)))
    return state


def _per_medium_phases(state: PureState, cfg: QndConfig) -> dict:
    _check_ports(state, cfg)
    return per_medium_phases(state, cfg)


def _admissible_angle_pairs(count: int, seed: int) -> list:
    """``count`` distinct angle pairs that qnd1, qnd3 and qnd4 all accept."""
    rng, pairs = random.Random(seed), []
    while len(pairs) < count:
        theta, theta_prime = random_angle_pair(rng)
        try:
            for variant in (Variant.QND1, Variant.QND3):
                QndConfig(variant, theta, theta_prime)
            QndConfig(Variant.QND4, theta)
        except ConfigError:
            continue
        if (theta, theta_prime) not in pairs:
            pairs.append((theta, theta_prime))
    return pairs


class TestCountingDetector:
    def test_equals_one_tag_step_per_medium(self):
        # apply_qnd sums photon counts per (party, angle) into the probe
        # counts.  They must be the counts of one apply_kerr step per medium,
        # repr for repr, and at 40 admissible angle pairs they must read the
        # phases of one PhaseTag step per medium; a rejected input must be
        # rejected by all three
        rng = np.random.default_rng(3)
        inputs = ([case.input_state() for case in BRANCH_CASES]
                  + [single_pair_state(flipped) for flipped in (False, True)]
                  + [random_pure_state(rng) for _ in range(8)])  # nonzero probes too

        def outcome(detector, state, cfg):
            try:
                return detector(state, cfg)
            except OccupancyViolationError:
                return "rejected"

        for variant in Variant:
            cfg = default_config(variant)
            for state in inputs:
                assert (repr(outcome(apply_qnd, state, cfg))
                        == repr(outcome(_per_medium_apply_qnd, state, cfg))), (cfg, state)
        pairs = _admissible_angle_pairs(40, seed=11)
        configs = [default_config(Variant.QND2)] + [
            cfg for theta, theta_prime in pairs
            for cfg in (QndConfig(Variant.QND1, theta, theta_prime),
                        QndConfig(Variant.QND3, theta, theta_prime),
                        QndConfig(Variant.QND4, theta))]
        compared = 0
        for cfg in configs:
            for state in inputs:
                if cfg.theta_prime is None and any(c[1] for b in state.branches
                                                   for c in b.probe):
                    continue  # theta' counts, which a one-angle detector cannot read
                got, want = outcome(apply_qnd, state, cfg), outcome(_per_medium_phases, state, cfg)
                if want == "rejected":
                    assert got == want
                else:
                    assert_same_phases(rendered_phases(got, cfg), want)
                    compared += 1
        assert compared > len(configs) * len(BRANCH_CASES) // 2
        assert any(outcome(apply_qnd, s, configs[-1]) == "rejected" for s in inputs)


def _six_classes_distinct(theta: Fraction, theta_prime: Fraction) -> bool:
    """0, t, t', 2t, 2t' and t+t' (in units of pi) are distinct mod 2."""
    classes = (Fraction(0), theta, theta_prime, 2 * theta, 2 * theta_prime, theta + theta_prime)
    return len({c % 2 for c in classes}) == 6


small_angles = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


class TestAdmissibilityBoundary:
    """Counts decide postselection in place of phases only where a config
    accepts the angles, so every config must accept exactly those."""

    @staticmethod
    def accepts(variant, *angles) -> bool:
        try:
            QndConfig(variant, *map(PhaseTag, angles))
        except ConfigError:
            return False
        return True

    @settings(max_examples=300, deadline=None)
    @given(theta=small_angles, theta_prime=small_angles)
    def test_configs_accept_exactly_the_admissible_angles(self, theta, theta_prime):
        admissible = _six_classes_distinct(theta, theta_prime)
        for variant in (Variant.QND1, Variant.QND3):
            assert self.accepts(variant, theta, theta_prime) == admissible
        assert self.accepts(Variant.QND2, theta) == (theta % 2 == 1)
        assert self.accepts(Variant.QND4, theta) == (theta % 2 not in (0, 1))
        # verify-branches exits 2 on every rejected pair and passes every other
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify-branches", f"--theta={theta}",
                             f"--theta-prime={theta_prime}"])
        assert code == (0 if admissible else 2)


class TestParityLaw:
    def test_all_sixteen_basis_inputs(self):
        # Alice reads pi exactly when her two photons share a polarization;
        # the parties read equal shifts exactly when the two pairs have the
        # same polarization parity
        cfg = default_config(Variant.QND2)
        for pa1, pb1, pa2, pb2 in product(Pol, repeat=4):
            st = operator_state([(1, ())])
            for party, spatial, pol in [
                (Party.ALICE, Spatial.UPPER, pa1),
                (Party.BOB, Spatial.UPPER, pb1),
                (Party.ALICE, Spatial.LOWER, pa2),
                (Party.BOB, Spatial.LOWER, pb2),
            ]:
                st = create_photon(st, ModeLabel(party, spatial, pol))
            out = apply_qnd(st, cfg)
            tag_a = cfg.phase(out.branches[0].probe[Party.ALICE])
            tag_b = cfg.phase(out.branches[0].probe[Party.BOB])
            assert (tag_a == PI) == (pa1 == pa2)
            assert (tag_b == PI) == (pb1 == pb2)
            assert (tag_a == tag_b) == ((pa1 == pa2) == (pb1 == pb2))


class TestGadgetInvariants:
    def gadget_states(self, rng):
        yield default_config(Variant.QND1), random_pure_state(rng)
        yield default_config(Variant.QND3), random_pure_state(rng)

    def test_norm_and_photons_preserved(self, rng):
        for _ in range(200):
            for cfg, st in self.gadget_states(rng):
                out = apply_qnd(st, cfg)
                assert abs(out.norm_squared() - 1.0) < 1e-10
                before = sorted(abs(b.amplitude) for b in st.branches)
                after = sorted(abs(b.amplitude) for b in out.branches)
                assert all(abs(x - y) < 1e-12 for x, y in zip(before, after))
                db, da = photon_distribution(st), photon_distribution(out)
                assert set(db) == set(da)
                for n in db:
                    assert abs(db[n] - da[n]) < 1e-10

    def test_occupations_untouched_without_internal_pbs(self, rng):
        for _ in range(100):
            st = random_pure_state(rng)
            out = apply_qnd(st, default_config(Variant.QND1))
            assert [b.occupations for b in out.branches] == \
                   [b.occupations for b in st.branches]

    def test_duplicate_pair_input_rejected(self):
        # both photons of each party at the upper port, lower port empty
        doubled = operator_state([(1, ())])
        for party in Party:
            for pol in Pol:
                doubled = create_photon(
                    doubled, ModeLabel(party, Spatial.UPPER, pol)
                )
        for variant in (Variant.QND2, Variant.QND4):
            with pytest.raises(OccupancyViolationError):
                apply_qnd(doubled, default_config(variant))


class TestHomodyne:
    POOL_CFG = default_config(Variant.QND1)  # reads conftest's probe counts as six phases

    def test_components_are_project_probe_states(self, rng):
        # each class holds the project_probe state of the counts of each of
        # its phases, weighted by the phase's share of the class probability
        cfg, two_tag_classes = self.POOL_CFG, 0
        for _ in range(200):
            st = random_pure_state(rng)
            for party in Party:
                probs = probe_outcomes(st, party)
                outcomes = homodyne_x(st, party, cfg)
                assert [o.outcome for o in outcomes] == \
                    sorted({cfg.phase(counts).magnitude_class() for counts in probs})
                for o in outcomes:
                    members = sorted((cfg.phase(counts), counts) for counts in probs
                                     if cfg.phase(counts).magnitude_class() == o.outcome)
                    two_tag_classes += len(members) == 2
                    assert abs(o.probability - sum(probs[c] for _, c in members)) < 1e-12
                    assert len(o.post_state) == len(members)
                    for (_, counts), (w, comp) in zip(members, o.post_state.components):
                        prob, post = project_probe(st, party, counts)
                        assert abs(w - prob / o.probability) < 1e-12
                        assert_states_equal(comp, post)
        assert two_tag_classes > 0

    def test_two_counts_of_one_phase_raise(self):
        # 3 * pi/4 = 3pi/4: at qnd1's default angles the counts (3, 0) and
        # (0, 1) read one phase, whose readout the counts cannot represent
        st = PureState.of(BranchState.of({A1H: 1}, 1.0, (counts, ZERO_COUNTS))
                          for counts in ((3, 0), (0, 1)))
        with pytest.raises(ConfigError, match="read the phase"):
            homodyne_x(st, Party.ALICE, self.POOL_CFG)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(200):
            st = random_pure_state(rng)
            outs = homodyne_x(st, Party.BOB, self.POOL_CFG)
            assert abs(sum(o.probability for o in outs) - 1.0) < 1e-10

    def magnitude_outcome(self, outcome_tag):
        inp = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
        cfg = default_config(Variant.QND4)
        out = apply_qnd(inp, cfg)
        outcomes = {o.outcome: o for o in
                    homodyne_x(out, Party.ALICE, cfg)}
        return cfg, outcomes[outcome_tag]

    def test_magnitude_class_is_mixture(self):
        cfg, o = self.magnitude_outcome(THETA)
        assert abs(o.probability - 0.5) < 1e-12
        # finish with Bob's readout; each component is already tag-definite
        final = []
        for w, comp in o.post_state.components:
            for ob in homodyne_x(comp, Party.BOB, cfg):
                for w2, c2 in ob.post_state.components:
                    final.append((w * ob.probability * w2, c2))
        ens = EnsembleState.of(final)
        target = operator_state([(1, ((HHVV, VVHH),))])
        assert abs(ens.overlap(target) - 0.5) < 1e-12
        assert abs(ens.purity() - 0.5) < 1e-12

    def test_zero_class_stays_pure(self):
        _, o = self.magnitude_outcome(ZERO_PHASE)
        assert len(o.post_state) == 1
        target = operator_state([(1, ((HHHH, VVVV),))])
        assert abs(o.post_state.overlap(target) - 1.0) < 1e-12

    def test_parity_detector_keeps_superposition(self):
        from kerrpurify import overlap

        inp = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
        out = apply_qnd(inp, default_config(Variant.QND2))
        _, after_a = project_probe(out, Party.ALICE, ZERO_COUNTS)
        _, post = project_probe(after_a, Party.BOB, ZERO_COUNTS)
        target = operator_state([(1, ((HHVV, VVHH),))])
        assert abs(post.norm_squared() - 1.0) < 1e-12
        assert abs(overlap(post, target) - 1.0) < 1e-12
