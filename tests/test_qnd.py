"""Kerr primitive, detector gadget configs, X-quadrature homodyne readout."""

import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from kerrpurify import (
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
from kerrpurify import qnd
from kerrpurify.branches import BRANCH_CASES, HHHH, HHVV, VVHH, VVVV, operator_state

from conftest import (assert_states_equal, photon_distribution, random_angle_pair,
                      random_pure_state)

A1H = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.H)
THETA = PhaseTag(1, 4)


class TestKerrPrimitive:
    def medium(self, phase=THETA):
        return KerrMedium(A1H, phase, Party.ALICE)

    def test_one_photon_shifts_probe(self):
        st = create_photon(PureState.vacuum(), A1H)
        out = apply_kerr(st, self.medium())
        assert out.branches[0].probe[Party.ALICE] == THETA
        assert out.branches[0].probe[Party.BOB] == ZERO_PHASE

    def test_vacuum_unshifted(self):
        out = apply_kerr(PureState.vacuum(), self.medium())
        assert out.branches[0].probe[Party.ALICE] == ZERO_PHASE

    def test_two_photons_double_shift(self):
        st = create_photon(create_photon(PureState.vacuum(), A1H), A1H)
        out = apply_kerr(st, self.medium())
        assert out.branches[0].probe[Party.ALICE] == THETA * 2

    def test_signal_untouched(self):
        st = create_photon(PureState.vacuum(), A1H)
        out = apply_kerr(st, self.medium())
        assert out.branches[0].occupations == st.branches[0].occupations
        assert out.branches[0].amplitude == st.branches[0].amplitude

    def test_additivity_equals_summed_medium(self, rng):
        for _ in range(1000):
            st = random_pure_state(rng)
            a, b = PhaseTag(int(rng.integers(-8, 8)), 8), PhaseTag(int(rng.integers(-8, 8)), 8)
            two = apply_kerr(apply_kerr(st, KerrMedium(A1H, a, Party.ALICE)),
                             KerrMedium(A1H, b, Party.ALICE))
            one = apply_kerr(st, KerrMedium(A1H, a + b, Party.ALICE))
            assert_states_equal(two, one)


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


def _per_medium_apply_qnd(state: PureState, cfg: QndConfig) -> PureState:
    """Reference detector: after qnd3's PBS, one ``apply_kerr`` (a PhaseTag
    multiply and add per branch) for each _COUPLINGS medium."""
    if cfg.variant in (Variant.QND2, Variant.QND4) and any(
            b.photons(party=party, spatial=spatial) != 1 for b in state.branches
            for party in Party for spatial in (Spatial.UPPER, Spatial.LOWER)):
        raise OccupancyViolationError("one photon per port")
    if cfg.variant == Variant.QND3:
        state = pbs(pbs(state, Party.ALICE), Party.BOB)
    for spatial, pol, angle, sign in qnd._COUPLINGS[cfg.variant]:
        phase = getattr(cfg, angle) if sign > 0 else -getattr(cfg, angle)
        for party in Party:
            state = apply_kerr(state, KerrMedium(ModeLabel(party, spatial, pol), phase, party))
    return state


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
        # apply_qnd sums photon counts per (party, angle) and builds each
        # shifted probe pair once; the result must be the per-medium one,
        # repr for repr, and a rejected input must be rejected by both
        rng = np.random.default_rng(3)
        inputs = ([case.input_state() for case in BRANCH_CASES]
                  + [single_pair_state(flipped) for flipped in (False, True)]
                  + [random_pure_state(rng) for _ in range(8)])  # nonzero probes too

        def outcome(detector, state, cfg):
            try:
                return repr(detector(state, cfg))
            except OccupancyViolationError:
                return "rejected"

        pairs = _admissible_angle_pairs(40, seed=11)
        configs = [default_config(Variant.QND2)] + [
            cfg for theta, theta_prime in pairs
            for cfg in (QndConfig(Variant.QND1, theta, theta_prime),
                        QndConfig(Variant.QND3, theta, theta_prime),
                        QndConfig(Variant.QND4, theta))]
        for cfg in configs:
            for state in inputs:
                assert (outcome(apply_qnd, state, cfg)
                        == outcome(_per_medium_apply_qnd, state, cfg)), (cfg, state)
        assert any(outcome(apply_qnd, s, configs[-1]) == "rejected" for s in inputs)


class TestParityLaw:
    def test_all_sixteen_basis_inputs(self):
        # Alice reads pi exactly when her two photons share a polarization;
        # the parties read equal shifts exactly when the two pairs have the
        # same polarization parity
        cfg = default_config(Variant.QND2)
        for pa1, pb1, pa2, pb2 in product(Pol, repeat=4):
            st = PureState.vacuum()
            for party, spatial, pol in [
                (Party.ALICE, Spatial.UPPER, pa1),
                (Party.BOB, Spatial.UPPER, pb1),
                (Party.ALICE, Spatial.LOWER, pa2),
                (Party.BOB, Spatial.LOWER, pb2),
            ]:
                st = create_photon(st, ModeLabel(party, spatial, pol))
            out = apply_qnd(st, cfg)
            tag_a = out.branches[0].probe[Party.ALICE]
            tag_b = out.branches[0].probe[Party.BOB]
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
        doubled = PureState.vacuum()
        for party in Party:
            for pol in Pol:
                doubled = create_photon(
                    doubled, ModeLabel(party, Spatial.UPPER, pol)
                )
        for variant in (Variant.QND2, Variant.QND4):
            with pytest.raises(OccupancyViolationError):
                apply_qnd(doubled, default_config(variant))


class TestHomodyne:
    def test_components_are_project_probe_states(self, rng):
        # each class holds the project_probe state of each of its tags,
        # weighted by the tag's share of the class probability
        two_tag_classes = 0
        for _ in range(200):
            st = random_pure_state(rng)
            for party in Party:
                probs = probe_outcomes(st, party)
                outcomes = homodyne_x(st, party)
                assert [o.outcome for o in outcomes] == \
                    sorted({tag.magnitude_class() for tag in probs})
                for o in outcomes:
                    tags = [tag for tag in probs if tag.magnitude_class() == o.outcome]
                    two_tag_classes += len(tags) == 2
                    assert abs(o.probability - sum(probs[tag] for tag in tags)) < 1e-12
                    assert len(o.post_state) == len(tags)
                    for tag, (w, comp) in zip(tags, o.post_state.components):
                        prob, post = project_probe(st, party, tag)
                        assert abs(w - prob / o.probability) < 1e-12
                        assert_states_equal(comp, post)
        assert two_tag_classes > 0

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(200):
            st = random_pure_state(rng)
            outs = homodyne_x(st, Party.BOB)
            assert abs(sum(o.probability for o in outs) - 1.0) < 1e-10

    def magnitude_outcome(self, outcome_tag):
        inp = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
        cfg = default_config(Variant.QND4)
        out = apply_qnd(inp, cfg)
        outcomes = {o.outcome: o for o in
                    homodyne_x(out, Party.ALICE)}
        return cfg, outcomes[outcome_tag]

    def test_magnitude_class_is_mixture(self):
        cfg, o = self.magnitude_outcome(THETA)
        assert abs(o.probability - 0.5) < 1e-12
        # finish with Bob's readout; each component is already tag-definite
        final = []
        for w, comp in o.post_state.components:
            for ob in homodyne_x(comp, Party.BOB):
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
        _, after_a = project_probe(out, Party.ALICE, ZERO_PHASE)
        _, post = project_probe(after_a, Party.BOB, ZERO_PHASE)
        target = operator_state([(1, ((HHVV, VVHH),))])
        assert abs(post.norm_squared() - 1.0) < 1e-12
        assert abs(overlap(post, target) - 1.0) < 1e-12
