"""Kerr primitive, detector gadgets and their configs, the parity readout."""

import contextlib
import io
import pickle
import random
import re
from fractions import Fraction
from itertools import product
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kerrpurify import (
    BranchState,
    ConfigError,
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
    inner,
    overlap,
    pbs,
    probe_outcomes,
    project_probe,
    single_pair_state,
)
from kerrpurify import cli, qnd
from kerrpurify.branches import BRANCH_CASES, HHHH, HHVV, VVHH, VVVV, operator_state

from conftest import (angles, assert_states_equal, copiers, photon_distribution,
                      random_angle_pair, random_pure_state)
from oracle import MEDIA, assert_same_phases, per_medium_phases, rendered_phases

A1H = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.H)
THETA = PhaseTag(1, 4)


class TestKerrPrimitive:
    # a shift by theta adds the probe counts (1, 0); QndConfig.phase reads them
    def test_one_photon_shifts_probe(self):
        # the medium shifts the probe of its own mode's party, and only that one
        for party in Party:
            mode = ModeLabel(party, Spatial.UPPER, Pol.H)
            out = apply_kerr(create_photon(operator_state([(1, ())]), mode), mode, (1, 0))
            assert out.branches[0].probe[party] == (1, 0)
            assert out.branches[0].probe[1 - party] == ZERO_COUNTS
        assert default_config(Variant.QND1).phase((1, 0)) == THETA

    def test_vacuum_unshifted(self):
        out = apply_kerr(operator_state([(1, ())]), A1H, (1, 0))
        assert out.branches[0].probe[Party.ALICE] == ZERO_COUNTS

    def test_two_photons_double_shift(self):
        st = create_photon(create_photon(operator_state([(1, ())]), A1H), A1H)
        out = apply_kerr(st, A1H, (1, 0))
        assert out.branches[0].probe[Party.ALICE] == (2, 0)
        assert default_config(Variant.QND1).phase((2, 0)) == THETA * 2

    def test_signal_untouched(self):
        st = create_photon(operator_state([(1, ())]), A1H)
        out = apply_kerr(st, A1H, (1, 0))
        assert out.branches[0].occupations == st.branches[0].occupations
        assert out.branches[0].amplitude == st.branches[0].amplitude

    def test_additivity_equals_summed_medium(self, rng):
        # counts add as ints, and the phases they read add mod 2*pi
        cfg = QndConfig(Variant.QND1, PhaseTag(1, 8), PhaseTag(5, 8))
        for _ in range(1000):
            st = random_pure_state(rng)
            a, b = (tuple(int(n) for n in rng.integers(-8, 8, size=2)) for _ in range(2))
            two = apply_kerr(apply_kerr(st, A1H, a), A1H, b)
            summed = (a[0] + b[0], a[1] + b[1])
            one = apply_kerr(st, A1H, summed)
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

    @settings(max_examples=80, deadline=None)
    @given(theta=angles, theta_prime=angles, a=st.integers(-2, 2), b=st.integers(0, 2))
    def test_phase_is_the_tag_sum_of_its_counts(self, theta, theta_prime, a, b):
        # phase builds the sum a*theta + b*theta' as one reduced pair: it must
        # be the tag the PhaseTag arithmetic gives, at either angle order
        try:
            QndConfig(Variant.QND1, PhaseTag(theta), PhaseTag(theta_prime))
        except ConfigError:
            assume(False)
        for t, tp in ((theta, theta_prime), (theta_prime, theta)):
            for variant in (Variant.QND1, Variant.QND3):
                cfg = QndConfig(variant, PhaseTag(t), PhaseTag(tp))
                got, want = cfg.phase((a, b)), cfg.theta * a + cfg.theta_prime * b
                assert (got.num, got.den) == (want.num, want.den)

    @settings(max_examples=40, deadline=None)
    @given(theta=angles, a=st.integers(-2, 2), b=st.integers(1, 2))
    def test_single_angle_detectors_read_no_theta_prime_count(self, theta, a, b):
        assume(PhaseTag(theta) not in (ZERO_PHASE, PI))
        for cfg in (default_config(Variant.QND2), QndConfig(Variant.QND4, PhaseTag(theta))):
            assert cfg.phase((a, 0)) == cfg.theta * a
            with pytest.raises(ConfigError, match="reads no theta_prime"):
                cfg.phase((a, b))

    def test_defaults_valid(self):
        for v in Variant:
            default_config(v)

    def test_an_angle_pair_is_checked_once_and_refused_every_time(self):
        # qnd1 and qnd3 read one set of six phase classes; a refusal is not cached
        qnd._check_phase_classes.cache_clear()
        for _ in range(2):
            for variant in (Variant.QND1, Variant.QND3):
                QndConfig(variant, PhaseTag(3, 16), PhaseTag(29, 64))
                with pytest.raises(ConfigError, match="pairwise distinct"):
                    QndConfig(variant, PhaseTag(1, 2), PI)
        info = qnd._check_phase_classes.cache_info()
        assert (info.misses, info.hits) == (1 + 4, 3)

    def test_a_config_s_classes_refuse_writes(self):
        # qnd1 and qnd3 at one pair share one cached mapping, so a write to
        # one config's tags would relabel every later run at that pair
        t, tp = PhaseTag(3, 16), PhaseTag(29, 64)
        with pytest.raises(TypeError):
            QndConfig(Variant.QND1, t, tp).classes[(1, 1)] = PhaseTag(1, 2)
        for cfg in (default_config(Variant.QND2), QndConfig(Variant.QND4, t)):
            with pytest.raises(TypeError):
                cfg.classes[(1, 0)] = PhaseTag(1, 2)
        qnd3 = QndConfig(Variant.QND3, t, tp)
        assert dict(qnd3.classes) == {ZERO_COUNTS: ZERO_PHASE, (1, 0): t, (0, 1): tp,
                                      (2, 0): t * 2, (0, 2): tp * 2, (1, 1): t + tp}
        assert qnd3.phase((1, 1)) == t + tp

    @copiers
    def test_a_config_is_rebuilt_through_its_checks(self, copier):
        t, tp = PhaseTag(7, 32), PhaseTag(45, 64)
        configs = [default_config(v) for v in Variant] + [
            QndConfig(Variant.QND1, t, tp), QndConfig(Variant.QND3, t, tp),
            QndConfig(Variant.QND4, t)]
        for cfg in configs:
            again = copier(cfg)
            assert again == cfg and dict(again.classes) == dict(cfg.classes)
            assert type(again.classes) is MappingProxyType
            with pytest.raises(TypeError):
                again.classes[(9, 9)] = ZERO_PHASE

    @pytest.mark.parametrize("args", [
        (Variant.QND1, PhaseTag(1, 4), PhaseTag(1, 4)),
        (Variant.QND3, PhaseTag(1, 2), PI),
        (Variant.QND2, THETA, None),
        (Variant.QND4, PI, None),
        (Variant.QND1, 0.25, PhaseTag(3, 4)),
    ], ids=["qnd1-equal", "qnd3-degenerate", "qnd2-not-pi", "qnd4-pi", "qnd1-float"])
    def test_a_tampered_pickle_is_refused_by_the_checks(self, args):
        class Tampered:
            def __reduce__(self):
                return QndConfig, args

        with pytest.raises(ConfigError):
            pickle.loads(pickle.dumps(Tampered()))

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

    @pytest.mark.parametrize("variant", ["qnd1", None, 1], ids=["str", "none", "int"])
    def test_a_variant_that_is_not_a_variant_is_rejected(self, variant):
        # a Variant names a detector, as stage 1 refuses "qnd1"
        with pytest.raises(ConfigError,
                           match=f"^variant is a Variant, not {type(variant).__name__}$"):
            QndConfig(variant, PhaseTag(1, 4), PhaseTag(3, 4))


class TestCouplingTable:
    def test_module_docstring_draws_the_table(self):
        # the docstring's rows "(port,pol) -> +-angle", read in order under
        # each detector's heading, are the tests' own table of the paper's
        # media and, as counts per photon, that detector's _COUPLINGS entry:
        # +theta is (1, 0), +theta' is (0, 1) and -theta is (-1, 0)
        drawn = {}
        for line in qnd.__doc__.splitlines():
            heading = re.match(r"  (QND[1-4]) ", line)
            if heading:
                media = drawn.setdefault(Variant(heading.group(1).lower()), [])
            for port, pol, sign, angle in re.findall(r"\((upper|lower),([HV])\) -> ([+-])(theta'?)",
                                                     line):
                media.append((Spatial[port.upper()], Pol[pol], angle.replace("'", "_prime"),
                              1 if sign == "+" else -1))
        assert drawn == {v: list(rows) for v, rows in MEDIA.items()}
        as_counts = {v: [(spatial, pol, (sign, 0) if angle == "theta" else (0, sign))
                         for spatial, pol, angle, sign in rows] for v, rows in drawn.items()}
        assert as_counts == {v: list(rows) for v, rows in qnd._COUPLINGS.items()}


def _check_ports(state: PureState, cfg: QndConfig) -> None:
    if cfg.variant in (Variant.QND2, Variant.QND4) and any(
            b.photons(party, spatial) != 1 for b in state.branches
            for party in Party for spatial in (Spatial.UPPER, Spatial.LOWER)):
        raise OccupancyViolationError("one photon per port")


def _summed_counts(state: PureState, cfg: QndConfig) -> PureState:
    """Reference detector in counts, with no ``apply_kerr``: after qnd3's PBS,
    each party's probe gains, per angle, the signed photon counts of that
    party's own ``MEDIA`` modes; qnd2's theta is pi, so its theta count is
    then taken mod 2."""
    _check_ports(state, cfg)
    if cfg.variant == Variant.QND3:
        state = pbs(pbs(state, Party.ALICE), Party.BOB)

    def counted(b):
        probe = []
        for party, (a, c) in zip(Party, b.probe):
            for spatial, pol, angle, sign in MEDIA[cfg.variant]:
                n = sign * b.occupation(ModeLabel(party, spatial, pol))
                a, c = (a + n, c) if angle == "theta" else (a, c + n)
            probe.append((a % 2 if cfg.variant == Variant.QND2 else a, c))
        return BranchState(b.occupations, b.amplitude, tuple(probe))

    return state.map_branches(counted)


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
        # apply_qnd runs one apply_kerr step per medium.  Its counts must be
        # each party's signed photon counts per angle, summed straight from
        # the coupling table, repr for repr, and at 40 admissible angle pairs
        # they must read the phases of one PhaseTag step per medium; a
        # rejected input must be rejected by all three
        rng = np.random.default_rng(3)
        inputs = ([case.input_state() for case in BRANCH_CASES]
                  + [single_pair_state(flipped) for flipped in (False, True)]
                  + [random_pure_state(rng) for _ in range(8)])  # nonzero probes too

        def outcome(detector, state, cfg):
            try:
                return detector(state, cfg)
            except OccupancyViolationError:
                return "rejected"

        def counted(state, cfg):  # apply_qnd runs the config's variant
            return apply_qnd(state, cfg.variant)

        for variant in Variant:
            cfg = default_config(variant)
            for state in inputs:
                assert (repr(outcome(counted, state, cfg))
                        == repr(outcome(_summed_counts, state, cfg))), (cfg, state)
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
                got, want = outcome(counted, state, cfg), outcome(_per_medium_phases, state, cfg)
                if want == "rejected":
                    assert got == want
                else:
                    assert_same_phases(rendered_phases(got, cfg), want)
                    compared += 1
        assert compared > len(configs) * len(BRANCH_CASES) // 2
        assert any(outcome(counted, s, configs[-1]) == "rejected" for s in inputs)


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
            out = apply_qnd(st, Variant.QND2)
            tag_a = cfg.phase(out.branches[0].probe[Party.ALICE])
            tag_b = cfg.phase(out.branches[0].probe[Party.BOB])
            assert (tag_a == PI) == (pa1 == pa2)
            assert (tag_b == PI) == (pb1 == pb2)
            assert (tag_a == tag_b) == ((pa1 == pa2) == (pb1 == pb2))


class TestGadgetInvariants:
    def gadget_states(self, rng):
        yield Variant.QND1, random_pure_state(rng)
        yield Variant.QND3, random_pure_state(rng)

    def test_norm_and_photons_preserved(self, rng):
        for _ in range(200):
            for variant, st in self.gadget_states(rng):
                out = apply_qnd(st, variant)
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
            out = apply_qnd(st, Variant.QND1)
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
                apply_qnd(doubled, variant)

    def test_only_a_variant_runs(self):
        # a detector runs by its Variant alone: a config or a name is refused
        for detector in (default_config(Variant.QND1), "qnd1"):
            with pytest.raises(ConfigError, match="Variant"):
                apply_qnd(single_pair_state(), detector)


def x_readout(state: PureState, party: Party, cfg: QndConfig) -> dict:
    """An X-quadrature readout of ``party``'s probe, built as demo 04 builds it:
    {|phase| value: [(probability, counts)]}, one class per magnitude of the phase."""
    classes = {}
    for counts, p in probe_outcomes(state, party).items():
        v = cfg.phase(counts).value
        classes.setdefault(min(v, 2 - v), []).append((p, counts))
    return classes


class TestHomodyne:
    POOL_CFG = default_config(Variant.QND1)  # reads conftest's probe counts as six phases

    def test_components_are_project_probe_states(self, rng):
        # a class holds the project_probe states of its phases, +t and -t,
        # each weighted by the phase's share of the class probability
        cfg, two_tag_classes = self.POOL_CFG, 0
        for _ in range(200):
            st = random_pure_state(rng)
            for party in Party:
                for v, members in x_readout(st, party, cfg).items():
                    tags = {cfg.phase(counts) for _, counts in members}
                    assert len(tags) == len(members) <= 2
                    assert all(min(t.value, (t * -1).value) == v for t in tags)
                    two_tag_classes += len(members) == 2
                    p_class = sum(p for p, _ in members)
                    for p, counts in members:
                        prob, post = project_probe(st, party, counts)
                        assert abs(prob - p) < 1e-12
                        assert abs(post.norm_squared() - 1.0) < 1e-12
                        # the read register resets
                        assert all(b.probe[party] == ZERO_COUNTS for b in post.branches)
                    assert abs(sum(p / p_class for p, _ in members) - 1.0) < 1e-12
        assert two_tag_classes > 0

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(200):
            st = random_pure_state(rng)
            classes = x_readout(st, Party.BOB, self.POOL_CFG)
            assert abs(sum(p for members in classes.values() for p, _ in members) - 1.0) < 1e-10

    @staticmethod
    def magnitude_outcome(magnitude: PhaseTag):
        inp = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
        cfg = default_config(Variant.QND4)
        out = apply_qnd(inp, Variant.QND4)
        return cfg, out, x_readout(out, Party.ALICE, cfg)[magnitude.value]

    def test_magnitude_class_is_mixture(self):
        cfg, out, members = self.magnitude_outcome(THETA)
        p_class = sum(p for p, _ in members)
        assert len(members) == 2 and abs(p_class - 0.5) < 1e-12
        # finish with Bob's readout; each component is already tag-definite
        final = []
        for p, counts in members:
            _, after_a = project_probe(out, Party.ALICE, counts)
            for bob_counts in probe_outcomes(after_a, Party.BOB):
                p_bob, comp = project_probe(after_a, Party.BOB, bob_counts)
                final.append((p / p_class * p_bob, comp))
        target = operator_state([(1, ((HHVV, VVHH),))])
        fid = sum(w * overlap(comp, target) for w, comp in final)
        purity = sum(wi * wj * abs(inner(ci, cj)) ** 2 for wi, ci in final for wj, cj in final)
        assert abs(fid - 0.5) < 1e-12
        assert abs(purity - 0.5) < 1e-12

    def test_zero_class_stays_pure(self):
        _, out, members = self.magnitude_outcome(ZERO_PHASE)
        [(p, counts)] = members
        _, post = project_probe(out, Party.ALICE, counts)
        target = operator_state([(1, ((HHHH, VVVV),))])
        assert abs(p - 0.5) < 1e-12
        assert abs(overlap(post, target) - 1.0) < 1e-12

    def test_parity_detector_keeps_superposition(self):
        inp = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
        out = apply_qnd(inp, Variant.QND2)
        _, after_a = project_probe(out, Party.ALICE, ZERO_COUNTS)
        _, post = project_probe(after_a, Party.BOB, ZERO_COUNTS)
        target = operator_state([(1, ((HHVV, VVHH),))])
        assert abs(post.norm_squared() - 1.0) < 1e-12
        assert abs(overlap(post, target) - 1.0) < 1e-12
