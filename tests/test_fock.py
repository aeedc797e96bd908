"""Core state representation: exact phases, branches, probe counts, projection."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrpurify import (
    BranchState,
    EnsembleState,
    KerrMedium,
    ModeLabel,
    Party,
    PhaseTag,
    Pol,
    PureState,
    QndConfig,
    Spatial,
    Variant,
    ZeroNormError,
    ZERO_COUNTS,
    ZERO_PHASE,
    PI,
    create_photon,
    apply_kerr,
    apply_qnd,
    default_config,
    inner,
    overlap,
    probe_outcomes,
    product_state,
    project_probe,
    single_pair_state,
)
from kerrpurify.branches import U1, U2, U3, U4, operator_state

from conftest import random_pure_state, assert_states_equal

A1H = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.H)
B1H = ModeLabel(Party.BOB, Spatial.UPPER, Pol.H)


class TestPhaseTag:
    def test_canonical_reduction(self):
        assert PhaseTag(2, 8).value == Fraction(1, 4)
        assert PhaseTag(9, 4).value == Fraction(1, 4)
        assert PhaseTag(-1, 4).value == Fraction(7, 4)

    def test_addition_exact(self):
        assert PhaseTag(1, 4) + PhaseTag(3, 4) == PhaseTag(1)
        assert PhaseTag(3, 2) + PhaseTag(3, 4) == PhaseTag(1, 4)

    def test_wraparound(self):
        t = PhaseTag(5, 7)
        assert t + PhaseTag(2) == t

    def test_associativity_random(self, rng):
        for _ in range(1000):
            nums = rng.integers(-20, 20, size=3)
            dens = rng.integers(1, 12, size=3)
            a, b, c = (PhaseTag(int(n), int(d)) for n, d in zip(nums, dens))
            assert (a + b) + c == a + (b + c)

    def test_scalar_multiple(self):
        assert PhaseTag(1, 4) * 3 == PhaseTag(3, 4)
        assert PhaseTag(3, 4) * 2 == PhaseTag(3, 2)
        assert PhaseTag(1, 2) * 4 == ZERO_PHASE

    def test_magnitude_class(self):
        assert PhaseTag(1, 4).magnitude_class() == PhaseTag(1, 4)
        assert PhaseTag(7, 4).magnitude_class() == PhaseTag(1, 4)
        assert PI.magnitude_class() == PI
        assert ZERO_PHASE.magnitude_class() == ZERO_PHASE

    def test_parse(self):
        assert PhaseTag.parse("3/4") == PhaseTag(3, 4)
        assert PhaseTag.parse("1") == PI

    def test_hash_consistency(self):
        assert len({PhaseTag(1, 4), PhaseTag(2, 8), PhaseTag(9, 4)}) == 1

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            PhaseTag.parse("1/0")
        with pytest.raises(ZeroDivisionError):
            PhaseTag(1, 0)

    @pytest.mark.parametrize("args", [(0.1,), (0.25,), (1, 4.0), (1.0, 4), (np.float64(0.5),)],
                             ids=["0.1", "0.25", "den 4.0", "num 1.0", "float64"])
    def test_a_float_argument_raises(self, args):
        # a float would be taken at its binary value: 0.1 is not pi/10
        with pytest.raises(TypeError, match="float"):
            PhaseTag(*args)

    def test_exact_non_int_arguments_still_build(self):
        assert PhaseTag(Fraction(1, 4)) == PhaseTag(1, 4)
        assert PhaseTag(Fraction(3, 2), 3) == PhaseTag(1, 2)
        assert PhaseTag(np.int64(3), np.uint8(4)) == PhaseTag(3, 4)
        assert PhaseTag.parse("0.25") == PhaseTag(1, 4)


@st.composite
def tag_inputs(draw):
    """(tag, its value as ``Fraction % 2``), the tag built one of four ways."""
    num = draw(st.integers(-10**6, 10**6))
    den = draw(st.integers(1, 10**4))
    value = Fraction(num, den)
    build = draw(st.sampled_from(["pair", "negative_den", "fraction", "parse"]))
    if build == "pair":
        tag = PhaseTag(num, den)
    elif build == "negative_den":
        tag = PhaseTag(-num, -den)
    elif build == "fraction":
        tag = PhaseTag(value)
    else:
        tag = PhaseTag.parse(f" {num}/{den} ")
    return tag, value % 2


class TestPhaseTagProperties:
    """Integer-pair tags against a ``Fraction % 2`` reference."""

    @settings(max_examples=300, deadline=None)
    @given(a=tag_inputs(), b=tag_inputs(), k=st.integers(-50, 50))
    def test_arithmetic_and_order_match_the_reference(self, a, b, k):
        (ta, fa), (tb, fb) = a, b
        for tag, ref in ((ta, fa), (tb, fb)):
            assert tag.value == ref
            assert 0 <= tag.num < 2 * tag.den and math.gcd(tag.num, tag.den) == 1
        assert (ta + tb).value == (fa + fb) % 2
        assert (-ta).value == (-fa) % 2
        assert (ta * k).value == (fa * k) % 2
        assert (ta < tb) == (fa < fb)
        assert ta.magnitude_class().value == min(fa, (-fa) % 2)

    @settings(max_examples=300, deadline=None)
    @given(a=tag_inputs(), b=tag_inputs())
    def test_equal_tags_hash_alike_whatever_built_them(self, a, b):
        (ta, fa), (tb, fb) = a, b
        assert (ta == tb) == (fa == fb)
        for same in (PhaseTag(fa), PhaseTag(fa.numerator, fa.denominator),
                     PhaseTag(-fa.numerator, -fa.denominator),
                     PhaseTag(fa.numerator + 2 * fa.denominator, fa.denominator),
                     PhaseTag.parse(str(fa))):
            assert same == ta and hash(same) == hash(ta)
        if fa == fb:
            assert hash(ta) == hash(tb)


class TestCreatePhoton:
    def test_empty_product_is_the_vacuum(self):
        assert operator_state([(1, ())]) == PureState((BranchState.of((), 1.0),))

    def test_single_on_vacuum(self):
        st = create_photon(operator_state([(1, ())]), A1H)
        assert len(st) == 1
        assert st.branches[0].occupation(A1H) == 1
        assert abs(st.branches[0].amplitude - 1.0) < 1e-12

    def test_bosonic_factor(self):
        st = create_photon(create_photon(operator_state([(1, ())]), A1H), A1H)
        assert st.branches[0].occupation(A1H) == 2
        assert abs(st.branches[0].amplitude - math.sqrt(2)) < 1e-12

    def test_squared_pair_operator_against_polynomial_oracle(self):
        # (sum of four pair terms)^2 on vacuum, checked monomial by monomial
        terms = [U1, U2, U3, U4]

        def apply_sum(state):
            branches = []
            for t in terms:
                s = state
                for m in t:
                    s = create_photon(s, m)
                branches.extend(s.branches)
            return PureState.of(branches)

        engine = apply_sum(apply_sum(operator_state([(1, ())]))).normalize()

        # oracle: expand the operator polynomial over ordered term pairs
        amplitudes = {}
        for t1 in terms:
            for t2 in terms:
                pattern = tuple(sorted(Counter(t1 + t2).items()))
                amplitudes[pattern] = amplitudes.get(pattern, 0) + 1
        expected = {
            pattern: coeff * math.sqrt(math.prod(math.factorial(n) for _, n in pattern))
            for pattern, coeff in amplitudes.items()
        }
        norm = math.sqrt(sum(a * a for a in expected.values()))

        assert len(engine) == 10
        assert len(expected) == 10
        got = {b.occupations: b.amplitude for b in engine.branches}
        for pattern, amp in expected.items():
            assert abs(got[pattern] - amp / norm) < 1e-12


class TestNormalize:
    def test_scalar(self):
        st = PureState.of([BranchState.of({A1H: 1}, 3.0)])
        assert abs(st.normalize().branches[0].amplitude - 1.0) < 1e-12

    def test_two_equal_branches(self):
        st = PureState.of([
            BranchState.of({A1H: 1}, 1.0),
            BranchState.of({B1H: 1}, 1.0),
        ])
        out = st.normalize()
        for b in out.branches:
            assert abs(b.amplitude - 1 / math.sqrt(2)) < 1e-12

    def test_destructive_interference_raises(self):
        st = PureState.of([
            BranchState.of({A1H: 1}, 1.0),
            BranchState.of({A1H: 1}, -1.0),
        ])
        with pytest.raises(ZeroNormError):
            st.normalize()

    def test_idempotent(self, rng):
        for _ in range(200):
            st = random_pure_state(rng)
            assert_states_equal(st.normalize(), st, tol=1e-12)


class TestMergeCanonical:
    def test_order_independent(self, rng):
        for _ in range(200):
            st = random_pure_state(rng)
            reversed_build = PureState.of(reversed(st.branches))
            assert reversed_build == st


class TestOneBranchKey:
    # probe counts are plain ints, so branches whose counts are equal however
    # they were reached have one key: PureState.of merges them and inner
    # matches them.  The phases those counts read are PhaseTags, reduced when
    # built, so equal phases built differently are equal tags.
    ALIKE = (PhaseTag(2, 8), PhaseTag(9, 4), PhaseTag(Fraction(-7, 4)), PhaseTag(1, 4))

    @staticmethod
    def alike_counts() -> list:
        """The counts (1, 1) reached three ways: directly, as the sum of two
        product factors' counts, and through two Kerr media on one photon."""
        shifted = PureState((BranchState((), 1.0, ((1, 0), (0, 1))),))
        factor = PureState((BranchState((), 1.0, ((0, 1), (1, 0))),))
        photon = create_photon(operator_state([(1, ())]), A1H)
        for counts in ((1, 0), (0, 1)):
            photon = apply_kerr(photon, KerrMedium(A1H, counts, Party.ALICE))
        return [(1, 1), product_state(shifted, factor).branches[0].probe[Party.ALICE],
                photon.branches[0].probe[Party.ALICE]]

    def test_equal_counts_built_differently_merge(self):
        merged = PureState.of(BranchState.of({A1H: 1}, 0.25, (c, (1, 1)))
                              for c in self.alike_counts())
        assert len(merged) == 1
        assert merged.branches[0].amplitude == 0.75
        assert merged.branches[0].key() == (((A1H, 1),), ((1, 1), (1, 1)))
        theta, theta_prime = self.ALIKE[0], PhaseTag(3, 4)
        cfg = QndConfig(Variant.QND1, theta, theta_prime)
        assert {cfg.phase(c) for c in self.alike_counts()} == {PI}  # pi/4 + 3pi/4
        for t in self.ALIKE:
            assert QndConfig(Variant.QND1, t, theta_prime).phase((1, 1)) == PI

    def test_equal_counts_built_differently_match_in_inner(self):
        ref = PureState.of([BranchState.of({A1H: 1}, 1.0, ((1, 1), ZERO_COUNTS))])
        for c in self.alike_counts():
            st = PureState.of([BranchState.of({A1H: 1}, 1.0, (c, (0, 0)))])
            assert inner(st, ref) == 1.0
        shifted = PureState.of([BranchState.of({A1H: 1}, 1.0, ((0, 1), ZERO_COUNTS))])
        assert inner(shifted, ref) == 0

    def test_branches_are_ordered_by_their_key(self, rng):
        for _ in range(100):
            keys = [b.key() for b in random_pure_state(rng).branches]
            assert keys == sorted(set(keys))


class TestProjectProbe:
    def test_clean_pair_after_detector(self):
        cfg = default_config(Variant.QND1)
        st = apply_qnd(single_pair_state(), cfg)
        theta = (1, 0)  # the counts of one theta shift
        assert cfg.phase(theta) == cfg.theta
        prob, post = project_probe(st, Party.ALICE, theta)
        assert abs(prob - 0.5) < 1e-12
        # Bob's probe still reads theta on every surviving branch
        assert all(b.probe[Party.BOB] == theta for b in post.branches)
        expected = operator_state([(1, ((U1, U4),), (ZERO_COUNTS, theta))])
        assert_states_equal(post, expected)

    def test_uniform_zero_probe(self, rng):
        st = random_pure_state(rng, with_probe=False)
        prob, post = project_probe(st, Party.ALICE, ZERO_COUNTS)
        assert abs(prob - 1.0) < 1e-12
        assert_states_equal(post, st)

    def test_no_match_raises(self):
        st = single_pair_state()
        with pytest.raises(ZeroNormError):
            project_probe(st, Party.ALICE, (1, 0))

    def test_weighted_class_superposition(self):
        # superposition of the three normalized double-emission phase
        # classes with weights 1 : 1 : 2; the heaviest class carries 4/6
        g1 = operator_state([(1, ((U1, U4), (U1, U4)), ((2, 0), (2, 0)))])
        g2 = operator_state([(1, ((U2, U3), (U2, U3)), ((0, 2), (0, 2)))])
        g3 = operator_state([(1, ((U1, U4), (U2, U3)), ((1, 1), (1, 1)))])
        combined = PureState.of(
            list(g1.branches) + list(g2.branches) + list(g3.scale(2.0).branches)
        ).normalize()
        prob, _ = project_probe(combined, Party.ALICE, (1, 1))
        assert abs(prob - 4.0 / 6.0) < 1e-12

    def test_outcome_probabilities_sum_to_one(self, rng):
        for _ in range(300):
            st = random_pure_state(rng)
            for party in Party:
                total = sum(probe_outcomes(st, party).values())
                assert abs(total - 1.0) < 1e-10


class TestOnePhotonPerPort:
    def test_two_pairs_at_the_four_ports(self):
        ports = [ModeLabel(p, s, Pol.H) for p in Party for s in (Spatial.UPPER, Spatial.LOWER)]
        assert BranchState.of([(m, 1) for m in ports], 1.0).one_photon_per_port()
        for doubled in ports:
            occ = [(m, 2 if m == doubled else 1) for m in ports]
            assert not BranchState.of(occ, 1.0).one_photon_per_port()
            assert not BranchState.of([(m, 1) for m in ports if m != doubled],
                                      1.0).one_photon_per_port()
        # polarization does not matter, only the port
        mixed = [A1H, ModeLabel(Party.ALICE, Spatial.LOWER, Pol.V),
                 ModeLabel(Party.BOB, Spatial.UPPER, Pol.V),
                 ModeLabel(Party.BOB, Spatial.LOWER, Pol.H)]
        assert BranchState.of([(m, 1) for m in mixed], 1.0).one_photon_per_port()
        assert not BranchState.of([], 1.0).one_photon_per_port()


class TestProductAndOverlap:
    def test_product_disjoint(self):
        a = create_photon(operator_state([(1, ())]), A1H)
        b = create_photon(operator_state([(1, ())]), B1H)
        joint = product_state(a, b)
        assert joint.branches[0].photons() == 2

    def test_product_collision_raises(self):
        a = create_photon(operator_state([(1, ())]), A1H)
        with pytest.raises(Exception):
            product_state(a, a)

    def test_overlap_self(self, rng):
        for _ in range(50):
            st = random_pure_state(rng)
            assert abs(overlap(st, st) - 1.0) < 1e-10

    def test_inner_orthogonal(self):
        a = create_photon(operator_state([(1, ())]), A1H)
        b = create_photon(operator_state([(1, ())]), B1H)
        assert inner(a, b) == 0


class TestEnsemble:
    def test_weight_validation(self):
        st = single_pair_state()
        with pytest.raises(ValueError):
            EnsembleState.of([(0.5, st)])

    def test_negative_or_nan_weight_rejected(self):
        # checked before zero and negative weights drop out of the mixture
        state = single_pair_state()
        for bad in (-1e-11, float("nan")):
            with pytest.raises(ValueError, match="negative or NaN"):
                EnsembleState.of([(1.0, state), (bad, state)])
        assert len(EnsembleState.of([(1.0, state), (0.0, state)])) == 1

    def test_purity_of_pure(self):
        ens = EnsembleState.of([(1.0, single_pair_state())])
        assert abs(ens.purity() - 1.0) < 1e-12

    def test_mixture_purity(self):
        a = create_photon(operator_state([(1, ())]), A1H)
        b = create_photon(operator_state([(1, ())]), B1H)
        ens = EnsembleState.of([(0.5, a), (0.5, b)])
        assert abs(ens.purity() - 0.5) < 1e-12
