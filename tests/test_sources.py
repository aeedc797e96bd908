"""Pair sources, emission statistics, and bit-flip noise."""

from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from kerrpurify import (
    BranchState,
    ConfigError,
    ModeLabel,
    NoiseParams,
    Party,
    PdcSourceParams,
    Pol,
    PureState,
    Spatial,
    bell_pair,
    enumerate_exact,
    inner,
    monte_carlo,
    sigma_x,
    single_pair_state,
    stage1_run,
    two_pair_components,
)
from kerrpurify.protocol import _stage1_class_weights
from kerrpurify.sources import (
    CLEAN,
    TWO_PAIR_KINDS,
    two_pair_state,
    two_pair_weights,
)

from conftest import assert_states_equal
from oracle import pdc_emit


class TestSinglePairEmission:
    def test_four_equal_branches(self):
        st = pdc_emit(1)
        assert len(st) == 4
        for b in st.branches:
            assert abs(b.amplitude - 0.5) < 1e-12

    def test_factorized_form(self):
        # (upper + lower) x (HH + VV), expanded by hand
        branches = []
        for spatial in (Spatial.UPPER, Spatial.LOWER):
            for pol in Pol:
                occ = {
                    ModeLabel(Party.ALICE, spatial, pol): 1,
                    ModeLabel(Party.BOB, spatial, pol): 1,
                }
                branches.append(BranchState.of(occ, 0.5))
        assert_states_equal(pdc_emit(1), PureState.of(branches))

    def test_normalized(self):
        assert abs(pdc_emit(1).norm_squared() - 1.0) < 1e-12


class TestDoubleEmission:
    def test_ten_patterns(self):
        assert len(pdc_emit(2)) == 10

    def test_pattern_weights_against_pair_oracle(self):
        # oracle: two independent pairs, 16 equally likely ordered draws
        oracle = Counter()
        for t1 in CLEAN:
            for t2 in CLEAN:
                pattern = tuple(sorted(Counter(t1 + t2).items()))
                oracle[pattern] += 1 / 16
        st = pdc_emit(2)
        got = {b.occupations: abs(b.amplitude) ** 2 for b in st.branches}
        assert set(got) == set(oracle)
        for pattern, prob in oracle.items():
            assert abs(got[pattern] - prob) < 1e-12

    def test_cross_to_doubled_ratio(self):
        st = pdc_emit(2)
        probs = sorted(abs(b.amplitude) ** 2 for b in st.branches)
        doubled, crossed = probs[0], probs[-1]
        assert abs(crossed / doubled - 2.0) < 1e-12
        assert abs(crossed - 1 / 8) < 1e-12 and abs(doubled - 1 / 16) < 1e-12

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            pdc_emit(3)


class TestNoise:
    """Stage 1 flips each pair independently, through the weights of its
    event classes: a clean and a flipped single pair, then the double
    emissions (flip1, flip2) in product order."""

    def test_no_noise(self):
        w = _stage1_class_weights({"p1": 0.1, "p2": 0.01, "f0": 1.0})
        assert w[0] == pytest.approx(0.1 / 0.11) and w[2] == pytest.approx(0.01 / 0.11)
        assert [w[i] for i in (1, 3, 4, 5)] == [0.0] * 4

    def test_full_flip(self):
        w = _stage1_class_weights({"p1": 0.1, "p2": 0.01, "f0": 0.0})
        assert w[1] == pytest.approx(0.1 / 0.11) and w[5] == pytest.approx(0.01 / 0.11)
        assert [w[i] for i in (0, 2, 3, 4)] == [0.0] * 4

    def test_flip_commutes_with_term_bookkeeping(self):
        assert_states_equal(
            sigma_x(single_pair_state(), Party.BOB), single_pair_state(flipped=True)
        )

    def test_independent_pair_weights(self):
        w = _stage1_class_weights({"p1": 0.0, "p2": 0.01, "f0": 0.8})
        assert w[:2] == [0.0, 0.0]
        # (clean, clean), (clean, flipped), (flipped, clean), (flipped, flipped)
        assert [round(x, 12) for x in w[2:]] == [0.64, 0.16, 0.16, 0.04]

    def test_out_of_range_rejected(self):
        # the parameter objects check themselves when built
        with pytest.raises(ValueError):
            NoiseParams(1.2)
        with pytest.raises(ValueError):
            PdcSourceParams(0.9, 0.2)

    @pytest.mark.parametrize("build, message", [
        (lambda: PdcSourceParams(True, 0.01), "p1 is a real number, not bool"),
        (lambda: PdcSourceParams(0.1, "0.01"), "p2 is a real number, not str"),
        (lambda: PdcSourceParams(np.array(0.1), 0.01), "p1 is a real number, not ndarray"),
        (lambda: NoiseParams(np.True_), "f0 is a real number, not bool"),
        (lambda: NoiseParams(None), "f0 is a real number, not NoneType"),
        (lambda: two_pair_weights(np.False_), "F is a real number, not bool"),
        (lambda: two_pair_weights(Decimal("0.8")), "F is a real number, not Decimal"),
    ], ids=["p1-bool", "p2-str", "p1-0d-array", "f0-numpy-bool", "f0-none", "F-numpy-bool",
            "F-decimal"])
    def test_a_value_that_is_not_a_real_number_is_refused_naming_it(self, build, message):
        # a bool, numpy's too, is no probability of 1, and a 0-d array no number
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build()

    def test_every_real_number_is_read(self):
        assert PdcSourceParams(Fraction(1, 10), np.float64(0.01)).p1 == Fraction(1, 10)
        assert NoiseParams(np.int64(1)).f0 == 1
        assert two_pair_weights(np.float64(0.8)) == two_pair_weights(0.8)
        assert two_pair_weights(Fraction(4, 5)) == pytest.approx(two_pair_weights(0.8))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        for build in (lambda: PdcSourceParams(value, 0.01), lambda: PdcSourceParams(0.1, value),
                      lambda: NoiseParams(value)):
            with pytest.raises(ValueError):
                build()
        with pytest.raises(ValueError):
            stage1_run(PdcSourceParams(value, 0.01), NoiseParams(0.8))
        # the params of a named pipeline are built into the same objects
        for params in ({"p1": value, "p2": 0.01, "f0": 0.8},
                       {"p1": 0.1, "p2": 0.01, "f0": value}):
            with pytest.raises(ValueError):
                enumerate_exact("stage1", params)
            with pytest.raises(ValueError):
                monte_carlo("stage1", params, 10)


class TestBellAndMixtures:
    def test_bell_states_orthonormal(self):
        kinds = ("phi+", "phi-", "psi+", "psi-")
        states = [bell_pair(k, Spatial.UPPER) for k in kinds]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(inner(a, b) - expected) < 1e-12

    def test_single_pair_mixture(self):
        assert two_pair_weights(1.0) == [1.0, 0.0, 0.0, 0.0]
        [(w, kinds, _)] = two_pair_components(1.0)
        assert (w, kinds) == (1.0, ("phi+", "phi+"))

    def test_two_pair_weights(self):
        # in the order of TWO_PAIR_KINDS: phi+ phi+, phi+ psi+, psi+ phi+, psi+ psi+
        weights = two_pair_weights(0.8)
        assert [round(w, 12) for w in weights] == [0.64, 0.16, 0.16, 0.04]
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_uniform_at_half(self):
        assert all(abs(w - 0.25) < 1e-12 for w in two_pair_weights(0.5))

    def test_components_normalized(self):
        components = two_pair_components(0.7)
        assert [kinds for _, kinds, _ in components] == list(TWO_PAIR_KINDS)
        for _, kinds, st in components:
            assert abs(st.norm_squared() - 1.0) < 1e-12
            assert st == two_pair_state(*kinds)
