"""Pair sources, emission statistics, and bit-flip noise channels."""

from collections import Counter

import pytest

from kerrpurify import (
    BranchState,
    ModeLabel,
    NoiseParams,
    Party,
    PdcSourceParams,
    Pol,
    PureState,
    Spatial,
    apply_bitflip_noise,
    bell_pair,
    ideal_mixed_pairs,
    independent_pair_noise,
    inner,
    pdc_emit,
    sigma_x,
    single_pair_state,
    stage1_run,
)
from kerrpurify.sources import pair_emission_terms

from conftest import assert_states_equal

PARAMS = PdcSourceParams(0.1, 0.01)


class TestSinglePairEmission:
    def test_four_equal_branches(self):
        st = pdc_emit(PARAMS, 1)
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
        assert_states_equal(pdc_emit(PARAMS, 1), PureState.of(branches))

    def test_normalized(self):
        assert abs(pdc_emit(PARAMS, 1).norm_squared() - 1.0) < 1e-12


class TestDoubleEmission:
    def test_ten_patterns(self):
        assert len(pdc_emit(PARAMS, 2)) == 10

    def test_pattern_weights_against_pair_oracle(self):
        # oracle: two independent pairs, 16 equally likely ordered draws
        terms = pair_emission_terms()
        oracle = Counter()
        for t1 in terms:
            for t2 in terms:
                pattern = tuple(sorted(Counter(t1 + t2).items()))
                oracle[pattern] += 1 / 16
        st = pdc_emit(PARAMS, 2)
        got = {b.occupations: abs(b.amplitude) ** 2 for b in st.branches}
        assert set(got) == set(oracle)
        for pattern, prob in oracle.items():
            assert abs(got[pattern] - prob) < 1e-12

    def test_cross_to_doubled_ratio(self):
        st = pdc_emit(PARAMS, 2)
        probs = sorted(abs(b.amplitude) ** 2 for b in st.branches)
        doubled, crossed = probs[0], probs[-1]
        assert abs(crossed / doubled - 2.0) < 1e-12
        assert abs(crossed - 1 / 8) < 1e-12 and abs(doubled - 1 / 16) < 1e-12

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            pdc_emit(PARAMS, 3)


class TestNoise:
    def test_no_noise(self):
        st = single_pair_state()
        ens = apply_bitflip_noise(st, NoiseParams(1.0))
        assert len(ens) == 1
        assert ens.components[0][0] == 1.0
        assert ens.components[0][1] == st

    def test_full_flip(self):
        st = single_pair_state()
        ens = apply_bitflip_noise(st, NoiseParams(0.0))
        assert len(ens) == 1
        assert_states_equal(ens.components[0][1], single_pair_state(flipped=True))

    def test_flip_commutes_with_term_bookkeeping(self):
        assert_states_equal(
            sigma_x(single_pair_state(), Party.BOB), single_pair_state(flipped=True)
        )

    def test_independent_pair_weights(self):
        pair = single_pair_state()
        comps = independent_pair_noise([pair, pair], NoiseParams(0.8))
        weights = sorted(w for w, _, _ in comps)
        assert [round(w, 12) for w in weights] == [
            round(x, 12) for x in sorted([0.64, 0.16, 0.16, 0.04])
        ]
        flips = {f for _, _, f in comps}
        assert flips == {(False, False), (False, True), (True, False), (True, True)}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams(1.2).validate()
        with pytest.raises(ValueError):
            PdcSourceParams(0.9, 0.2).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        for params in (PdcSourceParams(value, 0.01), PdcSourceParams(0.1, value),
                       NoiseParams(value)):
            with pytest.raises(ValueError):
                params.validate()
        with pytest.raises(ValueError):
            stage1_run(PdcSourceParams(value, 0.01), NoiseParams(0.8))


class TestBellAndMixtures:
    def test_bell_states_orthonormal(self):
        kinds = ("phi+", "phi-", "psi+", "psi-")
        states = [bell_pair(k, Spatial.UPPER) for k in kinds]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(inner(a, b) - expected) < 1e-12

    def test_single_pair_mixture(self):
        ens = ideal_mixed_pairs(1.0, 1)
        assert len(ens) == 1

    def test_two_pair_weights(self):
        ens = ideal_mixed_pairs(0.8, 2)
        weights = sorted(w for w, _ in ens.components)
        assert [round(w, 12) for w in weights] == [0.04, 0.16, 0.16, 0.64]

    def test_uniform_at_half(self):
        ens = ideal_mixed_pairs(0.5, 2)
        assert all(abs(w - 0.25) < 1e-12 for w, _ in ens.components)

    def test_components_normalized(self):
        for w, st in ideal_mixed_pairs(0.7, 2).components:
            assert abs(st.norm_squared() - 1.0) < 1e-12
