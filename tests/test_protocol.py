"""Pipelines: closed forms, exact enumeration, Monte Carlo consistency."""

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kerrpurify import (
    ConfigError,
    NoiseParams,
    PdcSourceParams,
    PhaseTag,
    QndConfig,
    Variant,
    Verdict,
    enumerate_exact,
    exact_reports,
    monte_carlo,
    overlap,
    pbs_baseline,
    stage1_fidelity_closed_form,
    stage1_run,
    stage2_fidelity_map,
    stage2_iterate,
    stage2_run,
    stage2_yield,
)
from kerrpurify import protocol
from kerrpurify.branches import BRANCH_CASES, BranchCase
from kerrpurify.protocol import (
    COUNT_KEYS,
    MC_CHUNK,
    PHI_PLUS_MERGED,
    PSI_PLUS_MERGED,
    PSI_PLUS_UPPER,
    _mc_row_counts,
    _pbs_table,
    _philox,
    _stage2_table,
    _trial_words,
    _word_limits,
    _words_below,
    pbs_records,
    stage1_records,
    stage2_records,
    trial_uniforms,
)
from kerrpurify.qnd import default_config
from kerrpurify.sources import TWO_PAIR_KINDS, single_pair_state

from conftest import angles, mc_totals, random_angle_pair
from oracle import per_medium_phases


class TestClosedForms:
    def test_reference_point(self):
        f = stage1_fidelity_closed_form(0.1, 0.01, 0.8)
        assert abs(f - 516 / 517) < 1e-15

    def test_perfect_channel(self):
        assert stage1_fidelity_closed_form(0.3, 0.05, 1.0) == 1.0

    def test_no_single_emissions_reduces_to_second_stage_map(self):
        for f0 in (0.6, 0.75, 0.9):
            assert abs(
                stage1_fidelity_closed_form(0.0, 0.01, f0) - stage2_fidelity_map(f0)
            ) < 1e-15

    def test_zero_denominator_guard(self):
        with pytest.raises(ZeroDivisionError):
            stage1_fidelity_closed_form(0.0, 0.0, 0.8)

    def test_map_fixed_points(self):
        assert stage2_fidelity_map(1.0) == 1.0
        assert stage2_fidelity_map(0.5) == 0.5

    def test_map_monotone_above_half(self):
        for f in np.arange(0.51, 1.0, 0.01):
            assert stage2_fidelity_map(f) > f


class TestStage1Exact:
    def test_matches_closed_form(self):
        report = stage1_run(PdcSourceParams(0.1, 0.01), NoiseParams(0.8))
        assert abs(report.fidelity - report.extras["closed_form_fidelity"]) < 1e-12
        assert abs(report.fidelity - 516 / 517) < 1e-12

    def test_no_double_emissions_perfect(self):
        records = stage1_records(PdcSourceParams(0.2, 0.0), NoiseParams(0.6))
        assert all(r.verdict == Verdict.KEPT_CORRECT for r in records)
        report = stage1_run(PdcSourceParams(0.2, 0.0), NoiseParams(0.6))
        assert abs(report.fidelity - 1.0) < 1e-12

    def test_clean_channel_perfect(self):
        report = stage1_run(PdcSourceParams(0.1, 0.02), NoiseParams(1.0))
        assert abs(report.fidelity - 1.0) < 1e-12

    def test_double_emission_keep_probability_is_half(self):
        # among error-free double emissions, the one-photon-per-port class
        # carries exactly half the weight
        records = stage1_records(PdcSourceParams(0.1, 0.01), NoiseParams(1.0))
        w2 = 0.01 / 0.11
        kept = sum(r.weight for r in records if r.order == 2 and r.kept_pairs > 0)
        assert abs(kept - 0.5 * w2) < 1e-12
        same_port = sum(r.weight for r in records if r.verdict == Verdict.KEPT_SAME_PORT)
        assert abs(same_port - 0.5 * w2) < 1e-12

    def test_single_emissions_exactly_phi_plus(self):
        records = stage1_records(PdcSourceParams(0.1, 0.01), NoiseParams(0.7))
        singles = [r for r in records if r.order == 1]
        assert len(singles) == 4  # 2 noise cases x 2 joint readings each
        for r in singles:
            assert r.verdict == Verdict.KEPT_CORRECT
            assert abs(overlap(r.final_state, PHI_PLUS_MERGED) - 1.0) < 1e-12

    def test_one_flip_doubles_all_discarded(self):
        records = stage1_records(PdcSourceParams(0.0, 0.01), NoiseParams(0.8))
        mixed = [
            r for r in records
            if r.order == 2 and r.kept_pairs > 0 and r.fidelity is not None
            and 1e-9 < r.fidelity < 1 - 1e-9
        ]
        assert mixed == []

    def test_weights_sum_to_one(self):
        for f0 in (0.55, 0.8, 1.0):
            records = stage1_records(PdcSourceParams(0.05, 0.01), NoiseParams(f0))
            assert abs(sum(r.weight for r in records) - 1.0) < 1e-12

    def test_grid_against_closed_form(self):
        for p1 in (0.02, 0.05, 0.1, 0.2, 0.3):
            for p2 in (0.001, 0.005, 0.01, 0.05, 0.1):
                for f0 in (0.55, 0.65, 0.8, 0.9, 1.0):
                    report = stage1_run(PdcSourceParams(p1, p2), NoiseParams(f0))
                    expect = stage1_fidelity_closed_form(p1, p2, f0)
                    assert abs(report.fidelity - expect) < 1e-12

    def test_erroneous_keeps_end_in_psi_plus(self):
        records = stage1_records(PdcSourceParams(0.1, 0.05), NoiseParams(0.7))
        errs = [r for r in records if r.verdict == Verdict.KEPT_ERRONEOUS]
        assert errs
        for r in errs:
            assert abs(overlap(r.final_state, PSI_PLUS_MERGED) - 1.0) < 1e-12

    def test_detector_variants_agree(self, rng):
        for _ in range(20):
            p1 = float(rng.uniform(0.01, 0.4))
            p2 = float(rng.uniform(0.001, min(0.2, 1 - p1)))
            f0 = float(rng.uniform(0.5, 1.0))
            r1 = stage1_run(PdcSourceParams(p1, p2), NoiseParams(f0), Variant.QND1)
            r3 = stage1_run(PdcSourceParams(p1, p2), NoiseParams(f0), Variant.QND3)
            assert r1.to_dict() == r3.to_dict()

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError):
            stage1_run(PdcSourceParams(0.1, 0.01), NoiseParams(0.8), Variant.QND2)


class TestAngleIndependence:
    @settings(max_examples=25, deadline=None)
    @given(theta=angles, theta_prime=angles,
           p1=st.floats(0.01, 0.5), p2=st.floats(0.001, 0.3), f0=st.floats(0.5, 1.0))
    def test_stage1_report_does_not_depend_on_the_angles(self, theta, theta_prime,
                                                         p1, p2, f0):
        # an admissible angle pair, in either order, only labels the rows: a
        # single run, a grid and a seeded Monte Carlo run read the default
        # config's numbers to the bit
        src, noise = PdcSourceParams(p1, p2), NoiseParams(f0)
        grid = [{"p1": p1, "p2": p2, "f0": f0}, {"p1": p2, "p2": p1, "f0": 1.5 - f0}]

        def runs(variant, cfg):
            points = [dict(p, variant=variant, cfg=cfg) for p in grid]
            return (stage1_run(src, noise, variant, cfg=cfg).to_dict(),
                    [r.to_dict() for r in exact_reports("stage1", points)],
                    monte_carlo("stage1", points[0], 20_000, seed=13).to_dict())

        reports = []
        for variant in (Variant.QND1, Variant.QND3):
            expected = runs(variant, default_config(variant))
            for angle_pair in ((theta, theta_prime), (theta_prime, theta)):
                try:
                    cfg = QndConfig(variant, *map(PhaseTag, angle_pair))
                except ConfigError:
                    assume(False)
                assert runs(variant, cfg) == expected
            reports.append(expected[0])
        assert reports[0] == reports[1]


class TestSinglePairLeaves:
    def test_leaves_come_in_count_order_at_fresh_angles(self):
        # a detector's leaves hold probe counts, two distinct readings; a
        # config's records are its detector's count rows row for row, in
        # count order, with only the tags read as phases
        rng, pairs = random.Random(29), 0
        point = {"p1": 0.2, "p2": 0.05, "f0": 0.7}  # every row weighs something
        while pairs < 24:
            angle_pair = random_angle_pair(rng)
            try:
                cfgs = [QndConfig(v, *angle_pair) for v in (Variant.QND1, Variant.QND3)]
            except ConfigError:
                continue
            pairs += 1
            for cfg in cfgs:
                counted = protocol._stage1_rows(cfg.variant)
                records = enumerate_exact("stage1", dict(point, variant=cfg.variant, cfg=cfg))
                assert [r[2:4] + r[5:] for r in records] == [
                    row[2:4] + row[5:] for row in counted.rows]
                assert [(r.probe_alice, r.probe_bob) for r in records] == [
                    (cfg.phase(row.probe_alice), cfg.phase(row.probe_bob))
                    for row in counted.rows]
                for flipped in (False, True):
                    leaves = protocol.single_pair_leaves(cfg.variant, flipped)
                    assert len({(leaf.alice, leaf.bob) for leaf in leaves}) == len(leaves) == 2
                    tags = [(r.probe_alice, r.probe_bob)
                            for r, c in zip(records, counted.cls) if c == flipped]
                    assert set(tags) == {(cfg.phase(leaf.alice), cfg.phase(leaf.bob))
                                         for leaf in leaves}


def _per_medium_classes(cfg: QndConfig) -> list:
    """(Alice's phase, Bob's phase, factor) of the stage-1 rows of each class
    of ``_stage1_rows`` at ``cfg``, enumerated in phases: each pair's readings
    from one PhaseTag step per Kerr medium."""
    leaves = []
    for flipped in (False, True):
        readings = {}
        for (_, tag_a, tag_b), amplitude in per_medium_phases(single_pair_state(flipped),
                                                              cfg).items():
            readings[tag_a, tag_b] = readings.get((tag_a, tag_b), 0.0) + abs(amplitude) ** 2
        leaves.append(list(readings.items()))
    classes = [[(a, b, p) for (a, b), p in pair] for pair in leaves]
    classes += [[(a1 + a2, b1 + b2, p1 * p2)
                 for ((a1, b1), p1), ((a2, b2), p2) in iproduct(pair1, pair2)]
                for pair1, pair2 in iproduct(leaves, leaves)]
    return classes


class TestPerAngleRender:
    """A config reads its detector's count-valued rows as phases; at every
    accepted angle pair each class must hold the rows of an enumeration in
    phases, compared as lists sorted by tags."""

    @settings(max_examples=40, deadline=None)
    @given(theta=angles, theta_prime=angles)
    def test_rendered_records_equal_a_per_medium_enumeration(self, theta, theta_prime):
        point = {"p1": 0.2, "p2": 0.05, "f0": 0.7}
        for variant in (Variant.QND1, Variant.QND3):
            try:
                cfg = QndConfig(variant, PhaseTag(theta), PhaseTag(theta_prime))
            except ConfigError:
                assume(False)
            expected = _per_medium_classes(cfg)
            records = enumerate_exact("stage1", dict(point, variant=variant, cfg=cfg))
            table = protocol._stage1_rows(variant)
            assert len(records) == len(table.rows) == sum(map(len, expected))
            for record, row in zip(records, table.rows):
                assert record[2:4] + record[5:] == row[2:4] + row[5:]
                assert (record.probe_alice, record.probe_bob) == (cfg.phase(row.probe_alice),
                                                                  cfg.phase(row.probe_bob))
                # the keep rule, read on the phases themselves
                tag_a, tag_b = record.probe_alice, record.probe_bob
                if record.order == 1:
                    kept = True
                else:
                    kept = tag_a == tag_b == cfg.theta + cfg.theta_prime
                    assert (record.verdict == Verdict.KEPT_SAME_PORT) == (tag_a == tag_b
                                                                         and not kept)
                assert (record.verdict in (Verdict.KEPT_CORRECT,
                                           Verdict.KEPT_ERRONEOUS)) == kept
            for c, want in enumerate(expected):
                got = sorted((record.probe_alice, record.probe_bob, factor)
                             for record, k, factor in zip(records, table.cls, table.factor)
                             if k == c)
                assert len(got) == len(want)
                for (tag_a, tag_b, factor), (want_a, want_b, p) in zip(got, sorted(want)):
                    assert (tag_a, tag_b) == (want_a, want_b)
                    assert abs(factor - p) < 1e-12


class TestStage2Exact:
    def test_reference_point(self):
        report = stage2_run(0.8)
        assert abs(report.fidelity - 16 / 17) < 1e-12
        assert abs(report.yield_fraction - 0.68) < 1e-12

    def test_perfect_input(self):
        report = stage2_run(1.0)
        assert abs(report.fidelity - 1.0) < 1e-12
        assert abs(report.yield_fraction - 1.0) < 1e-12

    def test_fixed_point(self):
        report = stage2_run(0.5)
        assert abs(report.fidelity - 0.5) < 1e-12

    def test_grid(self):
        for f in np.arange(0.55, 0.96, 0.05):
            f = float(f)
            report = stage2_run(f)
            assert abs(report.fidelity - stage2_fidelity_map(f)) < 1e-12
            assert abs(report.yield_fraction - stage2_yield(f)) < 1e-12

    def test_erroneous_keeps_end_in_psi_plus(self):
        records = stage2_records(0.8)
        errs = [r for r in records if r.verdict == Verdict.KEPT_ERRONEOUS]
        assert errs
        for r in errs:
            assert abs(overlap(r.final_state, PSI_PLUS_UPPER) - 1.0) < 1e-12

    def test_weights_sum_to_one(self):
        assert abs(sum(r.weight for r in stage2_records(0.7)) - 1.0) < 1e-12


class TestIteration:
    def test_two_rounds_from_08(self):
        rows = stage2_iterate(0.8, 2)
        assert abs(rows[0].fidelity - 16 / 17) < 1e-12
        assert abs(rows[0].round_yield - 0.68) < 1e-12
        assert abs(rows[0].cumulative_yield - 0.68) < 1e-12
        assert abs(rows[1].fidelity - 256 / 257) < 1e-12
        assert rows[1].fidelity >= 0.996
        expected_cum = 0.68 * stage2_yield(16 / 17) / 2
        assert abs(rows[1].cumulative_yield - expected_cum) < 1e-12

    def test_perfect_stays_perfect(self):
        rows = stage2_iterate(1.0, 3)
        assert all(r.fidelity == 1.0 for r in rows)

    def test_monotone_growth(self):
        for f0 in np.arange(0.55, 0.96, 0.05):
            rows = stage2_iterate(float(f0), 4)
            fids = [float(f0)] + [r.fidelity for r in rows]
            assert all(b > a for a, b in zip(fids, fids[1:]))

    def test_domain_guard(self):
        with pytest.raises(ConfigError):
            stage2_iterate(0.5, 2)


class TestPbsBaseline:
    def test_reference_point(self):
        report = pbs_baseline(0.8)
        assert abs(report.fidelity - 16 / 17) < 1e-12
        assert abs(report.yield_fraction - 0.34) < 1e-12

    def test_yield_ratio_two(self):
        for f in np.arange(0.55, 0.96, 0.05):
            f = float(f)
            s2 = stage2_run(f)
            pb = pbs_baseline(f)
            assert abs(s2.yield_fraction / pb.yield_fraction - 2.0) < 1e-12
            assert abs(s2.fidelity - pb.fidelity) < 1e-12

    def test_perfect_input_yield_half(self):
        report = pbs_baseline(1.0)
        assert abs(report.yield_fraction - 0.5) < 1e-12


class TestEnumerateExact:
    def test_dispatch_and_completeness(self):
        s1 = enumerate_exact("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8})
        s2 = enumerate_exact("stage2", {"F": 0.8})
        pb = enumerate_exact("pbs", {"F": 0.8})
        for records in (s1, s2, pb):
            assert abs(sum(r.weight for r in records) - 1.0) < 1e-12

    def test_unknown_pipeline(self):
        with pytest.raises(ConfigError):
            enumerate_exact("nope", {})


class TestMonteCarlo:
    def test_seed_reproducibility(self):
        a = monte_carlo("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8}, 50_000, seed=7)
        b = monte_carlo("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8}, 50_000, seed=7)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
               json.dumps(b.to_dict(), sort_keys=True)

    def test_different_seeds_differ(self):
        a = monte_carlo("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8}, 50_000, seed=7)
        b = monte_carlo("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8}, 50_000, seed=8)
        assert a.counts != b.counts

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
    def test_a_seed_that_is_not_an_integer_raises(self, seed):
        # 1.5 must not draw seed 1's stream while reporting "seed": 1.5
        with pytest.raises(TypeError):
            monte_carlo("stage2", {"F": 0.8}, 1000, seed=seed)

    @pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5)], ids=["uint64", "int64"])
    def test_an_integer_seed_is_reported_as_a_plain_int(self, seed):
        report = monte_carlo("stage2", {"F": 0.8}, 1000, seed=seed)
        assert type(report.seed) is int
        # the report serializes, and equals the plain int seed's
        plain = monte_carlo("stage2", {"F": 0.8}, 1000, seed=int(seed))
        assert json.dumps(report.to_dict()) == json.dumps(plain.to_dict())

    @pytest.mark.parametrize("trials", [np.int64(1000), np.uint64(1000)],
                             ids=["int64", "uint64"])
    def test_a_numpy_trial_count_is_reported_as_a_plain_int(self, trials):
        report = monte_carlo("stage2", {"F": 0.8}, trials, 1)
        assert type(report.trials) is int
        plain = monte_carlo("stage2", {"F": 0.8}, 1000, 1)
        assert json.dumps(report.to_dict()) == json.dumps(plain.to_dict())

    def test_a_trial_count_that_is_not_an_integer_raises(self):
        with pytest.raises(TypeError):
            monte_carlo("stage2", {"F": 0.8}, 1000.0, 1)

    def test_a_uniforms_seed_that_is_not_an_integer_raises(self):
        # 1.5 must not draw seed 1's words
        with pytest.raises(TypeError):
            trial_uniforms(1.5, 8)
        assert np.array_equal(trial_uniforms(np.uint64(1), 8), trial_uniforms(1, 8))

    def test_uniforms_slice_consistent(self):
        full = trial_uniforms(3, 1000)
        parts = np.concatenate([
            trial_uniforms(3, 250),
            trial_uniforms(3, 500, start=250),
            trial_uniforms(3, 250, start=750),
        ])
        assert np.array_equal(full, parts)

    def test_parallel_equals_serial_counts(self):
        params = {"p1": 0.1, "p2": 0.02, "f0": 0.8}
        table, full = _mc_row_counts("stage1", params, 80_000, 5)
        _, lo = _mc_row_counts("stage1", params, 30_001, 5)
        _, hi = _mc_row_counts("stage1", params, 49_999, 5, start=30_001)
        assert np.array_equal(full, lo + hi)
        serial = mc_totals(table, full)
        assert serial == [a + b for a, b in zip(mc_totals(table, lo), mc_totals(table, hi))]
        assert sum(serial[:-1]) == 80_000

    def test_stage1_within_three_sigma(self):
        report = monte_carlo("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8},
                             100_000, seed=0)
        expect = stage1_fidelity_closed_form(0.1, 0.01, 0.8)
        assert abs(report.fidelity - expect) <= 3 * report.fidelity_stderr

    def test_stage2_within_three_sigma(self):
        report = monte_carlo("stage2", {"F": 0.8}, 100_000, seed=0)
        assert abs(report.fidelity - 16 / 17) <= 3 * report.fidelity_stderr
        assert abs(report.yield_fraction - 0.68) <= 3 * report.yield_stderr

    def test_pbs_within_three_sigma(self):
        report = monte_carlo("pbs", {"F": 0.8}, 100_000, seed=0)
        assert abs(report.yield_fraction - 0.34) <= 3 * report.yield_stderr

    def test_single_trial_stderr_undefined(self):
        report = monte_carlo("stage1", {"p1": 0.1, "p2": 0.0, "f0": 1.0}, 1, seed=0)
        assert report.trials == 1
        assert report.fidelity_stderr is None

    def test_variant_agreement_same_seed(self):
        a = monte_carlo("stage1",
                        {"p1": 0.1, "p2": 0.01, "f0": 0.8, "variant": Variant.QND1},
                        20_000, seed=11)
        b = monte_carlo("stage1",
                        {"p1": 0.1, "p2": 0.01, "f0": 0.8, "variant": Variant.QND3},
                        20_000, seed=11)
        assert a.counts == b.counts

    @pytest.mark.parametrize("variant, cfg", [
        (Variant.QND1, None),
        (Variant.QND3, QndConfig(Variant.QND3, PhaseTag(1, 8), PhaseTag(5, 8))),
    ], ids=["qnd1-default", "qnd3-1/8-5/8"])
    def test_stage1_wrapper_equals_monte_carlo(self, variant, cfg):
        params = {"p1": 0.1, "p2": 0.02, "f0": 0.8, "variant": variant, "cfg": cfg}
        report = protocol.stage1_monte_carlo(PdcSourceParams(0.1, 0.02), NoiseParams(0.8),
                                             variant, cfg, trials=30_000, seed=4)
        assert report.to_dict() == monte_carlo("stage1", params, 30_000, 4).to_dict()

    def test_stage2_wrapper_equals_monte_carlo(self):
        # the wrapper's defaults: 100000 trials, seed 0
        assert protocol.stage2_monte_carlo(0.8).to_dict() \
            == monte_carlo("stage2", {"F": 0.8}, 100_000, 0).to_dict()
        report = protocol.stage2_monte_carlo(0.7, 30_000, 9)
        assert report.to_dict() == monte_carlo("stage2", {"F": 0.7}, 30_000, 9).to_dict()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            trial_uniforms(seed, 10)

    def test_largest_seed_accepted(self):
        assert trial_uniforms(2**64 - 1, 10).shape == (10,)


def _float_row_counts(edges, uniforms):
    """The float reference: each uniform searched in the edges."""
    return np.bincount(np.searchsorted(edges, uniforms, side="right"),
                       minlength=len(edges))


def _uniforms(words):
    return (words >> np.uint64(11)) * 2.0**-53


def _integer_row_counts(edges, words):
    return np.diff(_words_below(words, *_word_limits(edges)), prepend=0)


def _edges(weights):
    """Cumulative edges as ``_mc_row_counts`` builds them."""
    edges = np.cumsum(np.asarray(weights, dtype=float))
    edges[-1] = 1.0
    return edges


def _words_at_edges(edges):
    """The first word whose uniform reaches each edge below 1, and the word
    just below it, found with exact rationals."""
    planted = []
    for e in edges:
        first = math.ceil(Fraction(float(e)) * 2**53) << 11
        if first < 2**64:
            planted += [first, max(first - 1, 0)]
    return np.array(planted + [0, 2**64 - 1], dtype=np.uint64)


class TestWordLimitCounts:
    """Counting rows on the raw words equals the float uniform search."""

    def test_random_weights_with_tiny_rows(self):
        rng = np.random.default_rng(20)
        words = rng.integers(0, 2**64 - 1, size=4000, dtype=np.uint64, endpoint=True)
        for _ in range(300):
            w = rng.random(rng.integers(1, 21))
            tiny = rng.random(len(w)) < 0.3
            w[tiny] **= rng.integers(1, 31, size=tiny.sum())
            edges = _edges(w / w.sum())
            sample = np.concatenate([words, _words_at_edges(edges)])
            assert np.array_equal(_integer_row_counts(edges, sample),
                                  _float_row_counts(edges, _uniforms(sample)))

    @pytest.mark.parametrize("edges", [
        [0.5, 1.0, 1.0, 1.0],                              # rounds to 1.0 early
        [0.25, 1.0000000000000002, 1.0],                   # rounds above 1.0
        [1.0],
        [2.0**-60, 2.0**-53, 0.5 - 2.0**-54, 1 - 2.0**-53, 1.0],
    ])
    def test_edges_at_and_above_one(self, edges):
        edges = np.array(edges)
        words = np.concatenate([
            np.random.default_rng(1).integers(0, 2**64 - 1, size=1000, dtype=np.uint64,
                                              endpoint=True),
            _words_at_edges(edges),
            np.array([2**64 - 2048, 2**64 - 2049], dtype=np.uint64),
        ])
        assert np.array_equal(_integer_row_counts(edges, words),
                              _float_row_counts(edges, _uniforms(words)))

    def test_words_planted_at_each_limit(self):
        edges = _edges([0.1, 0.2, 1e-12, 0.3, 1e-300, 0.4 - 1e-12])
        _, limits, _ = _word_limits(edges)
        planted = np.concatenate([limits[:-1], limits[:-1] - np.uint64(1)])
        counts = _integer_row_counts(edges, planted)
        assert np.array_equal(counts, _float_row_counts(edges, _uniforms(planted)))
        assert counts.sum() == len(planted)

    @pytest.mark.parametrize("start", [3, 40_003, MC_CHUNK - 1])
    @pytest.mark.parametrize("pipeline, params", [
        ("stage1", {"p1": 0.1, "p2": 0.02, "f0": 0.8}),
        ("stage2", {"F": 0.8}),
        ("pbs", {"F": 1.0}),
    ], ids=["stage1", "stage2", "pbs"])
    def test_ranges_across_a_chunk_boundary(self, pipeline, params, start):
        trials = MC_CHUNK + 4_001
        table, (class_weights,) = protocol._weighted_rows(pipeline, [params])
        w = np.array(table.weights(class_weights))
        _, rows = _mc_row_counts(pipeline, params, trials, 13, start=start)
        drawn = np.flatnonzero(w)
        reference = _float_row_counts(_edges(w[drawn]), trial_uniforms(13, trials, start))
        assert np.array_equal(rows[drawn], reference)
        assert rows.sum() == trials

    def test_chunks_of_a_huge_run_are_lazy(self):
        with pytest.raises(ValueError, match="trials"):
            protocol._chunks(0)
        tracemalloc.start()
        try:
            chunks = protocol._chunks(10**15)
            first_two = [next(chunks), next(chunks)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first_two == [MC_CHUNK, MC_CHUNK]
        assert peak < 4096


MC_RUNS = [("stage1", {"p1": 0.1, "p2": 0.02, "f0": 0.8}),
           ("stage1", {"p1": 0.2, "p2": 0.1, "f0": 0.7, "variant": "qnd3"}),
           ("stage2", {"F": 0.8}),
           ("pbs", {"F": 0.7})]

PINNED_RUNS = """
import json, os, sys
from kerrpurify import protocol
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert protocol._workers() == 1
print(json.dumps([protocol.monte_carlo(name, params, 300_001, 17).to_dict()
                  for name, params in json.loads(sys.argv[1])]))
"""


class TestSpans:
    """A Monte Carlo run counts one span of its trial range on each CPU, every
    span from its own Philox generator; the counts do not depend on the cut."""

    @staticmethod
    def reference_words(seed, n, start):
        """Words start .. start + n - 1, drawn whole from a fresh generator."""
        bg = np.random.Philox(key=np.uint64(seed))
        bg.advance(start // 4)  # four words a counter step
        return bg.random_raw(start % 4 + n)[start % 4:]

    @staticmethod
    def span_reads(seed, start, trials, spans):
        """A span's reads as a run draws them: its generator, a chunk at a time."""
        bg = _philox(seed, start)
        return [bg.random_raw(size) for size in protocol._chunks(trials, spans)]

    @pytest.mark.parametrize("spans", [1, 2, 3, 4])
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4_001, 40_002, 2**40 + 3])
    def test_a_span_reads_the_trial_words(self, monkeypatch, start, spans):
        # steps of 64 // spans words: 1000 words cross many steps, and every
        # value of start % 4 starts a span
        monkeypatch.setattr(protocol, "MC_CHUNK", 64)
        reads = self.span_reads(9, start, 1000, spans)
        assert len(reads) >= 15 and {len(r) for r in reads[:-1]} == {64 // spans}
        words = np.concatenate(reads)
        assert np.array_equal(words, self.reference_words(9, 1000, start))
        assert np.array_equal(words, _trial_words(9, 1000, start))
        if start < 10**6:  # the advance skips four words a step
            unadvanced = np.random.Philox(key=np.uint64(9)).random_raw(start + 1000)
            assert np.array_equal(words, unadvanced[start:])

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 65_538])
    def test_a_span_shorter_than_a_step_reads_the_trial_words(self, start):
        [words] = self.span_reads(4, start, 7, 2)
        assert np.array_equal(words, self.reference_words(4, 7, start))
        assert np.array_equal(words, _trial_words(4, 7, start))

    @staticmethod
    def counted_spans(monkeypatch, workers):
        """Patch the worker count; return the list each span's start joins."""
        starts, philox = [], protocol._philox
        monkeypatch.setattr(protocol, "_workers", lambda: workers)
        monkeypatch.setattr(protocol, "_philox",
                            lambda seed, start: starts.append(start) or philox(seed, start))
        return starts

    @pytest.mark.parametrize("start", [0, 5])
    @pytest.mark.parametrize("pipeline, params", MC_RUNS, ids=["qnd1", "qnd3", "stage2", "pbs"])
    def test_row_counts_do_not_depend_on_the_worker_count(self, monkeypatch, pipeline,
                                                          params, start):
        monkeypatch.setattr(protocol, "MC_CHUNK", 1000)
        trials = 4_003
        counts, cuts = [], []
        for workers in (1, 2, 3, 4):
            starts = self.counted_spans(monkeypatch, workers)
            counts.append(_mc_row_counts(pipeline, params, trials, 21, start=start)[1])
            assert len(starts) == workers
            cuts += starts[1:]
        assert any(cut % 4 for cut in cuts)  # some span starts inside a 4-word block
        assert all(np.array_equal(c, counts[0]) for c in counts)
        assert counts[0].sum() == trials

    def test_eight_spans_under_a_short_switch_interval_count_as_one(self, monkeypatch):
        # more spans than cores, switching threads every microsecond: a count
        # lost or doubled between spans would change the rows
        monkeypatch.setattr(protocol, "MC_CHUNK", 256)
        one = _mc_row_counts("pbs", {"F": 0.7}, 20_003, 6, start=3)[1]
        self.counted_spans(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = _mc_row_counts("pbs", {"F": 0.7}, 20_003, 6, start=3)[1]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(eight, one)

    def test_four_spans_of_full_chunks_count_as_one(self, monkeypatch):
        trials, start = 4 * MC_CHUNK + 6, 1
        starts = self.counted_spans(monkeypatch, 4)
        table, four = _mc_row_counts("stage2", {"F": 0.8}, trials, 2, start=start)
        assert [s % 4 for s in starts] == [1, 2, 0, 1]
        self.counted_spans(monkeypatch, 1)
        assert np.array_equal(four, _mc_row_counts("stage2", {"F": 0.8}, trials, 2,
                                                   start=start)[1])

    def test_never_more_spans_than_chunks(self, monkeypatch):
        for trials, spans in ((1, 1), (MC_CHUNK, 1), (MC_CHUNK + 1, 2), (3 * MC_CHUNK, 3)):
            starts = self.counted_spans(monkeypatch, 8)
            _mc_row_counts("pbs", {"F": 0.8}, trials, 1)
            assert len(starts) == spans

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity call on this platform")
    def test_a_run_pinned_to_one_cpu_reports_the_same(self):
        env = dict(os.environ, PYTHONPATH=str(Path(protocol.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", PINNED_RUNS, json.dumps(MC_RUNS)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        unpinned = [monte_carlo(name, params, 300_001, 17).to_dict()
                    for name, params in MC_RUNS]
        assert json.loads(out.stdout) == json.loads(json.dumps(unpinned))

    @pytest.mark.parametrize("workers", [1, 2, 4, 8, 16])
    def test_memory_does_not_grow_with_the_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(protocol, "_workers", lambda: workers)
        params = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        monte_carlo("stage1", params, 1000, 1)  # the table and numpy load first
        tracemalloc.start()
        try:
            monte_carlo("stage1", params, 10**6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_failing_span_raises_and_every_thread_ends(self, monkeypatch, workers):
        class SpanFailed(Exception):
            pass

        calls, words_below = iter(range(10**6)), protocol._words_below

        def fail_second(*args):
            if next(calls) == 1:
                raise SpanFailed
            return words_below(*args)

        monkeypatch.setattr(protocol, "_workers", lambda: workers)
        before = threading.active_count()
        monkeypatch.setattr(protocol, "_words_below", fail_second)
        with pytest.raises(SpanFailed):
            monte_carlo("stage2", {"F": 0.8}, 8 * MC_CHUNK, 3)
        assert threading.active_count() == before
        monkeypatch.setattr(protocol, "_words_below", words_below)
        monte_carlo("stage2", {"F": 0.8}, 8 * MC_CHUNK, 3)
        assert threading.active_count() == before

    def test_a_span_whose_thread_does_not_start_is_counted_by_the_caller(self, monkeypatch):
        class Thread(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        expected = monte_carlo("stage2", {"F": 0.8}, 4 * MC_CHUNK + 3, 8).to_dict()
        before = threading.active_count()
        starts = self.counted_spans(monkeypatch, 4)
        monkeypatch.setattr(protocol.threading, "Thread", Thread)
        assert monte_carlo("stage2", {"F": 0.8}, 4 * MC_CHUNK + 3, 8).to_dict() == expected
        assert len(starts) == 4 and threading.active_count() == before

    def test_an_interrupt_while_joining_stops_every_span(self, monkeypatch):
        joins, thread_calls = [], []

        class Thread(threading.Thread):
            def join(self, timeout=None):
                joins.append(self)
                if len(joins) == 1:  # Ctrl-C while the caller waits
                    raise KeyboardInterrupt
                super().join(timeout)

        words_below = protocol._words_below

        def count_words(*args):  # the thread's span is slow: the caller's ends first
            if threading.current_thread() is not threading.main_thread():
                thread_calls.append(None)
                time.sleep(0.001)
            return words_below(*args)

        before = threading.active_count()
        monkeypatch.setattr(protocol, "_workers", lambda: 2)
        monkeypatch.setattr(protocol, "_words_below", count_words)
        monkeypatch.setattr(protocol.threading, "Thread", Thread)
        monkeypatch.setattr(protocol, "MC_CHUNK", 64)
        with pytest.raises(KeyboardInterrupt):
            monte_carlo("stage2", {"F": 0.8}, 100_000, 3)
        assert len(joins) == 2 and threading.active_count() == before
        assert len(thread_calls) < 50_000 // 32 // 2  # the thread's span stopped early

    @pytest.mark.parametrize("workers", [2, 3, 64])
    def test_at_most_mc_spans_spans(self, monkeypatch, workers):
        monkeypatch.setattr(protocol.os, "sched_getaffinity", lambda pid: set(range(workers)),
                            raising=False)
        assert protocol._workers() == min(workers, protocol.MC_SPANS) == 2

    @pytest.mark.parametrize("seed, error", [(2**64, ValueError), (-1, ValueError),
                                             (1.5, TypeError)])
    def test_the_seed_is_checked_before_any_thread_starts(self, monkeypatch, seed, error):
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(protocol, "_workers", lambda: 4)
        monkeypatch.setattr(protocol.threading, "Thread", Thread)
        with pytest.raises(error):
            _mc_row_counts("stage2", {"F": 0.8}, 4 * MC_CHUNK, seed)
        with pytest.raises(error):
            monte_carlo("stage2", {"F": 0.8}, 4 * MC_CHUNK, seed)
        assert started == []
        _mc_row_counts("stage2", {"F": 0.8}, 4 * MC_CHUNK, 1)
        assert len(started) == 3


SRC, NOISE = PdcSourceParams(0.1, 0.02), NoiseParams(0.8)
TABLES = (protocol._stage1_rows, _stage2_table, _pbs_table)


def _reports() -> dict:
    return {
        "qnd1": stage1_run(SRC, NOISE, Variant.QND1).to_dict(),
        "qnd3": stage1_run(SRC, NOISE, Variant.QND3).to_dict(),
        "stage2": stage2_run(0.8).to_dict(),
        "pbs": pbs_baseline(0.8).to_dict(),
    }


class TestPairCache:
    @staticmethod
    def fresh_configs(count: int, seed: int) -> list:
        rng, configs = random.Random(seed), []
        while len(configs) < count:
            theta, theta_prime = random_angle_pair(rng)
            try:
                cfg = QndConfig(rng.choice((Variant.QND1, Variant.QND3)), theta, theta_prime)
            except ConfigError:
                continue
            if cfg not in configs and cfg != default_config(cfg.variant):
                configs.append(cfg)
        return configs

    CACHES = (protocol._stage1_rows,)

    def test_fresh_configs_share_few_entries_and_equal_cold_builds(self):
        # probe counts hold no angle, so 50 fresh angle pairs share one
        # enumeration per detector; every report and record list built
        # warm is, repr for repr, the one built with the cache cleared
        def run(cfg):
            return stage1_run(SRC, NOISE, cfg.variant, cfg=cfg).to_dict()

        def records(cfg):
            return repr(stage1_records(SRC, NOISE, cfg.variant, cfg))

        configs = self.fresh_configs(50, seed=17)
        for cache in self.CACHES:
            cache.cache_clear()
        warm = [run(cfg) for cfg in configs]
        rows = protocol._stage1_rows.cache_info()
        assert (rows.misses, rows.currsize) == (2, 2) and rows.hits == 48
        warm = list(zip(warm, map(records, configs)))
        cold = []
        for cfg in configs:
            for cache in self.CACHES:
                cache.cache_clear()
            cold.append((run(cfg), records(cfg)))
        assert warm == cold


class TestOutcomeTables:
    def test_tables_build_with_no_config_or_phase_tag(self, monkeypatch):
        # the branch maps depend on the angles only through the readings,
        # so every table and every branch case builds cold from probe
        # counts alone: making a QndConfig or a PhaseTag there fails
        def angle_read(*args, **kwargs):
            raise AssertionError("an angle was read")

        for cache in TABLES + (default_config, BranchCase.mismatches):
            cache.cache_clear()
        monkeypatch.setattr(QndConfig, "__post_init__", angle_read)
        monkeypatch.setattr(PhaseTag, "__init__", angle_read)
        tables = [protocol._stage1_rows(v) for v in (Variant.QND1, Variant.QND3)]
        assert all(t.rows for t in tables + [_stage2_table(), _pbs_table()])
        assert all(case.mismatches() == () for case in BRANCH_CASES)

    def test_warm_cache_report_equals_cold(self):
        _reports()
        warm = _reports()
        for table in TABLES:
            table.cache_clear()
        cold = _reports()
        assert [t.cache_info().misses for t in TABLES] == [2, 1, 1]
        assert warm == cold

    @pytest.mark.parametrize("enumerate_records", [
        lambda: stage1_records(SRC, NOISE),
        lambda: stage2_records(0.8),
        lambda: pbs_records(0.8),
    ], ids=["stage1", "stage2", "pbs"])
    def test_mutating_records_leaves_the_next_call_alone(self, enumerate_records):
        first = enumerate_records()
        expected = list(first)
        first.clear()
        first.append(None)
        assert enumerate_records() == expected

    def test_different_angles_do_not_share_an_entry(self):
        # one cached count table serves both configs; each run's records
        # read its own config's tags
        a = QndConfig(Variant.QND1, PhaseTag(1, 4), PhaseTag(3, 4))
        b = QndConfig(Variant.QND1, PhaseTag(1, 8), PhaseTag(5, 8))
        for cfg in (a, b):
            kept = {r.probe_alice for r in stage1_records(SRC, NOISE, cfg=cfg)
                    if r.kept_pairs == 2}
            assert kept == {cfg.theta + cfg.theta_prime}
        assert stage1_records(SRC, NOISE, cfg=a) != stage1_records(SRC, NOISE, cfg=b)

    def test_invalid_config_raises_on_every_call(self):
        # the config raises when built, so no table is ever made for it
        for _ in range(2):
            with pytest.raises(ConfigError):
                stage1_run(SRC, NOISE, cfg=QndConfig(Variant.QND1, PhaseTag(1, 4),
                                                     PhaseTag(1, 4)))

    def test_stage2_verdicts_come_from_the_physics(self):
        expected = {("phi+", "phi+"): Verdict.KEPT_CORRECT,
                    ("psi+", "psi+"): Verdict.KEPT_ERRONEOUS,
                    ("phi+", "psi+"): Verdict.DISCARDED,
                    ("psi+", "phi+"): Verdict.DISCARDED}
        for table in (_stage2_table(), _pbs_table()):
            kept_rows = np.array([r.verdict in (Verdict.KEPT_CORRECT, Verdict.KEPT_ERRONEOUS)
                                  for r in table.rows])
            cls, factor = np.asarray(table.cls), np.asarray(table.factor)
            for c, kinds in enumerate(TWO_PAIR_KINDS):
                kept = {table.rows[i].verdict
                        for i in np.flatnonzero((cls == c) & kept_rows)}
                assert len(kept) <= 1
                assert (kept.pop() if kept else Verdict.DISCARDED) == expected[kinds]
                keep_probability = factor[(cls == c) & kept_rows].sum()
                assert (keep_probability == 0.0) == (expected[kinds] == Verdict.DISCARDED)

    def test_chunked_mc_counts_equal_one_unchunked_draw(self, monkeypatch):
        trials = 3 * MC_CHUNK + 17
        runs = [("stage1", {"p1": 0.1, "p2": 0.02, "f0": 0.8}), ("stage2", {"F": 0.8}),
                ("pbs", {"F": 0.8})]
        chunked = [monte_carlo(name, params, trials, seed=5).to_dict() for name, params in runs]
        monkeypatch.setattr(protocol, "MC_CHUNK", trials)
        assert list(protocol._chunks(trials)) == [trials]
        assert [monte_carlo(name, params, trials, seed=5).to_dict()
                for name, params in runs] == chunked

    @pytest.mark.parametrize("pipeline, params", [
        ("stage1", {"p1": 0.1, "p2": 0.3, "f0": 1.0}),
        ("stage2", {"F": 1.0}),
        ("pbs", {"F": 1.0}),
    ], ids=["stage1", "stage2", "pbs"])
    def test_zero_weight_rows_are_never_drawn(self, pipeline, params):
        table, (class_weights,) = protocol._weighted_rows(pipeline, [params])
        w = np.array(table.weights(class_weights))
        _, rows = _mc_row_counts(pipeline, params, 200_000, 3)
        assert (w == 0.0).any()
        assert not rows[w == 0.0].any()
        assert monte_carlo(pipeline, params, 200_000, seed=3).counts["kept_erroneous"] == 0

    @pytest.mark.parametrize("pipeline, params", [
        ("stage1", {"p1": 0.1, "p2": 0.02, "f0": 0.8}),
        ("stage1", {"p1": 0.0, "p2": 0.05, "f0": 0.6}),
        ("stage1", {"p1": 0.3, "p2": 0.0, "f0": 0.7}),
        ("stage1", {"p1": 0.2, "p2": 0.1, "f0": 1.0, "variant": Variant.QND3}),
        ("stage2", {"F": 0.7}),
        ("pbs", {"F": 0.9}),
    ])
    def test_records_agree_with_the_row_columns(self, pipeline, params, monkeypatch):
        # single runs sum the records, grids and Monte Carlo the weighted
        # table rows by verdict: the totals agree to the bit, and with a loop
        # that adds every row, zero-weight and pairless ones too
        records = enumerate_exact(pipeline, params)
        table, (class_weights,) = protocol._weighted_rows(pipeline, [params])
        w = table.weights(class_weights)
        sums = protocol._row_sums(table, w, 0.0)
        summed = []
        monkeypatch.setattr(protocol, "_report", lambda *args: summed.append(args[2]))
        protocol._exact(pipeline, params, records)
        assert summed == [sums]
        reference = [0.0] * (len(COUNT_KEYS) + 1)
        for row, weight in zip(table.rows, w):
            reference[COUNT_KEYS.index(row.verdict.value)] += weight
            reference[-1] += weight * row.kept_pairs
        assert sums == reference


class TestOutcomeVocabulary:
    """A row's class is its one ``Verdict``; a report serializes its fields."""

    REPORT_KEYS = ["pipeline", "mode", "fidelity", "yield", "counts", "trials", "seed",
                   "fidelity_stderr", "yield_stderr", "extras"]

    def test_count_keys_are_the_verdicts(self):
        assert COUNT_KEYS == ("kept_correct", "kept_erroneous", "kept_same_port", "discarded")
        assert [Verdict(k) for k in COUNT_KEYS] == list(Verdict)

    def test_same_port_rows_carry_their_own_verdict(self):
        rng, configs = random.Random(41), [default_config(Variant.QND1),
                                           default_config(Variant.QND3)]
        while len(configs) < 2 + 2 * 20:
            try:
                configs += [QndConfig(v, *random_angle_pair(rng))
                            for v in (Variant.QND1, Variant.QND3)]
            except ConfigError:
                continue
        for cfg in configs:
            params = {"p1": 0.1, "p2": 0.05, "f0": 0.8, "variant": cfg.variant, "cfg": cfg}
            keep_tag = cfg.theta + cfg.theta_prime
            same_port = 0
            for r in enumerate_exact("stage1", params):
                bunched = r.order == 2 and r.probe_alice == r.probe_bob != keep_tag
                assert (r.verdict == Verdict.KEPT_SAME_PORT) == bunched
                if bunched:
                    same_port += 1
                    assert (r.fidelity, r.final_state, r.kept_pairs) == (None, None, 0)
            assert same_port > 0

    @pytest.mark.parametrize("pipeline, params", [
        ("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8}),
        ("stage1", {"p1": 0.1, "p2": 0.05, "f0": 0.7, "variant": Variant.QND3}),
        ("stage2", {"F": 0.8}),
        ("pbs", {"F": 0.8}),
    ])
    def test_report_dicts_hold_the_ten_fields(self, pipeline, params):
        for report in (next(exact_reports(pipeline, [params])),
                       monte_carlo(pipeline, params, 5000, 2)):
            doc = report.to_dict()
            assert list(doc) == self.REPORT_KEYS
            for key in self.REPORT_KEYS:
                assert doc[key] == getattr(report, "yield_fraction" if key == "yield" else key)
            assert json.loads(json.dumps(doc)) == doc


class TestExactReports:
    """One pass over a table gives every point the report of its single run,
    equal as floats, not only close."""

    @pytest.mark.parametrize("variant", [Variant.QND1, Variant.QND3])
    @pytest.mark.parametrize("angles", [None, (PhaseTag(1, 8), PhaseTag(5, 8))],
                             ids=["default", "1/8,5/8"])
    def test_stage1_grid_equals_single_runs(self, variant, angles):
        cfg = QndConfig(variant, *angles) if angles else None
        points = [{"p1": p1, "p2": p2, "f0": f0, "variant": variant, "cfg": cfg}
                  for p1, p2, f0 in iproduct((0.0, 0.1, 0.3), (0.0, 0.02), (0.0, 0.8, 1.0))
                  if p1 + p2 > 0]
        single = [stage1_run(PdcSourceParams(p["p1"], p["p2"]), NoiseParams(p["f0"]),
                             variant, cfg=cfg).to_dict() for p in points]
        assert [r.to_dict() for r in exact_reports("stage1", points)] == single

    @pytest.mark.parametrize("run, pipeline", [(stage2_run, "stage2"), (pbs_baseline, "pbs")])
    def test_two_pair_grid_equals_single_runs(self, run, pipeline):
        grid = [1.0, 0.999999999, 0.8, 0.55, 0.3]
        reports = exact_reports(pipeline, [{"F": F} for F in grid])
        assert [r.to_dict() for r in reports] == [run(F).to_dict() for F in grid]

    def test_empty_grid_has_no_reports(self):
        assert list(exact_reports("stage1", [])) == []
        with pytest.raises(ConfigError, match="unknown pipeline"):
            next(exact_reports("nope", []))

    @pytest.mark.parametrize("pipeline, bad", [
        ("stage1", {"p1": 0.6, "p2": 0.6, "f0": 0.8}),
        ("stage1", {"p1": 0.0, "p2": 0.0, "f0": 0.8}),
        ("stage1", {"p1": 0.1, "p2": 0.01, "f0": float("nan")}),
        ("stage2", {"F": 0.0}),
        ("pbs", {"F": 1.5}),
    ], ids=["sum-above-one", "sum-zero", "f0-nan", "stage2", "pbs"])
    def test_an_invalid_point_raises_the_single_run_error(self, pipeline, bad):
        good = {"F": 0.8} if pipeline != "stage1" else {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        with pytest.raises((ValueError, ConfigError)) as single:
            enumerate_exact(pipeline, bad)
        with pytest.raises(type(single.value)) as grid:
            list(exact_reports(pipeline, [good, bad, good]))
        assert str(grid.value) == str(single.value)

    @pytest.mark.parametrize("pipeline, key, value", [
        ("stage1", "varaint", "qnd3"),
        ("stage1", "F", 0.8),
        ("stage2", "cfg", default_config(Variant.QND2)),
        ("stage2", "f0", 0.8),
        ("pbs", "cfg", default_config(Variant.QND4)),
        ("pbs", "variant", "qnd1"),
    ])
    def test_a_key_the_pipeline_does_not_read_raises(self, pipeline, key, value):
        # a misspelt or stale key must not fall back to a default silently;
        # a grid is checked at every point before its first report
        good = {"F": 0.8} if pipeline != "stage1" else {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        bad = dict(good, **{key: value})
        for run in (lambda: monte_carlo(pipeline, bad, 1000, 1),
                    lambda: enumerate_exact(pipeline, bad),
                    lambda: next(exact_reports(pipeline, [bad])),
                    lambda: next(exact_reports(pipeline, [good, good, bad]))):
            with pytest.raises(ConfigError, match=f"unknown parameter.*'{key}'.*{pipeline}"):
                run()

    def test_stage2_and_pbs_have_one_table_each(self):
        for table in (_stage2_table, _pbs_table):
            table.cache_clear()
        for F in (0.6, 0.8):
            for pipeline in ("stage2", "pbs"):
                enumerate_exact(pipeline, {"F": F})
                monte_carlo(pipeline, {"F": F}, 1000, 1)
        for table in (_stage2_table, _pbs_table):
            info = table.cache_info()
            assert (info.misses, info.currsize, info.maxsize) == (1, 1, 1)

    def test_points_of_two_configs_raise(self):
        other = QndConfig(Variant.QND1, PhaseTag(1, 8), PhaseTag(5, 8))
        point = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        with pytest.raises(ConfigError, match="one detector config"):
            list(exact_reports("stage1", [point, dict(point, cfg=other)]))
        with pytest.raises(ConfigError, match="one detector config"):
            list(exact_reports("stage1", [point, dict(point, variant=Variant.QND3)]))
