"""Pipelines: closed forms, exact enumeration, Monte Carlo consistency."""

import json
import math
import numbers
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kerrpurify import (
    ConfigError,
    NoiseParams,
    Party,
    PdcSourceParams,
    PhaseTag,
    PureState,
    QndConfig,
    SimulationError,
    Variant,
    Verdict,
    enumerate_exact,
    exact_reports,
    monte_carlo,
    pbs_baseline,
    project_probe,
    run_branch_suite,
    stage1_fidelity_closed_form,
    stage1_run,
    stage2_fidelity_map,
    stage2_iterate,
    stage2_run,
    stage2_yield,
)
from kerrpurify import protocol, qnd
from kerrpurify.branches import BRANCH_CASES, BranchCase, run_branch_case
from kerrpurify.protocol import (
    COUNT_KEYS,
    OutcomeRecord,
    _mc_row_counts,
    _pbs_table,
    _philox,
    _stage2_table,
    pbs_records,
    stage1_records,
    stage2_records,
    trial_uniforms,
)
from kerrpurify.qnd import apply_qnd, default_config
from kerrpurify.sources import TWO_PAIR_KINDS, single_pair_state, two_pair_weights

from conftest import angles, copiers, random_angle_pair
from oracle import pdc_emit, per_medium_phases


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

    @pytest.mark.parametrize("p1, p2, f0", [
        (0.0, 5e-324, 0.0), (0.0, 5e-324, 0.5), (5e-324, 5e-324, 0.3), (1e-310, 3e-310, 0.9),
        (0.0, 1e-300, 1e-160),
    ])
    def test_an_underflowing_point_reads_its_emission_ratio(self, p1, p2, f0):
        # the plain form's numerator is zero or subnormal here: scaled by
        # p1 + p2, it equals the form at the exact ratio p1 : p2 to 1e-15
        exact = [Fraction(x) for x in (p1, p2, f0)]
        w1, w2 = exact[0] / (exact[0] + exact[1]), exact[1] / (exact[0] + exact[1])
        f = exact[2]
        want = (w1 + w2 * f * f / 2) / (w1 + w2 * (f * f + (1 - f) ** 2) / 2)
        got = stage1_fidelity_closed_form(p1, p2, f0)
        assert math.isfinite(got) and abs(got - float(want)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_a_point_that_does_not_underflow_keeps_the_plain_forms_bits(self, p1, p2, f0):
        numer = p1 + 0.5 * p2 * f0**2
        assume(numer >= 2.0**-1022)
        plain = numer / (p1 + 0.5 * p2 * (f0**2 + (1.0 - f0) ** 2))
        assert stage1_fidelity_closed_form(p1, p2, f0).hex() == plain.hex()

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
        kept = sum(r.weight for r in records if r.kept_pairs == 2)
        assert abs(kept - 0.5 * w2) < 1e-12
        same_port = sum(r.weight for r in records if r.verdict == Verdict.KEPT_SAME_PORT)
        assert abs(same_port - 0.5 * w2) < 1e-12

    def test_single_emissions_exactly_phi_plus(self):
        records = stage1_records(PdcSourceParams(0.1, 0.01), NoiseParams(0.7))
        singles = [r for r in records if r.kept_pairs == 1]
        assert len(singles) == 4  # 2 noise cases x 2 joint readings each
        assert protocol._FID_TOL <= 1e-12  # a kept verdict holds its overlap to 1e-12
        for r in singles:
            assert r.verdict == Verdict.KEPT_CORRECT

    def test_one_flip_doubles_all_discarded(self):
        # a double emission of one clean and one flipped pair is never kept,
        # so no kept double emission mixes a correct and an erroneous pair
        records = stage1_records(PdcSourceParams(0.0, 0.01), NoiseParams(0.8))
        doubles = [c for c, *_ in protocol._stage1_rows(Variant.QND1) if c >= 2]
        assert len(records) == len(doubles)  # p1 = 0: the single pairs weigh nothing
        one_flip = [r for r, c in zip(records, doubles) if c in (3, 4)]
        assert one_flip and all(r.verdict == Verdict.DISCARDED for r in one_flip)

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
        assert errs and all(r.kept_pairs > 0 for r in errs)
        assert protocol._FID_TOL <= 1e-12  # each is psi+ to an overlap within 1e-12 of 1

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
                assert [(r.verdict, r.kept_pairs) for r in records] == [
                    (protocol._VERDICTS[bucket], kept) for _, _, _, bucket, _, kept in counted]
                assert [(r.probe_alice, r.probe_bob) for r in records] == [
                    (cfg.phase(alice), cfg.phase(bob)) for _, alice, bob, *_ in counted]
                for flipped in (False, True):
                    leaves = protocol.single_pair_leaves(cfg.variant, flipped)
                    assert len({(leaf.alice, leaf.bob) for leaf in leaves}) == len(leaves) == 2
                    tags = [(r.probe_alice, r.probe_bob)
                            for r, (c, *_) in zip(records, counted) if c == flipped]
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


def _by_values(row: tuple) -> tuple:
    """Sort key of an (Alice's tag, Bob's tag, factor) row: the tags' values, then the factor."""
    return row[0].value, row[1].value, row[2]


class TestPerAngleRender:
    """A config reads its detector's count-valued rows as phases; at every
    accepted angle pair each class must hold the rows of an enumeration in
    phases, compared as lists sorted by the tags' values (phases have no order)."""

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
            assert len(records) == len(table) == sum(map(len, expected))
            for record, (c, alice, bob, bucket, _, kept) in zip(records, table):
                assert (record.verdict, record.kept_pairs) == (protocol._VERDICTS[bucket], kept)
                assert (record.probe_alice, record.probe_bob) == (cfg.phase(alice),
                                                                  cfg.phase(bob))
                # the keep rule, read on the phases themselves
                tag_a, tag_b = record.probe_alice, record.probe_bob
                if c < 2:  # a single emission
                    kept = True
                else:
                    kept = tag_a == tag_b == cfg.theta + cfg.theta_prime
                    assert (record.verdict == Verdict.KEPT_SAME_PORT) == (tag_a == tag_b
                                                                         and not kept)
                assert (record.verdict in (Verdict.KEPT_CORRECT,
                                           Verdict.KEPT_ERRONEOUS)) == kept
            for c, want in enumerate(expected):
                got = sorted(((record.probe_alice, record.probe_bob, factor)
                              for record, (k, _, _, _, factor, _) in zip(records, table)
                              if k == c), key=_by_values)
                assert len(got) == len(want)
                want = sorted(want, key=_by_values)
                for (tag_a, tag_b, factor), (want_a, want_b, p) in zip(got, want):
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
        assert errs and all(r.kept_pairs == 1 for r in errs)
        assert protocol._FID_TOL <= 1e-12  # each is psi+ to an overlap within 1e-12 of 1

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

    def test_round_cap(self):
        # round 1 keeps at least 1/2 and each later round at least 1/4 of the
        # last, so round 537 keeps at least 2^-1073, still a nonzero double
        assert protocol.MAX_ROUNDS == 537
        for f0 in (0.5 + 1e-15, 1.0):
            assert stage2_iterate(f0, 537)[-1].cumulative_yield > 0
            for rounds in (0, 538):
                with pytest.raises(ValueError, match=r"\[1, 537\]"):
                    stage2_iterate(f0, rounds)

    @pytest.mark.parametrize("f0", ["0.8", None, 0.8j], ids=["str", "none", "complex"])
    def test_a_fidelity_that_is_not_a_real_number_raises_naming_it(self, f0):
        with pytest.raises(ConfigError, match=f"^F is a real number, not {type(f0).__name__}$"):
            stage2_iterate(f0, 2)

    @pytest.mark.parametrize("rounds", [None, 2.0, "2"], ids=["none", "float", "str"])
    def test_a_round_count_that_is_not_an_integer_raises_naming_it(self, rounds):
        with pytest.raises(TypeError, match=f"^rounds is an integer, not {type(rounds).__name__}$"):
            stage2_iterate(0.8, rounds)
        assert stage2_iterate(0.8, np.int64(2)) == stage2_iterate(0.8, 2)



@pytest.mark.parametrize("call, error, message", [
    (lambda: stage2_iterate(Decimal("0.8"), 2), ConfigError, "^F is a real number, not Decimal$"),
    (lambda: trial_uniforms(1, None), TypeError, "^n_trials is an integer, not NoneType$"),
    (lambda: run_branch_suite(only=iter([])), ValueError, "^only names no case id"),
], ids=["decimal-fidelity", "none-trial-count", "empty-iterator-selection"])
def test_an_argument_that_passed_a_comparison_or_a_truth_test_is_refused(call, error, message):
    # a Decimal compares with floats but fails in the yield's float arithmetic,
    # numpy reads a None size as one bare word, and an empty iterator is truthy
    with pytest.raises(error, match=message):
        call()


STAGE1_POINT = {"p1": 0.1, "p2": 0.01, "f0": 0.8}


def _named_bool(key: str) -> str:
    return f"^{key} is a real number, not bool$"


@pytest.mark.parametrize("call, error, message", [
    (lambda: monte_carlo("stage2", {"F": 0.8}, True, 1), TypeError,
     "^trials is an integer, not bool$"),
    (lambda: monte_carlo("stage2", {"F": 0.8}, 1000, False), TypeError,
     "^seed is an integer, not bool$"),
    (lambda: trial_uniforms(True, 8), TypeError, "^seed is an integer, not bool$"),
    (lambda: trial_uniforms(1, True), TypeError, "^n_trials is an integer, not bool$"),
    (lambda: stage2_iterate(0.8, True), TypeError, "^rounds is an integer, not bool$"),
    (lambda: stage2_iterate(True, 1), ConfigError, "^F is a real number, not bool$"),
    (lambda: list(exact_reports("stage2", [{"F": True}])), ConfigError, _named_bool("F")),
    (lambda: stage2_run(True), ConfigError, _named_bool("F")),
    (lambda: list(exact_reports("stage1", [dict(STAGE1_POINT, p1=False)])), ConfigError,
     _named_bool("p1")),
    (lambda: monte_carlo("stage1", dict(STAGE1_POINT, p2=True), 1000, 1), ConfigError,
     _named_bool("p2")),
    (lambda: enumerate_exact("stage1", dict(STAGE1_POINT, f0=True)), ConfigError,
     _named_bool("f0")),
    (lambda: list(exact_reports("stage2", [{"F": np.True_}])), ConfigError, _named_bool("F")),
    (lambda: pbs_baseline(np.True_), ConfigError, _named_bool("F")),
    (lambda: monte_carlo("stage1", dict(STAGE1_POINT, f0=np.True_), 1000, 1), ConfigError,
     _named_bool("f0")),
    (lambda: stage2_iterate(np.False_, 1), ConfigError, _named_bool("F")),
], ids=["trials", "seed", "uniforms-seed", "n_trials", "rounds", "F-iterate", "F-exact_reports",
        "F-stage2_run", "p1", "p2", "f0", "numpy-F-exact_reports", "numpy-F-pbs_baseline",
        "numpy-f0", "numpy-F-iterate"])
def test_a_bool_is_not_read_as_a_number(call, error, message):
    # True is no count of 1 and no fidelity of 1: a bool is refused as a str is
    with pytest.raises(error, match=message):
        call()


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

    @pytest.mark.parametrize("variant", [Variant.QND1, Variant.QND3], ids=["qnd1", "qnd3"])
    def test_a_config_tags_each_count_class_once_and_a_run_none(self, variant, monkeypatch):
        # a fresh admissible pair, so no cache holds its tags: building its
        # qnd1 and qnd3 configs tags each count class at most once, the two
        # sharing the tags, and a run builds no tag but hands out the config's
        theta, theta_prime = PhaseTag(7, 32), PhaseTag(45, 64)
        qnd._check_phase_classes.cache_clear()
        table, made = protocol._stage1_rows(variant), []
        init = PhaseTag.__init__

        def counted(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(PhaseTag, "__init__", counted)
        cfgs = {v: QndConfig(v, theta, theta_prime) for v in (Variant.QND1, Variant.QND3)}
        built = len(made)
        records = enumerate_exact("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8,
                                             "variant": variant, "cfg": cfgs[variant]})
        monkeypatch.undo()
        assert 0 < built <= 6
        assert len(made) == built
        six = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
        assert all(cfgs[Variant.QND1].phase(c) is cfgs[Variant.QND3].phase(c) for c in six)
        assert len(records) == len(table) == 20
        cfg = cfgs[variant]
        for record, (_, alice, bob, *_) in zip(records, table):
            assert record.probe_alice is cfg.phase(alice)
            assert record.probe_bob is cfg.phase(bob)


def _row_weights(table, class_weights) -> list:
    """The weight of each row of ``table`` at a point whose classes weigh ``class_weights``."""
    return [class_weights[c] * f for c, _, _, _, f, _ in table]


def _table_weights(pipeline, params) -> np.ndarray:
    """The row weights of one run's table."""
    table, (class_weights,), _ = protocol._weighted_rows(pipeline, [params])
    return np.array(_row_weights(table, class_weights))


def _one_draw(weights, trials, seed, normalize=True) -> np.ndarray:
    """The row counts of one multinomial draw of ``trials`` at ``weights``
    from a fresh Philox generator keyed by ``seed``; rows of zero weight
    take no part and count 0."""
    w = np.asarray(weights, dtype=float)
    drawn = np.flatnonzero(w)
    counts = np.zeros(len(w), dtype=np.int64)
    p = w[drawn] / w[drawn].sum() if normalize else w[drawn]
    counts[drawn] = np.random.Generator(np.random.Philox(key=np.uint64(seed))).multinomial(
        trials, p)
    return counts


def _columns_totals(table, draws) -> list:
    """The report totals of ``draws`` of each row of ``table``: each row adds
    its draws to its bucket's total and its draws times its kept pairs to
    the last."""
    totals = [0] * (len(COUNT_KEYS) + 1)
    for (_, _, _, bucket, _, kept), n in zip(table, draws):
        totals[bucket] += n
        totals[-1] += n * kept
    return totals


def _rows_weighing(monkeypatch, weights):
    """Make every run's table one class whose rows weigh ``weights``, all
    discarded, with no kept pair."""
    discarded = COUNT_KEYS.index(Verdict.DISCARDED.value)
    table = protocol.RowTable((0, None, None, discarded, w, 0) for w in weights)
    monkeypatch.setattr(protocol, "_weighted_rows", lambda pipeline, points: (table, [[1.0]], None))


def _in_threads(calls) -> list:
    """Run each ``(function, args)`` of ``calls`` on its own thread, all
    released together; the result or the exception of each, in order."""
    ready = threading.Barrier(len(calls))

    def run(call):
        ready.wait()
        return call[0](*call[1])

    with ThreadPoolExecutor(len(calls)) as pool:
        futures = [pool.submit(run, call) for call in calls]
        return [f.exception(timeout=120) or f.result() for f in futures]


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

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
    def test_a_seed_that_is_not_an_integer_raises(self, seed):
        # 1.5 must not draw seed 1's stream while reporting "seed": 1.5; the
        # message names the argument
        with pytest.raises(TypeError, match=f"^seed is an integer, not {type(seed).__name__}$"):
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

    def test_kept_pairs_past_2_63_are_counted_exactly(self):
        # p2 = 1, f0 = 1: every event is a double emission and about half are
        # kept with two pairs each, so at 2**63 - 1 trials the kept pairs pass
        # 2**63, where an int64 total wraps negative
        trials = 2**63 - 1
        report = monte_carlo("stage1", {"p1": 0.0, "p2": 1.0, "f0": 1.0}, trials, 0)
        correct = report.counts["kept_correct"]
        assert sum(report.counts.values()) == trials
        assert 2 * correct > 2**63
        assert report.extras["kept_pairs_per_event"] == 2 * correct / trials

    @pytest.mark.parametrize("trials, seed", [(1000.0, 1), ("1000", 1), (None, 1), (1000.0, "1")],
                             ids=["float", "str", "none", "float-and-str-seed"])
    def test_a_trial_count_that_is_not_an_integer_raises(self, trials, seed):
        # named in the message; trials is read first, so a bad seed beside it is not
        with pytest.raises(TypeError, match=f"^trials is an integer, not {type(trials).__name__}$"):
            monte_carlo("stage2", {"F": 0.8}, trials, seed)

    def test_a_uniforms_seed_that_is_not_an_integer_raises(self):
        # 1.5 must not draw seed 1's words; the message names the seed
        with pytest.raises(TypeError, match="^seed is an integer, not float$"):
            trial_uniforms(1.5, 8)
        assert np.array_equal(trial_uniforms(np.uint64(1), 8), trial_uniforms(1, 8))

    @pytest.mark.parametrize("n_trials, error, message", [
        ("8", TypeError, "^n_trials is an integer, not str$"),
        (8.0, TypeError, "^n_trials is an integer, not float$"),
        (-1, ValueError, "^n_trials -1: "),
    ], ids=["str", "float", "negative"])
    def test_a_uniforms_count_that_is_not_a_count_raises_naming_it(self, n_trials, error,
                                                                    message):
        with pytest.raises(error, match=message):
            trial_uniforms(1, n_trials)
        assert trial_uniforms(1, np.int64(0)).shape == (0,)

    def test_uniforms_slice_consistent(self):
        # a shorter read of a seed's stream is the start of a longer one
        full = trial_uniforms(3, 1000)
        for n in (0, 1, 250, 999):
            assert np.array_equal(trial_uniforms(3, n), full[:n])

    def test_parallel_equals_serial_counts(self):
        # four runs at once on four threads report what each reports alone
        runs = [(monte_carlo, (name, params, 80_000, seed))
                for name, params in MC_RUNS for seed in (5, 6)]
        serial = [monte_carlo(*args).to_dict() for _, args in runs]
        for k in range(0, len(runs), 4):
            parallel = _in_threads(runs[k:k + 4])
            assert [r.to_dict() for r in parallel] == serial[k:k + 4]
        assert all(sum(r["counts"].values()) == 80_000 for r in serial)

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
        with pytest.raises(ValueError, match="seed"):
            monte_carlo("stage2", {"F": 0.8}, 10, seed)

    def test_largest_seed_accepted(self):
        assert trial_uniforms(2**64 - 1, 10).shape == (10,)

    def test_distinct_seeds_give_distinct_row_counts(self):
        for pipeline, params in MC_RUNS:
            counts = {tuple(_mc_row_counts(pipeline, params, 100_000, seed)[1].tolist())
                      for seed in range(100)}
            assert len(counts) == 100, pipeline

    @pytest.mark.parametrize("trials", [0, -1, 2**63, 2**64])
    def test_a_trial_count_numpy_cannot_draw_raises_before_any_draw(self, monkeypatch,
                                                                     trials):
        # numpy's multinomial raises OverflowError from 2**63 on, which the CLI
        # would not map to exit 2
        drawn = []
        monkeypatch.setattr(protocol, "_philox", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="trials"):
            monte_carlo("stage2", {"F": 0.8}, trials, 1)
        assert drawn == []

    def test_the_largest_trial_count_is_drawn(self):
        report = monte_carlo("pbs", {"F": 0.8}, 2**63 - 1, 2)
        assert sum(report.counts.values()) == report.trials == 2**63 - 1

    def test_memory_does_not_grow_with_the_trial_count(self):
        params = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        monte_carlo("stage1", params, 1000, 1)  # the table and numpy load first
        tracemalloc.start()
        try:
            report = monte_carlo("stage1", params, 10**12, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(report.counts.values()) == 10**12
        # a few arrays of one entry per row: about 3 KB, where the per-trial
        # counter it replaced peaked at about 1.2 MB whatever the trial count
        assert peak < 16 * 1024


CHI_SQUARE_SEEDS, CHI_SQUARE_TRIALS = 400, 100_000


@pytest.mark.parametrize("pipeline, params", [
    ("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8}),
    ("stage1", {"p1": 0.1, "p2": 0.1, "f0": 0.7}),
    ("stage2", {"F": 0.8}),
    ("pbs", {"F": 0.8}),
], ids=["stage1-p2-0.01", "stage1-p2-0.1", "stage2", "pbs"])
def test_row_counts_follow_the_exact_row_weights(pipeline, params):
    """Pearson's chi-square of each seed's row counts against the exact row
    weights, summed over 400 seeds at 10^5 trials each.

    Every expected count is at least 90, so each seed's statistic is close
    to chi-square with dof = rows - 1: mean dof, variance 2 dof (plus
    (sum(1/p) - rows^2 - 2 rows + 2) / trials, below 0.07 here).  The sum
    over the seeds is then about normal with mean seeds * dof and variance
    2 * seeds * dof, and the test fails when it lies more than 6 standard
    deviations from that mean.  A sampler that draws the exact weights
    fails it with probability about 2e-9 per pipeline (the two-sided normal
    tail beyond 6 sigma), 8e-9 for the four; a wrong or unnormalized row
    weight, or a row that takes another's draws, moves the sum by far more.
    """
    table, (class_weights,), _ = protocol._weighted_rows(pipeline, [params])
    weights = np.array(_row_weights(table, class_weights))
    expected = CHI_SQUARE_TRIALS * weights / weights.sum()
    assert expected.min() >= 90
    dof, total = len(weights) - 1, 0.0
    for seed in range(CHI_SQUARE_SEEDS):
        _, counts = _mc_row_counts(pipeline, params, CHI_SQUARE_TRIALS, seed)
        assert counts.sum() == CHI_SQUARE_TRIALS
        total += float(((counts - expected) ** 2 / expected).sum())
    z = (total - CHI_SQUARE_SEEDS * dof) / math.sqrt(2 * CHI_SQUARE_SEEDS * dof)
    assert abs(z) < 6, z


class TestWordLimitCounts:
    """Row counts and trial uniforms at the limits of float rounding: row
    weights whose running sum reaches 1 before the last row or passes it,
    rows of zero or tiny weight, and the words at the ends of each
    uniform's bin of 2**11 words.  A run's rows are one multinomial draw
    over its rows of nonzero weight, normalized, from ``_philox(seed)``."""

    def test_random_weights_with_tiny_rows(self, monkeypatch):
        rng = np.random.default_rng(20)
        for seed in range(300):
            w = rng.random(rng.integers(1, 21))
            tiny = rng.random(len(w)) < 0.3
            w[tiny] **= rng.integers(1, 31, size=tiny.sum())
            w[rng.random(len(w)) < 0.2] = 0.0
            w[rng.integers(len(w))] += 0.5  # some row weighs
            # up to the most trials numpy takes, where a zero row last in the
            # draw would take the rounding remainder: hundreds of draws
            trials = int(rng.integers(1, 2**63 - 1, endpoint=True))
            _rows_weighing(monkeypatch, w)
            _, rows = _mc_row_counts("pbs", {"F": 0.8}, trials, seed)
            assert np.array_equal(rows, _one_draw(w, trials, seed))
            assert rows.sum() == trials and not rows[w == 0.0].any()

    @pytest.mark.parametrize("edges", [
        [0.5, 1.0, 1.0, 1.0],                              # rounds to 1.0 early
        [0.25, 1.0000000000000002, 1.0],                   # rounds above 1.0
        [1.0],
        [2.0**-60, 2.0**-53, 0.5 - 2.0**-54, 1 - 2.0**-53, 1.0],
    ])
    def test_edges_at_and_above_one(self, monkeypatch, edges):
        # the rows between running sums ``edges``, a step down weighing 0: at
        # the most trials numpy takes no zero row draws one, and the total
        # is exact, whatever the weights sum to
        w = np.maximum(np.diff(edges, prepend=0.0), 0.0)
        _rows_weighing(monkeypatch, w)
        for trials in (1, 10**6, 2**63 - 1):
            _, rows = _mc_row_counts("pbs", {"F": 0.8}, trials, 3)
            assert np.array_equal(rows, _one_draw(w, trials, 3))
            assert sum(rows.tolist()) == trials and not rows[w == 0.0].any()

    def test_words_planted_at_each_limit(self, monkeypatch):
        # the first and last word of some uniforms' bins and the word below
        # each bin: a uniform is its word's top 53 bits, exactly, below 1
        firsts = [k << 11 for k in (0, 1, 2, 2**52, 2**53 - 1)]
        planted = sorted({w + d for w in firsts for d in (-1, 0, 2**11 - 1)} - {-1})
        words = np.array(planted, dtype=np.uint64)
        monkeypatch.setattr(protocol, "_philox",
                            lambda seed: SimpleNamespace(random_raw=lambda n: words[:n]))
        uniforms = trial_uniforms(0, len(words))
        assert uniforms.tolist() == [float(Fraction(w >> 11, 2**53)) for w in planted]
        assert uniforms[0] == 0.0 and uniforms[-1] == 1 - 2.0**-53
        assert all(np.diff(uniforms) >= 0)

    def test_several_limits_in_one_guide_bin(self, monkeypatch):
        """Four small rows side by side, within 2**-12 of each other, each
        draw their own share: at 10^10 trials a row's count is within 6
        standard deviations of trials * weight, for each of five seeds.  A
        sampler that draws the weights fails this with probability about
        6e-8 (2e-9 per row and seed), one that hands a small row's draws to
        its neighbour by far more than 6 deviations (316 draws for the
        smallest row)."""
        w = np.array([0.3, 0.20003, 1e-5, 2e-5, 3e-5, 0.5 - 9e-5])
        p, trials = w / w.sum(), 10**10
        _rows_weighing(monkeypatch, w)
        for seed in range(5):
            _, rows = _mc_row_counts("pbs", {"F": 0.8}, trials, seed)
            assert rows.sum() == trials
            z = (rows - trials * p) / np.sqrt(trials * p * (1 - p))
            assert np.abs(z).max() < 6, z

    @pytest.mark.parametrize("edges", [[0.25, 0.5, 1.0], [2.0**-12, 0.75, 1.0]])
    def test_a_limit_exactly_at_its_bin_start(self, monkeypatch, edges):
        # dyadic weights that sum to 1 exactly are drawn as they are:
        # normalizing them changes no bit
        w = np.diff(edges, prepend=0.0)
        assert w.sum() == 1.0
        _rows_weighing(monkeypatch, w)
        for trials in (7, 10**6):
            _, rows = _mc_row_counts("pbs", {"F": 0.8}, trials, 29)
            assert np.array_equal(rows, _one_draw(w, trials, 29, normalize=False))

    @pytest.mark.parametrize("sizes", [[3006], [1000, 5, 1, 2000], [2, 3003, 1], [1502, 1504]])
    def test_planted_words_over_chunks_of_unequal_size(self, sizes):
        # a seed's words read a piece at a time from one generator, in pieces
        # of unequal size, equal one read of them all, and its uniforms are
        # their top 53 bits
        bg = _philox(31)
        words = np.concatenate([bg.random_raw(n) for n in sizes])
        assert np.array_equal(words, _philox(31).random_raw(3006))
        assert np.array_equal(trial_uniforms(31, 3006), (words >> np.uint64(11)) * 2.0**-53)

    @pytest.mark.parametrize("trials", [3, 40_003, 65_535])
    @pytest.mark.parametrize("pipeline, params", [
        ("stage1", {"p1": 0.1, "p2": 0.02, "f0": 0.8}),
        ("stage2", {"F": 0.8}),
        ("pbs", {"F": 1.0}),
    ], ids=["stage1", "stage2", "pbs"])
    def test_ranges_across_a_chunk_boundary(self, pipeline, params, trials):
        # a run's rows are one draw at its table's weights, from the
        # generator a fresh Philox keyed by the seed is
        w = _table_weights(pipeline, params)
        _, rows = _mc_row_counts(pipeline, params, trials, 13)
        assert np.array_equal(rows, _one_draw(w, trials, 13))
        assert rows.sum() == trials and not rows[w == 0.0].any()

    def test_chunks_of_a_huge_run_are_lazy(self):
        with pytest.raises(ValueError, match="trials"):
            _mc_row_counts("stage2", {"F": 0.8}, 0, 1)
        _mc_row_counts("stage2", {"F": 0.8}, 1000, 1)  # the table and numpy load first
        tracemalloc.start()
        try:
            _, rows = _mc_row_counts("stage2", {"F": 0.8}, 10**15, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(rows.tolist()) == 10**15
        assert peak < 4096  # a few arrays of one entry per row


MC_RUNS = [("stage1", {"p1": 0.1, "p2": 0.02, "f0": 0.8}),
           ("stage1", {"p1": 0.2, "p2": 0.1, "f0": 0.7, "variant": Variant.QND3}),
           ("stage2", {"F": 0.8}),
           ("pbs", {"F": 0.7})]

PINNED_RUNS = """
import json, os, sys
from kerrpurify import protocol
from kerrpurify.qnd import Variant
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
runs = [(name, {k: Variant(v) if k == "variant" else v for k, v in params.items()})
        for name, params in json.loads(sys.argv[1])]  # a detector is sent as its value
print(json.dumps([protocol.monte_carlo(name, params, 300_001, 17).to_dict()
                  for name, params in runs]))
"""


class TestSpans:
    """``trial_uniforms`` reads a seed's trial stream from its first word:
    ``_philox(seed)`` is the seed's Philox generator, however its words
    are read."""

    @staticmethod
    def reference_words(seed, n):
        """The seed's first n words, drawn whole from a fresh generator."""
        return np.random.Philox(key=np.uint64(seed)).random_raw(n)

    @staticmethod
    def span_reads(seed, trials, step):
        """A span's words, read ``step`` at a time from one generator."""
        bg = _philox(seed)
        return [bg.random_raw(min(step, trials - k)) for k in range(0, trials, step)]

    @pytest.mark.parametrize("spans", [1, 2, 3, 4])
    def test_a_span_reads_the_trial_words(self, spans):
        # steps of 64 // spans words: 1000 words cross many steps, and the
        # 21-word steps end at every word of a four-word counter step
        reads = self.span_reads(9, 1000, 64 // spans)
        assert len(reads) >= 15 and {len(r) for r in reads[:-1]} == {64 // spans}
        words = np.concatenate(reads)
        assert np.array_equal(words, self.reference_words(9, 1000))
        assert np.array_equal(words, _philox(9).random_raw(1000))
        assert np.array_equal(trial_uniforms(9, 1000), (words >> np.uint64(11)) * 2.0**-53)

    def test_a_span_shorter_than_a_step_reads_the_trial_words(self):
        [words] = self.span_reads(4, 7, 32)
        assert np.array_equal(words, self.reference_words(4, 7))
        assert np.array_equal(words, _philox(4).random_raw(7))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity call on this platform")
    def test_a_run_pinned_to_one_cpu_reports_the_same(self):
        # a fresh process on one CPU reports what this one does on all of its CPUs
        env = dict(os.environ, PYTHONPATH=str(Path(protocol.__file__).parents[1]))
        sent = json.dumps(MC_RUNS, default=lambda variant: variant.value)
        out = subprocess.run([sys.executable, "-c", PINNED_RUNS, sent], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        unpinned = [monte_carlo(name, params, 300_001, 17).to_dict()
                    for name, params in MC_RUNS]
        assert json.loads(out.stdout) == json.loads(json.dumps(unpinned))

    @staticmethod
    def counted_draws(monkeypatch) -> list:
        """Record the (trials, pvals) of each multinomial draw a run makes."""
        draws, generator = [], np.random.Generator

        class Generator:
            def __init__(self, bit_generator):
                self.drawn = generator(bit_generator)

            def multinomial(self, n, pvals):
                draws.append((n, pvals))
                return self.drawn.multinomial(n, pvals)

        monkeypatch.setattr(np.random, "Generator", Generator)
        return draws

    @staticmethod
    def counted_thread_starts(monkeypatch) -> list:
        """Record each thread started, still starting it."""
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or start(self))
        return started

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("pipeline, params", MC_RUNS, ids=["qnd1", "qnd3", "stage2", "pbs"])
    def test_row_counts_do_not_depend_on_the_worker_count(self, pipeline, params, seed):
        # 1 to 4 threads run at once from cold tables, which they build side by side
        serial = _mc_row_counts(pipeline, params, 4_003, seed)[1]
        for workers in (1, 2, 3, 4):
            for table in TABLES:
                table.cache_clear()
            counts = _in_threads([(_mc_row_counts, (pipeline, params, 4_003, seed))] * workers)
            assert all(np.array_equal(c[1], serial) for c in counts)
        assert serial.sum() == 4_003

    def test_eight_spans_under_a_short_switch_interval_count_as_one(self):
        # more threads than cores, switching every microsecond: each run,
        # on its own seed, reports what it reports alone
        serial = [monte_carlo("pbs", {"F": 0.7}, 20_003, seed).to_dict() for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = _in_threads([(monte_carlo, ("pbs", {"F": 0.7}, 20_003, seed))
                                 for seed in range(8)])
        finally:
            sys.setswitchinterval(interval)
        assert [r.to_dict() for r in eight] == serial

    def test_never_more_spans_than_chunks(self, monkeypatch):
        # however many trials, a run is one draw from the seed's generator,
        # and starts no thread
        draws, started = self.counted_draws(monkeypatch), self.counted_thread_starts(monkeypatch)
        seeds, philox = [], protocol._philox
        monkeypatch.setattr(protocol, "_philox", lambda seed: seeds.append(seed) or philox(seed))
        w = _table_weights("pbs", {"F": 0.8})
        for trials in (1, 65_536, 65_537, 3 * 65_536, 10**12):
            draws.clear()
            seeds.clear()
            _mc_row_counts("pbs", {"F": 0.8}, trials, 1)
            [(n, pvals)] = draws
            assert n == trials and len(pvals) == np.count_nonzero(w) and seeds == [1]
        assert started == []

    @pytest.mark.parametrize("workers", [1, 2, 4, 8, 16])
    def test_memory_does_not_grow_with_the_worker_count(self, workers):
        # each of ``workers`` runs at once holds a few arrays of one entry per
        # row: together under 16 KB a run, at any trial count
        params = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        monte_carlo("stage1", params, 1000, 1)  # the table and numpy load first
        go = threading.Event()

        def run(seed):
            go.wait()
            return monte_carlo("stage1", params, 10**(6 + seed % 7), seed)

        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(run, seed) for seed in range(workers)]
            tracemalloc.start()
            try:
                go.set()
                reports = [f.result(timeout=120) for f in futures]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert [r.trials for r in reports] == [10**(6 + seed % 7) for seed in range(workers)]
        assert peak < workers * 16 * 1024

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_failing_span_raises_and_every_thread_ends(self, monkeypatch, workers):
        # one of ``workers`` runs at once fails in its draw: it raises, the
        # others report what they report alone, and no thread is left
        class SpanFailed(Exception):
            pass

        def fail_seed_3(seed):
            if seed == 3:
                raise SpanFailed
            return philox(seed)

        runs = [("stage2", {"F": 0.8}, 50_000, seed) for seed in range(3, 3 + workers)]
        expected = [monte_carlo(*args).to_dict() for args in runs]
        before, philox = threading.active_count(), protocol._philox
        monkeypatch.setattr(protocol, "_philox", fail_seed_3)
        results = _in_threads([(monte_carlo, args) for args in runs])
        assert isinstance(results[0], SpanFailed)
        assert [r.to_dict() for r in results[1:]] == expected[1:]
        assert threading.active_count() == before
        monkeypatch.setattr(protocol, "_philox", philox)
        assert monte_carlo(*runs[0]).to_dict() == expected[0]

    def test_a_span_whose_thread_does_not_start_is_counted_by_the_caller(self, monkeypatch):
        # a run needs no thread: with none able to start, the caller draws it
        def start(self):
            raise RuntimeError("can't start new thread")

        expected = monte_carlo("stage2", {"F": 0.8}, 4 * 65_536 + 3, 8).to_dict()
        drawn_on, philox = [], protocol._philox
        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(protocol, "_philox", lambda seed: drawn_on.append(
            threading.current_thread()) or philox(seed))
        assert monte_carlo("stage2", {"F": 0.8}, 4 * 65_536 + 3, 8).to_dict() == expected
        assert drawn_on == [threading.main_thread()]

    def test_an_interrupt_while_joining_stops_every_span(self, monkeypatch):
        # Ctrl-C in a draw leaves the run as KeyboardInterrupt, with no
        # thread left and nothing cached half made: the next run reports
        # what it did before
        def interrupt(seed):
            raise KeyboardInterrupt

        expected = monte_carlo("stage2", {"F": 0.8}, 100_000, 3).to_dict()
        before, philox = threading.active_count(), protocol._philox
        monkeypatch.setattr(protocol, "_philox", interrupt)
        with pytest.raises(KeyboardInterrupt):
            monte_carlo("stage2", {"F": 0.8}, 100_000, 3)
        assert threading.active_count() == before
        monkeypatch.setattr(protocol, "_philox", philox)
        assert monte_carlo("stage2", {"F": 0.8}, 100_000, 3).to_dict() == expected

    @pytest.mark.parametrize("seed, error", [(2**64, ValueError), (-1, ValueError),
                                             (1.5, TypeError)])
    def test_the_seed_is_checked_before_any_thread_starts(self, monkeypatch, seed, error):
        # a seed outside [0, 2**64), or not an integer, raises before any
        # draw; no run starts a thread
        draws, started = self.counted_draws(monkeypatch), self.counted_thread_starts(monkeypatch)
        with pytest.raises(error):
            _mc_row_counts("stage2", {"F": 0.8}, 4 * 65_536, seed)
        with pytest.raises(error):
            monte_carlo("stage2", {"F": 0.8}, 4 * 65_536, seed)
        assert draws == []
        _mc_row_counts("stage2", {"F": 0.8}, 4 * 65_536, 1)
        assert len(draws) == 1 and started == []


class TestThreadGenerator:
    """``_philox`` rekeys the calling thread's one Philox generator: it reads
    what a new generator keyed by the seed reads, whatever was read from it
    before, and only a thread's first run builds one."""

    @pytest.mark.parametrize("read", [0, 1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1], ids=["0", "1", "2^63", "2^64-1"])
    def test_a_dirty_generator_reads_a_fresh_one_s_words(self, seed, read):
        # buffered words and a buffered uint32 are dropped by the rekey,
        # however many words were read before them
        bg = _philox(12345)
        bg.random_raw(read)
        np.random.Generator(bg).integers(2**32, dtype=np.uint32)
        assert bg.state["buffer_pos"] < 4 and bg.state["has_uint32"] == 1
        assert _philox(seed) is bg
        assert repr(bg.state) == repr(np.random.Philox(key=np.uint64(seed)).state)
        assert np.array_equal(bg.random_raw(64), TestSpans.reference_words(seed, 64))

    def test_runs_on_one_thread_build_no_generator(self, monkeypatch):
        # after a warm-up, ten runs on this thread build no Philox and a run
        # on a new thread builds its own, once
        built, philox = [], np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *args, **kwargs: built.append(args) or philox(*args, **kwargs))
        params = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        monte_carlo("stage1", params, 1000, 0)
        built.clear()
        serial = [monte_carlo("stage1", params, 1000, seed).to_dict() for seed in range(10)]
        assert built == []
        [threaded] = _in_threads([(monte_carlo, ("stage1", params, 1000, 3))])
        assert len(built) == 1 and threaded.to_dict() == serial[3]

    @pytest.mark.parametrize("pipeline, params", MC_RUNS, ids=["qnd1", "qnd3", "stage2", "pbs"])
    def test_a_seed_run_again_after_another_reports_the_same(self, pipeline, params):
        first, other, again = (monte_carlo(pipeline, params, 50_003, seed).to_dict()
                               for seed in (3, 5, 3))
        assert first == again and other != first


class TestColumnCache:
    """A table's numpy columns are built on its first Monte Carlo run and
    kept with the table: later runs build none, and a table built anew, or
    put in place by a test, is weighed by its own columns."""

    def test_warm_runs_build_no_columns_and_a_new_table_builds_once(self, monkeypatch):
        for pipeline, params in MC_RUNS:
            monte_carlo(pipeline, params, 1000, 0)
        tables = [protocol._weighted_rows(pipeline, [params])[0] for pipeline, params in MC_RUNS]
        warm = [protocol._mc_columns(table) for table in tables]
        info = protocol._mc_columns.cache_info()
        for pipeline, params in MC_RUNS:
            for seed in range(10):
                monte_carlo(pipeline, params, 1000, seed)
        assert protocol._mc_columns.cache_info()[1:] == info[1:]  # no miss, no new entry
        assert all(protocol._mc_columns(t) is entry for t, entry in zip(tables, warm))
        # a stand-in table of three rows, then the rebuilt stage-2 table of 16
        _rows_weighing(monkeypatch, [0.25, 0.5, 0.25])
        assert _mc_row_counts("stage2", {"F": 0.8}, 1000, 1)[1].tolist() == \
               _one_draw([0.25, 0.5, 0.25], 1000, 1).tolist()
        monkeypatch.undo()
        _stage2_table.cache_clear()
        before = protocol._mc_columns.cache_info()
        table, rows = _mc_row_counts("stage2", {"F": 0.8}, 40_003, 7)
        assert table is _stage2_table()
        after = protocol._mc_columns.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 1, before.currsize + 1)
        cls, factor, matrix = protocol._mc_columns(table)
        assert protocol._mc_columns.cache_info().misses == after.misses
        assert cls.tolist() == [c for c, _, _, _, _, _ in table]
        assert factor.tolist() == [f for _, _, _, _, f, _ in table]
        assert np.array_equal(rows, _one_draw(_table_weights("stage2", {"F": 0.8}), 40_003, 7))
        report = monte_carlo("stage2", {"F": 0.8}, 40_003, 7)
        assert protocol._mc_columns.cache_info().currsize == after.currsize
        assert report.counts == dict(zip(COUNT_KEYS, _columns_totals(table, rows.tolist())))
        # a table is its own key: a copy of its rows is another table, built anew
        copy = protocol.RowTable(table)
        assert tuple(copy) == tuple(table) and copy != table
        protocol._mc_columns(copy)
        assert protocol._mc_columns.cache_info().misses == after.misses + 1


def _loop_sums(table, class_weights) -> list:
    """The reference of ``protocol._exact_sums``, one row at a time: each
    row's class weight times factor added onto 0.0 in its bucket and, times
    its kept pairs, in the kept pairs, in table order (a pairless row's
    +0.0 skipped, as it changes no bit)."""
    sums, pairs = [0.0] * (len(COUNT_KEYS) + 1), 0.0
    for c, _, _, bucket, f, kept in table:
        w = class_weights[c] * f
        sums[bucket] += w
        if kept:
            pairs += w * kept
    sums[-1] = pairs
    return sums


@st.composite
def exact_points(draw) -> tuple:
    """(pipeline, point) of any pipeline and either stage-1 detector, its
    edges drawn often: signed zeros, the smallest subnormal and numbers
    small enough that their class weights are subnormal."""
    pipeline = draw(st.sampled_from(["stage1", "stage2", "pbs"]))
    if pipeline != "stage1":
        edge = st.sampled_from([1.0, 1.0 - 2.0**-53, 5e-324, 1e-160, 2.0**-1022])
        return pipeline, {"F": draw(edge | st.floats(0.0, 1.0, exclude_min=True))}
    share = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5]) | st.floats(0.0, 0.5)
    f0 = st.sampled_from([0.0, -0.0, 1.0, 1.0 - 2.0**-53, 1e-160]) | st.floats(0.0, 1.0)
    point = {"p1": draw(share), "p2": draw(share), "f0": draw(f0),
             "variant": draw(st.sampled_from([Variant.QND1, Variant.QND3]))}
    assume(point["p1"] + point["p2"] > 0)
    return pipeline, point


def _subnormal(x: float) -> bool:
    return 0.0 < abs(x) < 2.0**-1022


class TestCompiledSums:
    """Exact totals come from straight-line code compiled once per table:
    the same IEEE products and sums as the row loop, to the bit, and one
    compilation per table, kept with it."""

    @settings(max_examples=600, deadline=None)
    @given(exact_points())
    @example(("stage1", {"p1": 0.0, "p2": 5e-324, "f0": 0.0, "variant": Variant.QND1}))
    @example(("stage1", {"p1": 5e-324, "p2": 0.5, "f0": 1.0, "variant": Variant.QND3}))
    @example(("stage1", {"p1": 0.3, "p2": 0.2, "f0": 0.0, "variant": Variant.QND1}))
    @example(("stage2", {"F": 1.0}))
    @example(("pbs", {"F": 1e-160}))
    def test_compiled_sums_equal_the_row_loop_to_the_bit(self, case):
        pipeline, point = case
        table, (class_weights,), _ = protocol._weighted_rows(pipeline, [point])
        compiled = protocol._exact_sums(table)(class_weights)
        assert [x.hex() for x in compiled] == [x.hex() for x in _loop_sums(table, class_weights)]

    @pytest.mark.parametrize("pipeline, point", [
        ("stage1", {"p1": 5e-324, "p2": 0.5, "f0": 1.0}),
        ("stage1", {"p1": 0.5, "p2": 1e-300, "f0": 1e-10}),
        ("stage2", {"F": 1e-160}),
        ("pbs", {"F": 1e-160}),
    ])
    def test_subnormal_class_weights_add_as_the_loop_adds(self, pipeline, point):
        # the edges the property draws reach subnormal weights: check one does
        table, (class_weights,), _ = protocol._weighted_rows(pipeline, [point])
        assert any(map(_subnormal, class_weights))
        compiled = protocol._exact_sums(table)(class_weights)
        assert [x.hex() for x in compiled] == [x.hex() for x in _loop_sums(table, class_weights)]

    def test_a_warm_grid_compiles_nothing_and_a_new_table_compiles_once(self):
        stage1 = [{"p1": 0.1, "p2": 0.01, "f0": f0} for f0 in (0.6, 0.8)]
        grids = ([("stage1", [dict(p, variant=v) for p in stage1])
                  for v in (Variant.QND1, Variant.QND3)]
                 + [(pipeline, [{"F": F} for F in (0.6, 0.8)]) for pipeline in ("stage2", "pbs")])
        warm = [[r.to_dict() for r in exact_reports(*grid)] for grid in grids]
        info = protocol._exact_sums.cache_info()
        for _ in range(3):
            assert [[r.to_dict() for r in exact_reports(*grid)] for grid in grids] == warm
        assert protocol._exact_sums.cache_info()[1:] == info[1:]  # no miss, no new entry
        # Monte Carlo runs and records compile nothing
        for pipeline, points in grids:
            monte_carlo(pipeline, points[0], 1000, 1)
            enumerate_exact(pipeline, points[0])
        assert protocol._exact_sums.cache_info()[1:] == info[1:]
        # a table built anew compiles once, on its first exact run
        _stage2_table.cache_clear()
        before = protocol._exact_sums.cache_info()
        assert [r.to_dict() for r in exact_reports(*grids[2])] == warm[2]
        after = protocol._exact_sums.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 1, before.currsize + 1)
        assert [r.to_dict() for r in exact_reports("stage2", [{"F": 0.7}])]
        assert protocol._exact_sums.cache_info().misses == after.misses
        # a table is its own key: a copy of its rows is another table, compiled anew
        copy = protocol.RowTable(_stage2_table())
        sums = protocol._exact_sums(copy)
        assert protocol._exact_sums.cache_info().misses == after.misses + 1
        weights = two_pair_weights(0.8)
        assert sums(weights) == protocol._exact_sums(_stage2_table())(weights)
        # an empty grid builds no table and compiles nothing
        assert list(exact_reports("pbs", [])) == []
        assert protocol._exact_sums.cache_info().misses == after.misses + 1


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
        assert all(len(t) for t in tables + [_stage2_table(), _pbs_table()])
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
            verdicts = [protocol._VERDICTS[bucket] for _, _, _, bucket, _, _ in table]
            kept_rows = np.array([v in (Verdict.KEPT_CORRECT, Verdict.KEPT_ERRONEOUS)
                                  for v in verdicts])
            cls, factor = (np.array([row[i] for row in table]) for i in (0, 4))
            for c, kinds in enumerate(TWO_PAIR_KINDS):
                kept = {verdicts[i] for i in np.flatnonzero((cls == c) & kept_rows)}
                assert len(kept) <= 1
                assert (kept.pop() if kept else Verdict.DISCARDED) == expected[kinds]
                keep_probability = factor[(cls == c) & kept_rows].sum()
                assert (keep_probability == 0.0) == (expected[kinds] == Verdict.DISCARDED)

    def test_a_kept_verdict_needs_an_overlap_within_1e_12_of_one(self):
        # a record holds no state: its kept verdict is the overlap check itself
        assert protocol._verdict(1.0, 0.0) == Verdict.KEPT_CORRECT
        assert protocol._verdict(0.0, 1.0) == Verdict.KEPT_ERRONEOUS
        for fid_phi, fid_psi in ((1.0 - 2e-12, 0.0), (0.0, 1.0 - 2e-12)):
            with pytest.raises(SimulationError, match="neither phi\\+ nor psi\\+"):
                protocol._verdict(fid_phi, fid_psi)

    def test_a_record_is_its_readings_verdict_weight_and_kept_pairs(self):
        fields = ("probe_alice", "probe_bob", "verdict", "weight", "kept_pairs")
        assert OutcomeRecord._fields == fields
        for pipeline, params in MC_RUNS:
            records = enumerate_exact(pipeline, params)
            assert records and all(type(r) is OutcomeRecord for r in records)
            assert not any(isinstance(value, PureState) for r in records for value in r)

    def test_a_table_is_one_tuple_of_flat_rows(self):
        # each fact of a row is held once: a row is the plain tuple (class,
        # Alice's counts, Bob's counts, bucket, factor, kept pairs), no record
        # and no state, and a table keeps no second copy of its rows beside them
        for table in (protocol._stage1_rows(Variant.QND1), protocol._stage1_rows(Variant.QND3),
                      _stage2_table(), _pbs_table()):
            assert isinstance(table, tuple) and table
            assert not hasattr(table, "columns") and not hasattr(table, "rows")
            for row in table:
                assert type(row) is tuple and len(row) == 6, row
                assert not isinstance(row, OutcomeRecord)
                c, alice, bob, bucket, factor, kept = row
                assert type(c) is int and type(factor) is float and type(kept) is int
                assert type(bucket) is int and 0 <= bucket < len(COUNT_KEYS)
                assert not any(isinstance(value, (PureState, Verdict)) for value in row)
                assert alice is None or (type(alice) is tuple and len(alice) == 2)
                assert bob is None or (type(bob) is tuple and len(bob) == 2)
            assert table == table and hash(table) == object.__hash__(table)

    def test_chunked_mc_counts_equal_one_unchunked_draw(self):
        # a run's rows are one draw at its table's weights, whatever the
        # trial count, and its report sums them
        trials = 3 * 65_536 + 17
        runs = [("stage1", {"p1": 0.1, "p2": 0.02, "f0": 0.8}), ("stage2", {"F": 0.8}),
                ("pbs", {"F": 0.8})]
        for name, params in runs:
            table, rows = _mc_row_counts(name, params, trials, 5)
            assert np.array_equal(rows, _one_draw(_table_weights(name, params), trials, 5))
            report = monte_carlo(name, params, trials, seed=5)
            assert report.to_dict() == protocol._report(
                name, params, _columns_totals(table, rows.tolist()), trials, 5).to_dict()

    @pytest.mark.parametrize("pipeline, params", [
        ("stage1", {"p1": 0.1, "p2": 0.3, "f0": 1.0}),
        ("stage2", {"F": 1.0}),
        ("pbs", {"F": 1.0}),
    ], ids=["stage1", "stage2", "pbs"])
    def test_zero_weight_rows_are_never_drawn(self, pipeline, params):
        table, (class_weights,), _ = protocol._weighted_rows(pipeline, [params])
        w = np.array(_row_weights(table, class_weights))
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
        # single runs sum the records and grids the class weights down the
        # table's rows: the totals agree to the bit, and with a loop that
        # adds every row, zero-weight and pairless ones too
        records = enumerate_exact(pipeline, params)
        table, (class_weights,), _ = protocol._weighted_rows(pipeline, [params])
        w = _row_weights(table, class_weights)
        reference = [0.0] * (len(COUNT_KEYS) + 1)
        for (_, _, _, bucket, _, kept), weight in zip(table, w):
            reference[bucket] += weight
            reference[-1] += weight * kept
        reference = [x.hex() for x in reference]
        assert [x.hex() for x in protocol._exact_sums(table)(class_weights)] == reference
        summed = []
        monkeypatch.setattr(protocol, "_report", lambda *args: summed.append(args[2]))
        protocol._exact(pipeline, params, records)
        assert [[x.hex() for x in sums] for sums in summed] == [reference]
        # the same rows, as Monte Carlo's uint64 matrix, count its draws,
        # one integer per row, exactly: also where the kept pairs pass 2**63
        matrix = protocol._mc_columns(table)[2]
        n_rows = len(table)
        for draws in (list(range(1, n_rows + 1)), [(2**63 - 1) // n_rows] * n_rows):
            counted = [0] * (len(COUNT_KEYS) + 1)
            for (_, _, _, bucket, _, kept), n in zip(table, draws):
                counted[bucket] += n
                counted[-1] += n * kept
            assert (matrix @ np.array(draws, dtype=np.uint64)).tolist() == counted
            assert _columns_totals(table, draws) == counted


@copiers
def test_records_are_rebuilt_equal(copier):
    # records hold tags and states; a process pool would send them pickled
    cfg = QndConfig(Variant.QND3, PhaseTag(7, 32), PhaseTag(45, 64))
    runs = MC_RUNS + [("stage1", {"p1": 0.1, "p2": 0.05, "f0": 0.8, "variant": cfg.variant,
                                  "cfg": cfg})]
    for pipeline, params in runs:
        records = enumerate_exact(pipeline, params)
        assert copier(records) == records


class TestOutcomeVocabulary:
    """A row's class is its one ``Verdict``; a report serializes its fields."""

    REPORT_KEYS = ["pipeline", "mode", "fidelity", "yield", "counts", "trials", "seed",
                   "fidelity_stderr", "yield_stderr", "extras"]

    def test_count_keys_are_the_verdicts(self):
        assert COUNT_KEYS == ("kept_correct", "kept_erroneous", "kept_same_port", "discarded")
        assert [Verdict(k) for k in COUNT_KEYS] == list(Verdict)

    @pytest.mark.parametrize("pipeline, params", MC_RUNS, ids=["qnd1", "qnd3", "stage2", "pbs"])
    def test_every_report_counts_in_count_keys_order(self, pipeline, params):
        single = {"stage1": lambda p: stage1_run(PdcSourceParams(p["p1"], p["p2"]),
                                                 NoiseParams(p["f0"]),
                                                 p.get("variant", Variant.QND1)),
                  "stage2": lambda p: stage2_run(p["F"]), "pbs": lambda p: pbs_baseline(p["F"])}
        reports = [single[pipeline](params), *exact_reports(pipeline, [params]),
                   monte_carlo(pipeline, params, 1, 0), monte_carlo(pipeline, params, 10**6, 5)]
        for report in reports:
            assert tuple(report.counts) == COUNT_KEYS, report.mode
            assert tuple(report.to_dict()["counts"]) == COUNT_KEYS

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
            records = enumerate_exact("stage1", params)
            rows = protocol._stage1_rows(cfg.variant)
            assert len(records) == len(rows)  # every row weighs something here
            for r, (c, *_) in zip(records, rows):
                bunched = c >= 2 and r.probe_alice == r.probe_bob != keep_tag
                assert (r.verdict == Verdict.KEPT_SAME_PORT) == bunched
                if bunched:
                    same_port += 1
                    assert r.kept_pairs == 0
            assert same_port > 0

    @pytest.mark.parametrize("variant, shares", [
        (Variant.QND1, {(2, 0): 0.5, (1, 1): 0.5, (0, 2): 0.5}),
        (Variant.QND3, {(2, 0): 0.0, (1, 1): 1.0, (0, 2): 0.0}),
    ], ids=["qnd1", "qnd3"])
    def test_the_share_of_one_photon_per_port_in_each_equal_double_reading(self, variant,
                                                                          shares):
        # a double emission through the detector, both parties projected on
        # one reading (2 theta, theta + theta' or 2 theta'): the share of the
        # weight left with one photon in each port of each party.  Under qnd3
        # the readings are port occupancies; under qnd1, the default,
        # KEPT_SAME_PORT and the kept theta + theta' are reading classes only
        state = apply_qnd(pdc_emit(2), variant)
        for counts, share in shares.items():
            p_alice, post = project_probe(state, Party.ALICE, counts)
            p_bob, post = project_probe(post, Party.BOB, counts)
            assert p_alice * p_bob > 0.0
            weights = [(abs(b.amplitude) ** 2, b.one_photon_per_port()) for b in post.branches]
            total = sum(w for w, _ in weights)
            assert abs(sum(w for w, one in weights if one) / total - share) < 1e-12, counts

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


def _float_bits(value):
    """``value`` with every float, however deeply nested, as its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items()}
    return value


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
        # the points are walked more than once, so a generator is read whole first
        assert [r.to_dict() for r in exact_reports("stage1", (p for p in points))] == single

    @pytest.mark.parametrize("run, pipeline", [(stage2_run, "stage2"), (pbs_baseline, "pbs")])
    def test_two_pair_grid_equals_single_runs(self, run, pipeline):
        grid = [1.0, 0.999999999, 0.8, 0.55, 0.3]
        single = [run(F).to_dict() for F in grid]
        for points in ([{"F": F} for F in grid], ({"F": F} for F in grid)):
            assert [r.to_dict() for r in exact_reports(pipeline, points)] == single

    @pytest.mark.parametrize("F", [1.0, 0.999999999, 0.8, 0.55, 0.5, 5e-324])
    @pytest.mark.parametrize("run, pipeline", [(stage2_run, "stage2"), (pbs_baseline, "pbs")])
    def test_two_pair_single_runs_equal_their_records_summed(self, run, pipeline, F):
        # the single runs sum the table's rows as a grid of one; the records
        # of enumerate_exact, the rows of nonzero weight, must add to the same bits
        records = enumerate_exact(pipeline, {"F": F})
        summed = protocol._exact(pipeline, {"F": F}, records)
        assert _float_bits(run(F).to_dict()) == _float_bits(summed.to_dict())
        if F == 1.0:  # three of the four classes weigh 0 and give no record
            assert len(records) < len(protocol.PIPELINES[pipeline].table(None))

    def test_empty_grid_has_no_reports(self):
        assert list(exact_reports("stage1", [])) == []
        assert list(exact_reports("stage2", iter([]))) == []
        with pytest.raises(ConfigError, match="unknown pipeline"):
            next(exact_reports("nope", []))

    @pytest.mark.parametrize("name", [["stage1"], {"a": 1}, "Stage1", None],
                             ids=["list", "dict", "case", "none"])
    def test_a_pipeline_name_that_names_none_raises(self, name):
        # a name that cannot be a key is unknown too, not an unhashable TypeError
        for run in (lambda: next(exact_reports(name, [{"F": 0.8}])),
                    lambda: enumerate_exact(name, {"F": 0.8}),
                    lambda: monte_carlo(name, {"F": 0.8}, 1000, 1)):
            with pytest.raises(ConfigError, match=f"^unknown pipeline {re.escape(repr(name))}$"):
                run()

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

    @pytest.mark.parametrize("cfg", ["qnd3", "", Variant.QND1, 0.25])
    def test_a_stage1_cfg_that_is_not_a_config_raises(self, cfg):
        # a cfg of another type is named in a ConfigError, as an angle that is
        # not a PhaseTag is, at every entry point; a falsy one is no default
        good = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        bad = dict(good, cfg=cfg)
        for run in (lambda: monte_carlo("stage1", bad, 1000, 1),
                    lambda: enumerate_exact("stage1", bad),
                    lambda: next(exact_reports("stage1", [good, good, bad])),
                    lambda: stage1_run(SRC, NOISE, cfg=cfg)):
            with pytest.raises(ConfigError, match=f"cfg is a QndConfig, not {type(cfg).__name__}$"):
                run()

    @pytest.mark.parametrize("points", [{"F": 0.8}, ["F"], [["F"]], [("F", 0.8)], [0.8],
                                        [{"F": 0.8}, None]],
                             ids=["bare-dict", "str", "list", "pair", "float", "none-after-good"])
    def test_points_that_are_not_parameter_dicts_raise(self, points):
        # a bare dict would walk its keys as points: every point must be a mapping
        for pipeline in ("stage2", "pbs"):
            with pytest.raises(ConfigError, match="an iterable of parameter dicts"):
                list(exact_reports(pipeline, points))
        for point in [p for p in points if not isinstance(p, dict)]:
            for run in (lambda: enumerate_exact("stage2", point),
                        lambda: monte_carlo("pbs", point, 1000, 1)):
                with pytest.raises(ConfigError, match=f"dict, not {type(point).__name__};"):
                    run()

    @pytest.mark.parametrize("pipeline, key, value", [
        ("stage2", "F", "0.8"), ("pbs", "F", None), ("stage2", "F", 0.8j),
        ("pbs", "F", Decimal("0.8")),
        ("stage1", "p1", "0.1"), ("stage1", "p2", [0.01]), ("stage1", "f0", None),
    ], ids=["F-str", "F-none", "F-complex", "F-decimal", "p1-str", "p2-list", "f0-none"])
    def test_a_value_that_is_not_a_number_raises_naming_its_key(self, pipeline, key, value):
        # the class weights read each value as a real number or refuse it with a
        # ConfigError naming its key, at every entry point, single runs included
        good = {"F": 0.8} if pipeline != "stage1" else {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        bad = dict(good, **{key: value})
        runs = [lambda: monte_carlo(pipeline, bad, 1000, 1),
                lambda: enumerate_exact(pipeline, bad),
                lambda: next(exact_reports(pipeline, [good, good, bad]))]
        if pipeline == "stage1":
            src, noise = SimpleNamespace(p1=bad["p1"], p2=bad["p2"]), SimpleNamespace(f0=bad["f0"])
            runs.append(lambda: stage1_run(src, noise))
        else:
            runs.append(lambda: (stage2_run if pipeline == "stage2" else pbs_baseline)(value))
        for run in runs:
            with pytest.raises(ConfigError,
                               match=f"^{key} is a real number, not {type(value).__name__}$"):
                run()

    @pytest.mark.parametrize("src, noise, message", [
        (None, NoiseParams(0.8), "^src is a PdcSourceParams, not NoneType$"),
        ({"p1": 0.1, "p2": 0.01}, NoiseParams(0.8), "^src is a PdcSourceParams, not dict$"),
        (SimpleNamespace(p1=0.1), NoiseParams(0.8), "^src is a PdcSourceParams, not "
                                                    "SimpleNamespace$"),
        (PdcSourceParams(0.1, 0.01), 0.8, "^noise is a NoiseParams, not float$"),
        (PdcSourceParams(0.1, 0.01), None, "^noise is a NoiseParams, not NoneType$"),
    ], ids=["src-none", "src-dict", "src-without-p2", "noise-float", "noise-none"])
    def test_a_single_run_names_the_object_it_cannot_read(self, src, noise, message):
        # any object with the fields runs; one without them is refused by name,
        # not with the AttributeError of its read
        for run in (stage1_run, stage1_records,
                    lambda s, n: protocol.stage1_monte_carlo(s, n, trials=1000, seed=1)):
            with pytest.raises(ConfigError, match=message):
                run(src, noise)
        duck = SimpleNamespace(p1=0.1, p2=0.01), SimpleNamespace(f0=0.8)
        assert stage1_run(*duck) == stage1_run(PdcSourceParams(0.1, 0.01), NoiseParams(0.8))

    @pytest.mark.parametrize("variant", ["qnd9", "QND1", "qnd2", "", 3, "qnd1", "qnd3"])
    def test_a_variant_stage1_cannot_run_raises(self, variant):
        # a Variant names a detector: any other value is refused, its names too
        good = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        bad = dict(good, variant=variant)
        for run in (lambda: monte_carlo("stage1", bad, 1000, 1),
                    lambda: enumerate_exact("stage1", bad),
                    lambda: next(exact_reports("stage1", [good, good, bad])),
                    lambda: stage1_run(SRC, NOISE, variant)):
            with pytest.raises(ConfigError, match="^stage 1 runs with the qnd1 or qnd3 detector, "
                                                  f"not {re.escape(repr(variant))}$"):
                run()

    @pytest.mark.parametrize("cfg", [default_config(Variant.QND3),
                                     QndConfig(Variant.QND3, PhaseTag(1, 8), PhaseTag(5, 8)),
                                     QndConfig(Variant.QND1, PhaseTag(1, 8), PhaseTag(5, 8))],
                             ids=["qnd3-default", "qnd3-1/8", "qnd1-1/8"])
    def test_a_cfg_alone_names_its_detector(self, cfg):
        # a stage-1 point with a cfg and no variant runs the cfg's detector:
        # every entry point reports what the point that names both reports,
        # bit for bit (a float's repr round-trips, so equal JSON is equal bits)
        alone = {"p1": 0.1, "p2": 0.01, "f0": 0.8, "cfg": cfg}
        both = dict(alone, variant=cfg.variant)
        src, noise = PdcSourceParams(0.1, 0.01), NoiseParams(0.8)
        for run in (lambda p: [r.to_dict() for r in exact_reports("stage1", [p, p])],
                    lambda p: repr(enumerate_exact("stage1", p)),
                    lambda p: monte_carlo("stage1", p, 10**6, 5).to_dict(),
                    lambda p: stage1_run(src, noise, **{k: p[k] for k in ("variant", "cfg")
                                                        if k in p}).to_dict()):
            assert json.dumps(run(alone)) == json.dumps(run(both))
        # a variant that is given is still checked against the cfg
        other = Variant.QND1 if cfg.variant == Variant.QND3 else Variant.QND3
        for run in (lambda: enumerate_exact("stage1", dict(alone, variant=other)),
                    lambda: stage1_run(src, noise, other, cfg)):
            with pytest.raises(ConfigError, match="does not match the requested detector"):
                run()

    @pytest.mark.parametrize("cfg", [None, default_config(Variant.QND3),
                                     QndConfig(Variant.QND1, PhaseTag(1, 8), PhaseTag(5, 8))],
                             ids=["no-cfg", "qnd3-default", "qnd1-1/8"])
    def test_a_variant_of_none_reads_as_omitted(self, cfg):
        # variant=None is the default: it runs the cfg's detector, else qnd1,
        # and every entry point reports what the point without the key reports
        omitted = {"p1": 0.1, "p2": 0.01, "f0": 0.8, "cfg": cfg}
        given = dict(omitted, variant=None)
        src, noise = PdcSourceParams(0.1, 0.01), NoiseParams(0.8)
        for run in (lambda p: [r.to_dict() for r in exact_reports("stage1", [p, p])],
                    lambda p: repr(enumerate_exact("stage1", p)),
                    lambda p: monte_carlo("stage1", p, 10**6, 5).to_dict(),
                    lambda p: stage1_run(src, noise, **{k: p[k] for k in ("variant", "cfg")
                                                        if k in p}).to_dict()):
            assert json.dumps(run(given)) == json.dumps(run(omitted))
        named = Variant.QND1 if cfg is None else cfg.variant
        assert stage1_run(src, noise, None, cfg) == stage1_run(src, noise, named, cfg)

    @pytest.mark.parametrize("variant", [Variant.QND2, Variant.QND4], ids=["qnd2", "qnd4"])
    def test_a_cfg_alone_of_another_detector_cannot_run_stage1(self, variant):
        cfg = default_config(variant)
        for run in (lambda: enumerate_exact("stage1", {"p1": 0.1, "p2": 0.01, "f0": 0.8,
                                                       "cfg": cfg}),
                    lambda: stage1_run(SRC, NOISE, cfg=cfg)):
            with pytest.raises(ConfigError, match="^stage 1 runs with the qnd1 or qnd3 detector, "
                                                  f"not {re.escape(repr(variant))}$"):
                run()

    @pytest.mark.parametrize("points", [0.8, None, 3, Variant.QND1],
                             ids=["float", "none", "int", "variant"])
    def test_points_that_are_not_iterable_raise(self, points):
        for pipeline in ("stage1", "stage2", "pbs"):
            with pytest.raises(ConfigError, match="^points are an iterable of parameter dicts, "
                                                  f"not {type(points).__name__}$"):
                list(exact_reports(pipeline, points))

    def test_a_type_error_of_the_callers_own_generator_passes_through(self):
        # only a failing iter(points) is refused; the caller's own error is theirs
        def points():
            yield {"F": 0.8}
            raise TypeError("the caller's own")

        with pytest.raises(TypeError, match="^the caller's own$"):
            list(exact_reports("stage2", points()))

    @pytest.mark.parametrize("pipeline, key", [
        ("stage1", "p1"), ("stage1", "p2"), ("stage1", "f0"), ("stage2", "F"), ("pbs", "F"),
    ])
    def test_a_missing_key_raises(self, pipeline, key):
        # a point that lacks a key the pipeline needs names it, as a
        # ConfigError, not a bare KeyError; a grid checks every point first
        good = {"F": 0.8} if pipeline != "stage1" else {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        bad = {k: v for k, v in good.items() if k != key}
        for run in (lambda: monte_carlo(pipeline, bad, 1000, 1),
                    lambda: enumerate_exact(pipeline, bad),
                    lambda: next(exact_reports(pipeline, [bad])),
                    lambda: next(exact_reports(pipeline, [good, good, bad]))):
            with pytest.raises(ConfigError, match=f"missing parameter.*'{key}'.*{pipeline}"):
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
        # each point's config is compared with the previous point's only:
        # configs that alternate still differ
        alternating = [dict(point, cfg=cfg) for cfg in [default_config(Variant.QND1), other] * 50]
        with pytest.raises(ConfigError, match="one detector config"):
            list(exact_reports("stage1", alternating))
        with pytest.raises(ConfigError, match="one detector config"):
            list(exact_reports("stage1", alternating[:1] * 50 + alternating[1:2]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_grid_is_bit_identical_to_its_single_runs(self, data):
        # every float of each grid report has the single run's bits,
        # at points whose zero-weight classes add 0.0 to the grid's totals
        # and are left out of the single run's records
        pipeline = data.draw(st.sampled_from(["stage1", "stage2", "pbs"]))
        if pipeline == "stage1":
            variant = data.draw(st.sampled_from([Variant.QND1, Variant.QND3]))
            share = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5)
            f0 = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
            point = st.fixed_dictionaries({"p1": share, "p2": share, "f0": f0})
            points = data.draw(st.lists(point.filter(lambda p: p["p1"] + p["p2"] > 0),
                                        min_size=1, max_size=6))
            points = [dict(p, variant=variant) for p in points]

            def single(p):
                return stage1_run(PdcSourceParams(p["p1"], p["p2"]), NoiseParams(p["f0"]),
                                  variant)
        else:
            fidelity = st.sampled_from([1.0]) | st.floats(0.0, 1.0, exclude_min=True)
            points = [{"F": F} for F in data.draw(st.lists(fidelity, min_size=1, max_size=6))]
            run = stage2_run if pipeline == "stage2" else pbs_baseline

            def single(p):
                return run(p["F"])
        # no drawn point may raise, a subnormal p2 with p1 = 0 included
        expected = [_float_bits(single(p).to_dict()) for p in points]
        assert [_float_bits(r.to_dict()) for r in exact_reports(pipeline, points)] == expected


# ROADMAP item 18's junk values, one of each kind.  Its integers are counts
# a call may take (-1, 0, 2) or past every range (10**400), so that no call
# allocates a large array.
JUNK = [None, "0.8", "", True, False, np.True_, np.False_, math.nan, math.inf, -math.inf, -1, 0,
        2, 10**400, 5e-324, Fraction(4, 5), Decimal("0.8"), 0.8j, np.float64(0.8), np.int64(2),
        [0.8], (2,), {"F": 0.8}, b"0.8", object()]
PIPELINE_POINTS = {"stage1": {**STAGE1_POINT, "variant": Variant.QND1, "cfg": None},
                   "stage2": {"F": 0.8}, "pbs": {"F": 0.7}}
INTEGER_ARGUMENTS = {"trials", "seed", "n_trials", "rounds"}
NUMBER_ARGUMENTS = INTEGER_ARGUMENTS | {"p1", "p2", "f0", "F", "fidelity"}
ENTRY_POINTS = {
    "exact_reports": lambda a: list(exact_reports(a["pipeline"], a["points"])),
    "enumerate_exact": lambda a: enumerate_exact(a["pipeline"], a["params"]),
    "monte_carlo": lambda a: monte_carlo(a["pipeline"], a["params"], a["trials"], a["seed"]),
    "stage2_iterate": lambda a: stage2_iterate(a["fidelity"], a["rounds"]),
    "trial_uniforms": lambda a: trial_uniforms(a["seed"], a["n_trials"]),
    "PdcSourceParams": lambda a: PdcSourceParams(a["p1"], a["p2"]),
    "NoiseParams": lambda a: NoiseParams(a["f0"]),
    "QndConfig": lambda a: QndConfig(a["variant"], a["theta"], a["theta_prime"]),
    "stage1_run": lambda a: stage1_run(a["src"], a["noise"], a["variant"], a["cfg"]),
    "stage2_run": lambda a: stage2_run(a["fidelity"]),
    "pbs_baseline": lambda a: pbs_baseline(a["fidelity"]),
    "apply_qnd": lambda a: apply_qnd(a["state"], a["variant"]),
    "stage1_records": lambda a: stage1_records(a["src"], a["noise"], a["variant"], a["cfg"]),
    "stage2_records": lambda a: stage2_records(a["fidelity"]),
    "pbs_records": lambda a: pbs_records(a["fidelity"]),
    "stage1_monte_carlo": lambda a: protocol.stage1_monte_carlo(
        a["src"], a["noise"], a["variant"], a["cfg"], a["trials"], a["seed"]),
    "stage2_monte_carlo": lambda a: protocol.stage2_monte_carlo(a["fidelity"], a["trials"],
                                                                a["seed"]),
    "run_branch_suite": lambda a: run_branch_suite(a["theta"], a["theta_prime"], a["only"]),
    "run_branch_case": lambda a: run_branch_case(a["case"], a["cfg"]),
}
STAGE1_ARGUMENTS = {"src": PdcSourceParams(0.1, 0.01), "noise": NoiseParams(0.8), "variant": None,
                    "cfg": None}
# the valid arguments of each entry point that takes no pipeline name
PLAIN_ARGUMENTS = {
    "stage2_iterate": {"fidelity": 0.8, "rounds": 2},
    "trial_uniforms": {"seed": 1, "n_trials": 8},
    "PdcSourceParams": {"p1": 0.1, "p2": 0.01},
    "NoiseParams": {"f0": 0.8},
    "QndConfig": {"variant": Variant.QND1, "theta": PhaseTag(1, 4), "theta_prime": PhaseTag(3, 4)},
    "stage1_run": STAGE1_ARGUMENTS,
    "stage2_run": {"fidelity": 0.8},
    "pbs_baseline": {"fidelity": 0.7},
    "apply_qnd": {"state": single_pair_state(), "variant": Variant.QND1},
    "stage1_records": STAGE1_ARGUMENTS,
    "stage2_records": {"fidelity": 0.8},
    "pbs_records": {"fidelity": 0.7},
    "stage1_monte_carlo": dict(STAGE1_ARGUMENTS, trials=1000, seed=1),
    "stage2_monte_carlo": {"fidelity": 0.8, "trials": 1000, "seed": 1},
    "run_branch_suite": {"theta": PhaseTag(3, 16), "theta_prime": PhaseTag(29, 64),
                         "only": ["qnd2-phi-phi"]},
    "run_branch_case": {"case": BRANCH_CASES[0], "cfg": default_config(BRANCH_CASES[0].variant)},
}


@st.composite
def library_calls(draw) -> tuple:
    """(entry point, argument, junk value, arguments): a valid call of an entry
    point with one argument, or one parameter of its point, set to junk."""
    entry = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    if entry in PLAIN_ARGUMENTS:
        args, params = dict(PLAIN_ARGUMENTS[entry]), {}
    else:
        pipeline = draw(st.sampled_from(sorted(PIPELINE_POINTS)))
        params = dict(PIPELINE_POINTS[pipeline])
        args = {"pipeline": pipeline}
        if entry == "exact_reports":
            args["points"] = [params]
        else:
            args["params"] = params
        if entry == "monte_carlo":
            args.update(trials=1000, seed=1)
    argument = draw(st.sampled_from(sorted(args) + sorted(params)))
    junk = draw(st.sampled_from(JUNK))
    (args if argument in args else params)[argument] = junk
    return entry, argument, junk, args


class TestRefusalContract:
    """Junk given to one argument of a library entry point ends in a result
    or a clean refusal, never in a bare Python error."""

    @settings(max_examples=2375, deadline=None)  # 125 per entry point
    @given(library_calls())
    def test_junk_returns_or_is_refused_cleanly(self, call):
        entry, argument, junk, args = call
        try:
            ENTRY_POINTS[entry](args)
        except (ConfigError, ValueError):
            pass
        except TypeError as err:  # only an integer argument's own refusal
            assert argument in INTEGER_ARGUMENTS, (entry, argument, junk, err)
            assert str(err).startswith(f"{argument} is an integer"), (entry, argument, junk, err)
        else:
            assert not (isinstance(junk, (bool, np.bool_)) and argument in NUMBER_ARGUMENTS), (
                f"{entry} read the bool {junk} given for {argument} as a number")

    @pytest.mark.parametrize("angle", ["theta", "theta_prime"])
    @pytest.mark.parametrize("junk", [pytest.param(j, id=f"{i}-{type(j).__name__}")
                                      for i, j in enumerate(JUNK) if j is not None and not j])
    def test_a_falsy_angle_is_refused_not_read_as_none(self, angle, junk):
        # only None means "no angle given"; 0, "", False and np.False_ are
        # angles that are not PhaseTags, whatever the cases they select
        refusal = f"^an angle is a PhaseTag, an exact rational of pi, not {type(junk).__name__}$"
        for only in (None, ["qnd1-double-clean"]):
            with pytest.raises(ConfigError, match=refusal):
                run_branch_suite(**{angle: junk}, only=only)

    @pytest.mark.parametrize("junk", [pytest.param(j, id=f"{i}-{type(j).__name__}")
                                      for i, j in enumerate(JUNK) if not isinstance(j, str)])
    def test_a_phase_parses_only_from_a_str(self, junk):
        refusal = f"^a phase parses from a str, not {type(junk).__name__}$"
        with pytest.raises(TypeError, match=refusal):
            PhaseTag.parse(junk)

    @pytest.mark.parametrize("junk", JUNK, ids=[f"{i}-{type(j).__name__}"
                                                 for i, j in enumerate(JUNK)])
    def test_a_phase_tag_takes_only_an_exact_rational(self, junk):
        # a bool is no phase of pi, and Fraction's own refusal would name no type
        exact = type(junk) is not bool and isinstance(junk, numbers.Rational)
        for args in ((junk,), (1, junk)):
            if not exact:
                with pytest.raises(TypeError, match="^a phase is an exact rational of pi, not "
                                                    f"{type(junk).__name__}$"):
                    PhaseTag(*args)
            elif args[-1] == 0 and len(args) == 2:
                with pytest.raises(ZeroDivisionError):
                    PhaseTag(*args)
            else:
                assert PhaseTag(*args).value == Fraction(*args) % 2, args
