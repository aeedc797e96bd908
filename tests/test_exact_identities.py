"""The closed forms as exact identities of the outcome tables.

Every row factor and kept fidelity of the four tables (stage 1 with qnd1
and qnd3, stage 2, PBS) lies within a few ulps of a dyadic rational.
Snapped to it and weighted by the class weights written in ``Fraction``s,
the rows sum exactly.  Cross-multiplied, each identity below is a
polynomial of degree at most 2 in p1 and in p2 and 4 in f0 (stage 1), or
4 in F (stage 2, PBS).  A polynomial that vanishes on a grid of degree + 1
values per variable is zero, so exact equality on a 3 x 3 x 5 grid, or at
5 values of F, proves each identity at every parameter point.

Every kept fidelity is exactly 1.0 or 0.0, not only near a dyadic, so a
report's fidelity is its correct total over its kept total; the last two
tests pin that.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

import pytest

from kerrpurify import (NoiseParams, PdcSourceParams, Variant, Verdict, enumerate_exact,
                        exact_reports, monte_carlo, pbs_baseline, stage1_run, stage2_run)
from kerrpurify.protocol import (_mc_row_counts, _pbs_table, _stage1_class_weights,
                                 _stage1_rows, _stage2_table)
from kerrpurify.sources import TWO_PAIR_KINDS, two_pair_weights

ULPS = 8
KEPT = (Verdict.KEPT_CORRECT, Verdict.KEPT_ERRONEOUS)


def snap(value: float, what: str) -> Fraction:
    """The dyadic rational ``value`` rounds; a computed zero carries the
    round-off of the unit-scale terms it came from."""
    exact = Fraction(value).limit_denominator(1 << 10)
    scale = math.ulp(float(exact) or 1.0)
    assert exact.denominator & (exact.denominator - 1) == 0, f"{what}: {value!r} is not dyadic"
    assert abs(Fraction(value) - exact) <= ULPS * Fraction(scale), (
        f"{what}: {value!r} is more than {ULPS} ulps from {exact}")
    return exact


def exact_sums(name: str, table, class_weights: list) -> tuple:
    """(total weight, kept weight, kept weight times fidelity) of ``table``,
    every row snapped to its dyadic factor and fidelity."""
    total = kept = fid_sum = Fraction(0)
    for i, (row, (c, factor, _, _)) in enumerate(zip(table.rows, table.columns)):
        w = class_weights[c] * snap(float(factor), f"{name} row {i} factor")
        total += w
        if row.verdict in KEPT:
            kept += w
            fid_sum += w * snap(row.fidelity, f"{name} row {i} fidelity")
    return total, kept, fid_sum


def stage1_weights(p1: Fraction, p2: Fraction, f0: Fraction) -> list:
    """``_stage1_class_weights`` in exact arithmetic, checked against it."""
    w1, w2 = p1 / (p1 + p2), p2 / (p1 + p2)
    noise = (f0, 1 - f0)
    weights = [w1 * n for n in noise] + [w2 * a * b for a, b in iproduct(noise, noise)]
    library = _stage1_class_weights({"p1": float(p1), "p2": float(p2), "f0": float(f0)})
    assert [float(w) for w in weights] == pytest.approx(library, abs=1e-15)
    return weights


def two_pair_exact(fidelity: Fraction) -> list:
    """``two_pair_weights`` in exact arithmetic, checked against it."""
    single = {"phi+": fidelity, "psi+": 1 - fidelity}
    weights = [single[k1] * single[k2] for k1, k2 in TWO_PAIR_KINDS]
    assert [float(w) for w in weights] == pytest.approx(two_pair_weights(float(fidelity)),
                                                        abs=1e-15)
    return weights


P1S = (Fraction(0), Fraction(1, 10), Fraction(1, 4))
P2S = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 5))
F0S = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
FS = (Fraction(1, 5), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4), Fraction(1))


@pytest.mark.parametrize("variant", [Variant.QND1, Variant.QND3], ids=["qnd1", "qnd3"])
def test_stage1_closed_forms_hold_exactly(variant):
    table = _stage1_rows(variant)
    for p1, p2, f0 in iproduct(P1S, P2S, F0S):
        total, kept, fid_sum = exact_sums(variant.value, table, stage1_weights(p1, p2, f0))
        keep = p1 + p2 * (f0**2 + (1 - f0) ** 2) / 2
        assert total == 1, (p1, p2, f0)
        assert kept == keep / (p1 + p2), (p1, p2, f0)
        assert fid_sum / kept == (p1 + p2 * f0**2 / 2) / keep, (p1, p2, f0)


@pytest.mark.parametrize("name, table, yield_share", [
    ("stage2", _stage2_table, 1), ("pbs", _pbs_table, Fraction(1, 2))], ids=["stage2", "pbs"])
def test_two_pair_closed_forms_hold_exactly(name, table, yield_share):
    for fidelity in FS:
        total, kept, fid_sum = exact_sums(name, table(), two_pair_exact(fidelity))
        keep = fidelity**2 + (1 - fidelity) ** 2
        assert total == 1, fidelity
        assert kept == yield_share * keep, fidelity
        assert fid_sum / kept == fidelity**2 / keep, fidelity


TABLES = {"qnd1": lambda: _stage1_rows(Variant.QND1), "qnd3": lambda: _stage1_rows(Variant.QND3),
          "stage2": _stage2_table, "pbs": _pbs_table}


@pytest.mark.parametrize("name", TABLES)
def test_kept_rows_have_fidelity_exactly_one_or_zero(name):
    # what lets a report's fidelity be its correct total over its kept total
    exact = {Verdict.KEPT_CORRECT: 1.0, Verdict.KEPT_ERRONEOUS: 0.0}
    rows = TABLES[name]().rows
    assert {row.verdict for row in rows}.issuperset(exact)
    for i, row in enumerate(rows):
        if row.verdict in exact:
            assert type(row.fidelity) is float and row.fidelity == exact[row.verdict], (i, row)
        else:
            assert row.fidelity is None, (i, row)


def _fidelity_weighted(weighted) -> float:
    """The kept-fidelity sum of (record, weight) pairs, added in row order."""
    total = 0.0
    for record, w in weighted:
        if record.fidelity is not None:
            total = total + w * record.fidelity
    return total


@pytest.mark.parametrize("pipeline, points", [
    ("stage1", [{"p1": 0.1, "p2": 0.01, "f0": 0.8}, {"p1": 0.02, "p2": 0.3, "f0": 0.65},
                {"p1": 0.2, "p2": 0.1, "f0": 0.9, "variant": Variant.QND3}]),
    ("stage2", [{"F": 0.6}, {"F": 0.8}, {"F": 0.97}]),
    ("pbs", [{"F": 0.55}, {"F": 0.8}, {"F": 0.9}]),
], ids=["stage1", "stage2", "pbs"])
def test_report_fidelity_is_correct_over_kept(pipeline, points):
    # exact runs and Monte Carlo: the fidelity-weighted sum the reports once
    # divided by is the correct total to the bit; a grid is its single runs
    single = {"stage1": lambda p: stage1_run(PdcSourceParams(p["p1"], p["p2"]),
                                             NoiseParams(p["f0"]),
                                             p.get("variant", Variant.QND1)),
              "stage2": lambda p: stage2_run(p["F"]), "pbs": lambda p: pbs_baseline(p["F"])}
    for point in points:
        records = enumerate_exact(pipeline, point)
        mc = monte_carlo(pipeline, point, 30_001, seed=11)
        table, draws = _mc_row_counts(pipeline, point, 30_001, 11)
        for report, fid_sum in ((single[pipeline](point),
                                 _fidelity_weighted((r, r.weight) for r in records)),
                                (mc, _fidelity_weighted(zip(table.rows, draws.tolist())))):
            correct, erroneous = report.counts["kept_correct"], report.counts["kept_erroneous"]
            assert fid_sum == correct, (report.mode, point)
            assert report.fidelity == correct / (correct + erroneous), (report.mode, point)
    for report, single_report in zip(exact_reports(pipeline, points[:2]),
                                     map(single[pipeline], points)):
        correct, erroneous = report.counts["kept_correct"], report.counts["kept_erroneous"]
        assert report.fidelity == correct / (correct + erroneous)
        assert report == single_report
