"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion.
"""

import contextlib
import json
import time

import numpy as np

from kerrpurify import (
    NoiseParams,
    Party,
    PdcSourceParams,
    PhaseTag,
    Variant,
    ZERO_COUNTS,
    apply_qnd,
    default_config,
    inner,
    monte_carlo,
    overlap,
    pbs,
    pbs_baseline,
    probe_outcomes,
    project_probe,
    run_branch_suite,
    sigma_x,
    sigma_z,
    stage1_fidelity_closed_form,
    stage1_run,
    stage2_fidelity_map,
    stage2_iterate,
    stage2_run,
    stage2_yield,
)
from kerrpurify.branches import HHHH, HHVV, VVHH, VVVV, operator_state

from conftest import (assert_states_equal, photon_distribution,
                      random_pure_state)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_branch_equation_suite():
    with criterion(1, "branch transformation suite"):
        start = time.perf_counter()
        results = run_branch_suite()
        elapsed = time.perf_counter() - start
        assert len(results) == 14
        for r in results:
            assert r.passed, f"{r.case_id}: {r.detail}"
        assert elapsed < 1.0, f"suite took {elapsed:.3f}s"


def test_criterion_2_stage1_closed_form_reproduction():
    with criterion(2, "stage-1 closed-form fidelity"):
        start = time.perf_counter()
        for p1 in (0.02, 0.05, 0.1, 0.2, 0.3):
            for p2 in (p1**2 / 2, p1**2, 2 * p1**2):
                for f0 in (0.55, 0.7, 0.8, 0.9, 1.0):
                    report = stage1_run(PdcSourceParams(p1, p2), NoiseParams(f0))
                    expect = stage1_fidelity_closed_form(p1, p2, f0)
                    assert abs(report.fidelity - expect) < 1e-12, (p1, p2, f0)
        # Monte Carlo consistency at 1e5 trials on one point per p1 value
        for seed, (p1, f0) in enumerate(
            [(0.02, 0.55), (0.05, 0.7), (0.1, 0.8), (0.2, 0.9), (0.3, 1.0)]
        ):
            params = {"p1": p1, "p2": p1**2, "f0": f0}
            mc = monte_carlo("stage1", params, 100_000, seed=seed)
            expect = stage1_fidelity_closed_form(p1, p1**2, f0)
            exact = stage1_run(PdcSourceParams(p1, p1**2), NoiseParams(f0))
            if mc.fidelity_stderr:
                assert abs(mc.fidelity - expect) <= 3 * mc.fidelity_stderr
            else:
                assert mc.fidelity == expect
            assert abs(mc.yield_fraction - exact.yield_fraction) \
                <= 3 * mc.yield_stderr
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion took {elapsed:.3f}s"


def test_criterion_3_stage2_map_and_iteration():
    with criterion(3, "stage-2 fidelity map and iteration"):
        for f in np.arange(0.55, 0.951, 0.05):
            f = round(float(f), 10)
            report = stage2_run(f)
            assert abs(report.fidelity - stage2_fidelity_map(f)) < 1e-12
            assert abs(report.yield_fraction - stage2_yield(f)) < 1e-12
            rows = stage2_iterate(f, 3)
            fids = [f] + [r.fidelity for r in rows]
            assert all(b > a for a, b in zip(fids, fids[1:]))
        rows = stage2_iterate(0.8, 2)
        assert rows[1].fidelity >= 0.996
        assert abs(rows[1].fidelity - 256 / 257) < 1e-12


def test_criterion_4_yield_doubling():
    with criterion(4, "yield doubling over the PBS baseline"):
        for f in np.arange(0.55, 0.951, 0.05):
            f = round(float(f), 10)
            s2 = stage2_run(f)
            pb = pbs_baseline(f)
            assert abs(s2.yield_fraction - 2.0 * pb.yield_fraction) < 1e-12
            assert abs(s2.fidelity - pb.fidelity) < 1e-12


def test_criterion_5_magnitude_readout_degradation():
    with criterion(5, "X-quadrature readout degradation"):
        inp = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
        target = operator_state([(1, ((HHVV, VVHH),))])

        # an X readout of Alice's probe keeps each class of |phase|, and
        # within a class the project_probe states of its phases decohere
        cfg4 = default_config(Variant.QND4)
        out4 = apply_qnd(inp, Variant.QND4)
        classes = {}
        for counts, p in probe_outcomes(out4, Party.ALICE).items():
            v = cfg4.phase(counts).value
            classes.setdefault(min(v, 2 - v), []).append((counts, p))
        assert sorted(classes) == [0, cfg4.theta.value]

        [(zero, p_zero)] = classes[0]  # one phase: the even-parity class stays pure
        _, even = project_probe(out4, Party.ALICE, zero)
        assert abs(p_zero - 0.5) < 1e-12
        assert abs(overlap(even, operator_state([(1, ((HHHH, VVVV),))])) - 1.0) < 1e-12

        picked = classes[cfg4.theta.value]
        p_class = sum(p for _, p in picked)
        assert len(picked) == 2 and abs(p_class - 0.5) < 1e-12
        mixture = []
        for counts, p in picked:
            _, after_a = project_probe(out4, Party.ALICE, counts)
            for bob_counts in probe_outcomes(after_a, Party.BOB):
                p_bob, comp = project_probe(after_a, Party.BOB, bob_counts)
                mixture.append((p / p_class * p_bob, comp))
        assert abs(sum(w for w, _ in mixture) - 1.0) < 1e-12
        fid = sum(w * overlap(comp, target) for w, comp in mixture)
        purity = sum(wi * wj * abs(inner(ci, cj)) ** 2
                     for wi, ci in mixture for wj, cj in mixture)
        assert abs(fid - 0.5) < 1e-12
        assert abs(purity - 0.5) < 1e-12

        out2 = apply_qnd(inp, Variant.QND2)
        _, after_a = project_probe(out2, Party.ALICE, ZERO_COUNTS)
        _, kept = project_probe(after_a, Party.BOB, ZERO_COUNTS)
        assert abs(overlap(kept, target) - 1.0) < 1e-12


def test_criterion_6_property_suites():
    with criterion(6, "randomized property suites"):
        rng = np.random.default_rng(8021)

        for _ in range(1000):
            nums = rng.integers(-24, 24, size=3)
            dens = rng.integers(1, 16, size=3)
            a, b, c = (PhaseTag(int(n), int(d)) for n, d in zip(nums, dens))
            assert (a + b) + c == a + (b + c)
            assert a + PhaseTag(2) == a

        for _ in range(1000):
            st = random_pure_state(rng)
            op_results = [
                sigma_x(sigma_x(st, Party.ALICE), Party.ALICE),
                sigma_z(sigma_z(st, Party.BOB), Party.BOB),
                pbs(pbs(st, Party.BOB), Party.BOB),
            ]
            for out in op_results:
                assert_states_equal(out, st)
            once = pbs(st, Party.ALICE)
            assert abs(once.norm_squared() - 1.0) < 1e-10
            db, da = photon_distribution(st), photon_distribution(once)
            assert set(db) == set(da)
            for n in db:
                assert abs(db[n] - da[n]) < 1e-10

        for k in range(20):
            point_rng = np.random.default_rng(500 + k)
            p1 = float(point_rng.uniform(0.01, 0.4))
            p2 = float(point_rng.uniform(0.001, min(0.2, 1 - p1)))
            f0 = float(point_rng.uniform(0.5, 1.0))
            r1 = stage1_run(PdcSourceParams(p1, p2), NoiseParams(f0), Variant.QND1)
            r3 = stage1_run(PdcSourceParams(p1, p2), NoiseParams(f0), Variant.QND3)
            assert r1.to_dict() == r3.to_dict()


def test_criterion_7_determinism():
    with criterion(7, "seeded determinism"):
        params = {"p1": 0.1, "p2": 0.01, "f0": 0.8}
        a = monte_carlo("stage1", params, 100_000, seed=9)
        b = monte_carlo("stage1", params, 100_000, seed=9)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
               json.dumps(b.to_dict(), sort_keys=True)
        s2a = monte_carlo("stage2", {"F": 0.8}, 100_000, seed=9)
        s2b = monte_carlo("stage2", {"F": 0.8}, 100_000, seed=9)
        assert json.dumps(s2a.to_dict(), sort_keys=True) == \
               json.dumps(s2b.to_dict(), sort_keys=True)

