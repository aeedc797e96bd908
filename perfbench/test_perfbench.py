"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import builtins
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import kerrpurify  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    first = [workloads.make_op(name, 7, i) for i in range(6)]
    assert first == [workloads.make_op(name, 7, i) for i in range(6)]
    assert first != [workloads.make_op(name, 8, i) for i in range(6)]


def test_drawn_angles_are_admissible():
    for i in range(200):
        op = workloads.make_op("fresh_angles", 3, i)
        theta, theta_prime = op["theta"], op["theta_prime"]
        assert 4 <= theta.denominator <= 64 and 4 <= theta_prime.denominator <= 64
        assert workloads.admissible(theta, theta_prime)


@pytest.mark.parametrize("theta, theta_prime", [
    (Fraction(1, 4), Fraction(1, 4)),    # t = t'
    (Fraction(1, 4), Fraction(1, 2)),    # 2t = t'
    (Fraction(1, 4), Fraction(7, 4)),    # t + t' = 0
    (Fraction(1), Fraction(1, 4)),       # t = pi
    (Fraction(1, 4), Fraction(5, 4)),    # 2t = 2t' mod 2
])
def test_admissible_rejects_colliding_classes(theta, theta_prime):
    assert not workloads.admissible(theta, theta_prime)


def _bindings():
    """Every name in a kerrpurify namespace, plus the patched class slots."""
    out = {}
    for name, module in sys.modules.items():
        if name == "kerrpurify" or name.startswith("kerrpurify."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (kerrpurify.PureState, kerrpurify.PhaseTag):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    out[("builtins", "open")] = builtins.open
    return out


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    with Tracer():
        during = _bindings()
        assert kerrpurify.protocol.project_probe is not before[("kerrpurify.fock", "project_probe")]
    changed = {k for k in before if during[k] is not before[k]}
    assert ("kerrpurify.protocol", "apply_qnd") in changed
    assert ("PhaseTag", "__hash__") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_layers_without_changing_results():
    src, noise = kerrpurify.PdcSourceParams(0.1, 0.01), kerrpurify.NoiseParams(0.8)
    expected = kerrpurify.stage1_run(src, noise).to_dict()
    tracer = Tracer()
    with tracer:
        tracer.recording = True
        got = kerrpurify.stage1_run(src, noise).to_dict()
        tracer.recording = False
    assert got == expected
    metrics = tracer.layer_metrics(1)
    assert metrics["protocol.stage1_records.calls"][0] == 1
    assert metrics["protocol.stage1_records.records_out"][0] > 0
    assert metrics["fock.PhaseTag.hash.calls"][0] > 0
    summary = tracer.summary()
    assert all(self_s >= 0 for _, self_s in summary.values())


def _stage2_op():
    return {"kind": "sweep_stage2", "F": [0.8, 0.9], "rounds": 2}


def _stage2_rows(ragged: bool):
    header = ["F", "mode", "trials", "seed", "round", "fidelity", "yield",
              "cumulative_yield", "pbs_yield", "yield_ratio"]
    rows = [header]
    for want in ops._expected_rows(_stage2_op()):
        row = [repr(want["F"]), "exact", "", "0", str(want["round"]), repr(want["fidelity"]),
               repr(want["yield"]), repr(want["cumulative_yield"])]
        if want["round"] == 1:
            row += [repr(want["pbs_yield"]), repr(want["yield_ratio"])]
        elif not ragged:
            row += ["", ""]
        rows.append(row)
    return rows


def test_row_shape_check_rejects_a_ragged_csv():
    assert ops.check_sweep_rows(_stage2_op(), _stage2_rows(ragged=False)) == []
    rows = _stage2_rows(ragged=True)
    assert ops.ragged_rows(rows) == [3, 5]
    assert len(ops.check_sweep_rows(_stage2_op(), rows)) == 1


def test_row_values_are_checked():
    rows = _stage2_rows(ragged=False)
    rows[1][5] = "0.5"
    assert len(ops.check_sweep_rows(_stage2_op(), rows)) == 1
    assert ops.check_sweep_rows(_stage2_op(), rows[:-1])


@pytest.mark.parametrize("index", range(3))
def test_generated_sweeps_pass_their_checks(tmp_path, index):
    op = workloads.make_op("param_sweep", 5, index)
    csv_path = tmp_path / "sweep.csv"
    assert ops.check_op(op, ops.run_op(op, csv_path), csv_path) == []


def test_a_ragged_stage1_csv_makes_the_result_incorrect(tmp_path, monkeypatch):
    import run

    op = {"kind": "sweep_stage1_qnd1", "index": 0, "variant": "qnd1",
          "p1": [0.1, 0.2], "p2": [0.01], "f0": [0.8]}

    def ragged_sweep(op, csv_path):
        header = ["p1", "p2", "f0", "variant", "fidelity", "yield"]
        rows = [",".join(header)]
        for want in ops._expected_rows(op):
            rows.append(",".join(str(want[name]) for name in header))
        rows[-1] += ","  # one column more than the header
        csv_path.write_text("\n".join(rows) + "\n")
        return 0

    monkeypatch.setattr(ops, "run_op", ragged_sweep)
    runner = run.Runner("param_sweep", 1, tmp_path)
    runner.execute(op)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert not runner.correct


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_prints_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(ROOT, "--workload", "fresh_angles", "--seed", "1",
                   "--seconds", "0.2", "--trace", str(trace))
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        names = [m["name"] for m in declared[key]]
        assert list(result["metrics"]) == names
        assert all(result["metrics"][m]["unit"] == u["unit"]
                   for m, u in zip(names, declared[key]))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    out = _run(tmp_path, "--workload", "mc_stream", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
