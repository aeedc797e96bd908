"""Benchmark operations: each is one call into kerrpurify's public API or
CLI, plus the checks of its result against closed forms computed here.

A check failure is a message; any failure makes the operation fail and
the result incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import kerrpurify as kp
from kerrpurify import cli
from kerrpurify.qnd import QndConfig, Variant

TOL = 1e-12
MC_SIGMAS = 5


def stage1_closed_form(p1: float, p2: float, f0: float) -> tuple:
    """(fidelity, yield) of stage 1 per emission event."""
    w1, w2 = p1 / (p1 + p2), p2 / (p1 + p2)
    kept = w1 + w2 * (f0**2 + (1 - f0) ** 2) / 2
    return (w1 + w2 * f0**2 / 2) / kept, kept


def stage2_closed_form(fidelity: float) -> tuple:
    """(fidelity, yield) of one stage-2 round; the PBS baseline keeps half."""
    kept = fidelity**2 + (1 - fidelity) ** 2
    return fidelity**2 / kept, kept


def _grid(values) -> str:
    return ",".join(repr(v) for v in values)


def sweep_argv(op: dict, csv_path) -> list:
    if op["kind"] == "sweep_stage2":
        return ["sweep", "stage2", "--F", _grid(op["F"]), "--rounds", str(op["rounds"]),
                "--baseline", "--csv", str(csv_path)]
    return ["sweep", "stage1", "--variant", op["variant"], "--p1", _grid(op["p1"]),
            "--p2", _grid(op["p2"]), "--f0", _grid(op["f0"]), "--csv", str(csv_path)]


def _study(op: dict) -> dict:
    theta, theta_prime = kp.PhaseTag(op["theta"]), kp.PhaseTag(op["theta_prime"])
    suite = kp.run_branch_suite(theta=theta, theta_prime=theta_prime)
    src, noise = kp.PdcSourceParams(op["p1"], op["p2"]), kp.NoiseParams(op["f0"])
    stage1 = {
        v: kp.stage1_run(src, noise, v, cfg=QndConfig(v, theta, theta_prime))
        for v in (Variant.QND1, Variant.QND3)
    }
    return {"suite": suite, "stage1": stage1,
            "stage2": kp.stage2_run(op["F"]), "pbs": kp.pbs_baseline(op["F"])}


def run_op(op: dict, csv_path):
    """The timed part of an operation.  Sweeps write ``csv_path``."""
    if op["kind"].startswith("sweep"):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(sweep_argv(op, csv_path))
    if op["kind"] == "study":
        return _study(op)
    return kp.monte_carlo(op["pipeline"], op["params"], op["trials"], op["seed"])


def check_op(op: dict, result, csv_path) -> list:
    """The message of every failed check of one operation."""
    if op["kind"].startswith("sweep"):
        if result != 0:
            return [f"sweep exited {result}"]
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        return check_sweep_rows(op, rows)
    if op["kind"] == "study":
        return _check_study(op, result)
    return _check_mc(op, result)


def ragged_rows(rows: list) -> list:
    """1-based line numbers of rows whose width differs from the header's."""
    width = len(rows[0])
    return [line for line, row in enumerate(rows[1:], start=2) if len(row) != width]


def _expected_rows(op: dict) -> list:
    """(column -> value) for each CSV row the sweep should write, in order."""
    if op["kind"] != "sweep_stage2":
        out = []
        for p1 in op["p1"]:
            for p2 in op["p2"]:
                for f0 in op["f0"]:
                    fid, kept = stage1_closed_form(p1, p2, f0)
                    out.append({"p1": p1, "p2": p2, "f0": f0, "variant": op["variant"],
                                "fidelity": fid, "yield": kept})
        return out
    out = []
    for fidelity in op["F"]:
        fid, cumulative = fidelity, 1.0
        for k in range(1, op["rounds"] + 1):
            nxt, kept = stage2_closed_form(fid)
            cumulative = kept if k == 1 else cumulative * kept / 2
            row = {"F": fidelity, "round": k, "fidelity": nxt, "yield": kept,
                   "cumulative_yield": cumulative}
            if k == 1:
                row.update(pbs_yield=kept / 2, yield_ratio=2.0)
            out.append(row)
            fid = nxt
    return out


def _differs(expected, text: str) -> bool:
    if isinstance(expected, str):
        return text != expected
    try:
        return abs(float(text) - expected) > TOL
    except ValueError:
        return True


def check_sweep_rows(op: dict, rows: list) -> list:
    if not rows:
        return ["empty CSV"]
    failures = []
    header, body = rows[0], rows[1:]
    expected = _expected_rows(op)
    if len(body) != len(expected):
        failures.append(f"{len(body)} rows for {len(expected)} points")
    ragged = ragged_rows(rows)
    if ragged:
        failures.append(f"{len(ragged)} rows differ from the header's "
                        f"{len(header)} columns, first at line {ragged[0]}")
    column = {name: i for i, name in enumerate(header)}
    for line, (row, want) in enumerate(zip(body, expected), start=2):
        for name, value in want.items():
            i = column.get(name)
            if i is None or i >= len(row):
                failures.append(f"line {line}: no {name} column")
            elif _differs(value, row[i]):
                failures.append(f"line {line}: {name}={row[i]}, expected {value!r}")
    return failures


def _close(name: str, got, want: float, tol: float = TOL) -> list:
    if got is None or not abs(got - want) <= tol:
        return [f"{name}={got!r}, expected {want!r} within {tol:.3g}"]
    return []


def _check_study(op: dict, result: dict) -> list:
    failures = [f"branch case {r.case_id} fails: {r.detail}"
                for r in result["suite"] if not r.passed]
    fid, kept = stage1_closed_form(op["p1"], op["p2"], op["f0"])
    for variant, report in result["stage1"].items():
        failures += _close(f"stage1 {variant.value} fidelity", report.fidelity, fid)
        failures += _close(f"stage1 {variant.value} yield", report.yield_fraction, kept)
    qnd1, qnd3 = (r.to_dict() for r in result["stage1"].values())
    if qnd1 != qnd3:
        failures.append("qnd1 and qnd3 reports differ")
    fid, kept = stage2_closed_form(op["F"])
    stage2, pbs = result["stage2"], result["pbs"]
    failures += _close("stage2 fidelity", stage2.fidelity, fid)
    failures += _close("stage2 yield", stage2.yield_fraction, kept)
    failures += _close("pbs fidelity", pbs.fidelity, fid)
    failures += _close("pbs yield", pbs.yield_fraction, kept / 2)
    failures += _close("pbs yield / stage2 yield", pbs.yield_fraction,
                       stage2.yield_fraction / 2)
    return failures


def _check_mc(op: dict, report) -> list:
    params = op["params"]
    if op["pipeline"] == "stage1":
        fid, kept = stage1_closed_form(params["p1"], params["p2"], params["f0"])
    else:
        fid, kept = stage2_closed_form(params["F"])
        if op["pipeline"] == "pbs":
            kept /= 2
    trials = op["trials"]
    failures = []
    if report.trials != trials:
        failures.append(f"report has {report.trials} trials, expected {trials}")
    # standard errors from the closed forms, so a rare outcome class that drew
    # no trials cannot shrink the tolerance to zero
    kept_trials = sum(report.counts[k] for k in ("kept_correct", "kept_erroneous"))
    yield_err = math.sqrt(kept * (1 - kept) / trials)
    fid_err = math.sqrt(fid * (1 - fid) / max(kept_trials, 1))
    failures += _close("mc fidelity", report.fidelity, fid, MC_SIGMAS * fid_err)
    failures += _close("mc yield", report.yield_fraction, kept, MC_SIGMAS * yield_err)
    again = kp.monte_carlo(op["pipeline"], params, trials, op["seed"])
    if again.to_dict() != report.to_dict():
        failures.append("a repeated seed gave a different report")
    return failures
