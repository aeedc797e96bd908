"""Command-line front end.

Subcommands: verify-branches, stage1, stage2, sweep.  Results go to
stdout as a human summary plus, with --out, a single JSON document;
sweeps append CSV rows.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error.

Option precedence: explicit flags > --config file (flat key=value
lines) > built-in defaults (theta=1/4, theta-prime=3/4 in units of pi,
seed=0).  Angles are given in units of pi, e.g. ``--theta 1/4``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .branches import CASE_IDS, run_branch_suite
from .fock import ConfigError, PhaseTag, SimulationError
from .protocol import pbs_baseline, stage1_run, stage2_iterate, stage2_run
from .qnd import QndConfig, Variant
from .sources import NoiseParams, PdcSourceParams

DEFAULTS = {"theta": "1/4", "theta_prime": "3/4", "seed": "0"}


class CliError(Exception):
    """Usage-level error: reported and mapped to exit code 2."""


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {raw!r} is not key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolved(args, key: str, cast=str):
    """flag > config file > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    file_values = getattr(args, "_config_values", {})
    if key in file_values:
        return cast(file_values[key])
    if key in DEFAULTS:
        return cast(DEFAULTS[key])
    return None


def _stage1_config(args):
    variant = Variant(_resolved(args, "variant") or "qnd1")
    theta = PhaseTag.parse(_resolved(args, "theta"))
    theta_prime = PhaseTag.parse(_resolved(args, "theta_prime"))
    return variant, QndConfig(variant, theta, theta_prime).validate()


def _resolved_seed(args) -> int:
    seed = int(_resolved(args, "seed", int))
    if not 0 <= seed < 2**64:
        raise CliError(f"--seed={seed} out of range: seeds lie in [0, 2**64)")
    return seed


def _check_probability(name, value):
    if value is None:
        raise CliError(f"--{name} is required")
    if not 0.0 <= value <= 1.0:  # false for NaN too
        raise CliError(f"--{name}={value} out of range")
    return value


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _report_doc(command: str, params: dict, report) -> dict:
    doc = report.to_dict()
    doc["command"] = command
    doc["params"] = params
    doc["seed"] = params.get("seed")
    return doc


def cmd_verify_branches(args) -> int:
    theta = PhaseTag.parse(args.theta) if args.theta else None
    theta_prime = PhaseTag.parse(args.theta_prime) if args.theta_prime else None
    only = None
    if args.only:
        only = {c for chunk in args.only for c in chunk.split(",") if c}
        unknown = only - set(CASE_IDS)
        if unknown:
            raise CliError(f"unknown case ids: {sorted(unknown)}")
    if theta is not None and theta_prime is not None and theta == theta_prime:
        raise ConfigError("theta and theta_prime must differ")
    results = run_branch_suite(theta=theta, theta_prime=theta_prime, only=only)
    width = max(len(r.case_id) for r in results)
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.case_id:<{width}}  {status}  {r.description}")
        if not r.passed:
            failed += 1
            print(f"{'':<{width}}        first mismatch: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} transformation checks passed")
    return 0 if failed == 0 else 1


def cmd_stage1(args) -> int:
    p1 = _check_probability("p1", args.p1)
    p2 = _check_probability("p2", args.p2)
    f0 = _check_probability("f0", args.f0)
    if p1 + p2 > 1 or p1 + p2 <= 0:
        raise CliError("p1 + p2 must lie in (0, 1]")
    variant, cfg = _stage1_config(args)
    seed = _resolved_seed(args)
    report = stage1_run(
        PdcSourceParams(p1, p2), NoiseParams(f0), variant,
        mode=args.mode, trials=args.trials, seed=seed, cfg=cfg,
    )
    params = {
        "p1": p1, "p2": p2, "f0": f0, "variant": variant.value,
        "theta": str(cfg.theta.value), "theta_prime": str(cfg.theta_prime.value),
        "mode": args.mode, "trials": args.trials if args.mode == "mc" else None,
        "seed": seed,
    }
    doc = _report_doc("stage1", params, report)
    doc["closed_form_fidelity"] = report.extras["closed_form_fidelity"]
    fid = "n/a" if report.fidelity is None else f"{report.fidelity:.12f}"
    print(f"stage1 [{args.mode}] fidelity={fid} "
          f"closed_form={doc['closed_form_fidelity']:.12f} "
          f"yield={report.yield_fraction:.12f}")
    _emit(doc, args.out)
    if args.csv:
        _append_csv(args.csv, STAGE1_CSV_HEADER, [_stage1_csv_row(params, report)])
    return 0


STAGE1_CSV_HEADER = ["p1", "p2", "f0", "variant", "mode", "trials", "seed",
                     "fidelity", "closed_form_fidelity", "yield",
                     "kept_correct", "kept_erroneous", "kept_same_port", "discarded"]
STAGE2_CSV_HEADER = ["F", "mode", "trials", "seed", "round",
                     "fidelity", "yield", "cumulative_yield"]
BASELINE_CSV_COLUMNS = ["pbs_yield", "yield_ratio"]


def _stage1_csv_row(params, report) -> list:
    return [params["p1"], params["p2"], params["f0"], params["variant"],
            params["mode"], params["trials"], params["seed"],
            report.fidelity, report.extras["closed_form_fidelity"],
            report.yield_fraction,
            report.counts["kept_correct"], report.counts["kept_erroneous"],
            report.counts["kept_same_port"], report.counts["discarded"]]


def _stage2_csv_header(baseline: bool) -> list:
    return STAGE2_CSV_HEADER + (BASELINE_CSV_COLUMNS if baseline else [])


def _stage2_csv_rows(params, rounds, baseline: bool, baseline_yield) -> list:
    """One row per round; the baseline cells are filled in round 1 only."""
    rows = []
    for r in rounds:
        row = [params["F"], params["mode"], params["trials"], params["seed"],
               r.round, r.fidelity, r.round_yield, r.cumulative_yield]
        if baseline:
            ratio = r.round_yield / baseline_yield if baseline_yield else None
            row += [baseline_yield, ratio] if r.round == 1 else [None, None]
        rows.append(row)
    return rows


def _append_csv(path, header, rows) -> None:
    """Append ``rows`` through one open; a new or empty file gets ``header``.

    An existing file must already start with ``header``: appending rows of
    another schema would leave a file no reader can parse.
    """
    with open(path, "a+", newline="") as fh:
        fh.seek(0)
        first = fh.readline()
        if first and next(csv.reader([first])) != header:
            raise CliError(f"{path} holds CSV columns other than this command's; "
                           "write to a new file")
        fh.seek(0, io.SEEK_END)
        writer = csv.writer(fh)
        if not first:
            writer.writerow(header)
        writer.writerows(rows)


def cmd_stage2(args) -> int:
    fidelity = args.F
    if fidelity is None:
        raise CliError("--F is required")
    if not 0.5 < fidelity <= 1.0:
        raise CliError("--F must lie in (1/2, 1]: the map is only purifying there")
    seed = _resolved_seed(args)
    rounds = stage2_iterate(fidelity, args.rounds)
    report = stage2_run(fidelity, mode=args.mode, trials=args.trials, seed=seed)
    params = {
        "F": fidelity, "rounds": args.rounds, "mode": args.mode,
        "trials": args.trials if args.mode == "mc" else None,
        "seed": seed, "baseline": bool(args.baseline),
    }
    doc = _report_doc("stage2", params, report)
    doc["rounds"] = [
        {"round": r.round, "fidelity": r.fidelity, "yield": r.round_yield,
         "cumulative_yield": r.cumulative_yield}
        for r in rounds
    ]
    fid = "n/a" if report.fidelity is None else f"{report.fidelity:.12f}"
    print(f"stage2 [{args.mode}] first-round fidelity={fid} "
          f"yield={report.yield_fraction:.12f}")
    for r in rounds:
        print(f"  round {r.round}: F={r.fidelity:.12f} yield={r.round_yield:.12f} "
              f"cumulative={r.cumulative_yield:.12f}")
    baseline_yield = None
    if args.baseline:
        base = pbs_baseline(fidelity, mode=args.mode, trials=args.trials, seed=seed)
        baseline_yield = base.yield_fraction
        doc["baseline"] = base.to_dict()
        doc["yield_ratio"] = (
            report.yield_fraction / base.yield_fraction
            if base.yield_fraction else None
        )
        base_fid = "n/a" if base.fidelity is None else f"{base.fidelity:.12f}"
        ratio = "n/a" if doc["yield_ratio"] is None else f"{doc['yield_ratio']:.12f}"
        print(f"  pbs baseline: fidelity={base_fid} "
              f"yield={base.yield_fraction:.12f} ratio={ratio}")
    _emit(doc, args.out)
    if args.csv:
        _append_csv(args.csv, _stage2_csv_header(args.baseline),
                    _stage2_csv_rows(params, rounds, args.baseline, baseline_yield))
    return 0


def _parse_grid(text: str) -> list:
    try:
        grid = [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise CliError(f"bad grid {text!r}: {exc}") from None
    if not grid:
        raise CliError(f"grid {text!r} has no values")
    return grid


def cmd_sweep(args) -> int:
    seed = _resolved_seed(args)
    if args.pipeline == "stage1":
        if not (args.p1 and args.p2 and args.f0):
            raise CliError("sweep stage1 needs --p1, --p2 and --f0 grids")
        variant, cfg = _stage1_config(args)
        rows = []
        for p1 in _parse_grid(args.p1):
            for p2 in _parse_grid(args.p2):
                for f0 in _parse_grid(args.f0):
                    report = stage1_run(
                        PdcSourceParams(p1, p2), NoiseParams(f0), variant,
                        mode=args.mode, trials=args.trials, seed=seed, cfg=cfg,
                    )
                    params = {"p1": p1, "p2": p2, "f0": f0,
                              "variant": variant.value, "mode": args.mode,
                              "trials": args.trials if args.mode == "mc" else None,
                              "seed": seed}
                    rows.append(_stage1_csv_row(params, report))
        _append_csv(args.csv, STAGE1_CSV_HEADER, rows)
        print(f"wrote {len(rows)} stage1 rows to {args.csv}")
        return 0
    if args.pipeline == "stage2":
        if not args.F:
            raise CliError("sweep stage2 needs an --F grid")
        rows = []
        for fidelity in _parse_grid(args.F):
            if not 0.5 < fidelity <= 1.0:
                raise CliError(f"--F={fidelity} out of (1/2, 1]")
            params = {"F": fidelity, "mode": args.mode,
                      "trials": args.trials if args.mode == "mc" else None,
                      "seed": seed}
            baseline_yield = None
            if args.baseline:
                baseline_yield = pbs_baseline(
                    fidelity, mode=args.mode, trials=args.trials, seed=seed
                ).yield_fraction
            rows += _stage2_csv_rows(params, stage2_iterate(fidelity, args.rounds),
                                     args.baseline, baseline_yield)
        _append_csv(args.csv, _stage2_csv_header(args.baseline), rows)
        print(f"wrote {len(rows)} stage2 rows to {args.csv}")
        return 0
    raise CliError(f"unknown sweep pipeline {args.pipeline!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrpurify",
        description="Simulate two-stage entanglement purification with cross-Kerr QND detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", help="write the JSON document here")

    vb = sub.add_parser("verify-branches", parents=[common],
                        help="check every detector against its reference transformation")
    vb.add_argument("--only", action="append",
                    help="comma-separated case ids to run (repeatable)")
    vb.add_argument("--theta", help="override theta (units of pi, e.g. 1/4)")
    vb.add_argument("--theta-prime", dest="theta_prime", help="override theta'")
    vb.set_defaults(func=cmd_verify_branches)

    s1 = sub.add_parser("stage1", parents=[common],
                        help="source + detector purification stage")
    s1.add_argument("--p1", type=float)
    s1.add_argument("--p2", type=float)
    s1.add_argument("--f0", type=float)
    s1.add_argument("--variant", choices=["qnd1", "qnd3"], default=None)
    s1.add_argument("--theta", default=None)
    s1.add_argument("--theta-prime", dest="theta_prime", default=None)
    s1.add_argument("--mode", choices=["exact", "mc"], default="exact")
    s1.add_argument("--trials", type=int, default=100_000)
    s1.add_argument("--csv", help="append a CSV row here")
    s1.set_defaults(func=cmd_stage1)

    s2 = sub.add_parser("stage2", parents=[common],
                        help="ideal-source purification stage with iteration")
    s2.add_argument("--F", type=float)
    s2.add_argument("--rounds", type=int, default=1)
    s2.add_argument("--mode", choices=["exact", "mc"], default="exact")
    s2.add_argument("--trials", type=int, default=100_000)
    s2.add_argument("--baseline", action="store_true",
                    help="also run the PBS parity-check baseline")
    s2.add_argument("--csv", help="append CSV rows here")
    s2.set_defaults(func=cmd_stage2)

    sw = sub.add_parser("sweep", parents=[common],
                        help="cartesian parameter grid, CSV output")
    sw.add_argument("pipeline", choices=["stage1", "stage2"])
    sw.add_argument("--csv", required=True)
    sw.add_argument("--p1")
    sw.add_argument("--p2")
    sw.add_argument("--f0")
    sw.add_argument("--F")
    sw.add_argument("--rounds", type=int, default=1)
    sw.add_argument("--variant", choices=["qnd1", "qnd3"], default=None)
    sw.add_argument("--theta", default=None)
    sw.add_argument("--theta-prime", dest="theta_prime", default=None)
    sw.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sw.add_argument("--trials", type=int, default=100_000)
    sw.add_argument("--baseline", action="store_true")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args._config_values = _read_config_file(args.config)
        else:
            args._config_values = {}
        return args.func(args)
    except (CliError, ConfigError, ValueError, OSError) as exc:
        # OSError: a --config, --out or --csv path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
