"""Command-line front end.

Commands: verify-branches, stage1, stage2, sweep stage1 and sweep
stage2.  Results go to stdout as a human summary plus, with --out
(stage1 and stage2), a single JSON document; --csv appends CSV rows.
--seed is read by every command but verify-branches, and --trials only
with --mode mc; a command rejects any flag it does not read.  Exit
codes: 0 success, 1 verification failure, 2 usage or configuration
error.

Option precedence: explicit flags > --config file (flat key=value lines,
each key once and with a value, of the CONFIG_KEYS the command has a
flag for; anything else exits 2) > built-in defaults (the detector's
angles from ``qnd.default_config``, theta=1/4 and theta-prime=3/4 in
units of pi, and seed=0).  ``main`` reads the file once and fills each
flag left unset with its value, so a command reads only its flags.
Angles are given in units of pi, e.g. ``--theta 1/4``.

``stage1`` and ``sweep stage1`` run their grid (a command's is one
point) through one helper that runs it and builds its CSV rows;
``stage2`` and ``sweep stage2`` share another.  The parser checks each
flag's own value (given once, a required one given, a grid parsed), the
library what the values mean; its errors exit 2 like the CLI's own.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from itertools import chain, product as iproduct, repeat
from pathlib import Path

from .branches import run_branch_suite
from .fock import ConfigError, PhaseTag, SimulationError
from .protocol import COUNT_KEYS, exact_reports, monte_carlo, stage2_iterate
from .qnd import QndConfig, Variant, default_config

CONFIG_KEYS = ("seed", "theta", "theta_prime", "variant")


class CliError(Exception):
    """Usage-level error: reported and mapped to exit code 2."""


def _read_config_file(path: str, keys: list) -> dict:
    """The key=value lines of ``path``; an unknown or repeated key or an empty value exits 2."""
    values, unknown = {}, []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {raw!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in keys:
            unknown.append(repr(key))
        if not value or name in values:
            raise CliError(f"config key {key!r} is {'repeated' if value else 'empty'} in {path}")
        values[name] = value
    if unknown:
        raise CliError(f"unknown config key(s) {', '.join(unknown)} in {path}; this command "
                       "reads: " + ", ".join(k.replace("_", "-") for k in keys))
    return values


def _detector(args, variant: Variant) -> QndConfig:
    """``variant`` at the given angles, else at its default ones."""
    base = default_config(variant)
    return QndConfig(variant,
                     base.theta if args.theta is None else PhaseTag.parse(args.theta),
                     base.theta_prime if args.theta_prime is None
                     else PhaseTag.parse(args.theta_prime))


def _resolved_sampling(args) -> int:
    """Check --trials, which only --mode mc reads (default 100000); return the seed."""
    if args.mode == "exact" and args.trials is not None:
        raise CliError("--trials is read only with --mode mc")
    if args.mode == "mc":
        try:  # only Monte Carlo draws on numpy: without it, exit 2 before any run
            import numpy  # noqa: F401
        except ImportError as exc:
            raise CliError(f"--mode mc needs numpy, which does not import: {exc}") from None
        if args.trials is None:
            args.trials = 100_000
    seed = 0 if args.seed is None else int(args.seed)
    if not 0 <= seed < 2**64:
        raise CliError(f"--seed={seed} out of range: seeds lie in [0, 2**64)")
    return seed


def _emit(doc: dict, out: str | None, summary: str) -> None:
    """The summary, then the JSON, on stdout; or the JSON to ``out``, then the
    summary, so a write that fails prints nothing."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if not out:
        print(summary, text, sep="\n")
        return
    path = Path(out)
    if path.is_symlink() or path.exists() and not path.is_file():
        path.write_text(text + "\n")  # a link, FIFO or device is written through
    else:
        # a regular file is written beside itself, then renamed over with its
        # old mode: a failed run leaves the old file whole
        tmp = Path(f"{out}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text + "\n")
            if path.exists():
                os.chmod(tmp, path.stat().st_mode & 0o7777)
            os.replace(tmp, path)
        except OSError as exc:  # name the path given, not the temp file
            raise OSError(exc.errno, exc.strerror, out) from None
        finally:
            tmp.unlink(missing_ok=True)
    print(summary)


def _report_doc(command: str, params: dict, report) -> dict:
    return {**report.to_dict(), "command": command, "params": params, "seed": params.get("seed")}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.12f}"


def cmd_verify_branches(args) -> int:
    only = {c for chunk in args.only for c in chunk.split(",") if c} if args.only else None
    if only == set():
        raise CliError("--only names no case id")
    cfg = _detector(args, Variant.QND1)
    results = run_branch_suite(theta=cfg.theta, theta_prime=cfg.theta_prime, only=only)
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


STAGE1_CSV_HEADER = ["p1", "p2", "f0", "variant", "mode", "trials", "seed",
                     "fidelity", "closed_form_fidelity", "yield", *COUNT_KEYS]
STAGE2_CSV_HEADER = ["F", "mode", "trials", "seed", "round",
                     "fidelity", "yield", "cumulative_yield"]
BASELINE_CSV_COLUMNS = ["pbs_yield", "yield_ratio"]


def _reports(pipeline: str, args, seed: int, points: list):
    """The report at each point of a grid; the library checks each point."""
    if args.mode == "exact":
        return exact_reports(pipeline, points)
    return (monte_carlo(pipeline, p, args.trials, seed) for p in points)


def _cells(values) -> list:
    """The CSV cell of each value: None empty, any other value its str."""
    return ["" if v is None else str(v) for v in values]


def _stage1_runs(args, cfg: QndConfig, seed: int, axes):
    """(report, CSV row) of each point of the cartesian grid of ``axes``, the
    p1, p2 and f0 values (a command's grid is one point).  A row's grid and
    constant cells are text, each formatted once per grid and found by its
    place, not its value: 0.0 and -0.0 are one key but two cells.  A row is
    a tuple, which holds no spare slots."""
    params = [{"p1": p1, "p2": p2, "f0": f0, "cfg": cfg} for p1, p2, f0 in iproduct(*axes)]
    cells = _cells([cfg.variant.value, args.mode, args.trials, seed])  # the same at every point
    points = iproduct(*(map(str, axis) for axis in axes))  # grid values: floats, no None
    for point, report in zip(points, _reports("stage1", args, seed, params)):
        # a report's counts are in COUNT_KEYS order
        yield report, (*point, *cells, report.fidelity, report.extras["closed_form_fidelity"],
                       report.yield_fraction, *report.counts.values())


def _stage2_runs(args, seed: int, fidelities: list):
    """(rounds, baseline report or None, CSV rows: one per round, with the
    baseline cells filled in round 1 only) of each point of a stage-2 grid;
    ``stage2_iterate`` checks every point before any baseline runs.  Cells
    and rows are as in ``_stage1_runs``."""
    iterated = [stage2_iterate(fidelity, args.rounds) for fidelity in fidelities]
    bases = (_reports("pbs", args, seed, [{"F": fidelity} for fidelity in fidelities])
             if args.baseline else repeat(None))
    cells = _cells([args.mode, args.trials, seed])  # the same at every point
    for point, rounds, base in zip(map(str, fidelities), iterated, bases):
        rows = []
        for r in rounds:
            row = (point, *cells, r.round, r.fidelity, r.round_yield, r.cumulative_yield)
            if base is not None:
                ratio = r.round_yield / base.yield_fraction if base.yield_fraction else None
                row += (base.yield_fraction, ratio) if r.round == 1 else (None, None)
            rows.append(row)
        yield rounds, base, rows


def _stage2_csv_header(baseline: bool) -> list:
    return STAGE2_CSV_HEADER + (BASELINE_CSV_COLUMNS if baseline else [])


def _append_csv(path, header, rows, before_rows=lambda: None) -> None:
    """Append ``rows`` through one open, one CRLF-ended line of comma-joined
    cells (None empty) at a time: the csv module's default dialect, since no
    cell (a number or a fixed name) needs quotes.  A new or empty file gets
    ``header``; a file of other columns exits 2, as its rows would be unreadable.

    ``before_rows`` runs once the header is checked and before any row is
    written; if it raises, a file this call created is removed again.
    """
    created = not os.path.exists(path)  # a dangling link's target is created too
    with open(path, "a+", newline="") as fh:
        try:
            fh.seek(0)
            first = fh.readline()
            if first and next(csv.reader([first])) != header:
                raise CliError(f"{path} holds CSV columns other than this command's; "
                               "write to a new file")
            before_rows()
        except BaseException:
            if created:
                os.unlink(os.path.realpath(path))
            raise
        fh.seek(0, io.SEEK_END)
        lead = [header]
        if first:  # an empty row ends a last line left open, or the first row would join it
            fh.buffer.seek(-1, io.SEEK_END)
            lead = [] if fh.buffer.read(1) in b"\r\n" else [()]
        fh.writelines(",".join(_cells(row)) + "\r\n" for row in chain(lead, rows))


def _write_run(args, doc: dict, header, rows, summary: str) -> None:
    """The summary and JSON (see ``_emit``), then rows to --csv.  The CSV is
    opened and checked first: --out and --csv naming one file, a --csv path
    that cannot be appended to, or a CSV of other columns, exits 2 before
    any output."""
    paths = (args.out, args.csv)
    if all(paths) and (len(set(map(os.path.realpath, paths))) == 1  # one path, or a link to it
                       or all(map(os.path.exists, paths)) and os.path.samefile(*paths)):
        raise CliError(f"--out {args.out} and --csv {args.csv} name one file; give each its own")
    if args.csv:
        _append_csv(args.csv, header, rows, lambda: _emit(doc, args.out, summary))
    else:
        _emit(doc, args.out, summary)


def cmd_stage1(args) -> int:
    cfg = _detector(args, Variant(args.variant or "qnd1"))
    seed = _resolved_sampling(args)
    [(report, row)] = _stage1_runs(args, cfg, seed, ([args.p1], [args.p2], [args.f0]))
    # the JSON params: the row's point columns, from p1 to seed, as numbers, and the angles
    params = dict(zip(STAGE1_CSV_HEADER, (args.p1, args.p2, args.f0, cfg.variant.value,
                                          args.mode, args.trials, seed)),
                  theta=str(cfg.theta.value), theta_prime=str(cfg.theta_prime.value))
    doc = _report_doc("stage1", params, report)
    doc["closed_form_fidelity"] = report.extras["closed_form_fidelity"]
    summary = (f"stage1 [{args.mode}] fidelity={_fmt(report.fidelity)} "
               f"closed_form={_fmt(doc['closed_form_fidelity'])} "
               f"yield={_fmt(report.yield_fraction)}")
    _write_run(args, doc, STAGE1_CSV_HEADER, [row], summary)
    return 0


def cmd_stage2(args) -> int:
    seed = _resolved_sampling(args)
    [(rounds, base, rows)] = _stage2_runs(args, seed, [args.F])
    [report] = _reports("stage2", args, seed, [{"F": args.F}])
    # the JSON params: the rows' point columns, from F to seed, as numbers, and the options
    params = dict(zip(STAGE2_CSV_HEADER, (args.F, args.mode, args.trials, seed)),
                  rounds=args.rounds, baseline=bool(args.baseline))
    doc = _report_doc("stage2", params, report)
    doc["rounds"] = [{"round": r.round, "fidelity": r.fidelity, "yield": r.round_yield,
                      "cumulative_yield": r.cumulative_yield} for r in rounds]
    summary = [f"stage2 [{args.mode}] first-round fidelity={_fmt(report.fidelity)} "
               f"yield={_fmt(report.yield_fraction)}"]
    summary += [f"  round {r.round}: F={_fmt(r.fidelity)} yield={_fmt(r.round_yield)} "
                f"cumulative={_fmt(r.cumulative_yield)}" for r in rounds]
    if base is not None:
        doc["baseline"] = base.to_dict()
        doc["yield_ratio"] = (report.yield_fraction / base.yield_fraction
                              if base.yield_fraction else None)
        summary.append(f"  pbs baseline: fidelity={_fmt(base.fidelity)} "
                       f"yield={_fmt(base.yield_fraction)} ratio={_fmt(doc['yield_ratio'])}")
    _write_run(args, doc, _stage2_csv_header(args.baseline), rows, "\n".join(summary))
    return 0


def _parse_grid(text: str) -> list:
    try:
        grid = [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    if not grid:
        raise argparse.ArgumentTypeError(f"grid {text!r} has no values")
    return grid


def cmd_sweep(args) -> int:
    """The cartesian grid, its grids parsed by the parser, through the
    command's grid helper; the rows go to the CSV through one open."""
    seed = _resolved_sampling(args)
    if args.pipeline == "stage1":
        cfg = _detector(args, Variant(args.variant or "qnd1"))
        axes = (args.p1, args.p2, args.f0)
        rows = [row for _, row in _stage1_runs(args, cfg, seed, axes)]
        header = STAGE1_CSV_HEADER
    else:
        rows = [row for _, _, rows in _stage2_runs(args, seed, args.F) for row in rows]
        header = _stage2_csv_header(args.baseline)
    _append_csv(args.csv, header, rows)
    print(f"wrote {len(rows)} {args.pipeline} rows to {args.csv}")
    return 0


class _StoreOnce(argparse.Action):
    """``store``, but a second value of one flag, in any spelling, exits 2."""

    def __call__(self, parser, namespace, values, option_string=None):
        # kept on the namespace, not the action: the parser serves every parse
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given twice; give each flag once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """A parser, with its parents and subparsers, whose value flags store once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each command, down to ``sweep stage1`` and ``sweep stage2``, takes
    only the flags it reads and checks each one's own value; a flag that
    several commands share is declared once, in a parent parser.  Built
    once per process: parsing leaves the parser as it was."""
    parser = _Parser(
        prog="kerrpurify",
        description="Simulate two-stage entanglement purification with cross-Kerr QND detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def parent():
        return _Parser(add_help=False)

    config = parent()
    config.add_argument("--config", help="flat key=value config file")
    out = parent()
    out.add_argument("--out", help="write the JSON document here")
    angles = parent()
    angles.add_argument("--theta", help="override theta (units of pi, e.g. 1/4)")
    angles.add_argument("--theta-prime", dest="theta_prime", help="override theta'")
    variant = parent()
    variant.add_argument("--variant", choices=["qnd1", "qnd3"])
    sampling = parent()
    sampling.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sampling.add_argument("--trials", type=int, help="MC trials (--mode mc only; default 100000)")
    sampling.add_argument("--seed", type=int)
    rounds = parent()
    rounds.add_argument("--rounds", type=int, default=1)
    rounds.add_argument("--baseline", action="store_true",
                        help="also run the PBS parity-check baseline")

    vb = sub.add_parser("verify-branches", parents=[config, angles],
                        help="check every detector against its reference transformation")
    vb.add_argument("--only", action="append",
                    help="comma-separated case ids to run (repeatable)")
    vb.set_defaults(func=cmd_verify_branches)

    s1 = sub.add_parser("stage1", parents=[config, out, angles, variant, sampling],
                        help="source + detector purification stage")
    for name in ("--p1", "--p2", "--f0"):
        s1.add_argument(name, type=float, required=True)
    s1.add_argument("--csv", help="append a CSV row here")
    s1.set_defaults(func=cmd_stage1)

    s2 = sub.add_parser("stage2", parents=[config, out, sampling, rounds],
                        help="ideal-source purification stage with iteration")
    s2.add_argument("--F", type=float, required=True)
    s2.add_argument("--csv", help="append CSV rows here")
    s2.set_defaults(func=cmd_stage2)

    sweep = sub.add_parser("sweep", help="cartesian parameter grid, CSV output")
    pipelines = sweep.add_subparsers(dest="pipeline", required=True)
    sw1 = pipelines.add_parser("stage1", parents=[config, angles, variant, sampling],
                               help="grids of --p1, --p2 and --f0")
    for name in ("--p1", "--p2", "--f0"):
        sw1.add_argument(name, required=True, type=_parse_grid)
    sw2 = pipelines.add_parser("stage2", parents=[config, sampling, rounds],
                               help="a grid of --F")
    sw2.add_argument("--F", required=True, type=_parse_grid)
    for leaf in (sw1, sw2):
        leaf.add_argument("--csv", required=True)
        leaf.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            keys = [k for k in CONFIG_KEYS if k in vars(args)]
            for key, value in _read_config_file(args.config, keys).items():
                if getattr(args, key) is None:
                    setattr(args, key, value)
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
