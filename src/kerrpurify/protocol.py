"""End-to-end purification pipelines, exact enumeration and Monte Carlo.

Stage 1 (down-conversion source + one- or two-Kerr detector): an
emission event is one pair with relative weight p1/(p1+p2), else two
pairs.  Each pair independently suffers a bit flip with probability
1-f0, passes the detector, and both parties compare homodyne readings.
Single-pair events are always kept (Alice flips her photon when the
readings differ).  Double emissions are kept only when both parties
read theta+theta', the class whose photons exit one per port; those
events yield two pairs.  Double emissions where both parties read the
same doubled shift (2*theta or 2*theta') leave both pairs bunched at
one port: their rows carry the verdict ``KEPT_SAME_PORT``, are tallied
separately and are excluded from the headline fidelity, which then
matches the closed form

    (p1 + p2 f0^2 / 2) / (p1 + p2 [f0^2 + (1-f0)^2] / 2)

exactly.  Metrics under the convention that also counts the bunched
events appear in the report extras.

Stage 2 (two pairs from an ideal source + the pi parity detector):
keep when both parties read the same shift, flip the upper pair on the
0,0 outcome, measure the lower pair diagonally, phase-correct on
unequal outcomes.  Kept fidelity follows F^2 / (F^2 + (1-F)^2) with
yield F^2 + (1-F)^2.  The PBS baseline runs the same mixture through
polarizing beam splitters and keeps four-port coincidences only, which
halves the yield at identical fidelity.

Outcomes depend on the parameters (p1, p2, f0 or F) only through
their weights, and on the angles only through the phases the probes
read.  Each pipeline therefore enumerates its branch tree once per
process into an immutable table of outcome rows, with probe counts for
readings (see ``fock``): stage 1 once per detector, stage 2 (whose pi
parity detector takes no config) and PBS once each.  A config only
labels a run's records: ``enumerate_exact`` reads their counts as
``PhaseTag``s, and grids and Monte Carlo read no tag.  A row carries its
probability within an event class: a clean or flipped single pair or a
double emission with its two flips (stage 1), or a Bell-kind pair of the
two-pair mixture (stage 2, PBS).  The PIPELINES registry pairs each table with the
function that weights its classes at a parameter point, so a row
weighs its class weight times its own factor.  A row's class is its
one ``Verdict`` field, and ``COUNT_KEYS``, the report's count buckets,
are the verdicts' values in their order.

``_weighted_rows`` checks a grid of points of one detector config and
gives each point's class weights; a single run is a grid of one.  A
table carries the row indices of each verdict and the rows that keep a
pair, so ``_row_sums`` adds each bucket's rows in table order with no
lookup per row: ``exact_reports`` (the CLI's exact runs) sums each
point's row weights with it, and ``monte_carlo`` its draws of each row.
The library's exact-only single-point runs (``stage1_run``,
``stage2_run``, ``pbs_baseline``) add the records of ``enumerate_exact``,
the same rows less those of zero weight, in the same order, so every
mode agrees to the bit, and ``_report`` builds every report.  Exact runs
weight and sum their (at most 20) rows in Python floats, with the IEEE
products and sums a vector library would give; only Monte Carlo, for
the Philox stream and the word counts below, imports numpy.
Every kept row's fidelity is exactly 1.0 (correct) or 0.0 (erroneous),
so a report's fidelity is its correct total over its kept total.
Monte Carlo has one entry point, ``monte_carlo``: it draws one uniform
per trial and inverts the cumulative row weights with it.  Trial t reads
word t of a counter-based stream keyed by the seed, so any partition of
the trial range aggregates to identical counts.  A run cuts its range
into one contiguous span per CPU the process may run on, but at most
MC_SPANS (the widest split benchmarked) and never more spans than
MC_CHUNK blocks, so a small run stays on one thread.  The caller counts
the first span and a thread each other one (the caller too, should no
thread start), every span reading its words from one Philox generator
advanced to the span's start; numpy releases the GIL while it draws and
counts, so the spans run in parallel.  A span draws MC_CHUNK // spans
trials at a time, so at most MC_CHUNK words are in flight whatever the
trial or CPU count, plus one guide-bin histogram per span.

The uniform of word t is u_t = (word_t >> 11) 2**-53, and trial t draws
row i when edge[i-1] <= u_t < edge[i].  Since u_t is a multiple of
2**-53, u_t < e holds exactly when word_t < ceil(e 2**53) << 11, so
each run turns its edges into integer limits once and counts every chunk
straight from the raw words: a histogram of their top GUIDE_BITS bits,
plus exact compares of the few words in the bins a limit cuts.  No float
uniform and no per-trial search is made, and the stream, the counts and
the reports are the ones the float inversion gives.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import product as iproduct
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .elements import coupler, diagonal_outcomes, pbs, sigma_x, sigma_z
from .fock import (
    ConfigError,
    Party,
    PhaseTag,
    PureState,
    SimulationError,
    Spatial,
    ZERO_COUNTS,
    overlap,
    probe_outcomes,
    project_probe,
)
from .qnd import QndConfig, Variant, apply_qnd, default_config
from .sources import (
    TWO_PAIR_KINDS,
    NoiseParams,
    PdcSourceParams,
    bell_pair,
    single_pair_state,
    two_pair_state,
    two_pair_weights,
)

if TYPE_CHECKING:
    import numpy as np

PHI_PLUS_MERGED = bell_pair("phi+", Spatial.MERGED)
PSI_PLUS_MERGED = bell_pair("psi+", Spatial.MERGED)
PHI_PLUS_UPPER = bell_pair("phi+", Spatial.UPPER)
PSI_PLUS_UPPER = bell_pair("psi+", Spatial.UPPER)

_FID_TOL = 1e-9


class Verdict(Enum):
    """The class of an outcome row, and the report bucket it is counted in.

    ``KEPT_SAME_PORT``: a stage-1 double emission where both parties read
    the same doubled shift, so both pairs leave bunched at one port; the
    headline fidelity and yield leave it out.
    """

    KEPT_CORRECT = "kept_correct"
    KEPT_ERRONEOUS = "kept_erroneous"
    KEPT_SAME_PORT = "kept_same_port"
    DISCARDED = "discarded"


COUNT_KEYS = tuple(v.value for v in Verdict)


class OutcomeRecord(NamedTuple):
    """One enumerated leaf of a pipeline: readings, verdict, kept state.

    Only a KEPT_CORRECT or KEPT_ERRONEOUS row carries a fidelity and a state.
    """

    probe_alice: PhaseTag | None
    probe_bob: PhaseTag | None
    verdict: Verdict
    final_state: PureState | None
    weight: float
    fidelity: float | None = None
    order: int | None = None
    kept_pairs: int = 0


@dataclass
class RunReport:
    """Summary statistics of one pipeline run (exact ratios or MC estimates)."""

    pipeline: str
    mode: str
    fidelity: float | None
    yield_fraction: float | None
    counts: dict
    trials: int | None = None
    seed: int | None = None
    fidelity_stderr: float | None = None
    yield_stderr: float | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in order, ``yield_fraction`` under the key "yield"."""
        return {"yield" if k == "yield_fraction" else k: v for k, v in asdict(self).items()}


def stage1_fidelity_closed_form(p1: float, p2: float, f0: float) -> float:
    """Kept-pair fidelity of stage 1 as a closed form."""
    denom = p1 + 0.5 * p2 * (f0**2 + (1.0 - f0) ** 2)
    if denom == 0.0:
        raise ZeroDivisionError("p1 and p2 cannot both be zero")
    return (p1 + 0.5 * p2 * f0**2) / denom


def stage2_fidelity_map(fidelity: float) -> float:
    """One round of the stage-2 fidelity map."""
    return fidelity**2 / (fidelity**2 + (1.0 - fidelity) ** 2)


def stage2_yield(fidelity: float) -> float:
    """Fraction of two-pair groups kept by one stage-2 round."""
    return fidelity**2 + (1.0 - fidelity) ** 2


@dataclass(frozen=True)
class RoundRow:
    round: int
    fidelity: float
    round_yield: float
    cumulative_yield: float


def stage2_iterate(f0: float, rounds: int) -> list:
    """Iterate the stage-2 map; fidelity increases monotonically toward 1.

    Cumulative yield is per initial two-pair group: the first round's
    own yield, then multiplied by yield/2 for every later round (each
    round consumes pairs two at a time).
    """
    if not 0.5 < f0 <= 1.0:
        raise ConfigError("iteration requires fidelity in (1/2, 1]")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rows = []
    fid = f0
    cumulative = 1.0
    for k in range(1, rounds + 1):
        y = stage2_yield(fid)
        fid = stage2_fidelity_map(fid)
        cumulative = y if k == 1 else cumulative * y / 2.0
        rows.append(RoundRow(k, fid, y, cumulative))
    return rows


# ---------------------------------------------------------------------------
# outcome tables: one branch enumeration per detector
# ---------------------------------------------------------------------------

_VERDICTS = tuple(Verdict)  # in COUNT_KEYS order


class RowTable(NamedTuple):
    """The outcome rows of one pipeline and config, with their columns.

    ``rows[i]`` is an ``OutcomeRecord`` whose weight is its probability
    given its event class ``cls[i]``; at a parameter point the row weighs
    that class's weight times ``factor[i]``.  ``by_verdict`` holds the
    indices of each verdict's rows in COUNT_KEYS order, and ``kept`` the
    (index, kept pairs) of each row that keeps a pair.
    """

    rows: tuple
    cls: tuple
    factor: tuple
    by_verdict: tuple
    kept: tuple

    def weights(self, class_weights: Sequence) -> list:
        """The weight of each row at a point whose classes weigh ``class_weights``."""
        return [class_weights[c] * f for c, f in zip(self.cls, self.factor)]


def _row_table(classes) -> RowTable:
    """Flatten the records of each event class, in class order."""
    rows = tuple(r for records in classes for r in records)
    return RowTable(rows, tuple(c for c, records in enumerate(classes) for _ in records),
                    tuple(r.weight for r in rows),
                    tuple(tuple(i for i, r in enumerate(rows) if r.verdict is verdict)
                          for verdict in _VERDICTS),
                    tuple((i, r.kept_pairs) for i, r in enumerate(rows) if r.kept_pairs))


class Reading(NamedTuple):
    """One joint homodyne readout of both parties' probes, as probe counts."""

    probability: float
    alice: tuple
    bob: tuple
    state: PureState  # post-measurement, probes cleared


def _readings(state: PureState) -> Iterator[Reading]:
    """Each joint readout of ``state``, in count order."""
    for alice in probe_outcomes(state, Party.ALICE):
        p_a, post_a = project_probe(state, Party.ALICE, alice)
        for bob in probe_outcomes(post_a, Party.BOB):
            p_b, post = project_probe(post_a, Party.BOB, bob)
            yield Reading(p_a * p_b, alice, bob, post)


def single_pair_leaves(variant: Variant, flipped: bool) -> tuple:
    """The joint readouts of one emitted pair through the detector ``variant``."""
    return tuple(_readings(apply_qnd(single_pair_state(flipped), variant)))


def _verdict(fid_phi: float, fid_psi: float) -> Verdict:
    if fid_phi > 1.0 - _FID_TOL:
        return Verdict.KEPT_CORRECT
    if fid_psi > 1.0 - _FID_TOL:
        return Verdict.KEPT_ERRONEOUS
    raise SimulationError(
        f"kept pair is neither phi+ nor psi+ (overlaps {fid_phi:.3g}, {fid_psi:.3g})"
    )


def _classify_pair(state: PureState, flip: bool) -> tuple:
    """(coupled state, phi+ fidelity, verdict) of a projected pair that Alice
    bit-flips first when ``flip``."""
    if flip:
        state = sigma_x(state, Party.ALICE)
    final = coupler(coupler(state, Party.ALICE), Party.BOB)
    fid = overlap(final, PHI_PLUS_MERGED)
    return final, fid, _verdict(fid, overlap(final, PSI_PLUS_MERGED))


# The rows below hold probe counts where a record holds tags.
_KEEP = (1, 1)  # theta + theta': the double emissions that leave one photon per port


def _order1_row(leaf: Reading) -> OutcomeRecord:
    """A single emission, always kept: Alice flips when the readings differ."""
    final, fid, verdict = _classify_pair(leaf.state, leaf.alice != leaf.bob)
    return OutcomeRecord(leaf.alice, leaf.bob, verdict, final, leaf.probability,
                         fid, order=1, kept_pairs=1)


def _order2_row(l1: Reading, l2: Reading) -> OutcomeRecord:
    """Classify a joint double-emission outcome from its two pair leaves."""
    alice = (l1.alice[0] + l2.alice[0], l1.alice[1] + l2.alice[1])
    bob = (l1.bob[0] + l2.bob[0], l1.bob[1] + l2.bob[1])
    weight = l1.probability * l2.probability
    if alice != bob or alice != _KEEP:
        verdict = Verdict.KEPT_SAME_PORT if alice == bob else Verdict.DISCARDED
        return OutcomeRecord(alice, bob, verdict, None, weight, order=2)
    (final, fid, verdict), (_, _, verdict2) = (_classify_pair(l.state, False) for l in (l1, l2))
    if verdict != verdict2:
        raise SimulationError("the two kept pairs disagree on correctness")
    return OutcomeRecord(alice, bob, verdict, final, weight, fid, order=2, kept_pairs=2)


@functools.cache  # two detectors, enumerated once each
def _stage1_rows(variant: Variant) -> RowTable:
    """The stage-1 rows of a detector, read in probe counts, by class: a
    clean and a flipped single pair, then the double emissions (flip1,
    flip2) in product order."""
    leaves = [single_pair_leaves(variant, flipped) for flipped in (False, True)]
    return _row_table([[_order1_row(leaf) for leaf in pair] for pair in leaves]
                      + [[_order2_row(l1, l2) for l1, l2 in iproduct(pair1, pair2)]
                         for pair1, pair2 in iproduct(leaves, leaves)])


def _kept_pair_rows(state: PureState, weight: float, alice, bob) -> list:
    """Diagonal-measure the lower pair, phase-correct, classify the upper pair."""
    rows = []
    for oa, (pa, s1) in diagonal_outcomes(state, Party.ALICE, Spatial.LOWER).items():
        for ob, (pb, s2) in diagonal_outcomes(s1, Party.BOB, Spatial.LOWER).items():
            final = sigma_z(s2, Party.ALICE, {Spatial.UPPER}) if oa != ob else s2
            fid = overlap(final, PHI_PLUS_UPPER)
            verdict = _verdict(fid, overlap(final, PSI_PLUS_UPPER))
            rows.append(OutcomeRecord(alice, bob, verdict, final, weight * pa * pb, fid,
                                      kept_pairs=1))
    return rows


@functools.lru_cache(maxsize=1)
def _stage2_table() -> RowTable:
    """Stage-2 rows of the pi parity detector, in probe counts; the classes
    are ``TWO_PAIR_KINDS``."""
    classes = []
    for kinds in TWO_PAIR_KINDS:
        rows = []
        for p, alice, bob, post in _readings(apply_qnd(two_pair_state(*kinds), Variant.QND2)):
            if alice != bob:
                rows.append(OutcomeRecord(alice, bob, Verdict.DISCARDED, None, p))
                continue
            if alice == ZERO_COUNTS:
                post = sigma_x(post, Party.ALICE, {Spatial.UPPER})
                post = sigma_x(post, Party.BOB, {Spatial.UPPER})
            rows += _kept_pair_rows(post, p, alice, bob)
        classes.append(rows)
    return _row_table(classes)


@functools.lru_cache(maxsize=1)
def _pbs_table() -> RowTable:
    """PBS-baseline rows; the classes are ``TWO_PAIR_KINDS``.  A round keeps
    the branches with one photon in each of the four ports."""
    classes = []
    for kinds in TWO_PAIR_KINDS:
        st = pbs(pbs(two_pair_state(*kinds), Party.ALICE), Party.BOB)
        keep = [b for b in st.branches if b.one_photon_per_port()]
        p_keep = sum(abs(b.amplitude) ** 2 for b in keep)
        rows = []
        if p_keep < 1.0 - 1e-15:
            rows.append(OutcomeRecord(None, None, Verdict.DISCARDED, None, 1.0 - p_keep))
        if p_keep > 0.0:
            rows += _kept_pair_rows(PureState.of(keep).normalize(), p_keep, None, None)
        classes.append(rows)
    return _row_table(classes)


# ---------------------------------------------------------------------------
# class weights and extras at one parameter point
# ---------------------------------------------------------------------------

def _stage1_config(variant, cfg) -> QndConfig:
    if isinstance(variant, str):
        variant = Variant(variant)
    if variant not in (Variant.QND1, Variant.QND3):
        raise ConfigError("stage 1 runs with the qnd1 or qnd3 detector")
    cfg = cfg or default_config(variant)
    if cfg.variant != variant:
        raise ConfigError("config variant does not match the requested detector")
    return cfg


def _stage1_class_weights(params: dict) -> list:
    """Weights of the classes of ``_stage1_rows``: an emission is one pair
    or two in the ratio p1 : p2, and each pair is flipped with probability
    1 - f0.  Building the parameter objects checks them."""
    src = PdcSourceParams(params["p1"], params["p2"])
    f0 = NoiseParams(params["f0"]).f0
    total = src.p1 + src.p2
    if total <= 0:
        raise ConfigError("p1 + p2 must be positive")
    w1, w2 = src.p1 / total, src.p2 / total
    noise = (f0, 1.0 - f0)
    return [w1 * wn for wn in noise] + [w2 * wn1 * wn2 for wn1, wn2 in iproduct(noise, noise)]


def _stage1_extras(params: dict, counts: list, pairs, events) -> dict:
    """Extras from the bucket totals and the kept pairs over ``events``
    emission events."""
    correct, erroneous, same_port, _ = counts
    incl = correct + erroneous + same_port
    return {
        "closed_form_fidelity": stage1_fidelity_closed_form(params["p1"], params["p2"],
                                                            params["f0"]),
        "kept_pairs_per_event": pairs / events,
        "fidelity_including_same_port": (correct + same_port) / incl if incl > 0 else None,
        "yield_including_same_port": incl / events,
        "kept_pairs_per_event_including_same_port": (pairs + same_port) / events,
    }


def _two_pair_class_weights(params: dict) -> list:
    """Weights of the ``TWO_PAIR_KINDS`` classes of the stage-2 and PBS tables."""
    return two_pair_weights(params["F"])


def _two_pair_extras(baseline: bool, params: dict, counts, pairs, events) -> dict:
    fidelity = params["F"]
    return {"closed_form_fidelity": stage2_fidelity_map(fidelity),
            "closed_form_yield": (0.5 if baseline else 1.0) * stage2_yield(fidelity)}


# ---------------------------------------------------------------------------
# the pipeline registry
# ---------------------------------------------------------------------------

class Pipeline(NamedTuple):
    """How one pipeline finds its outcome rows and weights them at a point."""

    keys: frozenset          # the parameter keys it reads; any other raises
    config: Callable         # params -> their detector config, checked; None: PBS
    table: Callable          # detector config -> its RowTable; stage 2 and PBS have one
    class_weights: Callable  # params -> the weight of each class of that table
    extras: Callable         # (params, bucket totals, kept pairs, events) -> report extras


PIPELINES = {
    "stage1": Pipeline(frozenset({"p1", "p2", "f0", "variant", "cfg"}),
                       lambda p: _stage1_config(p.get("variant", Variant.QND1), p.get("cfg")),
                       lambda cfg: _stage1_rows(cfg.variant), _stage1_class_weights,
                       _stage1_extras),
    "stage2": Pipeline(frozenset({"F"}), lambda p: default_config(Variant.QND2),
                       lambda cfg: _stage2_table(),
                       _two_pair_class_weights, functools.partial(_two_pair_extras, False)),
    "pbs": Pipeline(frozenset({"F"}), lambda p: None, lambda cfg: _pbs_table(),
                    _two_pair_class_weights, functools.partial(_two_pair_extras, True)),
}


def _weighted_rows(pipeline: str, points: Sequence) -> tuple:
    """(table, class weights at each point) of a pipeline over ``points``,
    parameter dicts of one detector config, each checked; a run is a grid of
    one.  A row weighs its class weight times its factor (``RowTable.weights``)."""
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    entry = PIPELINES[pipeline]
    for p in points:
        if not entry.keys.issuperset(p):
            unknown = ", ".join(repr(k) for k in p if k not in entry.keys)
            raise ConfigError(f"unknown parameter(s) {unknown} for {pipeline}; it reads: "
                              + ", ".join(sorted(entry.keys)))
    if not points:
        return None, []
    configs = {entry.config(p) for p in points}
    if len(configs) > 1:
        raise ConfigError("the points of one grid must share one detector config")
    return entry.table(*configs), list(map(entry.class_weights, points))


def _row_sums(table: RowTable, values: Sequence, zero) -> list:
    """The bucket totals in COUNT_KEYS order and the kept-pair sum of the rows
    of ``table`` valued ``values``, one per row: each verdict's values added in
    row order onto ``zero``, 0.0 for the weights of an exact run, so a grid
    point and a single run agree to the bit, or 0 for the integer draw counts
    of a Monte Carlo run.  A row that keeps no pair adds nothing to the
    pair sum (every value is >= 0, so skipping it changes no bit)."""
    sums = []
    for rows in table.by_verdict:
        total = zero
        for i in rows:
            total += values[i]
        sums.append(total)
    pairs = zero
    for i, kept in table.kept:
        pairs += values[i] * kept
    sums.append(pairs)
    return sums


def _report(pipeline: str, params: dict, sums: list, trials: int | None = None,
            seed: int | None = None) -> RunReport:
    """The report of a run at ``params`` from its totals in ``_row_sums`` order:
    the weight sums of an exact run (``trials`` None, one event), or the
    draw counts of a Monte Carlo run."""
    *counts, pairs = sums
    kept, mc = counts[0] + counts[1], trials is not None
    events = trials if mc else 1
    fid = counts[0] / kept if kept > 0 else None
    y = kept / events
    return RunReport(
        pipeline=pipeline, mode="mc" if mc else "exact", fidelity=fid, yield_fraction=y,
        counts=dict(zip(COUNT_KEYS, counts)), trials=trials, seed=seed,
        fidelity_stderr=math.sqrt(fid * (1.0 - fid) / kept) if mc and kept >= 2 else None,
        yield_stderr=math.sqrt(y * (1.0 - y) / trials) if mc and trials >= 2 else None,
        extras=PIPELINES[pipeline].extras(params, counts, pairs, events),
    )


def _exact(pipeline: str, params: dict, records: list) -> RunReport:
    """Exact report of a pipeline at ``params``: its records, the table's rows
    less those of zero weight, added per bucket in ``_row_sums`` order.  One
    pass over the records, as building their index columns would allocate
    more than the report itself."""
    sums = [0.0] * (len(COUNT_KEYS) + 1)
    for r in records:
        sums[_VERDICTS.index(r.verdict)] += r.weight  # identity compares, no hash
        sums[-1] += r.weight * r.kept_pairs
    return _report(pipeline, params, sums)


def exact_reports(pipeline: str, points: Sequence) -> Iterator[RunReport]:
    """The exact report at each of ``points``, parameter dicts of one detector
    config, all checked, as a single run checks each, before the first
    report.  Each point sums the table's rows at its weights, and a single
    run its records, the same rows less those of zero weight, so each
    report is the single run's to the bit."""
    table, class_weights = _weighted_rows(pipeline, points)
    for p, weights in zip(points, class_weights):
        yield _report(pipeline, p, _row_sums(table, table.weights(weights), 0.0))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# Only the Monte Carlo functions below import numpy, inside their bodies, so
# exact runs and the CLI's start-up never load it.
MC_CHUNK = 1 << 16  # trials drawn at once: bounds MC memory whatever the trial count
MC_SPANS = 2  # most spans counted at once: the widest split benchmarked (BENCH_22.json)
GUIDE_BITS = 12  # a chunk's words are binned on their top bits before the exact compares
_ABOVE_ALL = 1 << GUIDE_BITS  # the guide bin of the limit 2**64, above every word


def _philox(seed: int, start: int):
    """The Philox generator keyed by the seed, its next word that of trial
    ``start``.  The seed is the 64-bit key, an integer in [0, 2**64)."""
    import numpy as np
    seed = operator.index(seed)  # 1.5 raises, not drawing seed 1's words
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(start // 4)  # one counter step yields four words
    bg.random_raw(start % 4)  # drop the step's words before the start
    return bg


def _trial_words(seed: int, n_trials: int, start: int = 0) -> np.ndarray:
    """The raw 64-bit word of each trial of [start, start + n_trials).

    Counter-based: trial t always reads word t of the Philox stream keyed
    by the seed, so any partition of the trial range reproduces the same
    per-trial words.
    """
    return _philox(seed, start).random_raw(n_trials)


def trial_uniforms(seed: int, n_trials: int, start: int = 0) -> np.ndarray:
    """One uniform in [0, 1) for each trial: (word >> 11) * 2**-53."""
    import numpy as np
    return (_trial_words(seed, n_trials, start) >> np.uint64(11)) * (2.0 ** -53)


def _word_limits(edges: np.ndarray) -> tuple:
    """(guide bin, limit) of each edge, and the mask of the guide bins the
    limits cut: u_t < edge exactly when word_t < limit.

    A uniform is a multiple of 2**-53, so u_t >= e is word_t >= ceil(e 2**53)
    << 11.  An edge of 1.0 or above maps to 2**64, beyond uint64: its guide
    bin is the sentinel _ABOVE_ALL, which every word lies below.
    """
    import numpy as np
    scaled = np.ceil(edges * 2.0**53)
    above_all = scaled >= 2.0**53
    limits = np.where(above_all, 0.0, scaled).astype(np.uint64) << np.uint64(11)
    bins = np.where(above_all, _ABOVE_ALL,
                    (limits >> np.uint64(64 - GUIDE_BITS)).astype(np.int64))
    cut = np.zeros(_ABOVE_ALL + 1, dtype=bool)
    cut[bins] = True
    return bins, limits, cut


def _words_below(words: np.ndarray, bins: np.ndarray, limits: np.ndarray,
                 cut: np.ndarray) -> np.ndarray:
    """How many of ``words`` lie below each limit of ``_word_limits``.

    A histogram of the words' top GUIDE_BITS bits counts, for each limit,
    the words in the bins below the limit's bin; only the words in the bins
    that a limit cuts are compared with the limits exactly.  The histogram
    is the one array of fixed size a call makes.
    """
    import numpy as np
    top = (words >> np.uint64(64 - GUIDE_BITS)).view(np.int64)
    upto = np.bincount(top, minlength=_ABOVE_ALL + 1)
    in_bin = upto[bins]
    upto.cumsum(out=upto)  # upto[b]: words in bins 0 .. b
    near = cut[top]
    near_top, near_words = top[near], words[near]
    in_bin_below = (near_top == bins[:, None]) & (near_words < limits[:, None])
    return upto[bins] - in_bin + in_bin_below.sum(axis=1)


def _chunks(trials: int, spans: int = 1):
    """Sizes of the slices covering [0, trials) that one of ``spans``
    concurrent spans draws at a time, MC_CHUNK // spans trials each, yielded
    lazily so that a huge trial count costs no memory up front."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    step = max(1, MC_CHUNK // spans)
    return (min(step, trials - start) for start in range(0, trials, step))


def _workers() -> int:
    """Spans a run counts at once: the CPUs this process may run on, at
    most MC_SPANS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(MC_SPANS, cpus)


def _mc_row_counts(pipeline: str, params: dict, trials: int, seed: int,
                   start: int = 0) -> tuple:
    """(table, draws of each row) over trials [start, start + trials).

    Each trial draws the row its uniform selects from the cumulative row
    weights, counted on the raw words against the edges' integer limits,
    span by span (see the module docstring).  A span that raises stops the
    others, and its error is raised once every thread has ended.
    """
    import numpy as np
    spans = max(1, min(_workers(), -(-trials // MC_CHUNK)))
    cuts = [start + trials * k // spans for k in range(spans + 1)]
    sizes = [_chunks(end - begin, spans) for begin, end in zip(cuts, cuts[1:])]
    table, (class_weights,) = _weighted_rows(pipeline, [params])
    w = np.array(table.weights(class_weights))
    drawn = np.flatnonzero(w)  # a zero-weight row is never drawn
    edges = np.cumsum(w[drawn])
    edges[-1] = 1.0  # round-off must leave no uniform above the top edge
    limits = _word_limits(edges)
    streams = [_philox(seed, cut) for cut in cuts[:-1]]  # checks the seed before any thread
    below = np.zeros((spans, len(drawn)), dtype=np.int64)
    errors = []

    def count(k: int) -> None:
        try:
            for size in sizes[k]:
                if errors:  # another span failed, and its error is raised
                    return
                below[k] += _words_below(streams[k].random_raw(size), *limits)
        except BaseException as exc:  # raised by the caller once all spans stop
            errors.append(exc)

    mine, started = [0], []  # the caller counts span 0 and any span no thread took
    try:
        for k in range(1, spans):
            thread = threading.Thread(target=count, args=(k,))
            try:
                thread.start()
            except RuntimeError:  # no new thread to be had
                mine.append(k)
            else:
                started.append(thread)
        for k in mine:
            count(k)
        for thread in started:
            thread.join()
    except BaseException as exc:  # interrupted while starting or joining
        errors.append(exc)  # stops the spans still counting
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    row_counts = np.zeros(len(w), dtype=np.int64)
    # row i: words in [limit[i-1], limit[i])
    row_counts[drawn] = np.diff(below.sum(axis=0), prepend=0)
    return table, row_counts


def monte_carlo(pipeline: str, params: dict, trials: int, seed: int = 0) -> RunReport:
    """Seeded Monte Carlo run of a named pipeline; same seed, same report."""
    # 1.5 raises; a numpy integer is reported as a plain int
    trials, seed = operator.index(trials), operator.index(seed)
    table, row_counts = _mc_row_counts(pipeline, params, trials, seed)
    return _report(pipeline, params, _row_sums(table, row_counts.tolist(), 0), trials, seed)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def enumerate_exact(pipeline: str, params: dict) -> list:
    """Full outcome enumeration of a named pipeline; weights sum to 1.

    Returns fresh records of the rows of nonzero weight, in table order,
    with their counts read as phases of the point's config: its angles keep
    the six count classes apart, so the rows' verdicts hold for the phases.
    """
    table, (class_weights,) = _weighted_rows(pipeline, [params])
    cfg = PIPELINES[pipeline].config(params)
    tag = functools.cache(cfg.phase) if cfg else lambda counts: None  # PBS reads no probe
    return [OutcomeRecord(tag(row.probe_alice), tag(row.probe_bob), *row[2:4], wi, *row[5:])
            for row, wi in zip(table.rows, table.weights(class_weights)) if wi != 0.0]


def _stage1_params(src: PdcSourceParams, noise: NoiseParams, variant, cfg) -> dict:
    return {"p1": src.p1, "p2": src.p2, "f0": noise.f0, "variant": variant, "cfg": cfg}


def stage1_records(src: PdcSourceParams, noise: NoiseParams,
                   variant=Variant.QND1, cfg: QndConfig | None = None) -> list:
    """Exhaustive outcome enumeration of one stage-1 emission event."""
    return enumerate_exact("stage1", _stage1_params(src, noise, variant, cfg))


def stage2_records(fidelity: float) -> list:
    """Exhaustive outcome enumeration of one stage-2 purification round."""
    return enumerate_exact("stage2", {"F": fidelity})


def pbs_records(fidelity: float) -> list:
    """Exhaustive enumeration of the PBS parity-check baseline round."""
    return enumerate_exact("pbs", {"F": fidelity})


def stage1_monte_carlo(src: PdcSourceParams, noise: NoiseParams, variant=Variant.QND1,
                       cfg: QndConfig | None = None, trials: int = 100_000,
                       seed: int = 0) -> RunReport:
    """Seeded Monte Carlo run of stage 1."""
    return monte_carlo("stage1", _stage1_params(src, noise, variant, cfg), trials, seed)


def stage2_monte_carlo(fidelity: float, trials: int = 100_000, seed: int = 0) -> RunReport:
    """Seeded Monte Carlo run of one stage-2 round."""
    return monte_carlo("stage2", {"F": fidelity}, trials, seed)


def stage1_run(src: PdcSourceParams, noise: NoiseParams, variant=Variant.QND1,
               cfg: QndConfig | None = None) -> RunReport:
    """Exact report of one stage-1 emission event."""
    return _exact("stage1", _stage1_params(src, noise, variant, cfg),
                  stage1_records(src, noise, variant, cfg))


def stage2_run(fidelity: float) -> RunReport:
    """Exact report of one stage-2 purification round."""
    return _exact("stage2", {"F": fidelity}, stage2_records(fidelity))


def pbs_baseline(fidelity: float) -> RunReport:
    """Exact report of one PBS parity-check baseline round."""
    return _exact("pbs", {"F": fidelity}, pbs_records(fidelity))
