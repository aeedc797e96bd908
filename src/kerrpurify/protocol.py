"""End-to-end purification pipelines, exact enumeration and Monte Carlo.

Stage 1 (down-conversion source + one- or two-Kerr detector): an
emission event is one pair with relative weight p1/(p1+p2), else two
pairs.  Each pair independently suffers a bit flip with probability
1-f0, passes the detector, and both parties compare homodyne readings.
Single-pair events are always kept (Alice flips her photon when the
readings differ).  Double emissions are kept only when both parties
read theta+theta'; those events yield two pairs.  Double emissions
where both parties read the same doubled shift (2*theta or 2*theta')
carry the verdict ``KEPT_SAME_PORT``: they are tallied separately and
left out of the headline fidelity, which then matches the closed form

    (p1 + p2 f0^2 / 2) / (p1 + p2 [f0^2 + (1-f0)^2] / 2)

exactly.  Metrics under the convention that also counts them appear in
the report extras.  These verdicts name reading classes.  Under qnd3
they are port occupancies too: theta+theta' leaves one photon in each
port of each party, a doubled shift none.  Under qnd1, the default,
theta reads "upper H or lower V" and theta' "upper V or lower H", so
each of the three classes has one photon per port in half its weight.

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
labels a run's records: ``enumerate_exact`` reads the rows by unpacking
and looks each row's counts up in the ``classes`` tags of the config that
``_weighted_rows`` checked, so a run builds no tag; grids and Monte Carlo
read no tag.  A row carries its probability within an event class: a clean
or flipped single pair or a double emission with its two flips (stage 1),
or a Bell-kind pair of the two-pair mixture (stage 2, PBS).  The PIPELINES
registry pairs each table with the function that weights its classes at a
parameter point, so a row weighs its class weight times its own factor.
A row counts in the report bucket of its ``Verdict``: ``COUNT_KEYS``,
the report's count buckets, are the verdicts' values in their order.

``_weighted_rows`` checks each point of a grid of one detector config
and gives its class weights; a single run is a grid of one.  A table
is one tuple of rows (``RowTable``), each fact of a row held once.
``exact_reports`` (the CLI's, ``stage2_run``'s and ``pbs_baseline``'s exact
runs) totals a point with straight-line code compiled once per table
(``_exact_sums``), which adds the rows' weights in table order;
``stage1_run`` adds the records of ``enumerate_exact`` (the tracer of the
benchmark counts ``stage1_records``), the rows less those of zero weight,
in the same order: every mode agrees to the bit.  ``_report`` builds every
report.  Exact runs add their (at most 20) row weights in Python floats,
so only Monte Carlo imports numpy.  A kept row's verdict says whether its
pair ends in phi+ (correct) or psi+ (erroneous), each to an overlap within
1e-12 of 1 checked when its table is built: a report's fidelity is its
correct total over its kept total.

Monte Carlo has one entry point, ``monte_carlo``.  Each trial draws one
row from the row weights, independently, so a run's row counts are one
multinomial draw of its trials at those weights, and a run makes just
that draw: one ``Generator.multinomial`` call on the Philox generator
keyed by the seed, over the rows of nonzero weight.  A run builds no
generator: it rekeys its thread's one Philox to the state a new one keyed
by the seed starts in, so the same seed gives the same report on any
thread and in any process.  A table's first run builds and keeps numpy
arrays of its class indices and factors and a uint64 matrix of its
buckets and kept pairs (``_mc_columns``); a run weighs its rows in one
array, and its five totals are the matrix times its draws of each row,
exact integers even where the kept pairs pass 2**63.  Its time and
memory do not grow with the trial count, which lies in [1, 2**63).
NumPy's NEP 19 keeps the Philox stream fixed across numpy versions, but
not the algorithm of ``multinomial``, so a seed gives the same report
under one numpy version and may give another under the next.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import product as iproduct
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

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
    _check_emission,
    _check_noise,
    _real,
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

_FID_TOL = 1e-12
# the most stage2_iterate rounds: round 1 keeps >= 1/2 for F in (1/2, 1], each later round
# >= 1/4 of the last, so round N keeps >= 2^-(2N-1), a nonzero double while 2N - 1 <= 1074
MAX_ROUNDS = 537


class Verdict(Enum):
    """The class of an outcome row, and the report bucket it is counted in.

    ``KEPT_SAME_PORT``: a stage-1 double emission where both parties read
    the same doubled shift; the headline fidelity and yield leave it out.
    It names a reading class: none of its weight has one photon in each
    port of each party under qnd3, half of it under qnd1 (module docstring).
    """

    __hash__ = object.__hash__  # an Enum equals only itself, so hash it by identity

    KEPT_CORRECT = "kept_correct"
    KEPT_ERRONEOUS = "kept_erroneous"
    KEPT_SAME_PORT = "kept_same_port"
    DISCARDED = "discarded"


COUNT_KEYS = tuple(v.value for v in Verdict)


class OutcomeRecord(NamedTuple):
    """One enumerated leaf of a pipeline: readings, verdict, weight and the
    pairs it keeps (0 unless its verdict is KEPT_CORRECT or KEPT_ERRONEOUS)."""

    probe_alice: PhaseTag | None
    probe_bob: PhaseTag | None
    verdict: Verdict
    weight: float
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
    """Kept-pair fidelity of stage 1 as a closed form.  Where the numerator
    (never above the denominator) is zero or subnormal, p1 and p2 are first
    divided by p1 + p2, so a tiny p1 + p2 neither raises nor costs precision."""
    numer = p1 + 0.5 * p2 * f0**2
    if numer < 2.0**-1022:  # zero or subnormal
        if p1 + p2 == 0.0:
            raise ZeroDivisionError("p1 and p2 cannot both be zero")
        p1, p2 = p1 / (p1 + p2), p2 / (p1 + p2)
        numer = p1 + 0.5 * p2 * f0**2
    return numer / (p1 + 0.5 * p2 * (f0**2 + (1.0 - f0) ** 2))


def stage2_fidelity_map(fidelity: float) -> float:
    """One round of the stage-2 fidelity map."""
    return fidelity**2 / (fidelity**2 + (1.0 - fidelity) ** 2)


def stage2_yield(fidelity: float) -> float:
    """Fraction of two-pair groups kept by one stage-2 round."""
    return fidelity**2 + (1.0 - fidelity) ** 2


def _integer(name: str, value) -> int:
    """``value`` as an int: a plain int as it is, a numpy integer through
    ``operator.index``; a bool, 1.5 or "8" raises a TypeError naming ``name``."""
    if type(value) is int:
        return value
    if type(value) is bool or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} is an integer, not {type(value).__name__}")
    return operator.index(value)


@dataclass(frozen=True)
class RoundRow:
    round: int
    fidelity: float
    round_yield: float
    cumulative_yield: float


def stage2_iterate(fidelity: float, rounds: int) -> list:
    """Iterate the stage-2 map; fidelity increases monotonically toward 1.

    Cumulative yield is per initial two-pair group: the first round's
    own yield, then multiplied by yield/2 for every later round (each
    round consumes pairs two at a time).
    """
    if not 0.5 < _real("F", fidelity) <= 1.0:
        raise ConfigError("iteration requires F in (1/2, 1]")
    rounds = _integer("rounds", rounds)
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must lie in [1, {MAX_ROUNDS}]")
    rows = []
    cumulative = 1.0
    for k in range(1, rounds + 1):
        y = stage2_yield(fidelity)
        fidelity = stage2_fidelity_map(fidelity)
        cumulative = y if k == 1 else cumulative * y / 2.0
        rows.append(RoundRow(k, fidelity, y, cumulative))
    return rows


# ---------------------------------------------------------------------------
# outcome tables: one branch enumeration per detector
# ---------------------------------------------------------------------------

_BUCKET = {verdict: i for i, verdict in enumerate(Verdict)}  # its index in COUNT_KEYS
_VERDICTS = tuple(Verdict)  # a bucket's verdict
_new_record = functools.partial(tuple.__new__, OutcomeRecord)  # _make less its Python frame


class RowTable(tuple):
    """The rows of one pipeline and config, each (class, alice, bob, bucket,
    factor, kept pairs), its bucket its verdict's index in COUNT_KEYS.  No
    other table equals it, and it hashes by identity: a cache of tables reads no row."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _row_table(classes) -> RowTable:
    """Flatten the rows (alice, bob, verdict, factor, kept pairs) of each class, in order."""
    return RowTable((c, alice, bob, _BUCKET[verdict], factor, kept)
                    for c, rows in enumerate(classes) for alice, bob, verdict, factor, kept in rows)


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


def _classify_pair(state: PureState, flip: bool) -> Verdict:
    """The verdict of a projected pair that Alice bit-flips first when ``flip``."""
    if flip:
        state = sigma_x(state, Party.ALICE)
    final = coupler(coupler(state, Party.ALICE), Party.BOB)
    return _verdict(overlap(final, PHI_PLUS_MERGED), overlap(final, PSI_PLUS_MERGED))


_KEEP = (1, 1)  # theta + theta': the one reading of a double emission that is kept


def _order1_row(leaf: Reading) -> tuple:
    """A single emission, always kept: Alice flips when the readings differ."""
    verdict = _classify_pair(leaf.state, leaf.alice != leaf.bob)
    return leaf.alice, leaf.bob, verdict, leaf.probability, 1


def _order2_row(l1: Reading, l2: Reading) -> tuple:
    """Classify a joint double-emission outcome from its two pair leaves."""
    alice = (l1.alice[0] + l2.alice[0], l1.alice[1] + l2.alice[1])
    bob = (l1.bob[0] + l2.bob[0], l1.bob[1] + l2.bob[1])
    weight = l1.probability * l2.probability
    if alice != bob or alice != _KEEP:
        verdict = Verdict.KEPT_SAME_PORT if alice == bob else Verdict.DISCARDED
        return alice, bob, verdict, weight, 0
    verdict, verdict2 = (_classify_pair(l.state, False) for l in (l1, l2))
    if verdict != verdict2:
        raise SimulationError("the two kept pairs disagree on correctness")
    return alice, bob, verdict, weight, 2


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
            verdict = _verdict(overlap(final, PHI_PLUS_UPPER), overlap(final, PSI_PLUS_UPPER))
            rows.append((alice, bob, verdict, weight * pa * pb, 1))
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
                rows.append((alice, bob, Verdict.DISCARDED, p, 0))
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
            rows.append((None, None, Verdict.DISCARDED, 1.0 - p_keep, 0))
        if p_keep > 0.0:
            rows += _kept_pair_rows(PureState.of(keep).normalize(), p_keep, None, None)
        classes.append(rows)
    return _row_table(classes)


# ---------------------------------------------------------------------------
# class weights and extras at one parameter point
# ---------------------------------------------------------------------------

def _stage1_config(variant, cfg) -> QndConfig:
    if variant is None:  # not named: the cfg's detector, else qnd1
        variant = cfg.variant if isinstance(cfg, QndConfig) else Variant.QND1
    if variant not in (Variant.QND1, Variant.QND3):  # "qnd1" too: a Variant names a detector
        raise ConfigError(f"stage 1 runs with the qnd1 or qnd3 detector, not {variant!r}")
    cfg = default_config(variant) if cfg is None else cfg
    if not isinstance(cfg, QndConfig):
        raise ConfigError(f"a stage-1 cfg is a QndConfig, not {type(cfg).__name__}")
    if cfg.variant != variant:
        raise ConfigError("config variant does not match the requested detector")
    return cfg


def _stage1_class_weights(params: dict) -> list:
    """Weights of the classes of ``_stage1_rows``: an emission is one pair
    or two in the ratio p1 : p2, and each pair is flipped with probability
    1 - f0.  The point is checked by the two checks that building a
    ``PdcSourceParams`` and a ``NoiseParams`` runs, with no object built."""
    p1, p2, f0 = params["p1"], params["p2"], params["f0"]
    _check_emission(p1, p2)
    _check_noise(f0)
    total = p1 + p2
    if total <= 0:
        raise ConfigError("p1 + p2 must be positive")
    w1, w2, flip = p1 / total, p2 / total, 1.0 - f0
    return [w1 * f0, w1 * flip, w2 * f0 * f0, w2 * f0 * flip, w2 * flip * f0, w2 * flip * flip]


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


def _two_pair_extras(baseline: bool, params: dict, counts, pairs, events) -> dict:
    return {"closed_form_fidelity": stage2_fidelity_map(params["F"]),
            "closed_form_yield": (0.5 if baseline else 1.0) * stage2_yield(params["F"])}


# ---------------------------------------------------------------------------
# the pipeline registry
# ---------------------------------------------------------------------------

class Pipeline(NamedTuple):
    """How one pipeline finds its outcome rows and weights them at a point."""

    keys: frozenset          # the parameter keys it reads; any other raises
    needs: frozenset         # the keys it must be given; a missing one raises
    config: Callable         # params -> their detector config, checked; None: PBS
    table: Callable          # detector config -> its RowTable; stage 2 and PBS have one
    class_weights: Callable  # params -> the weight of each class of that table
    extras: Callable         # (params, bucket totals, kept pairs, events) -> report extras


PIPELINES = {
    "stage1": Pipeline(frozenset({"p1", "p2", "f0", "variant", "cfg"}),
                       frozenset({"p1", "p2", "f0"}),
                       lambda p: _stage1_config(p.get("variant"), p.get("cfg")),
                       lambda cfg: _stage1_rows(cfg.variant), _stage1_class_weights,
                       _stage1_extras),
    "stage2": Pipeline(frozenset({"F"}), frozenset({"F"}), lambda p: default_config(Variant.QND2),
                       lambda cfg: _stage2_table(), lambda p: two_pair_weights(p["F"]),
                       functools.partial(_two_pair_extras, False)),
    "pbs": Pipeline(frozenset({"F"}), frozenset({"F"}), lambda p: None, lambda cfg: _pbs_table(),
                    lambda p: two_pair_weights(p["F"]), functools.partial(_two_pair_extras, True)),
}


def _weighted_rows(pipeline: str, points: Sequence) -> tuple:
    """(table, class weights at each point, config) of a pipeline over ``points``,
    parameter dicts of one detector config, each checked; a run is a grid of
    one.  A row weighs its class weight times its factor.
    Each point's config is checked, but only one that is not the previous
    point's object joins the set, so a grid of one config hashes it once."""
    try:
        entry = PIPELINES[pipeline]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key, as ["stage1"]
        raise ConfigError(f"unknown pipeline {pipeline!r}") from None
    configs, last, class_weights = set(), object(), []  # ``last``: no point's config
    for p in points:
        try:
            known = p.keys() >= entry.needs and entry.keys.issuperset(p)
        except AttributeError:  # not a mapping: a bare dict walks its keys
            raise ConfigError(f"a point is a parameter dict, not {type(p).__name__}; "
                              "pass an iterable of parameter dicts") from None
        if not known:
            unknown = [k for k in p if k not in entry.keys]
            names = ", ".join(map(repr, unknown or sorted(entry.needs - p.keys())))
            raise ConfigError(f"{'unknown' if unknown else 'missing'} parameter(s) {names} for "
                              f"{pipeline}; it reads: " + ", ".join(sorted(entry.keys)))
        cfg = entry.config(p)
        if cfg is not last:
            configs.add(cfg)
            last = cfg
        class_weights.append(entry.class_weights(p))
    if len(configs) > 1:
        raise ConfigError("the points of one grid must share one detector config")
    return (entry.table(last), class_weights, last) if configs else (None, [], None)


@functools.cache  # one function per table, which the cache keeps alive
def _exact_sums(table: RowTable) -> Callable:
    """The function from a point's class weights to the totals of ``table``
    (COUNT_KEYS, then the kept pairs), compiled on the table's first exact
    run.  It is straight-line code, one expression per total, each adding
    its rows' class weight times factor (times kept pairs) onto 0.0, left to
    right in table order, as a loop over the rows would: a single run's IEEE
    products and sums of its records, to the bit.  A product that rows share
    is computed once, a pairless row's +0.0 and a times 1 are left out, as
    neither changes a bit.  No ``sum()`` or ``math.fsum``: from Python 3.12
    ``sum()`` of floats is compensated and ``fsum`` rounds once, so either
    would change bits."""
    products: dict = {}  # the text of each product -> the local it is computed into

    def term(product: str) -> str:
        return products.setdefault(product, f"t{len(products)}")

    totals = [["0.0"] for _ in range(len(COUNT_KEYS) + 1)]
    for c, _, _, bucket, factor, kept in table:
        weight = term(f"w{c} * {float(factor)!r}")  # a float's repr reads back to its bits
        totals[bucket].append(weight)
        if kept:
            totals[-1].append(weight if kept == 1 else term(f"{weight} * {kept}"))
    classes = ", ".join(f"w{c}" for c in range(1 + max(row[0] for row in table)))
    body = [f"{classes}, = class_weights"]
    body += [f"{name} = {product}" for product, name in products.items()]
    body.append(f"return [{', '.join(' + '.join(terms) for terms in totals)}]")
    namespace: dict = {}
    exec("def sums(class_weights):\n    " + "\n    ".join(body), namespace)
    return namespace["sums"]


def _report(pipeline: str, params: dict, sums: list, trials: int | None = None,
            seed: int | None = None) -> RunReport:
    """The report of a run at ``params`` from its totals (COUNT_KEYS, then the
    kept pairs): the weight sums of an exact run (``trials`` None, one
    event), or the draw counts of a Monte Carlo run."""
    *counts, pairs = sums
    correct, erroneous, same_port, discarded = counts
    kept, mc = correct + erroneous, trials is not None
    events = trials if mc else 1
    fid = correct / kept if kept > 0 else None
    y = kept / events
    return RunReport(  # positional: passing ten keywords per point is measurably slower
        pipeline, "mc" if mc else "exact", fid, y,
        {"kept_correct": correct, "kept_erroneous": erroneous, "kept_same_port": same_port,
         "discarded": discarded}, trials, seed,
        math.sqrt(fid * (1.0 - fid) / kept) if mc and kept >= 2 else None,
        math.sqrt(y * (1.0 - y) / trials) if mc and trials >= 2 else None,
        PIPELINES[pipeline].extras(params, counts, pairs, events))


def _exact(pipeline: str, params: dict, records: list) -> RunReport:
    """Exact report of a pipeline at ``params`` (``stage1_run``'s): its records,
    the table's rows less those of zero weight, added per bucket in table
    order, as ``_exact_sums`` adds the rows.  One pass over the records, as
    turning them into rows first would allocate more than the report itself."""
    sums, pairs = [0.0] * (len(COUNT_KEYS) + 1), 0.0
    for _, _, verdict, weight, kept in records:
        sums[_BUCKET[verdict]] += weight
        pairs += weight * kept
    sums[-1] = pairs
    return _report(pipeline, params, sums)


def exact_reports(pipeline: str, points: Iterable) -> Iterator[RunReport]:
    """The exact report at each of ``points``, any iterable of parameter
    dicts of one detector config, all checked, as a single run checks each,
    before the first report.  Each point sums the table's rows at its weights
    (a stage-2 or PBS single run is a grid of one), and a stage-1 run its
    records, the rows less those of zero weight: the same bits."""
    try:
        walk = iter(points)
    except TypeError:  # not iterable; a caller's generator's own TypeError passes below
        raise ConfigError("points are an iterable of parameter dicts, not "
                          f"{type(points).__name__}") from None
    points = list(walk)  # walked thrice: checked, weighed, reported
    table, class_weights, _ = _weighted_rows(pipeline, points)
    if class_weights:  # an empty grid has no table
        sums = _exact_sums(table)
        for p, weights in zip(points, class_weights):
            yield _report(pipeline, p, sums(weights))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# Only the Monte Carlo functions below import numpy, inside their bodies, so
# exact runs and the CLI's start-up never load it.


_per_thread = threading.local()  # .philox: the calling thread's one Philox generator


def _philox(seed: int):
    """The Philox generator keyed by the seed, its next word the seed's
    first.  The seed is the 64-bit key, an integer in [0, 2**64).

    It is the calling thread's one generator, rekeyed: valid until the same
    thread's next call, so a caller reads it at once.  It is in the state
    of a fresh ``Philox(key=seed)``, whatever was read from it before."""
    import numpy as np
    seed = _integer("seed", seed)  # 1.5 raises, not drawing seed 1's words
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    bg = getattr(_per_thread, "philox", None)
    if bg is None:  # a fixed seed, so the build reads no OS entropy
        bg = _per_thread.philox = np.random.Philox(0)
    bg.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (seed, 0)},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return bg


def trial_uniforms(seed: int, n_trials: int) -> np.ndarray:
    """One uniform in [0, 1) for each trial, from the seed's first word on:
    (word >> 11) * 2**-53."""
    import numpy as np
    bg = _philox(seed)
    n_trials = _integer("n_trials", n_trials)  # None would draw one bare word
    try:
        words = bg.random_raw(n_trials)
    except ValueError as err:  # -1: numpy's "negative dimensions are not allowed"
        raise ValueError(f"n_trials {n_trials!r}: {err}") from None
    return (words >> np.uint64(11)) * (2.0 ** -53)


@functools.cache  # one entry per table, which the cache keeps alive
def _mc_columns(table: RowTable) -> tuple:
    """(class indices, factors, totals matrix): numpy arrays of the rows of
    ``table``, built on its first Monte Carlo run.  Column i of the uint64
    matrix holds 1 in row i's bucket and its kept pairs last, so the matrix
    times a run's draws of each row is its totals: uint64, as the kept pairs
    of 2**63 - 1 trials can pass 2**63."""
    import numpy as np
    cls, _, _, bucket, factor, kept = zip(*table)
    cls, factor = np.array(cls), np.array(factor)
    matrix = np.zeros((len(COUNT_KEYS) + 1, len(cls)), dtype=np.uint64)
    matrix[bucket, np.arange(len(cls))] = 1
    matrix[-1] = kept
    return cls, factor, matrix


def _mc_row_counts(pipeline: str, params: dict, trials: int, seed: int) -> tuple:
    """(table, draws of each row): one multinomial draw of ``trials`` at the
    row weights, from the Philox generator keyed by the seed.  Only rows of
    nonzero weight take part, so numpy's last category, the one that takes
    the remainder, is never a row of zero weight; the others draw 0."""
    import numpy as np
    if not 1 <= trials < 2**63:  # numpy's multinomial takes no more
        raise ValueError(f"trials must lie in [1, 2**63), not {trials}")
    table, (class_weights,), _ = _weighted_rows(pipeline, [params])
    cls, factor, _ = _mc_columns(table)
    w = np.array(class_weights, dtype=float)[cls] * factor  # a row's class weight times factor
    (drawn,) = w.nonzero()
    w = w[drawn]
    row_counts = np.zeros(len(cls), dtype=np.int64)
    row_counts[drawn] = np.random.Generator(_philox(seed)).multinomial(trials, w / w.sum())
    return table, row_counts


def monte_carlo(pipeline: str, params: dict, trials: int, seed: int = 0) -> RunReport:
    """Seeded Monte Carlo run of a named pipeline; same seed, same report
    (under one numpy version, see the module docstring)."""
    trials, seed = _integer("trials", trials), _integer("seed", seed)  # reported as plain ints
    table, row_counts = _mc_row_counts(pipeline, params, trials, seed)
    matrix = _mc_columns(table)[2]
    # the draws are never negative, so their uint64 view holds the same counts
    totals = (matrix @ row_counts.view(matrix.dtype)).tolist()
    return _report(pipeline, params, totals, trials, seed)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def enumerate_exact(pipeline: str, params: dict) -> list:
    """Full outcome enumeration of a named pipeline; weights sum to 1.

    Returns fresh records of the rows of nonzero weight, in table order,
    with their counts read as phases of the point's config: its angles keep
    the six count classes apart, so the rows' verdicts hold for the phases,
    and each record holds the config's own tag of its class (``classes``).
    """
    table, (class_weights,), cfg = _weighted_rows(pipeline, [params])
    tag = cfg.classes if cfg else {None: None}  # PBS rows read no probe
    return [_new_record((tag[a], tag[b], _VERDICTS[bucket], w, kept))
            for c, a, b, bucket, f, kept in table if (w := class_weights[c] * f) != 0.0]


def _stage1_params(src: PdcSourceParams, noise: NoiseParams, variant, cfg) -> dict:
    try:
        return {"p1": src.p1, "p2": src.p2, "f0": noise.f0, "variant": variant, "cfg": cfg}
    except AttributeError:  # caught on the raising path only: any object with the fields runs
        name, kind, value = (("noise", "NoiseParams", noise) if hasattr(src, "p1")
                             and hasattr(src, "p2") else ("src", "PdcSourceParams", src))
        raise ConfigError(f"{name} is a {kind}, not {type(value).__name__}") from None


def stage1_records(src: PdcSourceParams, noise: NoiseParams,
                   variant=None, cfg: QndConfig | None = None) -> list:
    """Exhaustive outcome enumeration of one stage-1 emission event."""
    return enumerate_exact("stage1", _stage1_params(src, noise, variant, cfg))


def stage2_records(fidelity: float) -> list:
    """Exhaustive outcome enumeration of one stage-2 purification round."""
    return enumerate_exact("stage2", {"F": fidelity})


def pbs_records(fidelity: float) -> list:
    """Exhaustive enumeration of the PBS parity-check baseline round."""
    return enumerate_exact("pbs", {"F": fidelity})


def stage1_monte_carlo(src: PdcSourceParams, noise: NoiseParams, variant=None,
                       cfg: QndConfig | None = None, trials: int = 100_000,
                       seed: int = 0) -> RunReport:
    """Seeded Monte Carlo run of stage 1."""
    return monte_carlo("stage1", _stage1_params(src, noise, variant, cfg), trials, seed)


def stage2_monte_carlo(fidelity: float, trials: int = 100_000, seed: int = 0) -> RunReport:
    """Seeded Monte Carlo run of one stage-2 round."""
    return monte_carlo("stage2", {"F": fidelity}, trials, seed)


def stage1_run(src: PdcSourceParams, noise: NoiseParams, variant=None,
               cfg: QndConfig | None = None) -> RunReport:
    """Exact report of one stage-1 emission event."""
    return _exact("stage1", _stage1_params(src, noise, variant, cfg),
                  stage1_records(src, noise, variant, cfg))


def stage2_run(fidelity: float) -> RunReport:
    """Exact report of one stage-2 purification round."""
    return next(exact_reports("stage2", [{"F": fidelity}]))


def pbs_baseline(fidelity: float) -> RunReport:
    """Exact report of one PBS parity-check baseline round."""
    return next(exact_reports("pbs", [{"F": fidelity}]))
