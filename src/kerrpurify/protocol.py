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
one port: they are tallied separately (``kept_same_port``) and excluded
from the headline fidelity, which then matches the closed form

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
their weights.  Each pipeline therefore enumerates its branch tree once
per detector config into an immutable outcome table (an LRU cache of
TABLE_CACHE_SIZE configs; one table for PBS).  Exact runs and sweeps
weight the table's rows at each parameter point, and Monte Carlo takes
its lookup tables and keep probabilities from it.

Monte Carlo trials draw their randomness from a counter-based
generator keyed by (seed, trial index): trial t always consumes the
same words no matter how trials are batched, so parallel and serial
runs aggregate to identical counts.  Runs draw MC_CHUNK trials at a
time, so their memory does not grow with the trial count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import product as iproduct
from typing import NamedTuple

import numpy as np

from .elements import coupler, diagonal_outcomes, pbs, sigma_x, sigma_z
from .fock import (
    ConfigError,
    Party,
    PhaseTag,
    PureState,
    SimulationError,
    Spatial,
    ZERO_PHASE,
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

PHI_PLUS_MERGED = bell_pair("phi+", Spatial.MERGED)
PSI_PLUS_MERGED = bell_pair("psi+", Spatial.MERGED)
PHI_PLUS_UPPER = bell_pair("phi+", Spatial.UPPER)
PSI_PLUS_UPPER = bell_pair("psi+", Spatial.UPPER)

_FID_TOL = 1e-9


class Verdict(Enum):
    KEPT_CORRECT = "kept_correct"
    KEPT_ERRONEOUS = "kept_erroneous"
    DISCARDED = "discarded"


COUNT_KEYS = ("kept_correct", "kept_erroneous", "kept_same_port", "discarded")


@dataclass(frozen=True)
class OutcomeRecord:
    """One enumerated leaf of a pipeline: readings, verdict, kept state."""

    probe_alice: PhaseTag | None
    probe_bob: PhaseTag | None
    verdict: Verdict
    final_state: PureState | None
    weight: float
    fidelity: float | None = None
    order: int | None = None
    kept_pairs: int = 0
    same_port_keep: bool = False

    def bucket(self) -> str:
        if self.same_port_keep:
            return "kept_same_port"
        return self.verdict.value


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
        return {
            "pipeline": self.pipeline,
            "mode": self.mode,
            "fidelity": self.fidelity,
            "yield": self.yield_fraction,
            "counts": dict(self.counts),
            "trials": self.trials,
            "seed": self.seed,
            "fidelity_stderr": self.fidelity_stderr,
            "yield_stderr": self.yield_stderr,
            "extras": dict(self.extras),
        }


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
# outcome tables: one branch enumeration per detector config
# ---------------------------------------------------------------------------

TABLE_CACHE_SIZE = 64


class TableRow(NamedTuple):
    """An ``OutcomeRecord`` without its weight.  ``record(w)`` weighs it by
    its event class weight ``w`` times ``factors``, multiplied left to right
    in the order a full enumeration multiplies them in."""

    factors: tuple
    probe_alice: PhaseTag | None
    probe_bob: PhaseTag | None
    verdict: Verdict
    final_state: PureState | None = None
    fidelity: float | None = None
    order: int | None = None
    kept_pairs: int = 0
    same_port_keep: bool = False

    bucket = OutcomeRecord.bucket

    def record(self, weight: float) -> OutcomeRecord:
        for f in self.factors:
            weight *= f
        return OutcomeRecord(self.probe_alice, self.probe_bob, self.verdict,
                             self.final_state, weight, self.fidelity, self.order,
                             self.kept_pairs, self.same_port_keep)


@dataclass(frozen=True)
class PairLeaf:
    """One homodyne outcome of a single pair run through the detector."""

    probability: float
    tag_alice: PhaseTag
    tag_bob: PhaseTag
    flipped: bool
    state: PureState  # post-measurement, probes cleared


def single_pair_leaves(variant: Variant, cfg: QndConfig, flipped: bool) -> tuple:
    state = apply_qnd(single_pair_state(flipped), cfg)
    leaves = []
    for tag_a in probe_outcomes(state, Party.ALICE):
        p_a, post_a = project_probe(state, Party.ALICE, tag_a)
        for tag_b in probe_outcomes(post_a, Party.BOB):
            p_b, post = project_probe(post_a, Party.BOB, tag_b)
            leaves.append(PairLeaf(p_a * p_b, tag_a, tag_b, flipped, post))
    leaves.sort(key=lambda l: (l.tag_alice.frac, l.tag_bob.frac))
    return tuple(leaves)


def _couple_pair(state: PureState) -> PureState:
    return coupler(coupler(state, Party.ALICE), Party.BOB)


def _verdict(fid_phi: float, fid_psi: float) -> Verdict:
    if fid_phi > 1.0 - _FID_TOL:
        return Verdict.KEPT_CORRECT
    if fid_psi > 1.0 - _FID_TOL:
        return Verdict.KEPT_ERRONEOUS
    raise SimulationError(
        f"kept pair is neither phi+ nor psi+ (overlaps {fid_phi:.3g}, {fid_psi:.3g})"
    )


def _order1_row(leaf: PairLeaf) -> TableRow:
    """A single emission, always kept: Alice flips when the readings differ."""
    st = leaf.state
    if leaf.tag_alice != leaf.tag_bob:
        st = sigma_x(st, Party.ALICE)
    final = _couple_pair(st)
    fid = overlap(final, PHI_PLUS_MERGED)
    verdict = _verdict(fid, overlap(final, PSI_PLUS_MERGED))
    return TableRow((leaf.probability,), leaf.tag_alice, leaf.tag_bob, verdict,
                    final, fid, order=1, kept_pairs=1)


def _order2_row(l1: PairLeaf, l2: PairLeaf, keep_tag: PhaseTag) -> TableRow:
    """Classify a joint double-emission outcome from its two pair leaves.

    Only events kept under the headline rule carry a fidelity and a state.
    """
    tag_a = l1.tag_alice + l2.tag_alice
    tag_b = l1.tag_bob + l2.tag_bob
    factors = (l1.probability, l2.probability)
    if tag_a != tag_b or tag_a != keep_tag:
        return TableRow(factors, tag_a, tag_b, Verdict.DISCARDED, order=2,
                        same_port_keep=tag_a == tag_b)
    finals = [_couple_pair(l.state) for l in (l1, l2)]
    fids = [overlap(f, PHI_PLUS_MERGED) for f in finals]
    verdicts = [_verdict(f, overlap(final, PSI_PLUS_MERGED))
                for f, final in zip(fids, finals)]
    if verdicts[0] != verdicts[1]:
        raise SimulationError("the two kept pairs disagree on correctness")
    return TableRow(factors, tag_a, tag_b, verdicts[0], finals[0], fids[0],
                    order=2, kept_pairs=2)


class Stage1Table(NamedTuple):
    singles: tuple  # [flipped]: the order-1 rows of a clean or flipped pair
    doubles: tuple  # [2*flip1 + flip2]: order-2 rows of every leaf pair, in product order


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _stage1_table(cfg: QndConfig) -> Stage1Table:
    """The stage-1 outcomes of a valid detector config, for any source and
    noise.  Validating here checks a config once, when its table is built."""
    cfg.validate()
    leaves = [single_pair_leaves(cfg.variant, cfg, flipped) for flipped in (False, True)]
    keep_tag = cfg.theta + cfg.theta_prime
    return Stage1Table(
        tuple(tuple(_order1_row(leaf) for leaf in pair) for pair in leaves),
        tuple(tuple(_order2_row(l1, l2, keep_tag) for l1, l2 in iproduct(pair1, pair2))
              for pair1, pair2 in iproduct(leaves, leaves)),
    )


class TwoPairOutcomes(NamedTuple):
    """The outcomes of one Bell-kind pair of a two-pair round."""

    keep_probability: float
    rows: tuple

    def kept_verdict(self) -> Verdict:
        """The verdict every kept row shares; DISCARDED when none is kept."""
        verdicts = {r.verdict for r in self.rows} - {Verdict.DISCARDED}
        if len(verdicts) > 1:
            raise SimulationError("the kept rows of one component disagree on correctness")
        return verdicts.pop() if verdicts else Verdict.DISCARDED


def _kept_pair_rows(state: PureState, factors: tuple, tag_a, tag_b) -> list:
    """Diagonal-measure the lower pair, phase-correct, classify the upper pair."""
    rows = []
    for oa, (pa, s1) in diagonal_outcomes(state, Party.ALICE, Spatial.LOWER).items():
        if pa == 0.0:
            continue
        for ob, (pb, s2) in diagonal_outcomes(s1, Party.BOB, Spatial.LOWER).items():
            if pb == 0.0:
                continue
            final = sigma_z(s2, Party.ALICE, {Spatial.UPPER}) if oa != ob else s2
            fid = overlap(final, PHI_PLUS_UPPER)
            verdict = _verdict(fid, overlap(final, PSI_PLUS_UPPER))
            rows.append(TableRow(factors + (pa, pb), tag_a, tag_b, verdict, final, fid,
                                 kept_pairs=1))
    return rows


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _stage2_table(cfg: QndConfig) -> tuple:
    """Stage-2 outcomes under ``cfg``, one entry per ``TWO_PAIR_KINDS`` entry."""
    cfg.validate()
    table = []
    for kinds in TWO_PAIR_KINDS:
        st = apply_qnd(two_pair_state(*kinds), cfg)
        rows, p_keep = [], 0.0
        for tag_a in probe_outcomes(st, Party.ALICE):
            p_a, post_a = project_probe(st, Party.ALICE, tag_a)
            for tag_b in probe_outcomes(post_a, Party.BOB):
                p_b, post = project_probe(post_a, Party.BOB, tag_b)
                if tag_a != tag_b:
                    rows.append(TableRow((p_a, p_b), tag_a, tag_b, Verdict.DISCARDED))
                    continue
                p_keep += p_a * p_b
                if tag_a == ZERO_PHASE:
                    post = sigma_x(post, Party.ALICE, {Spatial.UPPER})
                    post = sigma_x(post, Party.BOB, {Spatial.UPPER})
                rows += _kept_pair_rows(post, (p_a, p_b), tag_a, tag_b)
        table.append(TwoPairOutcomes(p_keep, tuple(rows)))
    return tuple(table)


@functools.lru_cache(maxsize=1)
def _pbs_table() -> tuple:
    """PBS-baseline outcomes, one entry per ``TWO_PAIR_KINDS`` entry: a
    round keeps the branches with one photon in each of the four ports."""
    ports = [(p, s) for p in Party for s in (Spatial.UPPER, Spatial.LOWER)]
    table = []
    for kinds in TWO_PAIR_KINDS:
        st = pbs(pbs(two_pair_state(*kinds), Party.ALICE), Party.BOB)
        keep = [b for b in st.branches
                if all(b.photons(party=p, spatial=s) == 1 for p, s in ports)]
        p_keep = sum(abs(b.amplitude) ** 2 for b in keep)
        rows = []
        if p_keep < 1.0 - 1e-15:
            rows.append(TableRow((1.0 - p_keep,), None, None, Verdict.DISCARDED))
        if p_keep > 0.0:
            rows += _kept_pair_rows(PureState.of(keep).normalize(), (p_keep,), None, None)
        table.append(TwoPairOutcomes(p_keep, tuple(rows)))
    return tuple(table)


# ---------------------------------------------------------------------------
# exact enumeration: table rows weighted at one parameter point
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


def _emission_weights(src: PdcSourceParams, noise: NoiseParams) -> tuple:
    """(one-pair weight, two-pair weight) of an emission event."""
    src.validate()
    noise.validate()
    total = src.p1 + src.p2
    if total <= 0:
        raise ConfigError("p1 + p2 must be positive")
    return src.p1 / total, src.p2 / total


def stage1_records(src: PdcSourceParams, noise: NoiseParams,
                   variant=Variant.QND1, cfg: QndConfig | None = None) -> list:
    """Exhaustive outcome enumeration of one stage-1 emission event."""
    table = _stage1_table(_stage1_config(variant, cfg))
    w1, w2 = _emission_weights(src, noise)
    noise_weights = [(flipped, wn) for flipped, wn in enumerate((noise.f0, 1.0 - noise.f0))
                     if wn != 0.0]
    records = []
    if w1 > 0:
        for flipped, wn in noise_weights:
            records += [row.record(w1 * wn) for row in table.singles[flipped]]
    if w2 > 0:
        for flip1, wn1 in noise_weights:
            for flip2, wn2 in noise_weights:
                records += [row.record(w2 * wn1 * wn2)
                            for row in table.doubles[2 * flip1 + flip2]]
    return records


def _counts_from_records(records) -> dict:
    counts = {k: 0.0 for k in COUNT_KEYS}
    for r in records:
        counts[r.bucket()] += r.weight
    return counts


def _stage1_extras(src, noise, correct, erroneous, same_port, pairs, events=1) -> dict:
    """Extras from the kept_correct, kept_erroneous and kept_same_port
    totals and the kept pairs over ``events`` emission events."""
    incl = correct + erroneous + same_port
    return {
        "closed_form_fidelity": stage1_fidelity_closed_form(src.p1, src.p2, noise.f0),
        "kept_pairs_per_event": pairs / events,
        "fidelity_including_same_port": (correct + same_port) / incl if incl > 0 else None,
        "yield_including_same_port": incl / events,
        "kept_pairs_per_event_including_same_port": (pairs + same_port) / events,
    }


def _report(pipeline, records, extras, mode="exact", trials=None, seed=None) -> RunReport:
    counts = _counts_from_records(records)
    kept = counts["kept_correct"] + counts["kept_erroneous"]
    fid = (sum(r.weight * r.fidelity for r in records if r.verdict != Verdict.DISCARDED) / kept
           if kept > 0 else None)
    return RunReport(
        pipeline=pipeline, mode=mode, fidelity=fid, yield_fraction=kept,
        counts=counts, trials=trials, seed=seed, extras=extras,
    )


def stage1_exact(src: PdcSourceParams, noise: NoiseParams,
                 variant=Variant.QND1, cfg: QndConfig | None = None) -> RunReport:
    records = stage1_records(src, noise, variant, cfg)
    report = _report("stage1", records, {})
    pairs = sum(r.weight * r.kept_pairs for r in records)
    report.extras = _stage1_extras(src, noise, *(report.counts[k] for k in COUNT_KEYS[:3]),
                                   pairs)
    return report


def _stage2_config(cfg: QndConfig | None) -> QndConfig:
    cfg = cfg or default_config(Variant.QND2)
    if cfg.variant != Variant.QND2:
        raise ConfigError("stage 2 runs with the qnd2 detector")
    return cfg


def _two_pair_records(table: tuple, fidelity: float) -> list:
    records = []
    for kinds, w in two_pair_weights(fidelity):
        records += [row.record(w) for row in table[TWO_PAIR_KINDS.index(kinds)].rows]
    return records


def stage2_records(fidelity: float, cfg: QndConfig | None = None) -> list:
    """Exhaustive outcome enumeration of one stage-2 purification round."""
    return _two_pair_records(_stage2_table(_stage2_config(cfg)), fidelity)


def _two_pair_extras(fidelity: float, baseline: bool) -> dict:
    return {"closed_form_fidelity": stage2_fidelity_map(fidelity),
            "closed_form_yield": (0.5 if baseline else 1.0) * stage2_yield(fidelity)}


def pbs_records(fidelity: float) -> list:
    """Exhaustive enumeration of the PBS parity-check baseline round."""
    return _two_pair_records(_pbs_table(), fidelity)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

WORDS_PER_TRIAL = 8
MC_CHUNK = 1 << 16  # trials drawn at once: bounds MC memory whatever the trial count

_BUCKET_IDS = {k: i for i, k in enumerate(COUNT_KEYS)}


def trial_uniforms(seed: int, n_trials: int, start: int = 0) -> np.ndarray:
    """Uniform draws for trials [start, start + n_trials).

    Counter-based: trial t always maps to the same fixed block of the
    keyed stream, so any partition of the trial range reproduces the
    same per-trial values.  The seed is the 64-bit key, in [0, 2**64).
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    bg = np.random.Philox(key=np.uint64(seed))
    blocks_per_trial = WORDS_PER_TRIAL // 4
    if start:
        bg.advance(start * blocks_per_trial)
    raw = bg.random_raw(n_trials * WORDS_PER_TRIAL)
    u = (raw >> np.uint64(11)) * (2.0 ** -53)
    return u.reshape(n_trials, WORDS_PER_TRIAL)


def _mc_report(pipeline, bucket_counts, trials, seed, extras) -> RunReport:
    counts = {k: int(bucket_counts[i]) for k, i in _BUCKET_IDS.items()}
    c, e = counts["kept_correct"], counts["kept_erroneous"]
    kept = c + e
    fid = c / kept if kept > 0 else None
    fid_err = math.sqrt(fid * (1.0 - fid) / kept) if kept >= 2 else None
    y = kept / trials
    y_err = math.sqrt(y * (1.0 - y) / trials) if trials >= 2 else None
    return RunReport(
        pipeline=pipeline, mode="mc", fidelity=fid, yield_fraction=y,
        counts=counts, trials=trials, seed=seed,
        fidelity_stderr=fid_err, yield_stderr=y_err, extras=extras,
    )


def _chunks(trials: int):
    """(start, size) of the MC_CHUNK-sized slices covering [0, trials)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [(start, min(MC_CHUNK, trials - start)) for start in range(0, trials, MC_CHUNK)]


def _stage1_mc_buckets(src, noise, variant, cfg, trials, seed, start=0):
    """Per-trial bucket ids and kept-pair counts for a slice of trials."""
    table = _stage1_table(_stage1_config(variant, cfg))
    p1n, _ = _emission_weights(src, noise)
    if any(len(leaf_rows) != 2 for leaf_rows in table.singles):
        raise SimulationError("expected two homodyne classes per single pair")
    # the 16 leaf pairs, indexed 8*flip1 + 4*flip2 + 2*leaf1 + leaf2
    doubles = [row for rows in table.doubles for row in rows]
    lut = np.array([_BUCKET_IDS[row.bucket()] for row in doubles], dtype=np.int64)
    pairs_lut = np.array([row.kept_pairs for row in doubles], dtype=np.int64)

    u = trial_uniforms(seed, trials, start)
    p_flip = 1.0 - noise.f0
    order2 = u[:, 0] >= p1n
    flip1 = (u[:, 1] < p_flip).astype(np.int64)
    flip2 = (u[:, 2] < p_flip).astype(np.int64)
    # index within the (sorted) two-leaf list of each pair
    leaf_split = table.singles[0][0].factors[0]
    bit1 = (u[:, 3] >= leaf_split).astype(np.int64)
    bit2 = (u[:, 4] >= leaf_split).astype(np.int64)
    combo = 8 * flip1 + 4 * flip2 + 2 * bit1 + bit2

    buckets = np.where(order2, lut[combo], _BUCKET_IDS["kept_correct"])
    pairs = np.where(order2, pairs_lut[combo], 1)
    return buckets, pairs


def stage1_monte_carlo(src, noise, variant=Variant.QND1, cfg=None,
                       trials: int = 100_000, seed: int = 0) -> RunReport:
    bucket_counts = np.zeros(len(COUNT_KEYS), dtype=np.int64)
    kept_pairs = 0
    for start, size in _chunks(trials):
        buckets, pairs = _stage1_mc_buckets(src, noise, variant, cfg, size, seed, start)
        bucket_counts += np.bincount(buckets, minlength=len(COUNT_KEYS))
        kept_pairs += int(pairs.sum())
    extras = _stage1_extras(src, noise, *(int(n) for n in bucket_counts[:3]),
                            kept_pairs, trials)
    return _mc_report("stage1", bucket_counts, trials, seed, extras)


def _stage2_mc_buckets(fidelity, cfg, trials, seed, start=0, baseline=False):
    table = _pbs_table() if baseline else _stage2_table(_stage2_config(cfg))
    weights = two_pair_weights(fidelity)
    components = [table[TWO_PAIR_KINDS.index(kinds)] for kinds, _ in weights]
    keep_probs = np.array([c.keep_probability for c in components])
    verdicts = np.array([_BUCKET_IDS[c.kept_verdict().value] for c in components],
                        dtype=np.int64)
    cum = np.cumsum([w for _, w in weights])
    cum[-1] = 1.0  # guard against float round-off at the top edge
    u = trial_uniforms(seed, trials, start)
    comp = np.searchsorted(cum, u[:, 0], side="right")
    kept = u[:, 1] < keep_probs[comp]
    return np.where(kept, verdicts[comp], _BUCKET_IDS["discarded"])


def stage2_monte_carlo(fidelity: float, cfg=None, trials: int = 100_000,
                       seed: int = 0, baseline: bool = False) -> RunReport:
    bucket_counts = np.zeros(len(COUNT_KEYS), dtype=np.int64)
    for start, size in _chunks(trials):
        buckets = _stage2_mc_buckets(fidelity, cfg, size, seed, start, baseline)
        bucket_counts += np.bincount(buckets, minlength=len(COUNT_KEYS))
    return _mc_report("pbs" if baseline else "stage2", bucket_counts,
                      trials, seed, _two_pair_extras(fidelity, baseline))


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _check_stage2_domain(fidelity: float) -> None:
    if not 0.0 < fidelity <= 1.0:
        raise ConfigError("fidelity must lie in (0, 1]")


def stage1_run(src: PdcSourceParams, noise: NoiseParams, variant=Variant.QND1,
               mode: str = "exact", trials: int = 100_000, seed: int = 0,
               cfg: QndConfig | None = None) -> RunReport:
    if mode == "exact":
        return stage1_exact(src, noise, variant, cfg)
    if mode == "mc":
        return stage1_monte_carlo(src, noise, variant, cfg, trials, seed)
    raise ConfigError(f"unknown mode {mode!r}")


def stage2_run(fidelity: float, mode: str = "exact", trials: int = 100_000,
               seed: int = 0, cfg: QndConfig | None = None) -> RunReport:
    _check_stage2_domain(fidelity)
    if mode == "exact":
        return _report("stage2", stage2_records(fidelity, cfg), _two_pair_extras(fidelity, False))
    if mode == "mc":
        return stage2_monte_carlo(fidelity, cfg, trials, seed)
    raise ConfigError(f"unknown mode {mode!r}")


def pbs_baseline(fidelity: float, mode: str = "exact", trials: int = 100_000,
                 seed: int = 0) -> RunReport:
    _check_stage2_domain(fidelity)
    if mode == "exact":
        return _report("pbs", pbs_records(fidelity), _two_pair_extras(fidelity, True))
    if mode == "mc":
        return stage2_monte_carlo(fidelity, None, trials, seed, baseline=True)
    raise ConfigError(f"unknown mode {mode!r}")


def enumerate_exact(pipeline: str, params: dict) -> list:
    """Full outcome enumeration of a named pipeline; weights sum to 1."""
    if pipeline == "stage1":
        return stage1_records(
            PdcSourceParams(params["p1"], params["p2"]),
            NoiseParams(params["f0"]),
            params.get("variant", Variant.QND1),
            params.get("cfg"),
        )
    if pipeline == "stage2":
        return stage2_records(params["F"], params.get("cfg"))
    if pipeline == "pbs":
        return pbs_records(params["F"])
    raise ConfigError(f"unknown pipeline {pipeline!r}")


def monte_carlo(pipeline: str, params: dict, trials: int, seed: int = 0) -> RunReport:
    """Seeded Monte Carlo run of a named pipeline; same seed, same report."""
    if pipeline == "stage1":
        return stage1_monte_carlo(
            PdcSourceParams(params["p1"], params["p2"]),
            NoiseParams(params["f0"]),
            params.get("variant", Variant.QND1),
            params.get("cfg"),
            trials, seed,
        )
    if pipeline == "stage2":
        return stage2_run(params["F"], "mc", trials, seed, params.get("cfg"))
    if pipeline == "pbs":
        return pbs_baseline(params["F"], "mc", trials, seed)
    raise ConfigError(f"unknown pipeline {pipeline!r}")
