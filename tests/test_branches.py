"""Every detector must reproduce its reference transformation exactly."""

import dataclasses
import functools
import re
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings

from kerrpurify import (
    ZERO_COUNTS,
    BranchState,
    ConfigError,
    ModeLabel,
    Party,
    PhaseTag,
    Pol,
    PureState,
    QndConfig,
    Spatial,
    Variant,
    apply_qnd,
    bell_pair,
    create_photon,
    single_pair_state,
)
from kerrpurify import branches
from kerrpurify.branches import (
    A1H,
    A2V,
    B1H,
    BRANCH_CASES,
    CASE_IDS,
    BranchCase,
    CLEAN,
    FLIPPED,
    U1,
    U2,
    _describe,
    _mismatches,
    operator_state,
    run_branch_case,
    run_branch_suite,
)
from kerrpurify.qnd import default_config

from conftest import angles
from oracle import assert_same_phases, per_medium_phases, rendered_phases


@pytest.mark.parametrize("case", BRANCH_CASES, ids=[c.case_id for c in BRANCH_CASES])
def test_default_angles(case):
    result = run_branch_case(case, default_config(case.variant))
    assert result.passed, result.detail


@pytest.mark.parametrize(
    "case",
    [c for c in BRANCH_CASES if c.variant in (Variant.QND1, Variant.QND3)],
    ids=[c.case_id for c in BRANCH_CASES if c.variant in (Variant.QND1, Variant.QND3)],
)
def test_alternate_angles(case):
    cfg = QndConfig(case.variant, PhaseTag(1, 8), PhaseTag(5, 8))
    result = run_branch_case(case, cfg)
    assert result.passed, result.detail


def test_suite_runs_all_cases():
    results = run_branch_suite()
    assert [r.case_id for r in results] == list(CASE_IDS)
    assert all(r.passed for r in results)


@settings(max_examples=25, deadline=None)
@given(theta=angles, theta_prime=angles)
def test_suite_passes_at_any_admissible_angles(theta, theta_prime):
    # every detector's coupling table reproduces its reference maps at any
    # angles its config accepts; the opposite-shift layout runs at theta
    try:
        results = run_branch_suite(PhaseTag(theta), PhaseTag(theta_prime))
    except ConfigError:
        assume(False)
    assert len(results) == len(CASE_IDS)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]


@settings(max_examples=25, deadline=None)
@given(theta=angles, theta_prime=angles)
def test_cases_read_the_per_medium_phases_at_any_admissible_angles(theta, theta_prime):
    # each case compares probe counts once per process; read at an accepted
    # angle pair, its detector's output and its expectation must both be the
    # phases of one PhaseTag step per Kerr medium
    try:
        cfgs = {v: QndConfig(v, PhaseTag(theta), PhaseTag(theta_prime))
                for v in (Variant.QND1, Variant.QND3)}
        cfgs[Variant.QND4] = QndConfig(Variant.QND4, PhaseTag(theta))
    except ConfigError:
        assume(False)
    cfgs[Variant.QND2] = default_config(Variant.QND2)
    for case in BRANCH_CASES:
        cfg = cfgs[case.variant]
        want = per_medium_phases(case.input_state(), cfg)
        assert_same_phases(rendered_phases(apply_qnd(case.input_state(), case.variant), cfg), want)
        assert_same_phases(rendered_phases(case.expected_state(), cfg), want)
        assert run_branch_case(case, cfg).passed


def test_a_case_runs_only_at_its_own_detector():
    with pytest.raises(ConfigError, match="runs qnd1, not qnd3"):
        run_branch_case(BRANCH_CASES[0], default_config(Variant.QND3))


def test_a_passing_case_is_shared_across_angle_pairs_and_a_failure_is_not(monkeypatch):
    # a pass prints no phase, so every pair returns the case's one frozen
    # result; a planted mismatch is described at each pair's own phases
    case = next(c for c in BRANCH_CASES if c.case_id == "qnd1-single-flipped")
    branch = next(b for b in case.expected_state().branches if b.probe == ((1, 0), (0, 1)))
    planted = ((branch, None),)  # an unexpected branch with probes (t, t')
    mismatches = BranchCase.mismatches
    monkeypatch.setattr(BranchCase, "mismatches",
                        lambda self: planted if self is case else mismatches(self))
    # the suite's verdict is cached once per process: a fresh cache finds
    # the planted mismatch, and the warm one is back once the test ends
    monkeypatch.setattr(branches, "_passing_suite",
                        functools.cache(branches._passing_suite.__wrapped__))
    pairs = [(PhaseTag(3, 16), PhaseTag(29, 64)), (PhaseTag(29, 64), PhaseTag(3, 16))]
    first, second = (run_branch_suite(theta=t, theta_prime=tp) for t, tp in pairs)
    failed = [[r for r in results if not r.passed] for results in (first, second)]
    for (t, tp), (result, *others) in zip(pairs, failed):
        assert result.case_id == case.case_id and not others
        assert f"probes ({t}, {tp})" in result.detail
    for a, b in zip(first, second):
        if a.passed:
            assert a is b
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.detail = "changed"


def test_a_failing_qnd2_case_is_described_at_the_qnd2_default(monkeypatch):
    # a passing suite builds no qnd2 config; a failing one still describes a
    # qnd2 mismatch at qnd2's own default angle, pi, whatever the pair
    case = next(c for c in BRANCH_CASES if c.case_id == "qnd2-phi-phi")
    branch = next(b for b in case.expected_state().branches if b.probe == ((1, 0), (1, 0)))
    mismatches = BranchCase.mismatches
    monkeypatch.setattr(BranchCase, "mismatches",
                        lambda self: ((branch, None),) if self is case else mismatches(self))
    branches._passing_suite.cache_clear()
    try:
        pairs = [(PhaseTag(3, 16), PhaseTag(29, 64)), (None, None)]
        results = [run_branch_suite(theta=t, theta_prime=tp) for t, tp in pairs]
    finally:  # the suite's verdict is cached: find the passing one again
        monkeypatch.undo()
        branches._passing_suite.cache_clear()
    pi = default_config(Variant.QND2).phase((1, 0))
    for suite in results:
        [failed] = [r for r in suite if not r.passed]
        assert failed.case_id == case.case_id
        assert failed.detail.startswith("unexpected branch")
        assert f"probes ({pi}, {pi})" in failed.detail
    assert branches._passing_suite()


TWO_PAIR_NAMES = [a + b + c + d for a, b, c, d in iproduct("HV", repeat=4)]


@pytest.mark.parametrize("name", TWO_PAIR_NAMES)
def test_a_two_pair_term_is_the_four_photons_its_name_spells(name):
    # an upper pair term plus a lower one: the modes (a1, b1, a2, b2), in
    # that order, with the polarizations the name gives
    ports = [(Party.ALICE, Spatial.UPPER), (Party.BOB, Spatial.UPPER),
             (Party.ALICE, Spatial.LOWER), (Party.BOB, Spatial.LOWER)]
    assert getattr(branches, name) == tuple(ModeLabel(party, spatial, Pol[pol])
                                            for (party, spatial), pol in zip(ports, name))


def test_suite_filtering():
    results = run_branch_suite(only={"qnd1-double-clean"})
    assert len(results) == 1 and results[0].case_id == "qnd1-double-clean"
    with pytest.raises(ValueError):
        run_branch_suite(only={"nonexistent-case"})
    # a bare case id is not a selection of its characters
    with pytest.raises(ValueError, match="case ids, not the string 'qnd1-single-clean'"):
        run_branch_suite(only="qnd1-single-clean")


@pytest.mark.parametrize("only", [True, 3, [["qnd1-single-clean"]]], ids=["bool", "int", "nested"])
def test_a_selection_that_is_not_a_collection_of_ids_raises(only):
    # refused as a bare string is, with a ValueError that names ``only``
    message = f"^only is a collection of case ids, not {re.escape(repr(only))}$"
    with pytest.raises(ValueError, match=message):
        run_branch_suite(only=only)


def test_an_iterator_of_case_ids_is_a_selection():
    results = run_branch_suite(only=iter(["qnd1-double-clean", "qnd2-psi-psi"]))
    assert [r.case_id for r in results] == ["qnd1-double-clean", "qnd2-psi-psi"]


@pytest.mark.parametrize("only", [[], "", set(), ()], ids=["list", "str", "set", "tuple"])
def test_empty_selection_raises(only):
    # an empty selection is not "no selection": it must not run all 14 cases
    with pytest.raises(ValueError, match="no case id"):
        run_branch_suite(only=only)


def test_compare_states_reports_mismatch():
    # the expectation with theta and theta' swapped on Alice's probe
    case = BRANCH_CASES[0]
    cfg = default_config(case.variant)
    expected = case.expected_state()
    wrong = PureState.of(b.with_probe(Party.ALICE, b.probe[Party.ALICE][::-1])
                         for b in expected.branches)
    assert _describe(_mismatches(expected, wrong), cfg) != ""
    assert _mismatches(expected, expected) == ()
    assert run_branch_case(case, cfg) == case.passing_result()


def test_compare_states_prints_the_first_mismatch_with_its_tags():
    # branches are matched on their integer key, but each message names the
    # first mismatch in printed order, with its occupations and its probe
    # counts read as phases at the config's angles
    tags = "probes (PhaseTag(1/4*pi), PhaseTag(1/4*pi))"
    cfg = default_config(Variant.QND1)
    state = BRANCH_CASES[0].expected_state()
    first_dropped = PureState(state.branches[1:])
    last_negated = PureState(state.branches[:-1]
                             + (state.branches[-1].with_amplitude(-0.5),))
    assert _describe(_mismatches(state, first_dropped), cfg) \
        == f"unexpected branch {{a1H: 1, b1H: 1}} {tags} (amplitude 0.5+0j)"
    assert _describe(_mismatches(first_dropped, state), cfg) \
        == f"missing branch {{a1H: 1, b1H: 1}} {tags} (expected amplitude 0.5+0j)"
    assert _describe(_mismatches(last_negated, state), cfg) \
        == f"branch {{a2V: 1, b2V: 1}} {tags}: amplitude -0.5+0j, expected 0.5+0j"
    assert _mismatches(state, state) == ()
    result = run_branch_case(BRANCH_CASES[0], cfg)
    assert result.passed and result.detail == ""


def _create_photon_chain(entries) -> PureState:
    """``operator_state`` built with one ``create_photon`` call per mode."""
    branches = []
    for entry in entries:
        coeff, groups = entry[0], entry[1]
        probe = entry[2] if len(entry) > 2 else (ZERO_COUNTS, ZERO_COUNTS)
        for combo in iproduct(*groups):
            s = PureState((BranchState.of({}, coeff, probe),))
            for term in combo:
                for m in term:
                    s = create_photon(s, m)
            branches.extend(s.branches)
    return PureState.of(branches).normalize()


# the expectations' phase recipes as probe counts
RECIPE_COUNTS = {"0": (0, 0), "pi": (1, 0), "t": (1, 0), "tp": (0, 1), "2t": (2, 0),
                 "2tp": (0, 2), "t+tp": (1, 1), "-t": (-1, 0)}

ENTRY_SETS = {
    "one-mode-three-photons": [(1, (((A1H, A1H, A1H),),))],
    "repeated-pair-terms": [(1, ((U1, U2), (U1, U2), (U1,))), (2, ((U2,), (U2,)))],
    "tagged-mixed-occupations": [
        (1, (((A1H, B1H, A1H), (A2V, A2V)), (U1, U2)), ((1, 0), (2, -1))),
        (-3, (((A2V, A1H, A2V),),), ((3, 5), ZERO_COUNTS)),
    ],
}
for _case in BRANCH_CASES:
    ENTRY_SETS[f"{_case.case_id}-input"] = _case.input_entries
    ENTRY_SETS[f"{_case.case_id}-expected"] = [
        (c, groups, (RECIPE_COUNTS[ra], RECIPE_COUNTS[rb]))
        for c, groups, (ra, rb) in _case.expected_entries
    ]

# each source state with its polynomial, spelled out here: a Bell pair is its
# (Alice pol, Bob pol) terms at one spatial port, the second term signed
BELL_TERMS = {"phi+": ((Pol.H, Pol.H), (Pol.V, Pol.V), 1),
              "phi-": ((Pol.H, Pol.H), (Pol.V, Pol.V), -1),
              "psi+": ((Pol.H, Pol.V), (Pol.V, Pol.H), 1),
              "psi-": ((Pol.H, Pol.V), (Pol.V, Pol.H), -1)}
SOURCE_STATES = {
    "single-pair-clean": (single_pair_state(), [(1, (CLEAN,))]),
    "single-pair-flipped": (single_pair_state(flipped=True), [(1, (FLIPPED,))]),
}
for _kind, (_first, _second, _sign) in BELL_TERMS.items():
    for _spatial in Spatial:
        _t1, _t2 = ((ModeLabel(Party.ALICE, _spatial, pa), ModeLabel(Party.BOB, _spatial, pb))
                    for pa, pb in (_first, _second))
        SOURCE_STATES[f"bell-{_kind}-{_spatial.name.lower()}"] = (
            bell_pair(_kind, _spatial), [(1, ((_t1,),)), (_sign, ((_t2,),))])
ENTRY_SETS.update({name: entries for name, (_, entries) in SOURCE_STATES.items()})


@pytest.mark.parametrize("entries", ENTRY_SETS.values(), ids=ENTRY_SETS)
def test_operator_state_equals_the_create_photon_chain(entries):
    # the cases' inputs and expectations both come from operator_state, so a
    # wrong bosonic factor would cancel out of the suite; compare it here,
    # amplitudes included, exactly
    assert operator_state(entries) == _create_photon_chain(entries)


@pytest.mark.parametrize("state, entries", SOURCE_STATES.values(), ids=SOURCE_STATES)
def test_source_states_equal_the_create_photon_chain(state, entries):
    # the sources build every state with operator_state; the chain above is
    # their reference, amplitudes and signs included, exactly
    assert state == _create_photon_chain(entries)
