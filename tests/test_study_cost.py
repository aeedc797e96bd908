"""What one exact study at a fresh angle pair builds, counted, not timed.

A study runs the branch suite, a stage-1 run of each two-angle detector,
a stage-2 run and the PBS baseline at one admissible pair, as the
benchmark's fresh-angle workload does.  Once the process is warm, the
only work the pair brings is its six count classes: no passing branch
result is rebuilt and no branch case is run, no tag beyond the classes'
is made, no phase is read but through a config's ``classes``, no
``Enum`` member is hashed in Python, and no detector or state is built.
Only the two stage-1 runs turn rows into records, and the suite builds
just the three configs whose cases it checks.  A warm exact grid does
only its points' own arithmetic: it hashes its detector config once per
grid, and builds each point's parameter objects once.
"""

import enum
import itertools
import sys

from kerrpurify import (
    NoiseParams,
    PdcSourceParams,
    PhaseTag,
    PureState,
    QndConfig,
    Variant,
    default_config,
    exact_reports,
    pbs_baseline,
    run_branch_suite,
    single_pair_state,
    stage1_run,
    stage2_run,
)
from kerrpurify import branches, protocol, qnd
from kerrpurify.branches import CaseResult


def _study(theta: PhaseTag, theta_prime: PhaseTag) -> list:
    src, noise = PdcSourceParams(0.12, 0.03), NoiseParams(0.8)
    return ([run_branch_suite(theta=theta, theta_prime=theta_prime)]
            + [stage1_run(src, noise, v, cfg=QndConfig(v, theta, theta_prime))
               for v in (Variant.QND1, Variant.QND3)]
            + [stage2_run(0.85), pbs_baseline(0.85)])


def test_a_warm_study_at_a_fresh_pair_builds_only_its_count_classes(monkeypatch):
    _study(PhaseTag(5, 16), PhaseTag(37, 64))  # warms every per-process cache
    theta, theta_prime = PhaseTag(11, 32), PhaseTag(51, 64)  # no cache holds this pair
    tags, passing, enum_hashes = [], [], []
    tag_init, result_init, enum_hash = PhaseTag.__init__, CaseResult.__init__, enum.Enum.__hash__

    def count_tag(self, *args):
        tags.append(args)
        tag_init(self, *args)

    def count_result(self, *args, **kwargs):
        result_init(self, *args, **kwargs)
        if self.passed:
            passing.append(self)

    def count_hash(self):
        enum_hashes.append(self)
        return enum_hash(self)

    monkeypatch.setattr(PhaseTag, "__init__", count_tag)
    monkeypatch.setattr(CaseResult, "__init__", count_result)
    monkeypatch.setattr(enum.Enum, "__hash__", count_hash)
    suite, *reports = _study(theta, theta_prime)
    monkeypatch.undo()
    assert all(r.passed for r in suite) and len(reports) == 4
    assert passing == []
    assert len(tags) <= 6  # at most one per count class {0, t, t', 2t, 2t', t+t'}
    assert enum_hashes == []


def test_a_warm_study_at_a_fresh_pair_reads_no_phase_and_runs_no_branch_case(monkeypatch):
    # a run labels its rows from its config's class tags, and a suite whose
    # cases all pass hands back their frozen results: neither reads a phase
    _study(PhaseTag(5, 16), PhaseTag(37, 64))  # warms every per-process cache
    calls = []
    phase, run_case = QndConfig.phase, branches.run_branch_case
    monkeypatch.setattr(QndConfig, "phase",
                        lambda self, counts: calls.append("phase") or phase(self, counts))
    monkeypatch.setattr(branches, "run_branch_case",
                        lambda case, cfg: calls.append("case") or run_case(case, cfg))
    suite, *reports = _study(PhaseTag(13, 32), PhaseTag(53, 64))  # no cache holds this pair
    ran = list(calls)
    default_config(Variant.QND1).phase((3, 0))  # the counters do count
    branches.run_branch_case(branches.BRANCH_CASES[0], default_config(Variant.QND1))
    monkeypatch.undo()
    assert all(r.passed for r in suite) and len(reports) == 4
    assert [r.case_id for r in suite] == list(branches.CASE_IDS)
    assert all(r is case.passing_result() for r, case in zip(suite, branches.BRANCH_CASES))
    assert ran == []
    assert calls == ["phase", "case"]


def test_a_warm_study_enumerates_only_stage1_and_its_suite_builds_three_configs(monkeypatch):
    # stage 2 and PBS sum their tables' columns, so only the two stage-1 runs
    # turn rows into records; the suite builds the qnd1, qnd3 and qnd4 configs
    # it checks, from their defaults, and a passing suite reads no qnd2 default
    _study(PhaseTag(5, 16), PhaseTag(37, 64))  # warms every per-process cache
    enumerated, built, defaults = [], [], []
    enumerate_exact, post_init, default = (protocol.enumerate_exact, QndConfig.__post_init__,
                                           branches.default_config)
    monkeypatch.setattr(protocol, "enumerate_exact",
                        lambda name, p: enumerated.append(name) or enumerate_exact(name, p))
    monkeypatch.setattr(QndConfig, "__post_init__",
                        lambda self: built.append(self.variant) or post_init(self))
    monkeypatch.setattr(branches, "default_config", lambda v: defaults.append(v) or default(v))
    suite, *reports = _study(PhaseTag(9, 32), PhaseTag(49, 64))  # no cache holds this pair
    monkeypatch.undo()
    assert all(r.passed for r in suite) and len(reports) == 4
    assert enumerated == ["stage1", "stage1"]
    qnd1, qnd3, qnd4 = Variant.QND1, Variant.QND3, Variant.QND4
    assert built == [qnd1, qnd3, qnd4, qnd1, qnd3]  # the suite's three, then the runs' two
    assert defaults == [qnd1, qnd3, qnd4]


def test_every_table_reads_only_counts_its_config_tags():
    # a run looks each row's probe counts up in its config's ``classes``:
    # every stage-1 count is one of the qnd1 and qnd3 configs' six classes at
    # any pair, every stage-2 count one of qnd2's two, and PBS reads no probe
    pairs = [(None, None), (PhaseTag(3, 16), PhaseTag(29, 64))]
    for variant, (theta, theta_prime) in itertools.product((Variant.QND1, Variant.QND3), pairs):
        cfg = QndConfig(variant, theta, theta_prime) if theta else default_config(variant)
        table = protocol._stage1_rows(variant)
        counts = {c for row in table.rows for c in row[:2]}
        assert len(counts) == 5 and counts <= cfg.classes.keys(), (variant, theta)
    stage2 = {c for row in protocol._stage2_table().rows for c in row[:2]}
    assert stage2 == default_config(Variant.QND2).classes.keys() == {(0, 0), (1, 0)}
    assert {c for row in protocol._pbs_table().rows for c in row[:2]} == {None}


def test_a_warm_study_at_a_fresh_pair_runs_no_detector(monkeypatch):
    # detectors run once per process, in cached tables and branch results,
    # so a warm study must call no detector, Kerr medium or state builder
    # through any kerrpurify namespace that binds one
    _study(PhaseTag(5, 16), PhaseTag(37, 64))  # warms every per-process cache
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("apply_qnd", "apply_kerr"):
        original, wrapper = getattr(qnd, name), counted(name, getattr(qnd, name))
        for module_name, module in list(sys.modules.items()):
            if module_name == "kerrpurify" or module_name.startswith("kerrpurify."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    of = PureState.__dict__["of"].__func__
    monkeypatch.setattr(PureState, "of", staticmethod(counted("PureState.of", of)))
    suite, *reports = _study(PhaseTag(7, 32), PhaseTag(45, 64))  # no cache holds this pair
    ran = list(calls)
    protocol.apply_qnd(single_pair_state(), Variant.QND1)  # the counters do count
    monkeypatch.undo()
    assert all(r.passed for r in suite) and len(reports) == 4
    assert ran == []
    assert {"apply_qnd", "apply_kerr", "PureState.of"} <= set(calls)


def test_a_warm_grid_hashes_its_config_once_and_checks_every_point(monkeypatch):
    cfg = QndConfig(Variant.QND1, PhaseTag(3, 16), PhaseTag(29, 64))
    points = [{"p1": p1, "p2": p2, "f0": f0, "variant": cfg.variant, "cfg": cfg}
              for p1 in (0.05, 0.1, 0.15, 0.2, 0.25) for p2 in (0.01, 0.02, 0.03, 0.04)
              for f0 in (0.6, 0.7, 0.8, 0.9, 1.0)]
    expected = [r.to_dict() for r in exact_reports("stage1", points)]  # warms the table
    hashes, built = [], []
    config_hash = QndConfig.__hash__

    def count_hash(self):
        hashes.append(self)
        return config_hash(self)

    for cls in (PdcSourceParams, NoiseParams):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=check: built.append(type(self)) or check(self))
    monkeypatch.setattr(QndConfig, "__hash__", count_hash)
    reports = [r.to_dict() for r in exact_reports("stage1", points)]
    monkeypatch.undo()
    assert reports == expected and len(points) == 100
    assert len(hashes) <= 1
    assert built.count(PdcSourceParams) == built.count(NoiseParams) == 100
