"""Per-layer trace of kerrpurify, taken from outside the package.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds each wrapper in every ``kerrpurify.*`` namespace that holds the
original (``protocol`` imports names directly, so patching the defining
module alone would miss its calls).  ``PureState.of`` and the
``PhaseTag`` constructor and hash are patched on their classes, and
``open`` is counted only while ``cli.main`` runs.  ``uninstall`` puts
every original back.

While ``recording`` is true each wrapped call appends a span (name,
start, end, parent span) to in-memory arrays; nothing is written until
``write_spans``.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import builtins
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from kerrpurify import fock

LAYERS = {
    "fock": ("project_probe", "probe_outcomes", "overlap", "product_state", "create_photon"),
    "qnd": ("apply_qnd", "apply_kerr"),
    "elements": ("pbs", "coupler", "sigma_x", "sigma_z", "diagonal_outcomes"),
    "sources": ("single_pair_state", "bell_pair", "two_pair_components"),
    "branches": ("run_branch_suite", "run_branch_case"),
    "protocol": ("single_pair_leaves", "stage1_records", "stage2_records", "pbs_records",
                 "trial_uniforms", "stage1_monte_carlo", "stage2_monte_carlo"),
    "cli": ("main",),
}

# counts taken from each call's result, summed under "<span name>.<key>"
RESULT_COUNTS = {
    "qnd.apply_qnd": lambda state: {"branches_out": len(state)},
    "protocol.single_pair_leaves": lambda leaves: {"records_out": len(leaves)},
    "protocol.stage1_records": lambda records: {"records_out": len(records)},
    "protocol.stage2_records": lambda records: {"records_out": len(records)},
    "protocol.pbs_records": lambda records: {"records_out": len(records)},
    "protocol.trial_uniforms": lambda u: {"words": u.size, "trials": len(u), "bytes": u.nbytes},
}

SPAN_NAMES = (["fock.PureState.of"]
              + [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns])


class Tracer:
    def __init__(self):
        self.recording = False
        self.counts = Counter()
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._main_depth = 0
        self._restore = []

    # -- installing and restoring -------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kerrpurify" or n.startswith("kerrpurify.")]
        for module_name, names in LAYERS.items():
            defining = sys.modules[f"kerrpurify.{module_name}"]
            for fn_name in names:
                original = getattr(defining, fn_name)
                wrapper = self._span(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        of = fock.PureState.__dict__["of"].__func__
        self._set(fock.PureState, "of", staticmethod(self._span("fock.PureState.of", of)))
        self._set(fock.PhaseTag, "__init__",
                  self._counted("fock.PhaseTag.new.calls", fock.PhaseTag.__init__))
        self._set(fock.PhaseTag, "__hash__",
                  self._counted("fock.PhaseTag.hash.calls", fock.PhaseTag.__hash__))
        self._set(builtins, "open", self._counted_open(builtins.open))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        span_name = self._ids[name]
        count = RESULT_COUNTS.get(name)
        tracer = self
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = len(tracer._name)
            tracer._name.append(span_name)
            tracer._parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._end.append(0.0)
            tracer._stack.append(span)
            tracer._main_depth += is_main
            tracer._start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[span] = time.perf_counter()
                tracer._main_depth -= is_main
                tracer._stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_open(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted_open(*args, **kwargs):
            if tracer.recording and tracer._main_depth:
                tracer.counts["cli.file_opens"] += 1
            return fn(*args, **kwargs)

        return counted_open

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls and self seconds, summed over the recording."""
        s = self.spans()
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        children = np.bincount(s["parent"][has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        n = len(SPAN_NAMES)
        calls = np.bincount(s["name"], minlength=n)
        self_s = np.bincount(s["name"], weights=duration - children, minlength=n)
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(SPAN_NAMES)}

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation metrics of every layer: name -> (value, unit)."""
        out = {}
        for name, (calls, self_s) in self.summary().items():
            out[f"{name}.calls"] = (calls / n_ops, "calls/op")
            out[f"{name}.self_ms"] = (1e3 * self_s / n_ops, "ms/op")
        c = self.counts
        for name in ("fock.PhaseTag.new.calls", "fock.PhaseTag.hash.calls"):
            out[name] = (c[name] / n_ops, "calls/op")
        out["qnd.apply_qnd.branches_out"] = (c["qnd.apply_qnd.branches_out"] / n_ops,
                                             "branches/op")
        for name in RESULT_COUNTS:
            if name.startswith("protocol.") and name != "protocol.trial_uniforms":
                out[f"{name}.records_out"] = (c[f"{name}.records_out"] / n_ops, "records/op")
        trials = c["protocol.trial_uniforms.trials"]
        out["protocol.trial_uniforms.words_per_trial"] = (
            c["protocol.trial_uniforms.words"] / trials if trials else 0.0, "words/trial")
        out["protocol.trial_uniforms.mb"] = (c["protocol.trial_uniforms.bytes"] / 1e6 / n_ops,
                                             "MB/op")
        out["cli.file_opens"] = (c["cli.file_opens"] / n_ops, "opens/op")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(SPAN_NAMES), **self.spans())
