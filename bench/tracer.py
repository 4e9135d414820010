"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces each hooked function or method of ``coopsim``
with a wrapper that records a span (id, parent id, name, start, end) and
counts calls.  A module-level function is replaced under every name that
binds it in any ``coopsim`` module, so names that one module imported from
another with ``from ... import`` (and aliases such as
``engine.parse_statement``) are traced too.  A method is replaced on the
class that defines it.  ``Tracer.restore`` puts every original back.

A hook whose target no longer exists is skipped: it reports zero calls and
never fails the run.  Spans are kept in memory (up to ``SPAN_CAP`` of them;
the per-name totals count every call) and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

SPAN_CAP = 200_000


def _faded(counters, args, result):
    if getattr(getattr(result, "state", None), "value", None) == "faded":
        counters["lifecycle.faded"] += 1


def _adequacy_scan(counters, args, result):
    counters["agents.adequacy_scanned"] += len(getattr(args[0], "fragments", ()))
    counters["agents.adequacy_returned"] += len(result)


def _fragments(counters, args, result):
    counters["statements.fragments"] += len(result)


def _equivalent_hit(counters, args, result):
    if result:
        counters["statements.equivalent_hits"] += 1


def _discard_fast(counters, args, result):
    if getattr(result, "value", None) == "discard-fast":
        counters["appraisal.discard_fast"] += 1


# (layer, module, attribute path, metric name, observer).  The observer sees
# each call's arguments and result and feeds the counters behind the ratios.
HOOKS = (
    ("lifecycle", "coopsim.lifecycle", "LifecycleRecord.step_fade", "step_fade", _faded),
    ("engine", "coopsim.engine", "load", "load", None),
    ("engine", "coopsim.engine", "run", "run", None),
    ("engine", "coopsim.engine", "_Engine.apply_event", "apply_event", None),
    ("engine", "coopsim.engine", "_Engine.deliver", "deliver", None),
    ("engine", "coopsim.engine", "_Engine.fade_step", "fade_step", None),
    ("engine", "coopsim.engine", "_Engine.termination_step", "termination_step", None),
    ("engine", "coopsim.engine", "_Engine.emit", "emit", None),
    ("engine", "coopsim.engine", "RunResult.trace_text", "trace_text", None),
    ("agents", "coopsim.agents", "AgentState.active_adequacy_records",
     "active_adequacy_records", _adequacy_scan),
    ("agents", "coopsim.agents", "AgentState.prune_adequacy_index",
     "prune_adequacy_index", None),
    ("agents", "coopsim.agents", "on_adequacy_promise", "on_adequacy_promise", None),
    ("agents", "coopsim.agents", "on_imposition", "on_imposition", None),
    ("agents", "coopsim.agents", "on_outcome", "on_outcome", None),
    ("agents", "coopsim.agents", "apply_unload_rule", "apply_unload_rule", None),
    ("statements", "coopsim.statements", "parse", "parse", None),
    ("statements", "coopsim.statements", "fragment_on_issue", "fragment_on_issue",
     _fragments),
    ("statements", "coopsim.statements", "equivalent", "equivalent", _equivalent_hit),
    ("appraisal", "coopsim.appraisal", "credibility_gate", "credibility_gate",
     _discard_fast),
    ("appraisal", "coopsim.appraisal", "attribute_install_decision",
     "attribute_install_decision", None),
    ("trust", "coopsim.trust", "TrustStore.record_assessment", "record_assessment", None),
    ("trust", "coopsim.trust", "level_from_history", "level_from_history", None),
    ("trust", "coopsim.trust", "TrustStore.get", "get", None),
    ("trust", "coopsim.trust", "TrustStore.set", "set", None),
    ("reputation", "coopsim.reputation", "lor_update", "lor_update", None),
    ("reputation", "coopsim.reputation", "survey_reinit", "survey_reinit", None),
)

COUNTERS = (
    "lifecycle.faded",
    "agents.adequacy_scanned",
    "agents.adequacy_returned",
    "statements.fragments",
    "statements.equivalent_hits",
    "appraisal.discard_fast",
)


def _package_modules(package="coopsim"):
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Spans and call totals for one traced run; see the module docstring."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names = [f"{layer}.{name}" for layer, _, _, name, _ in hooks]
        self.calls = [0] * len(hooks)
        self.self_ns = [0] * len(hooks)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.spans_dropped = 0
        self._next_id = 0
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, index, fn, observe):
        tracer = self
        calls, self_ns, counters = self.calls, self.self_ns, self.counters
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_ns[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer._record(span_id, stack[-1][0] if stack else -1, index, start, end)
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def _record(self, span_id, parent, index, start, end):
        if span_id >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.span_id.append(span_id)
        self.span_parent.append(parent)
        self.span_name.append(index)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Hook every target that exists.  Call ``restore`` afterwards."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = []
        for index, (_, module_name, path, _, observe) in enumerate(self.hooks):
            try:
                targets.append((index, importlib.import_module(module_name), path, observe))
            except ImportError:
                continue
        modules = _package_modules()
        try:
            for index, module, path, observe in targets:
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part, None)
                if owner is None or attr not in getattr(owner, "__dict__", {}):
                    continue
                original = owner.__dict__[attr]
                wrapper = self._wrap(index, original, observe)
                if owner_path:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """``<layer>.<fn>.calls`` and ``<layer>.<fn>.self_s`` for every hook."""
        out = {}
        for name, calls, self_ns in zip(self.names, self.calls, self.self_ns):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
        return out

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span_id, parent, index, start, end in zip(
                self.span_id, self.span_parent, self.span_name, self.span_start,
                self.span_end,
            ):
                handle.write(
                    f"{span_id}\t{parent}\t{self.names[index]}\t{start}\t{end}\n"
                )
            if self.spans_dropped:
                handle.write(f"# {self.spans_dropped} spans beyond the cap not kept\n")
