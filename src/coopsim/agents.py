"""Per-agent behavior: prepared programs, imposition handling, trust rules.

The reasoning an agent applies when it receives an adequacy promise, a task
imposition, or an outcome observation is driven by its current trust
levels:

* adequacy promise: a matching attribute rule installs or refuses
  regardless of trust; otherwise positive trust prepares the program,
  non-positive trust refuses the install, and strong distrust in a sole
  promiser unloads an already prepared program.
* task request: a single prepared program is used at non-negative trust; at
  trust -1 only if it was used before; with several candidates the program
  promised by the most trusted agent wins (ties broken by per-program trust
  sums, then promise recency, then program name).
* imposition: when the impositioner is highly trusted the agent applies
  extra scrutiny to the program promiser, warning or proposing withdrawal
  instead of risking a failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .appraisal import InstallVerdict
from .statements import DirectionalKind, Statement
from .trust import (
    AppreciationKey,
    AppreciationKind,
    Outcome,
    TramPolicy,
    TrustStore,
)

__all__ = [
    "ActionKind",
    "Action",
    "AdequacyTagError",
    "PendingWarning",
    "AgentState",
    "parse_adequacy_tag",
    "on_adequacy_promise",
    "on_task_request",
    "on_imposition",
    "on_outcome",
    "apply_unload_rule",
    "resolve_reply",
]

# bound once: ``hold`` and ``release`` run per fragment, and each read of an
# enum member off its class costs about 0.1 us on CPython 3.11
_PROMISE = DirectionalKind.PROMISE
_ADEQUACY_RE = re.compile(r"adequacy\(([A-Za-z0-9_-]+),([A-Za-z0-9_-]+)\)")


class AdequacyTagError(ValueError):
    pass


def parse_adequacy_tag(tag: str):
    m = _ADEQUACY_RE.fullmatch(tag)
    if not m:
        raise AdequacyTagError(f"not an adequacy type tag: {tag!r}")
    return m.group(1), m.group(2)


class ActionKind(Enum):
    PREPARE = "prepare"
    REFUSE_INSTALL = "refuse-install"
    UNLOAD = "unload"
    USE = "use"
    FAIL = "fail"
    WARN = "warn"
    PROPOSE_WITHDRAW = "propose-withdraw"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    program: Optional[str] = None
    task: Optional[str] = None
    target: Optional[str] = None

    def detail(self) -> str:
        parts = []
        if self.program is not None:
            parts.append(f"program={self.program}")
        if self.task is not None:
            parts.append(f"task={self.task}")
        if self.target is not None:
            parts.append(f"target={self.target}")
        return ",".join(parts)


@dataclass(frozen=True)
class PendingWarning:
    imposer: str
    task: str
    program: str
    promiser: str


@dataclass
class AgentState:
    id: str
    trust: TrustStore = field(default_factory=TrustStore)
    fragments: list = field(default_factory=list)  # live records, every kind
    promises: dict = field(default_factory=dict)  # type tag -> live promises
    prepared: dict = field(default_factory=dict)  # (program, task) -> used before
    # (program, task) -> {promiser: tick of its last engaged adequacy promise}
    adequacy_index: dict = field(default_factory=dict)
    pending: dict = field(default_factory=dict)
    # (type tag, promiser) of the promises released since the last prune
    lapsed: set = field(default_factory=set, init=False, repr=False, compare=False)
    general_keys: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def general_key(self, target: str) -> AppreciationKey:
        """This agent's general-trust key for ``target``, built once."""
        key = self.general_keys.get(target)
        if key is None:
            key = AppreciationKey(AppreciationKind.GENERAL_TRUST, self.id, target)
            self.general_keys[target] = key
        return key

    def hold(self, rec):
        """Hold a new record until ``release``, a promise also by its tag."""
        self.fragments.append(rec)
        stmt = rec.statement
        if stmt.kind is _PROMISE:
            self.promises.setdefault(stmt.type_tag, []).append(rec)

    def release(self, rec) -> bool:
        """Let go of a record that has ended: only live records are held.  A
        released promise's pair is noted for ``prune_adequacy_index``; the
        result says whether there was one."""
        self.fragments.remove(rec)
        stmt = rec.statement
        if stmt.kind is not _PROMISE:
            return False
        live = self.promises[stmt.type_tag]
        live.remove(rec)
        if not live:
            del self.promises[stmt.type_tag]
        self.lapsed.add((stmt.type_tag, stmt.promiser))
        return True

    def trust_in(self, target: str) -> int:
        return self.trust.get(self.general_key(target))

    def promisers_for(self, program: str, task: str):
        """Distinct agents with an indexed adequacy promise for (program, task)."""
        return self.adequacy_index.get((program, task), {}).keys()

    def active_adequacy_records(self, program: str, task: str):
        """The live adequacy promises for (program, task), in hold order."""
        return list(self.promises.get(f"adequacy({program},{task})", ()))

    def prune_adequacy_index(self):
        """Drop index entries whose promiser no longer has a live promise.

        An entry is added only after its promise is held, and a pair loses
        its last live promise only through ``release``, which records it in
        ``lapsed``; so only the lapsed pairs need a look.
        """
        for tag, promiser in self.lapsed:
            match = _ADEQUACY_RE.fullmatch(tag)
            live = self.promises.get(tag, ())
            if match and all(rec.statement.promiser != promiser for rec in live):
                entries = self.adequacy_index.get(match.groups(), {})
                entries.pop(promiser, None)
                if not entries:
                    self.adequacy_index.pop(match.groups(), None)
        self.lapsed.clear()


def on_adequacy_promise(
    state: AgentState,
    promise: Statement,
    now: int,
    verdict: InstallVerdict = InstallVerdict.NO_RULE,
) -> list:
    """React to a received adequacy promise (rules 1, 2, and the unload rule).

    ``verdict`` is the attribute rule table's decision for the promised
    program and task; only when no rule matched does promiser trust decide.
    The promise is indexed whatever the outcome.
    """
    program, task = parse_adequacy_tag(promise.type_tag)
    state.adequacy_index.setdefault((program, task), {})[promise.promiser] = now
    if verdict is InstallVerdict.NO_RULE:
        level = state.trust_in(promise.promiser)
        if (
            level == -2
            and (program, task) in state.prepared
            and state.promisers_for(program, task) == {promise.promiser}
        ):
            del state.prepared[(program, task)]
            return [Action(ActionKind.UNLOAD, program=program, task=task)]
        verdict = (
            InstallVerdict.INSTALL if level > 0 else InstallVerdict.REFUSE_INSTALL
        )
    if verdict is InstallVerdict.REFUSE_INSTALL:
        return [Action(ActionKind.REFUSE_INSTALL, program=program, task=task)]
    if (program, task) in state.prepared:
        return []
    state.prepared[(program, task)] = False
    return [Action(ActionKind.PREPARE, program=program, task=task)]


def apply_unload_rule(state: AgentState) -> list:
    """Unload prepared programs whose sole adequacy promiser hit trust -2."""
    actions = []
    for (program, task) in sorted(state.prepared):
        promisers = state.promisers_for(program, task)
        if len(promisers) == 1 and state.trust_in(next(iter(promisers))) == -2:
            del state.prepared[(program, task)]
            actions.append(Action(ActionKind.UNLOAD, program=program, task=task))
    return actions


def _select_candidate(state: AgentState, candidates: list, task: str) -> str:
    """Rule 6/7 argmax: highest promiser trust, then per-program trust sums,
    then most recent adequacy promise by a maximally trusted promiser, then
    lexicographic program id."""
    stats = {}
    for program in candidates:
        latest = state.adequacy_index[(program, task)]
        trusts = {p: state.trust_in(p) for p in latest}
        top = max(trusts.values())
        total = sum(trusts.values())
        recent = max(t for p, t in latest.items() if trusts[p] == top)
        stats[program] = (top, total, recent)
    best_top = max(s[0] for s in stats.values())
    pool = [c for c in candidates if stats[c][0] == best_top]
    best_total = max(stats[c][1] for c in pool)
    pool = [c for c in pool if stats[c][1] == best_total]
    best_recent = max(stats[c][2] for c in pool)
    pool = [c for c in pool if stats[c][2] == best_recent]
    return min(pool)


def on_task_request(state: AgentState, task: str) -> Action:
    """Choose a program for a requested task (rules 3-7); failing is a value,
    not an error."""
    candidates = sorted(
        program
        for (program, t) in state.prepared
        if t == task and state.promisers_for(program, task)
    )
    if not candidates:
        return Action(ActionKind.FAIL, task=task)
    if len(candidates) == 1:
        program = candidates[0]
        promisers = state.promisers_for(program, task)
        if len(promisers) == 1:
            level = state.trust_in(next(iter(promisers)))
            if level >= 0:
                return Action(ActionKind.USE, program=program, task=task)
            if level == -1:
                if state.prepared[(program, task)]:
                    return Action(ActionKind.USE, program=program, task=task)
                return Action(ActionKind.FAIL, task=task)
            return Action(ActionKind.FAIL, task=task)
    program = _select_candidate(state, candidates, task)
    return Action(ActionKind.USE, program=program, task=task)


def on_imposition(state: AgentState, imposer: str, task: str) -> list:
    """Balance impositioner trust against program-promiser trust.

    The balancing rules apply only in their stated precondition: exactly one
    program prepared for the task, promised adequate by exactly one agent,
    and a positively trusted impositioner.  Everything else falls through to
    the plain task-request rules.
    """
    candidates = [
        program
        for (program, t) in sorted(state.prepared)
        if t == task and state.promisers_for(program, task)
    ]
    single = len(candidates) == 1 and len(
        state.promisers_for(candidates[0], task)
    ) == 1
    trust_imposer = state.trust_in(imposer)
    if single and trust_imposer >= 1:
        program = candidates[0]
        promiser = next(iter(state.promisers_for(program, task)))
        trust_promiser = state.trust_in(promiser)
        if trust_imposer == 2:
            if trust_promiser == 2:
                return [Action(ActionKind.USE, program=program, task=task)]
            if trust_promiser == 1:
                state.pending[task] = PendingWarning(
                    imposer=imposer, task=task, program=program, promiser=promiser
                )
                return [Action(ActionKind.WARN, task=task, target=imposer)]
            return [Action(ActionKind.PROPOSE_WITHDRAW, task=task, target=imposer)]
        if trust_promiser >= 1:
            return [Action(ActionKind.USE, program=program, task=task)]
        return [Action(ActionKind.PROPOSE_WITHDRAW, task=task, target=imposer)]
    return [on_task_request(state, task)]


def resolve_reply(state: AgentState, imposer: str, proceed: bool) -> Optional[Action]:
    """Resolve a pending warning reply: proceed uses the held program,
    a withdrawal drops the imposition."""
    for task, pend in sorted(state.pending.items()):
        if pend.imposer == imposer:
            del state.pending[task]
            if proceed:
                return Action(ActionKind.USE, program=pend.program, task=pend.task)
            return None
    return None


def on_outcome(
    state: AgentState,
    program: str,
    task: str,
    result: Outcome,
    now: int,
    policy: TramPolicy = TramPolicy.INCREMENTAL,
    fade_to: Optional[int] = None,
) -> list:
    """Assess all active adequacy fragments matching the observed outcome,
    release them and update trust in each promiser.  Returns the assessed
    records sorted by token; an outcome that matches no active fragment
    changes nothing.  ``fade_to`` is passed on to ``LifecycleRecord.assess``."""
    records = sorted(
        state.active_adequacy_records(program, task), key=lambda r: r.token
    )
    if not records:
        return records
    for rec in records:
        rec.assess(result, now, fade_to)
        state.release(rec)
        state.trust.record_assessment(
            state.general_key(rec.statement.promiser), result, now, policy
        )
    if (program, task) in state.prepared:
        state.prepared[(program, task)] = True
    state.prune_adequacy_index()
    return records
