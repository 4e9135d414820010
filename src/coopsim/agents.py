"""Per-agent behavior: prepared programs, imposition handling, trust rules.

The reasoning an agent applies when it receives an adequacy promise, a task
imposition, or an outcome observation is driven by its current trust
levels.  An agent files only the fragments those rules read, its live
adequacy promises (``files``), each as its token and promiser; the engine
holds every live fragment, by cohort, and releases a filed one when it ends
(``_Engine.retire``).
Adequacy bookkeeping is keyed by ``Statement.adequacy``:

* adequacy promise: a matching attribute rule installs or refuses
  regardless of trust; otherwise positive trust prepares the program and
  non-positive trust refuses the install.
* unload rule (``_unload``, on a promise and after an outcome): a prepared
  program whose only promiser is at trust -2 is unloaded.
* task request: a single prepared program is used at non-negative trust; at
  trust -1 only if it was used before; with several candidates the program
  promised by the most trusted agent wins (``rank``: ties broken by
  per-program trust sums, then promise recency, then program name).
* imposition: when the impositioner is highly trusted the agent applies
  extra scrutiny to the program promiser, warning or proposing withdrawal
  instead of risking a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .appraisal import InstallVerdict
from .statements import DirectionalKind, Statement
from .trust import Outcome, TramPolicy, TrustStore

__all__ = [
    "ActionKind",
    "Action",
    "AgentState",
    "files",
    "on_adequacy_promise",
    "on_task_request",
    "on_imposition",
    "on_outcome",
    "apply_unload_rule",
    "resolve_reply",
]


def files(stmt: Statement) -> bool:
    """Whether an agent files ``stmt`` (``AgentState.hold``): only adequacy
    promises, the one kind of fragment the rules read."""
    return stmt.kind is DirectionalKind.PROMISE and stmt.adequacy is not None


class ActionKind(Enum):
    PREPARE = "prepare"
    REFUSE_INSTALL = "refuse-install"
    UNLOAD = "unload"
    USE = "use"
    FAIL = "fail"
    WARN = "warn"
    PROPOSE_WITHDRAW = "propose-withdraw"


class Action(NamedTuple):
    kind: ActionKind
    task: str
    program: Optional[str] = None
    target: Optional[str] = None

    def detail(self) -> str:
        parts = []
        if self.program is not None:
            parts.append(f"program={self.program}")
        parts.append(f"task={self.task}")
        if self.target is not None:
            parts.append(f"target={self.target}")
        return ",".join(parts)


@dataclass
class AgentState:
    id: str
    trust: TrustStore = field(default_factory=TrustStore)
    fragments: list = field(default_factory=list)  # live fragments, filled at run end
    # (program, task) -> {token: promiser} of the live adequacy promises
    promises: dict = field(default_factory=dict)
    prepared: dict = field(default_factory=dict)  # (program, task) -> used before
    # (program, task) -> {promiser: tick of its last engaged adequacy promise}
    adequacy_index: dict = field(default_factory=dict)
    # task -> (imposer, program) of a warning that awaits the imposer's reply
    pending: dict = field(default_factory=dict)
    # (pair, promiser) of the adequacy promises released since the last prune
    lapsed: set = field(default_factory=set, init=False, repr=False, compare=False)

    def hold(self, stmt: Statement, token: str):
        """File this agent's fragment ``token`` of the adequacy promise
        ``stmt`` (``files``) under its pair until ``release``."""
        self.promises.setdefault(stmt.adequacy, {})[token] = stmt.promiser

    def release(self, stmt: Statement, token: str):
        """Let go of the filed fragment ``token`` of ``stmt``, which has
        ended, noting it for ``prune_adequacy_index``."""
        live = self.promises[stmt.adequacy]
        del live[token]
        if not live:
            del self.promises[stmt.adequacy]
        self.lapsed.add((stmt.adequacy, stmt.promiser))

    def trust_in(self, target: str) -> int:
        return self.trust.general.get(target, 0)

    def promisers_for(self, program: str, task: str):
        """Distinct agents with an indexed adequacy promise for (program, task)."""
        return self.adequacy_index.get((program, task), {}).keys()

    def active_adequacy_records(self, program: str, task: str):
        """The (token, promiser) of each live adequacy promise for
        (program, task), in hold order."""
        return list(self.promises.get((program, task), {}).items())

    def prune_adequacy_index(self):
        """Drop index entries whose promiser no longer has a live promise.

        An entry is added only after its promise is held, and a pair loses
        its last live promise only through ``release``, which records it in
        ``lapsed``; so only the lapsed pairs need a look.
        """
        for pair, promiser in self.lapsed:
            if promiser not in self.promises.get(pair, {}).values():
                entries = self.adequacy_index.get(pair, {})
                entries.pop(promiser, None)
                if not entries:
                    self.adequacy_index.pop(pair, None)
        self.lapsed.clear()


def _unload(state: AgentState, program: str, task: str) -> list:
    """The unload rule: a prepared program whose only promiser is at -2 is unloaded."""
    promisers = state.promisers_for(program, task)
    if (
        (program, task) in state.prepared
        and len(promisers) == 1
        and state.trust_in(next(iter(promisers))) == -2
    ):
        del state.prepared[(program, task)]
        return [Action(ActionKind.UNLOAD, program=program, task=task)]
    return []


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
    program, task = promise.adequacy
    state.adequacy_index.setdefault((program, task), {})[promise.promiser] = now
    if verdict is InstallVerdict.NO_RULE:
        level = state.trust_in(promise.promiser)
        # just indexed, this promiser is the sole one if there is one
        unloaded = level == -2 and _unload(state, program, task)
        if unloaded:
            return unloaded
        verdict = InstallVerdict.INSTALL if level > 0 else InstallVerdict.REFUSE_INSTALL
    if verdict is InstallVerdict.REFUSE_INSTALL:
        return [Action(ActionKind.REFUSE_INSTALL, program=program, task=task)]
    if (program, task) in state.prepared:
        return []
    state.prepared[(program, task)] = False
    return [Action(ActionKind.PREPARE, program=program, task=task)]


def apply_unload_rule(state: AgentState) -> list:
    """The unload rule over every prepared program, in (program, task) order."""
    return [
        action for pair in sorted(state.prepared) for action in _unload(state, *pair)
    ]


def _candidates(state: AgentState, task: str) -> list:
    """The programs prepared for ``task`` that an indexed promise backs, sorted."""
    return sorted(
        program
        for (program, t) in state.prepared
        if t == task and state.promisers_for(program, task)
    )


def _sole_promiser(state: AgentState, candidates: list, task: str):
    """The one promiser of a single candidate, else None."""
    if len(candidates) == 1:
        promisers = state.promisers_for(candidates[0], task)
        if len(promisers) == 1:
            return next(iter(promisers))
    return None


def on_task_request(state: AgentState, task: str) -> Action:
    """Choose a program for a requested task (rules 3-7); failing is a value,
    not an error."""
    candidates = _candidates(state, task)
    sole = _sole_promiser(state, candidates, task)
    # a sole promiser needs trust 0, or -1 for a program used before
    if not candidates or (
        sole is not None
        and state.trust_in(sole) < (-1 if state.prepared[candidates[0], task] else 0)
    ):
        return Action(ActionKind.FAIL, task=task)

    def rank(program):
        """Rule 6/7: highest promiser trust, then the per-program trust sum,
        then the most recent adequacy promise by a most trusted promiser."""
        latest = state.adequacy_index[(program, task)]
        trusts = {p: state.trust_in(p) for p in latest}
        top = max(trusts.values())
        recent = max(t for p, t in latest.items() if trusts[p] == top)
        return top, sum(trusts.values()), recent

    # max keeps the first of equal ranks: the least program id
    return Action(ActionKind.USE, program=max(candidates, key=rank), task=task)


def on_imposition(state: AgentState, imposer: str, task: str) -> list:
    """Balance impositioner trust against program-promiser trust.

    The balancing rules apply only in their stated precondition: exactly one
    program prepared for the task, promised adequate by exactly one agent,
    and a positively trusted impositioner.  Everything else falls through to
    the plain task-request rules.
    """
    candidates = _candidates(state, task)
    promiser = _sole_promiser(state, candidates, task)
    trust_imposer = state.trust_in(imposer)
    if promiser is None or trust_imposer < 1:
        return [on_task_request(state, task)]
    program = candidates[0]
    trust_promiser = state.trust_in(promiser)
    # a promiser at 2 is used; at 1, used under an impositioner at 1, else warned of
    if trust_promiser == 2 or trust_promiser == trust_imposer == 1:
        return [Action(ActionKind.USE, program=program, task=task)]
    if trust_promiser == 1:
        state.pending[task] = (imposer, program)
        return [Action(ActionKind.WARN, task=task, target=imposer)]
    return [Action(ActionKind.PROPOSE_WITHDRAW, task=task, target=imposer)]


def resolve_reply(state: AgentState, imposer: str, proceed: bool) -> Optional[Action]:
    """Resolve a pending warning reply: proceed uses the held program,
    a withdrawal drops the imposition."""
    for task, (warned, program) in sorted(state.pending.items()):
        if warned == imposer:
            del state.pending[task]
            if proceed:
                return Action(ActionKind.USE, program=program, task=task)
            return None
    return None


def on_outcome(
    state: AgentState,
    program: str,
    task: str,
    result: Outcome,
    now: int,
    policy: TramPolicy = TramPolicy.INCREMENTAL,
) -> list:
    """Assess the live adequacy promises matching the observed outcome:
    update trust in each promiser and mark the program used.  Returns their
    (token, promiser) sorted by token, with the fragments still live, for
    the engine to split each off its cohort and end it kept or broken
    (``_Engine.retire``); an outcome that matches no live promise changes
    nothing."""
    assessed = sorted(state.active_adequacy_records(program, task))
    if not assessed:
        return assessed
    for _, promiser in assessed:
        state.trust.record_assessment(promiser, result, now, policy)
    if (program, task) in state.prepared:
        state.prepared[(program, task)] = True
    return assessed
