"""Deterministic scenario engine.

Runs a scenario that ``scenario.load`` read, whose header it only reads,
and produces a line-oriented trace; the same scenario always produces a
byte-identical trace.  The run applies the header's ``trust`` and
``expect-trust`` lines and then walks every tick the scenario names.

At every tick, with or without directives, the engine (1) injects the tick's
directives, in file order or, under round-robin, one directive per source in
turn with the sources in id order, which is (turn, source) order, (2)
delivers each issued statement under a fresh token to every agent in
effective scope plus the promisee, as one cohort (``lifecycle.Cohort``) that
holds the sorted list of its fresh recipients, works out once per delivery
what depends only on the statement (route, rate, the reacting promisee and a
discarded statement's lifecycle text), and files the cohort's fade deadline
once, (3) gates once per credibility level in a run, and lets receiving
agents react by their trust rules in lexicographic order, with one attribute
install verdict per (program, task) in a run, (4) applies outcome
assessments and trust updates, with one survey average and reinitialized
level per (trust sum, group size) in a run and one trust-line tail per
survey, (5) fades the cohorts whose fade deadline has come, and (6)
announces globally terminated statements.  ``load`` has validated every
statement and attribute, so delivery validates nothing again: it keys
refreshes by a tuple of plain values (``equivalence_key``), and an attribute
verdict reads a plain dict.

Fading is event-driven, so the cost of a run is linear in its ticks.  A
fragment's fade deadline is an integer tick known when it is issued or
refreshed (``lifecycle.Cohort.fade_deadline``), so it goes into a heap of
``(deadline, origin, token)`` entries, ``_Engine.deadlines``, one per
cohort: one per delivery, and one per token that a reissue refreshes at a
new origin, however many of its fragments it refreshes.  An entry names a
token, never a fragment.  At an entry due by this tick, step (5) fades the
token's cohort for the entry's origin, and skips a token that ended, or an
origin that refreshes emptied, since.  A cohort shares a token, state, rate
and ticks faded, so step (5) ends each cohort with one ``retire`` (a token
refreshed in part ends as two cohorts), formats one lifecycle text per
cohort, writes the tick's lines in (agent, token) order with one sort and
prunes the adequacy index of only the agents that released a promise this
tick.  ``lifecycle_text`` formats each distinct (state, rate, ticks faded)
tail once per run.

``_Engine.live`` alone holds the live fragments, by token and then by
origin, one cohort each, so they are all active; the refresh map
``refreshable`` points each agent at its cohort, and an agent files its
live adequacy promises (``agents.files``) by token, with their promiser.  A
fragment leaves its cohort only when it diverges: an equivalent reissue
moves it into its token's cohort for the new origin (``refresh``), and an
outcome that assesses it splits it off (``split``) and ends it alone.  A
fragment ends, kept, broken, withdrawn or faded, only in
``_Engine.retire``, which ends a whole cohort: it sets the ending state,
shows the level as of the last tick fading ran at (``fade_tick``, which
step (5) sets first), and takes the cohort out of its token, the refresh
map and its agents' files in one step and queues those agents' index
prunes.  Step (6) announces the tokens whose last cohort ended in token
order, which is string order (``10-1`` before ``9-0``), as is the order an
outcome writes its assessed fragments in.  At the end of the run each live
fragment becomes a cohort of one that shows its level as of the last fade
tick and joins its agent's ``fragments``, in delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import count, groupby
from operator import attrgetter

from . import agents as agent_rules
from .agents import Action, AgentState
from .appraisal import (
    DISCARD_FAST_MULTIPLIER,
    Route,
    attribute_install_decision,
    credibility_gate,
    credibility_level,
)
from .lifecycle import Cohort, LifecycleState
from .reputation import lor_update, survey_reinit
from .scenario import (  # load too: the benchmark calls ``engine.load``
    _ROWS,
    Directive,
    InterleavingStrategy,
    Scenario,
    load,
)
from .statements import Statement, _fmt_fraction, equivalence_key
from .statements import parse as parse_statement  # bench/test_bench.py traces it here
from .trust import _KINDS, PTRUST, Outcome

__all__ = ["ExpectResult", "RunResult", "load", "run"]


@dataclass(frozen=True)
class ExpectResult:
    tick: int
    subject: str
    target: str
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass
class RunResult:
    trace: list
    expects: list
    agents: dict

    def trace_text(self) -> str:
        return "\n".join(self.trace) + "\n" if self.trace else ""


def _lifecycle_head(tick, token) -> str:
    """A lifecycle line up to its subject, which the caller appends."""
    return f"t={tick} lifecycle token={token} subject="


def _trust_head(tick) -> str:
    """A trust line up to its subject, which the caller appends."""
    return f"t={tick} trust subject="


def _trust_tail(target, kind, level, cause) -> str:
    """A trust line after its subject: every trust line ends in this text."""
    return f" target={target} kind={kind} level={level} cause={cause}"


class _Agents(dict):
    """Agent id -> ``AgentState``: looking up an id that is missing
    registers it, so an agent exists from the first handler that reads it."""

    def __missing__(self, name):
        state = self[name] = AgentState(id=name)
        return state


class _Engine:
    def __init__(self, scenario: Scenario):
        self.header = scenario.header
        self.scenario = scenario
        self.agents = _Agents()
        self.sequence = count()  # a token's sequence number, global to the run
        self.fade = self.header.default_fade
        self.trace: list = []
        self.expects: list = []
        # fading, refresh and termination state; see the module docstring
        self.deadlines: list = []  # fade queue: heap of (deadline, origin, token)
        self.fade_tick = -1  # last tick fading ran at; ticks are not negative
        # token -> (equivalence key, its refreshable map, {origin: cohort})
        self.live: dict = {}
        self.refreshable: dict = {}  # equivalence key -> {agent: its live cohort}
        self.to_prune: set = set()  # agents that released a promise this tick
        self.terminated: set = set()  # tokens whose last fragment ended this tick
        # the header is fixed for the run: each result depends on its arguments
        # alone, so it is worked out once per run (a cache per engine)
        self.lifecycle_text = cache(self.lifecycle_text)
        self.gate = cache(self.gate)
        self.verdict = cache(self.verdict)
        self.surveyed = cache(self.surveyed)
        # directive "x-y" goes to on_x_y; tick and header-setting lines make none
        self.handlers = {
            name: getattr(self, "on_" + name.replace("-", "_"))
            for name in _ROWS.keys() - {"tick", "policy", "attr", "profile"}
        }

    # -- helpers -----------------------------------------------------------

    def emit(self, line: str):
        self.trace.append(line)

    def emit_trust(self, tick, subject, target, kind, level, cause):
        self.trace.append(
            f"{_trust_head(tick)}{subject}{_trust_tail(target, kind, level, cause)}"
        )

    def lifecycle_text(self, state: LifecycleState, rate: int, ticks: int) -> str:
        """A lifecycle line's `` state=... fade=... rate=...`` tail for
        ``ticks`` ticks faded: the run has one fade spec, so the tail
        depends on these three only."""
        level = self.fade.level(rate, ticks)
        return (
            f" state={state.value} fade={_fmt_fraction(level)} "
            f"rate={_fmt_fraction(rate)}"
        )

    def emit_lifecycle(self, tick, cohort: Cohort, subject: str):
        """The lifecycle line of ``subject``'s fragment in ``cohort``."""
        rate, ticks = cohort.fade_rate_multiplier, cohort.fading_ticks
        tail = self.lifecycle_text(cohort.state, rate, ticks)
        self.trace.append(_lifecycle_head(tick, cohort.token) + subject + tail)

    def warn(self, tick, agent_id, detail: str):
        self.emit(f"t={tick} warning agent={agent_id} detail={detail}")

    def emit_action(self, tick, agent_id, action: Action):
        self.emit(
            f"t={tick} agent={agent_id} action={action.kind.value} "
            f"detail={action.detail()}"
        )

    def gate(self, level) -> Route:
        """The credibility route of a promiser at credibility ``level`` (None:
        an unprofiled promiser, who scores 1/2)."""
        score = Fraction(1, 2) if level is None else PTRUST[level]
        return credibility_gate(score, self.header.gate_floor)

    def route(self, stmt: Statement) -> Route:
        """The credibility route of ``stmt``, by its promiser's level."""
        level = None
        profile = self.header.profiles.get(stmt.promiser)
        if profile is not None:  # an adequacy tag's focus is its program
            pair = stmt.adequacy
            level = credibility_level(
                profile, stmt.type_tag if pair is None else pair[0]
            )
        return self.gate(level)

    def verdict(self, pair):
        """The attribute install verdict for an adequacy (program, task): a
        task's level wins over its program's."""
        program, task = pair
        attrs = self.header.attrs
        return attribute_install_decision({
            **attrs.get(("program", program), {}),
            **attrs.get(("task", task), {}),
        })

    def surveyed(self, total: int, size: int):
        """The average text and reinitialized level of a survey whose group
        of ``size`` members holds trust levels summing to ``total``."""
        average = Fraction(total, size)
        return _fmt_fraction(average), survey_reinit(average)

    # -- run loop ----------------------------------------------------------

    def run(self) -> RunResult:
        for directive in self.scenario.initial:
            self.apply_event(directive)
        # load keeps the events in tick order and every tick, each after the
        # last, so one pass pairs each tick with its directives, if any
        blocks = groupby(self.scenario.events, attrgetter("tick"))
        at, directives = next(blocks, (None, ()))
        for tick in self.scenario.ticks:
            if tick == at:
                for directive in self.order_within_tick(list(directives)):
                    self.apply_event(directive)
                at, directives = next(blocks, (None, ()))
            self.fade_step(tick)
            self.termination_step(tick)
        # a cohort of one per live fragment, each agent's in delivery order,
        # each showing its level as of the last fade tick
        agents, fade, shown = self.agents, self.fade, self.fade_tick
        for _, _, cohorts in self.live.values():
            for cohort in cohorts.values():
                stmt, token = cohort.statement, cohort.token
                origin, rate = cohort.origin, cohort.fade_rate_multiplier
                for subject in cohort.subjects:
                    frag = Cohort(stmt, [subject], token, fade, origin, rate)
                    frag.shown_at = shown
                    agents[subject].fragments.append(frag)
        return RunResult(trace=self.trace, expects=self.expects, agents=dict(agents))

    def order_within_tick(self, directives):
        """``directives`` in file order, or under round-robin in (turn,
        source) order: a directive's turn is the number of directives of the
        tick before it from its source, the promiser of an ``issue`` (or an
        ``impose``, the imposer) and otherwise the first argument."""
        if self.header.interleave is InterleavingStrategy.FILE_ORDER:
            return directives
        turns: dict = {}  # source -> the turn of its latest directive
        keys = []
        for directive in directives:
            stmt = directive.statement
            source = directive.args[0] if stmt is None else stmt.promiser
            turn = turns[source] = turns.get(source, -1) + 1
            keys.append((turn, source, directive))
        keys.sort()  # (turn, source) is unique: directives never compare
        return [directive for _, _, directive in keys]

    # -- directives --------------------------------------------------------

    def apply_event(self, directive: Directive):
        self.handlers[directive.name](directive)

    def on_trust(self, directive: Directive):
        subject, target, program, task, level = directive.args
        self.agents[subject].trust.set(target, level, program, task)
        self.agents[target]  # registers the target
        kind = _KINDS[program is not None, task is not None]
        self.emit_trust(directive.tick, subject, target, kind, level, "init")

    def on_issue(self, directive: Directive):
        self.deliver(directive.statement, directive.tick)

    def deliver(self, stmt: Statement, tick: int):
        token = f"{tick}-{next(self.sequence)}"
        key = equivalence_key(stmt)
        discard = self.route(stmt) is Route.DISCARD_FAST
        rate = DISCARD_FAST_MULTIPLIER if discard else 1
        penalize = discard and self.header.penalize_incredible
        filed = agent_rules.files(stmt)  # an adequacy promise: its promisee reacts
        holders = self.refreshable.setdefault(key, {})
        emit, agents = self.trace.append, self.agents
        emit(
            f"t={tick} issue promiser={stmt.promiser} promisee={stmt.promisee} "
            f"kind={stmt.kind.value} type={stmt.type_tag} token={token}"
        )
        head = f"t={tick} deliver token={token} subject="
        if discard:  # each fresh fragment's line: active, 0 ticks faded
            discard_head = _lifecycle_head(tick, token)
            tail = self.lifecycle_text(LifecycleState.ACTIVE, rate, 0)
        fresh = Cohort(stmt, [], token, self.fade, tick, rate)
        subjects = fresh.subjects  # sorted, as the loop visits them
        for subject in sorted(stmt.recipients):
            emit(head + subject)
            state = agents[subject]
            held = holders.get(subject)
            if held is not None:  # an equivalent reissue: refresh it, trust unaffected
                self.refresh(held, subject, tick)
                continue
            subjects.append(subject)
            holders[subject] = fresh
            if filed:
                state.hold(stmt, token)
            if discard:
                emit(discard_head + subject + tail)
                if penalize and subject != stmt.promiser:
                    level = state.trust.record_assessment(
                        stmt.promiser, Outcome.BROKEN, tick, self.header.tram
                    )
                    self.emit_trust(
                        tick, subject, stmt.promiser, "general-trust", level, "broken"
                    )
            elif filed and subject == stmt.promisee:
                verdict = self.verdict(stmt.adequacy)
                for action in agent_rules.on_adequacy_promise(state, stmt, tick, verdict):
                    self.emit_action(tick, subject, action)
        if subjects:
            self.live[token] = (key, holders, {tick: fresh})
            self.file_deadline(fresh)

    def refresh(self, cohort: Cohort, subject: str, tick: int):
        """Reset the fading of ``subject``'s fragment, now in ``cohort``, at
        ``tick``: move it into its token's cohort for that origin, which
        files its fade deadline when it is made, and write its line."""
        token = cohort.token
        _, holders, cohorts = self.live[token]
        if cohort.origin != tick:  # else it was issued or refreshed this tick
            target = cohorts.get(tick)
            if target is None:
                target = cohorts[tick] = Cohort(
                    cohort.statement, [], token, self.fade, tick,
                    cohort.fade_rate_multiplier,
                )
                self.file_deadline(target)
            if len(cohort.subjects) == 1:  # its deadline entry will find nothing
                del cohorts[cohort.origin]
            else:
                cohort.subjects.remove(subject)
            target.subjects.append(subject)
            holders[subject] = cohort = target
        self.emit_lifecycle(tick, cohort, subject)

    def split(self, cohort: Cohort, subject: str) -> Cohort:
        """``subject``'s fragment of ``cohort`` as a cohort of its own: the
        cohort itself if it holds no other, else a new one that its token's
        map of cohorts does not hold."""
        if len(cohort.subjects) == 1:
            return cohort
        cohort.subjects.remove(subject)
        return Cohort(
            cohort.statement, [subject], cohort.token, self.fade, cohort.origin,
            cohort.fade_rate_multiplier,
        )

    def file_deadline(self, cohort: Cohort):
        """File the fade deadline of ``cohort`` under its token and origin."""
        heappush(self.deadlines, (cohort.fade_deadline(), cohort.origin, cohort.token))

    def on_impose(self, directive: Directive):
        imposer, target, task = directive.args
        self.deliver(directive.statement, directive.tick)
        state = self.agents[target]
        for action in agent_rules.on_imposition(state, imposer, task):
            self.emit_action(directive.tick, target, action)

    def on_outcome(self, directive: Directive):
        agent_id, program, task, result = directive.args
        tick = directive.tick
        state = self.agents[agent_id]
        outcome = Outcome.KEPT if result == "success" else Outcome.BROKEN
        assessed = agent_rules.on_outcome(
            state, program, task, outcome, tick, self.header.tram
        )
        if not assessed:
            detail = f"no-matching-fragment,program={program},task={task}"
            self.warn(tick, agent_id, detail)
            return
        ending = LifecycleState(outcome.value)  # kept or broken
        for token, promiser in assessed:  # the agent holds one fragment of each
            # the refresh map names the cohort the agent's fragment is in now
            cohort = self.split(self.live[token][1][agent_id], agent_id)
            self.retire(cohort, ending)
            self.emit_lifecycle(tick, cohort, agent_id)
            level = state.trust.general[promiser]  # after all of the assessments
            self.emit_trust(
                tick, agent_id, promiser, "general-trust", level, outcome.value
            )
        # pruned now, not at the fade step: the unload rule reads the index
        state.prune_adequacy_index()
        for action in agent_rules.apply_unload_rule(state):
            self.emit_action(directive.tick, agent_id, action)

    def on_withdraw(self, directive: Directive):
        promiser, token = directive.args
        tick = directive.tick
        entry = self.live.get(token)
        if entry is None:
            self.warn(tick, promiser, f"withdraw-no-active-fragment,token={token}")
            return
        cohorts = list(entry[2].values())  # one statement: all withdraw, or none
        if promiser != cohorts[0].statement.promiser:
            reason = f"only the promiser may withdraw (not {promiser!r})"
            self.warn(tick, promiser, f"withdraw-rejected,token={token},reason={reason}")
            return
        for cohort in cohorts:
            self.retire(cohort, LifecycleState.WITHDRAWN)
        # a token's subjects are distinct: the sort never compares cohorts
        for subject, cohort in sorted((s, c) for c in cohorts for s in c.subjects):
            self.emit_lifecycle(tick, cohort, subject)

    def on_lor_request(self, directive: Directive):
        asker, peer, about = directive.args
        tick, agents = directive.tick, self.agents
        # the peer registers before the asker
        peer_level = agents[peer].trust.general.get(about, 0)
        general = agents[asker].trust.general
        new_level = lor_update(general.get(about, 0), peer_level)
        response = "refused" if new_level is None else "communicated"
        self.trace.append(
            f"t={tick} reputation kind=lor asker={asker} peer={peer} "
            f"about={about} peer-level={peer_level} response={response}"
        )
        if new_level is not None:
            general[about] = new_level
            self.emit_trust(tick, asker, about, "general-trust", new_level, "lor")

    def on_survey(self, directive: Directive):
        surveyor, group, about, window = directive.args
        tick, agents = directive.tick, self.agents
        # a member assessed ``about`` recently, at ``since`` or later, keeps its level
        since = tick - (window if window is not None else self.header.recent_window)
        # members register in group order; each one's store is looked up once
        stores = {}
        total = 0
        for member in group:
            trust = stores[member] = agents[member].trust
            total += trust.general.get(about, 0)
        members = sorted(group)
        average, new_level = self.surveyed(total, len(members))
        emit = self.trace.append
        emit(
            f"t={tick} reputation kind=survey surveyor={surveyor} "
            f"about={about} group={','.join(members)} average={average}"
        )
        # every member's trust line is the same but for its subject
        head = _trust_head(tick)
        tail = _trust_tail(about, "general-trust", new_level, "survey")
        for member in members:
            trust = stores[member]
            recent = trust.recent.get(about)  # (last assessed tick, outcomes)
            if recent is None or recent[0] < since:
                trust.general[about] = new_level
                emit(head + member + tail)

    def on_reply(self, directive: Directive):
        sender, receiver, decision = directive.args
        action = agent_rules.resolve_reply(
            self.agents[receiver], sender, proceed=(decision == "proceed")
        )
        if action is not None:
            self.emit_action(directive.tick, receiver, action)

    def on_expect_trust(self, directive: Directive):
        subject, target, program, task, expected = directive.args
        actual = self.agents[subject].trust.get(target, program, task)
        self.expects.append(
            ExpectResult(
                tick=directive.tick,
                subject=subject,
                target=target,
                expected=expected,
                actual=actual,
            )
        )

    # -- per-tick closing steps -------------------------------------------

    def retire(self, cohort: Cohort, state: LifecycleState):
        """End every fragment of ``cohort`` in ``state``, kept, broken,
        withdrawn or faded; no other code ends a fragment.  Each shows its
        level as of the last tick fading ran at, unless it was issued or
        refreshed since.  The token terminates with its last live cohort, an
        equivalent reissue no longer refreshes them, and an adequacy promise
        leaves each holder's file and queues that holder's index prune."""
        token = cohort.token
        key, holders, cohorts = self.live[token]
        cohort.state = state
        if self.fade_tick > cohort.origin:
            cohort.shown_at = self.fade_tick
        filed = agent_rules.files(cohort.statement)
        for subject in cohort.subjects:
            del holders[subject]
            if filed:
                self.agents[subject].release(cohort.statement, token)
                self.to_prune.add(subject)
        if not holders:
            del self.refreshable[key]
        if cohorts.get(cohort.origin) is cohort:  # not a fragment split off it
            del cohorts[cohort.origin]
            if not cohorts:
                del self.live[token]
                self.terminated.add(token)

    def fade_step(self, tick: int):
        self.fade_tick = tick
        deadlines, live = self.deadlines, self.live
        lines = []  # (subject, token, line): unique, so lines never compare
        while deadlines and deadlines[0][0] <= tick:
            _, origin, token = heappop(deadlines)
            entry = live.get(token)
            # nothing fades of a token that ended, or of an origin that a
            # refresh emptied, since
            cohort = entry[2].get(origin) if entry else None
            if cohort is not None:
                self.retire(cohort, LifecycleState.FADED)
                # one token, state, rate and ticks faded: one text per cohort
                head = _lifecycle_head(tick, token)
                tail = self.lifecycle_text(
                    cohort.state, cohort.fade_rate_multiplier, cohort.fading_ticks
                )
                lines += [(s, token, head + s + tail) for s in cohort.subjects]
        lines.sort()
        self.trace.extend([line for _, _, line in lines])
        # Pruned only now: later directives of the tick saw the full index.
        for agent_id in self.to_prune:
            self.agents[agent_id].prune_adequacy_index()
        self.to_prune.clear()

    def termination_step(self, tick: int):
        for token in sorted(self.terminated):
            self.emit(f"t={tick} terminated token={token}")
        self.terminated.clear()


def run(scenario: Scenario, *, tram=None, interleave=None) -> RunResult:
    """Run a scenario deterministically.  ``tram`` and ``interleave``, unless
    None, replace the header's, as the CLI flags ``--tram`` and
    ``--interleave`` do; no other header field can be set past ``load``."""
    if tram or interleave:  # the new header keeps the attributes and profiles
        header = scenario.header
        header = replace(
            header, tram=tram or header.tram, interleave=interleave or header.interleave
        )
        scenario = replace(scenario, header=header)
    return _Engine(scenario).run()
