"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with pytest -s; with
plain pytest the -v listing gives the per-criterion pass/fail line).
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from coopsim import engine, scenario
from coopsim.agents import (
    ActionKind,
    AgentState,
    on_imposition,
    on_task_request,
)
from coopsim.corpus import CORPUS_TEXTS
from coopsim.reputation import survey_reinit
from coopsim.statements import DirectionalKind, parse, render
from coopsim.trust import (
    LEVELS,
    Outcome,
    TramPolicy,
    TrustStore,
)
from tests.test_load_run import check_absorption
from tests.test_statements import FORM_FIXTURES


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_file(name):
    return engine.run(scenario.load_path(SCENARIOS / name))


def extract_actions(result):
    out = []
    for line in result.trace:
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        if "action" in fields:
            out.append((fields["action"], fields.get("detail", "")))
    return out


def extract_trust(result, subject, target):
    levels = []
    for line in result.trace:
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        if (
            " trust " in line
            and fields.get("subject") == subject
            and fields.get("target") == target
        ):
            levels.append(int(fields["level"]))
    return levels


def test_criterion_01_golden_thread_1():
    started = time.monotonic()
    result = run_file("thread1.coop")
    elapsed = time.monotonic() - started
    assert all(e.passed for e in result.expects)
    assert extract_trust(result, "q", "p") == [1, 0]
    assert extract_actions(result) == [
        ("prepare", "program=P,task=U"),
        ("use", "program=P,task=U"),
        ("refuse-install", "program=Q,task=V"),
    ]
    assert result.agents["q"].trust_in("p") == 0
    assert elapsed < 1.0
    print("\nPASS criterion 1: thread 1 replays 1->0 with prepare/use/refuse-install")


def test_criterion_02_golden_thread_2():
    started = time.monotonic()
    result = run_file("thread2.coop")
    elapsed = time.monotonic() - started
    assert all(e.passed for e in result.expects)
    assert result.agents["q"].trust_in("m2") == 2
    # saturation: a further kept assessment cannot increase past 2
    store = result.agents["q"].trust
    assert store.record_assessment("m2", Outcome.KEPT, 99) == 2
    assert elapsed < 1.0
    print("\nPASS criterion 2: thread 2 ends at trust 2 exactly, saturation holds")


def test_criterion_03_golden_thread_3_interleaved():
    results = [run_file("thread3.coop") for _ in range(10)]
    traces = {r.trace_text() for r in results}
    assert len(traces) == 1  # byte-identical across 10 runs
    result = results[0]
    assert all(e.passed for e in result.expects)
    assert extract_trust(result, "q", "m2") == [1, 2, 1, 2]
    acted = extract_actions(result)
    assert ("prepare", "program=Q,task=V") in acted  # Q installed, not refused
    assert ("use", "program=Q,task=V") in acted
    print("\nPASS criterion 3: thread 3 walks 1->2->1->2, Q used, 10 runs identical")


def test_criterion_04_lor_decision_table():
    cases = [
        # (peer level, asker level before, asker level after)
        (-2, 1, -1),
        (-1, 1, 1),  # refusal, unchanged
        (0, 1, 1),  # refusal, unchanged
        (1, 2, 0),
        (2, -1, 1),
    ]
    for peer_level, before, after in cases:
        text = (
            f"trust peer p = {peer_level}\n"
            f"trust asker p = {before}\n"
            "tick 1\n"
            "lor-request asker peer about=p\n"
            "tick 2\n"
            f"expect-trust asker p = {after}\n"
        )
        result = engine.run(scenario.load(text))
        assert all(e.passed for e in result.expects), (peer_level, before)
    file_result = run_file("lor.coop")
    assert all(e.passed for e in file_result.expects)
    print("\nPASS criterion 4: all four LOR peer reactions reproduced")


def test_criterion_05_imposition_balancing_table():
    def cell(trust_s, trust_p):
        state = AgentState(id="q")
        state.trust.set("s", trust_s)
        state.trust.set("p", trust_p)
        state.prepared[("P", "U")] = False
        state.adequacy_index[("P", "U")] = {"p": 0}
        stmt = parse('p[adequacy(P,U):"adequate"]q')
        state.hold(stmt, "0-0")
        (action,) = on_imposition(state, "s", "U")
        return action.kind

    assert cell(2, 2) is ActionKind.USE
    assert cell(2, 1) is ActionKind.WARN  # trust positive but not optimal
    for tp in (0, -1, -2):
        assert cell(2, tp) is ActionKind.PROPOSE_WITHDRAW
    for tp in (2, 1):
        assert cell(1, tp) is ActionKind.USE
    for tp in (0, -1, -2):
        assert cell(1, tp) is ActionKind.PROPOSE_WITHDRAW
    print("\nPASS criterion 5: all five balancing cells (use/warn/propose-withdraw)")


def _agent_with(programs):
    """programs: {program: [(promiser, trust, issue_tick), ...]}"""
    state = AgentState(id="q")
    for program, entries in programs.items():
        state.prepared[(program, "U")] = False
        state.adequacy_index[(program, "U")] = {p: t for p, _, t in entries}
        for promiser, trust, _ in entries:
            state.trust.set(promiser, trust)
    return state


def test_criterion_06_rule_engine_decision_table():
    defined = {ActionKind.USE, ActionKind.FAIL}
    # zero candidates
    assert on_task_request(AgentState(id="q"), "U").kind in defined
    # one candidate: every (trust, used-before) cell
    for trust, used in itertools.product(LEVELS, (False, True)):
        state = _agent_with({"P": [("p", trust, 0)]})
        state.prepared[("P", "U")] = used
        assert on_task_request(state, "U").kind in defined
    # two candidates: every promiser trust pair
    for ta, tb in itertools.product(LEVELS, repeat=2):
        state = _agent_with({"A": [("pa", ta, 0)], "B": [("pb", tb, 1)]})
        assert on_task_request(state, "U").kind in defined

    # argmax invariance under insertion-order permutations
    rng = random.Random(0)
    for _ in range(1000):
        programs = {}
        for i in range(rng.randint(2, 4)):
            entries = [
                (f"p{i}{j}", rng.choice(LEVELS), rng.randint(0, 9))
                for j in range(rng.randint(1, 3))
            ]
            programs[f"PRG{i}"] = entries
        baseline = on_task_request(_agent_with(programs), "U")
        shuffled = {}
        for program in rng.sample(sorted(programs), len(programs)):
            entries = programs[program][:]
            rng.shuffle(entries)
            shuffled[program] = entries
        assert on_task_request(_agent_with(shuffled), "U") == baseline
    print("\nPASS criterion 6: decision table total; argmax stable over 1000 shuffles")


def test_criterion_07_parser_forms_and_corpus():
    assert len(FORM_FIXTURES) == 10
    for text in FORM_FIXTURES.values():
        assert render(parse(text)) == text
    statements = [parse(text) for text in CORPUS_TEXTS]
    assert len(statements) >= 22
    assert {s.kind for s in statements} == set(DirectionalKind)
    for text, stmt in zip(CORPUS_TEXTS, statements):
        assert render(stmt) == text
    print("\nPASS criterion 7: ten statement forms and the full corpus round-trip")


PROMISE = 'issue p[adequacy(P,U):"p is adequate for task u"]q'
# (ticks it advances, its directive): the operations on one adequacy promise,
# token 1-0, that p issues to q at tick 1 and that fades 3 ticks after its
# issue or refresh
LIFECYCLE_OPS = {
    "pass": (1, "expect-trust q p = 1"),  # a tick passes
    "pass-to-fading": (10, "expect-trust q p = 1"),
    "reissue": (1, PROMISE),  # an equivalent reissue
    "success": (1, "outcome q program=P task=U result=success"),
    "failure": (1, "outcome q program=P task=U result=failure"),
    "withdraw": (1, "withdraw p token=1-0"),  # by the promiser
    "withdraw-bad": (1, "withdraw z token=1-0"),  # by another agent
}


def test_criterion_08_lifecycle_small_model():
    """Every sequence of up to four operations: terminal states absorb
    (``check_absorption``), a rejected withdraw moves nothing and all four
    terminal states are seen.  The trace up to a tick never depends on later
    directives, so a sequence's checks hold on its prefixes too, and only
    the sequences of four are run."""
    started = time.monotonic()
    base = scenario.load(
        "policy fade-span=4 fade-threshold=0.5\ntrust q p = 1\n"
        f"tick 1\n{PROMISE}\n"
    )
    directives = {
        name: scenario.load(f"tick 1\n{line}\n").events[0]
        for name, (_, line) in LIFECYCLE_OPS.items()
    }
    passed = {}  # sequence without withdraw-bad -> its trace
    states_seen = set()
    for seq in itertools.product(LIFECYCLE_OPS, repeat=4):
        events, now = list(base.events), 1
        for name in seq:
            now += LIFECYCLE_OPS[name][0]
            events.append(directives[name]._replace(tick=now))
        ticks = sorted({directive.tick for directive in events})
        trace = engine.run(
            scenario.Scenario(base.header, base.initial, tuple(events), ticks)
        ).trace
        check_absorption(trace)
        states_seen.update(
            line[line.index(" state=") + 7:line.index(" fade=")]
            for line in trace
            if " lifecycle " in line
        )
        if "withdraw-bad" not in seq:
            passed[seq] = trace
            continue
        # as if a tick had passed, and one warning per rejected withdraw
        warned = [line for line in trace if " agent=z " in line]
        assert len(warned) == seq.count("withdraw-bad")
        assert all(" detail=withdraw-" in line for line in warned)
        # "pass" comes first in product order: that sequence has run already
        as_passed = tuple("pass" if name == "withdraw-bad" else name for name in seq)
        assert [line for line in trace if " agent=z " not in line] == passed[as_passed]
    elapsed = time.monotonic() - started
    assert len(passed) == 6 ** 4
    assert states_seen == {"active", "kept", "broken", "withdrawn", "faded"}
    assert elapsed < 10.0
    checked = sum(7 ** k for k in range(5))
    print(
        f"\nPASS criterion 8: {checked} operation sequences, terminals absorb "
        f"({elapsed:.1f}s)"
    )


def test_criterion_09_trust_bounds_fuzz():
    def oracle(history):
        if not history:
            return 0
        if history[-1] is Outcome.KEPT:
            return 2 if len(history) > 1 and history[-2] is Outcome.KEPT else 1
        broken = history.count(Outcome.BROKEN)
        if broken >= 2 and len(history) > 1 and history[-2] is Outcome.BROKEN:
            return -2
        return -1

    rng = random.Random(42)
    for _ in range(10_000):
        history = [
            rng.choice((Outcome.KEPT, Outcome.BROKEN))
            for _ in range(rng.randint(0, 12))
        ]
        start = rng.choice(LEVELS)
        for policy in TramPolicy:
            store = TrustStore()
            store.set("p", start)
            for tick, outcome in enumerate(history):
                level = store.record_assessment("p", outcome, tick, policy)
                assert -2 <= level <= 2
            if policy is TramPolicy.RECENCY and history:
                assert store.get("p") == oracle(history)
    print("\nPASS criterion 9: 10000 sequences stay in [-2,2]; recency matches oracle")


def test_criterion_10_survey_property():
    rng = random.Random(7)
    for _ in range(1000):
        levels = [rng.choice(LEVELS) for _ in range(rng.randint(1, 12))]
        average = Fraction(sum(levels), len(levels))
        out = survey_reinit(average)
        assert out <= average
        assert -2 <= out <= 2
    # the engine reinitializes only members without recent own observations
    result = run_file("survey.coop")
    assert [(e.subject, e.actual) for e in result.expects] == [
        ("qx", 2),
        ("qy", 0),
        ("qz", 0),
    ]
    assert extract_trust(result, "qx", "p") == [1, 2]
    print("\nPASS criterion 10: 1000 surveys reinitialize below the mean, on scale")
