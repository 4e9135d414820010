"""Seeded, stdlib-only scenario generator for the benchmark workloads.

Each workload is one generator shape.  ``scenario_text(name, seed, ticks)``
returns scenario text that ``coopsim.engine.load`` accepts.  All randomness
comes from one ``random.Random(seed)`` that first draws the header and then
the tick blocks in order, one after another, so the text for ``ticks // 4``
ticks is a byte prefix of the text for ``ticks`` ticks.  The generator emits
only well-formed directives; no workload makes ``load`` or ``run`` raise.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0


class _Deck:
    """Draws items in shuffled rounds: every round of ``len(items)`` draws
    holds each item once.  The workload's mix is therefore exact and a seed
    changes only who acts, on what and in which order, which keeps run time
    nearly the same from seed to seed."""

    def __init__(self, rng, items):
        self._rng = rng
        self._items = list(items)
        self._round = []

    def draw(self):
        if not self._round:
            self._round = self._items[:]
            self._rng.shuffle(self._round)
        return self._round.pop()


def _agents(count):
    return [f"a{i:02d}" for i in range(count)]


def _trust_lines(rng, agents, pairs, levels):
    lines = []
    for _ in range(pairs):
        subject, target = rng.sample(agents, 2)
        lines.append(f"trust {subject} {target} = {rng.choice(levels)}")
    return lines


def _adequacy_promise(promiser, promisee, observer, program, task):
    return (
        f"issue {promiser}[adequacy({program},{task}):"
        f'"program {program} is adequate for task {task}"'
        f"/{{{promisee},{observer}}}]{promisee}"
    )


def _promise_backlog(rng):
    """The ROADMAP re-anchor mix: 30 agents, 5 directives per tick, 50%
    adequacy promises with two observers, 20% impositions, 25% outcomes and
    5% LOR requests.

    Records stay active about 190 ticks (fade-span 200), so every per-tick
    scan over fragment history (fade, index prune, termination, refresh)
    grows with the run.  Parse and trust work stay small.
    """
    agents = _agents(30)
    programs = [f"P{i}" for i in range(6)]
    tasks = [f"U{i}" for i in range(5)]
    header = ["policy tram=incremental fade-span=200 interleave=file-order"]
    header += _trust_lines(rng, agents, 60, (-1, 0, 1, 1, 2))
    kinds = _Deck(rng, ["promise"] * 10 + ["impose"] * 4 + ["outcome"] * 5 + ["lor"])
    # four outcomes in five are on a recently promised (agent, program, task)
    recent = _Deck(rng, [True] * 4 + [False])
    results = _Deck(rng, ["success"] * 3 + ["failure"] * 2)
    promised = []

    def tick_lines():
        lines = []
        for _ in range(5):
            kind = kinds.draw()
            if kind == "promise":
                promiser, promisee, observer = rng.sample(agents, 3)
                program, task = rng.choice(programs), rng.choice(tasks)
                lines.append(
                    _adequacy_promise(promiser, promisee, observer, program, task)
                )
                promised.append((promisee, program, task))
            elif kind == "impose":
                imposer, target = rng.sample(agents, 2)
                strength = f" strength={rng.randint(1, 10)}" if rng.random() < 0.5 else ""
                lines.append(f"impose {imposer} {target} task={rng.choice(tasks)}{strength}")
            elif kind == "outcome":
                if recent.draw() and promised:
                    agent, program, task = rng.choice(promised[-150:])
                else:
                    agent, program, task = (
                        rng.choice(agents), rng.choice(programs), rng.choice(tasks)
                    )
                lines.append(
                    f"outcome {agent} program={program} task={task} "
                    f"result={results.draw()}"
                )
            else:
                asker, peer, about = rng.sample(agents, 3)
                lines.append(f"lor-request {asker} {peer} about={about}")
        return lines

    return header, tick_lines


def _reputation_churn(rng):
    """Trust-heavy traffic over a small live working set: 48 agents and 12
    directives per tick, 40% LOR requests, 20% surveys over 12-member
    groups, 20% trust resets, 17% outcomes from 12 hot agents on 4 programs
    and 3% adequacy promises to hot agents.

    With fade-span 20 few records are alive at once.  Exercises engine
    dispatch, round-robin ordering, trust, reputation and trace volume;
    fading is a minority share.
    """
    agents = _agents(48)
    hot = agents[:12]
    programs = [(f"R{i}", f"V{i % 2}") for i in range(4)]
    header = ["policy tram=recency-history interleave=round-robin fade-span=20"]
    header += _trust_lines(rng, agents, 120, (-2, -1, 0, 1, 2))
    kinds = _Deck(
        rng,
        ["lor"] * 40 + ["survey"] * 20 + ["trust"] * 20 + ["outcome"] * 17
        + ["promise"] * 3,
    )
    results = _Deck(rng, ["success", "failure"])

    def tick_lines():
        lines = []
        for _ in range(12):
            kind = kinds.draw()
            if kind == "lor":
                asker, peer, about = rng.sample(agents, 3)
                lines.append(f"lor-request {asker} {peer} about={about}")
            elif kind == "survey":
                picked = rng.sample(agents, 14)
                surveyor, about, group = picked[0], picked[1], sorted(picked[2:])
                lines.append(
                    f"survey {surveyor} group={','.join(group)} about={about}"
                )
            elif kind == "trust":
                subject, target = rng.sample(agents, 2)
                lines.append(f"trust {subject} {target} = {rng.randint(-2, 2)}")
            elif kind == "outcome":
                program, task = rng.choice(programs)
                lines.append(
                    f"outcome {rng.choice(hot)} program={program} task={task} "
                    f"result={results.draw()}"
                )
            else:
                promisee = rng.choice(hot)
                promiser, observer = rng.sample([a for a in agents if a != promisee], 2)
                program, task = rng.choice(programs)
                lines.append(
                    _adequacy_promise(promiser, promisee, observer, program, task)
                )
        return lines

    return header, tick_lines


_WORDS = (
    "alpha amber anchor apple arrow aspen autumn badge basalt beacon birch "
    "bloom border breeze bronze canyon cedar chalk cinder clover cobalt coral "
    "crater crystal dawn delta desert drift dune ember falcon fern field "
    "fjord flame flint forest frost garnet glacier granite grove harbor hazel "
    "heron hollow indigo iris island ivory jade jasper juniper kelp lagoon "
    "lantern larch ledge lily linen lotus maple marble marsh meadow mesa mist "
    "moss nectar nickel north oasis ocean olive onyx orchid pebble pepper pine "
    "plume prairie quartz quill raven reef ridge river robin saffron sage "
    "sand shale shore sierra slate sparrow spruce stone summit tide timber "
    "topaz trail tundra umber valley velvet violet walnut willow wind yarrow"
).split()


def _scope_fanout(rng):
    """Suggestion fan-out that fades almost at once: 60 agents and 4
    suggestions per tick, each with a 16-agent scope and a 12-word body.

    Every issue reaches 18 agents (the scope plus promiser and promisee), and
    with fade-span 8 and threshold 0.2 nearly every fragment fades within a
    few ticks.  20 agents carry credibility profiles that make them credible
    on four of the eight topics; every second issue by a profiled agent is on
    a topic it lacks credibility for, so the gate discards it fast and its
    recipients penalise the promiser.  This is the heaviest parse, fan-out
    and credibility-gating load, and the one where a fading scheme with a
    high per-event cost shows.
    """
    agents = _agents(60)
    topics = [f"topic{i}" for i in range(8)]
    header = [
        "policy tram=incremental penalize-incredible=true fade-span=8 "
        "fade-threshold=0.2"
    ]
    credible = {}  # profiled agent -> (credible topics, other topics)
    for agent in sorted(rng.sample(agents, 20)):
        shuffled = rng.sample(topics, len(topics))
        known, other = sorted(shuffled[:4]), sorted(shuffled[4:])
        credible[agent] = (known, other)
        settings = [
            "independent=true",
            f"experienced={','.join(known)}",
            f"range={','.join(known)}",
            f"reputation={','.join(known[:2])}",
            f"affiliated={','.join(other[:2])}",
        ]
        header.append(f"profile {agent} {' '.join(settings)}")
    header += _trust_lines(rng, agents, 40, (-1, 0, 1, 2))
    promisers = _Deck(rng, agents)
    incredible = _Deck(rng, [True, False])

    def tick_lines():
        lines = []
        for _ in range(4):
            promiser = promisers.draw()
            if promiser in credible:
                known, other = credible[promiser]
                topic = rng.choice(other if incredible.draw() else known)
            else:
                topic = rng.choice(topics)
            promisee, *scope = rng.sample([a for a in agents if a != promiser], 17)
            body = " ".join(rng.choice(_WORDS) for _ in range(12))
            lines.append(
                f"issue {promiser}[suggest!{topic}:\"{body}\""
                f"/{{{','.join(sorted(scope))}}}]{promisee}"
            )
        return lines

    return header, tick_lines


# name -> (shape, ticks at the workload's stated size).  The sizes keep one
# full-size round near 0.1 s, so that a run holds hundreds of rounds and the
# reference work timed in each follows the host's busy spells (see run.py).
WORKLOADS = {
    "promise-backlog": (_promise_backlog, 40),
    "reputation-churn": (_reputation_churn, 160),
    "scope-fanout": (_scope_fanout, 24),
}


def scenario_text(name: str, seed: int, ticks: int) -> str:
    """Scenario text for ``ticks`` tick blocks of workload ``name``."""
    shape, _ = WORKLOADS[name]
    rng = random.Random(seed)
    header, tick_lines = shape(rng)
    parts = [f"# bench workload {name} seed={seed}\n"]
    parts += [line + "\n" for line in header]
    for tick in range(1, ticks + 1):
        parts.append(f"\ntick {tick}\n")
        parts += [line + "\n" for line in tick_lines()]
    return "".join(parts)

