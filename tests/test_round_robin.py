"""Round-robin ordering equals its reference.

``_Engine.order_within_tick`` sorts a tick's directives by (turn, source).
The reference below is the queue form it replaced: one queue of directives
per source, in file order, taken one directive each, in source order, round
after round.  A directive's source is the promiser of an ``issue`` and
otherwise its first argument."""

from itertools import zip_longest

from hypothesis import example, given, settings, strategies as st

from coopsim.engine import _Engine
from coopsim.scenario import load

# ids whose string order is not their length order or their order of first use
AGENTS = ["b", "a", "a1", "B", "a0", "b10", "b9"]

LINES = {
    "issue": 'issue {0}[pi:"b"]{1}',
    "impose": "impose {0} {1} task=U",
    "trust": "trust {0} {1} = 1",
    "expect-trust": "expect-trust {0} {1} = 0",
    "lor-request": "lor-request {0} {1} about={2}",
    "survey": "survey {0} group={1} about={2}",
}


def reference_order(directives: list) -> list:
    """``directives`` queued under their sources, then taken one per source
    in turn, sources in sorted order, each queue keeping file order."""
    by_source: dict = {}
    for directive in directives:
        if directive.name == "issue":
            source = directive.statement.promiser
        else:
            source = directive.args[0]
        by_source.setdefault(source, []).append(directive)
    queues = [by_source[source] for source in sorted(by_source)]
    # a Directive is never the fill value
    return [d for turn in zip_longest(*queues) for d in turn if d is not None]


tick_blocks = st.lists(
    st.tuples(
        st.sampled_from(sorted(LINES)),
        st.sampled_from(AGENTS),
        st.sampled_from(AGENTS),
        st.sampled_from(AGENTS),
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(block=tick_blocks)
@example(block=[("issue", "b", "a", "a"), ("issue", "b", "a", "a"),
                ("survey", "a", "b", "b"), ("trust", "a1", "b", "b")])
def test_round_robin_equals_queue_reference(block):
    lines = [LINES[kind].format(*agents) for kind, *agents in block]
    scenario = load("policy interleave=round-robin\ntick 1\n" + "\n".join(lines))
    directives = list(scenario.events)
    ordered = _Engine(scenario).order_within_tick(directives)
    assert ordered == reference_order(directives)
    assert sorted(map(id, ordered)) == sorted(map(id, directives))  # a permutation
