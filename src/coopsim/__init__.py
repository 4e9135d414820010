"""coopsim: directional-statement toolchain and deterministic trust simulator.

Modules:

* statements  - grammar, parser, canonical printer, equivalence
* trust       - five-level appreciation stores and assessment policies
* appraisal   - consultant credibility, gating, attribute install rules
* lifecycle   - fragment cohorts (statement, subjects, token) and their
                linear fading
* agents      - trust-driven behavior rules of a single agent
* reputation  - letter-of-recommendation flow and survey averaging
* scenario    - the scenario directive table and its loader
* engine      - tick-driven scenario runner with byte-stable traces
* corpus      - worked statement corpus in canonical notation
"""

from .statements import (
    Body,
    DirectionalKind,
    FadeSpec,
    FragmentCounter,
    FragmentIdentity,
    ScopeMembershipError,
    Statement,
    StatementError,
    StatementSyntaxError,
    ValidityWindow,
    WindowOrderError,
    parse,
    render,
)
from .trust import (
    PTRUST,
    AppreciationKind,
    Outcome,
    TramPolicy,
    TrustStore,
    clamp_level,
    level_from_history,
)
from .appraisal import (
    ATTRIBUTE_CATALOG,
    ConsultantProfile,
    InstallVerdict,
    Route,
    attribute_install_decision,
    credibility_gate,
    credibility_level,
    credibility_score,
)
from .lifecycle import LifecycleState
from .agents import (
    Action,
    ActionKind,
    AgentState,
    on_adequacy_promise,
    on_imposition,
    on_outcome,
    on_task_request,
)
from .reputation import lor_update, survey_reinit
from .scenario import (
    InterleavingStrategy,
    Scenario,
    ScenarioError,
    load,
    load_path,
)
from .engine import RunResult, run
from .corpus import CORPUS_TEXTS

__version__ = "0.1.0"
