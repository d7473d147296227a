"""Agent-based simulation of social practices.

Agents carry habitual connections between activities and context
elements, explicit value systems, and socially learned collective views;
each tick they walk an activity hierarchy from root to an atomic action,
either habitually or deliberately, and the performance feeds back into
their connection strengths.
"""

from .cognition import (
    DecisionStep,
    candidate_set,
    decide_step,
    decision_cycle,
    habitual_pressure,
)
from .engine import (
    Event,
    MetricsRow,
    World,
    collect_metrics,
    events_csv,
    metrics_csv,
    run,
    snapshot_context,
)
from .errors import ScenarioError, UnknownIdError
from .extensions import filter_candidates
from .hierarchy import atomic_leaves, propagate_value_connection
from .learning import (
    ObservationEvent,
    habit_tick,
    observe,
    update_personal_view,
)
from .model import (
    Activity,
    ActivityConnection,
    ActivityType,
    AgentSpec,
    ContextElement,
    DecisionMode,
    ElementKind,
    Environment,
    Globals,
    HabitualConnection,
    RelationType,
    Scenario,
    ValueConnection,
    ValuePriority,
)
from .scenario import build_scenario, serialize_scenario
from .state import (
    AgentState,
    ContextSnapshot,
    SequentialFrame,
    build_score_cache,
    init_agent_state,
)
from .validate import InvalidScenarioError, Violation, ViolationKind, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "Activity",
    "ActivityConnection",
    "ActivityType",
    "AgentSpec",
    "AgentState",
    "ContextElement",
    "ContextSnapshot",
    "DecisionMode",
    "DecisionStep",
    "ElementKind",
    "Environment",
    "Event",
    "Globals",
    "HabitualConnection",
    "InvalidScenarioError",
    "MetricsRow",
    "ObservationEvent",
    "RelationType",
    "Scenario",
    "ScenarioError",
    "SequentialFrame",
    "UnknownIdError",
    "ValueConnection",
    "ValuePriority",
    "Violation",
    "ViolationKind",
    "World",
    "atomic_leaves",
    "build_scenario",
    "build_score_cache",
    "candidate_set",
    "collect_metrics",
    "decide_step",
    "decision_cycle",
    "events_csv",
    "filter_candidates",
    "habit_tick",
    "habitual_pressure",
    "init_agent_state",
    "metrics_csv",
    "observe",
    "propagate_value_connection",
    "run",
    "serialize_scenario",
    "snapshot_context",
    "update_personal_view",
    "validate_scenario",
]
