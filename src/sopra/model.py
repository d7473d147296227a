"""Core domain model: context elements, activities, views, and scenarios.

This module is the data contract shared by the validator, the inference
helpers, and the runtime. `Scenario`, `Environment` and `Globals` are
frozen. The rows a scenario holds (elements, activities, connections,
view tables, agents, ...) are slotted records, which are cheaper to
build; nothing mutates one after the builder makes it. `Scenario.index`
lazily derives the lookup tables (interned ids, ancestor chains, child
maps) that the rest of the package works from, once per scenario. So a
changed scenario is made with `dataclasses.replace`, on the row and then
on the scenario, never by editing a row in place: the old index would
not see the edit.

Terminology used throughout the package:

* A *context element* is a token, not a type: ``bobs_car`` and its
  hierarchy parent ``car`` are both elements of kind Resource. Kinds
  partition the token namespace; activities and agents are automatically
  elements of kind Activity and Agent.
* The *views* of a habitual connection, value priority or value
  connection are three numbers in [0, 1], held as fields of the row
  itself: the implicit ``strength`` of the connection, the agent's
  explicit ``personal_view`` of it, and ``my_collective_view``, the
  agent's estimate of how the group sees it (None when the scenario gives
  none; a habitual connection's then starts at the personal view). A row
  is one object, so a scenario with many view rows is quick to build and
  gives the cyclic collector little to scan. Change a view with
  ``dataclasses.replace(row, strength=...)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import groupby
from operator import attrgetter

from .errors import ScenarioError, UnknownIdError


class ElementKind(str, Enum):
    ACTIVITY = "Activity"
    AGENT = "Agent"
    LOCATION = "Location"
    RESOURCE = "Resource"
    TIMEPOINT = "Timepoint"


class ActivityType(str, Enum):
    ATOMIC = "Atomic"
    SEQUENTIAL = "Sequential"
    ABSTRACT = "Abstract"


class RelationType(str, Enum):
    IS_A = "IsA"
    PART_OF = "PartOf"


class DecisionMode(str, Enum):
    HABITUAL = "Habitual"
    INTENTIONAL = "Intentional"


@dataclass(slots=True)
class ContextElement:
    id: str
    kind: ElementKind
    parent: str | None = None  # same-kind element, forms a forest per kind


@dataclass(slots=True)
class Activity:
    id: str
    type: ActivityType
    parent: str | None = None  # optional parent in the Activity element forest


@dataclass(slots=True)
class ActivityConnection:
    child: str
    parent: str
    relation: RelationType


@dataclass(slots=True)
class HabitualConnection:
    agent: str
    activity: str
    context_element: str
    strength: float = 0.0
    personal_view: float = 0.0
    my_collective_view: float | None = None  # None = not yet formed


@dataclass(slots=True)
class ValuePriority:
    agent: str
    value: str
    strength: float = 0.0
    personal_view: float = 0.0
    my_collective_view: float | None = None  # None = not yet formed


@dataclass(slots=True)
class ValueConnection:
    agent: str
    activity: str
    value: str
    strength: float = 0.0
    personal_view: float = 0.0
    my_collective_view: float | None = None  # None = not yet formed


@dataclass(slots=True)
class AgentSpec:
    id: str
    habit_rate: float
    attention_budget: int
    location: str
    attentional_resources: int | None = None  # tick-0 stock; defaults to the budget
    parent: str | None = None

    @property
    def initial_resources(self) -> int:
        return (
            self.attention_budget
            if self.attentional_resources is None
            else self.attentional_resources
        )


@dataclass(slots=True)
class AffordanceConnection:
    context_element: str
    activity: str
    strength: float


@dataclass(slots=True)
class CompetenceLevel:
    agent: str
    competence: str
    level: float


@dataclass(slots=True)
class CompetenceRequirement:
    activity: str
    competence: str
    required: float


@dataclass(slots=True)
class Relocation:
    tick: int
    agent: str
    location: str


@dataclass(frozen=True)
class _Field:
    """One field of a row section's rows.

    `json` is its key in documents; `attr`, the row attribute that holds
    it, is that key in snake case. `kind` says how the builder reads it:
    ``"ident"`` (a plain identifier string), ``"number"``, ``"integer"``,
    ``"boolean"``, the `Enum` class whose values it takes, or the tuple of
    words it takes. An `optional` field reads an absent or null value as
    None; a number with a `default` reads an absent one as that. `refs`
    is the pool a reference must name: ``"element"`` (any element), an
    `ElementKind` (an element of that kind), ``"own kind"`` (an element of
    the row's own `kind`), ``"activity"``, ``"agent"`` or ``"value"``; None
    when the field names nothing. `within` is the interval a number must
    lie in, as the docs write it: ``"(0, 1]"``, ``"[0, inf)"``.
    """

    json: str
    kind: str | type | tuple[str, ...]
    refs: str | ElementKind | None = None
    optional: bool = False
    default: float | None = None
    within: str | None = None
    attr: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attr", re.sub("([A-Z])", r"_\1", self.json).lower())


# A view row's strength, personal view and collective view.
_VIEWS = (
    _Field("strength", "number", default=0.0, within="[0, 1]"),
    _Field("personalView", "number", default=0.0, within="[0, 1]"),
    _Field("myCollectiveView", "number", optional=True, within="[0, 1]"),
)


@dataclass(frozen=True)
class RowSection:
    """One row section of a scenario document.

    `row` is the class of its rows and `fields` their fields, in the
    order the builder reads and reports them and `serialize_scenario`
    writes them. `cite` formats, with the row and a field's `json`, what
    follows the section name where a reference report locates that field.
    `key` names the fields that order the section's rows canonically.
    `unique` names the fields no two rows of a section with a `duplicate`
    label may share; left empty, it is the whole key. A report names a
    row by those fields, as ``name[a:b]``.
    """

    attr: str  # Scenario attribute; "environment.relocations" is the environment's
    name: str  # section name in documents and reports
    row: type
    fields: tuple[_Field, ...]
    cite: str
    key: tuple[str, ...]
    duplicate: str | None = None  # multiplicity label; None: ids, which the builder checks
    unique: tuple[str, ...] = ()

    @property
    def order(self):
        return attrgetter(*self.key)

    @property
    def identity(self):
        return attrgetter(*(self.unique or self.key))

    def label(self, row) -> str:
        # An enum by its value: `str()` of a `(str, Enum)` member differs
        # across Python versions.
        values = (getattr(row, f) for f in self.unique or self.key)
        return ":".join(str(v.value if isinstance(v, Enum) else v) for v in values)


# Fields that several sections share.
_ID = _Field("id", "ident")
_AGENT = _Field("agent", "ident", "agent")
_ACTIVITY = _Field("activity", "ident", "activity")
_VALUE = _Field("value", "ident", "value")
_ELEMENT = _Field("contextElement", "ident", "element")
_COMPETENCE = _Field("competence", "ident")
_LOCATION = _Field("location", "ident", ElementKind.LOCATION)

# The row sections, in the order the builder reads them and the validator
# walks their references. Element, activity and agent ids share one
# namespace, whose uniqueness the builder checks.
ROW_SECTIONS: tuple[RowSection, ...] = (
    RowSection("context_elements", "contextElements", ContextElement, (
        _ID, _Field("kind", ElementKind), _Field("parent", "ident", "own kind", optional=True),
    ), "[{0.id}].{1}", ("id",)),
    RowSection("activities", "activities", Activity, (
        _ID, _Field("type", ActivityType),
        _Field("parent", "ident", ElementKind.ACTIVITY, optional=True),
    ), "[{0.id}].{1}", ("id",)),
    RowSection("activity_connections", "activityConnections", ActivityConnection, (
        _Field("child", "ident", "activity"), _Field("parent", "ident", "activity"),
        _Field("relation", RelationType),
    ), "[{0.child}->{0.parent}]", ("child", "parent", "relation"), "activity connection"),
    RowSection("agents", "agents", AgentSpec, (
        _ID, _Field("habitRate", "number", within="(0, 1]"),
        _Field("attentionBudget", "integer", within="[0, inf)"),
        _Field("attentionalResources", "integer", optional=True, within="[0, inf)"), _LOCATION,
        _Field("parent", "ident", ElementKind.AGENT, optional=True),
    ), "[{0.id}].{1}", ("id",)),
    RowSection("habitual_connections", "habitualConnections", HabitualConnection,
               (_AGENT, _ACTIVITY, _ELEMENT, *_VIEWS), "[{0.agent}]",
               ("agent", "activity", "context_element"), "habitual connection"),
    RowSection("value_priorities", "valuePriorities", ValuePriority,
               (_AGENT, _VALUE, *_VIEWS), "[{0.agent}]",
               ("agent", "value"), "value priority"),
    RowSection("value_connections", "valueConnections", ValueConnection,
               (_AGENT, _ACTIVITY, _VALUE, *_VIEWS), "[{0.agent}]",
               ("agent", "activity", "value"), "value connection"),
    RowSection("affordances", "affordances", AffordanceConnection,
               (_ELEMENT, _ACTIVITY, _Field("strength", "number", within="[0, 1]")),
               "[{0.activity}]", ("context_element", "activity"), "affordance"),
    RowSection("competence_levels", "competences.levels", CompetenceLevel,
               (_AGENT, _COMPETENCE, _Field("level", "number", within="[0, 1]")),
               "[{0.competence}]", ("agent", "competence"), "competence level"),
    RowSection("competence_requirements", "competences.requirements", CompetenceRequirement,
               (_ACTIVITY, _COMPETENCE, _Field("required", "number", within="[0, 1]")),
               "[{0.competence}]", ("activity", "competence"), "competence requirement"),
    # One agent moves at most once per tick; `location` only completes
    # the order, so any two documents with the same rows build equal.
    RowSection("environment.relocations", "environment.relocations", Relocation,
               (_Field("tick", "integer", within="[0, inf)"), _AGENT, _LOCATION),
               "[tick={0.tick}]",
               ("tick", "agent", "location"), "relocation", unique=("tick", "agent")),
)


@dataclass(frozen=True)
class Environment:
    """Scripted world state: a cyclic timepoint schedule, static resource
    placements per location, and agent relocations applied at the end of
    their tick."""

    timepoints: tuple[str, ...] = ()
    placements: tuple[tuple[str, tuple[str, ...]], ...] = ()
    relocations: tuple[Relocation, ...] = ()


@dataclass(frozen=True)
class Globals:
    habit_threshold: float = 0.5
    decay_rate: float = 0.0
    social_learning_rate: float = 0.3
    awareness_rate: float = 0.5
    attenuation: float = 0.5
    deliberation_cost: int = 1
    pressure_aggregation: str = "mean"
    decay_all: bool = False
    tie_break: str = "lexicographic"
    extensions_enabled: bool = False
    feasibility_threshold: float = 0.0


# Each global's document key, kind, and interval or words, in `Globals`
# field order; its attribute is its key in snake case.
GLOBAL_FIELDS: tuple[_Field, ...] = (
    _Field("habitThreshold", "number", within="[0, 1]"),
    _Field("decayRate", "number", within="[0, 1)"),
    _Field("socialLearningRate", "number", within="(0, 1]"),
    _Field("awarenessRate", "number", within="(0, 1]"),
    _Field("attenuation", "number", within="[0, 1]"),
    _Field("deliberationCost", "integer", within="[0, inf)"),
    _Field("pressureAggregation", ("mean", "max", "sum")),
    _Field("decayAll", "boolean"),
    _Field("tieBreak", ("lexicographic", "uniform")),
    _Field("extensionsEnabled", "boolean"),
    _Field("feasibilityThreshold", "number", within="[0, 1]"),
)


def _canonical(rows, key) -> tuple:
    """`rows` sorted by `key`, or in their given order when their keys do
    not compare (a key field holding None in a scenario made in code),
    for `validate_scenario` to report."""
    try:
        return tuple(sorted(rows, key=key))
    except TypeError:
        return tuple(rows)


@dataclass(frozen=True)
class Scenario:
    """A complete, declarative world description.

    Making a scenario puts its collections in canonical order: each row
    section sorted by its `ROW_SECTIONS` key, values and placements by
    id, each placement's resources by id. So two scenarios with the same
    content compare equal regardless of the order their source documents
    listed things in, a `dataclasses.replace` result included. `roots`
    keeps document order: its first entry is the activity every agent
    starts from.

    A scenario compares by value but is not hashable: its rows are not.
    """

    context_elements: tuple[ContextElement, ...] = ()
    activities: tuple[Activity, ...] = ()
    activity_connections: tuple[ActivityConnection, ...] = ()
    values: tuple[str, ...] = ()
    agents: tuple[AgentSpec, ...] = ()
    habitual_connections: tuple[HabitualConnection, ...] = ()
    value_priorities: tuple[ValuePriority, ...] = ()
    value_connections: tuple[ValueConnection, ...] = ()
    roots: tuple[str, ...] = ()
    environment: Environment = Environment()
    globals: Globals = Globals()
    affordances: tuple[AffordanceConnection, ...] = ()
    competence_levels: tuple[CompetenceLevel, ...] = ()
    competence_requirements: tuple[CompetenceRequirement, ...] = ()

    def __post_init__(self) -> None:
        canonical = {sec.attr: _canonical(attrgetter(sec.attr)(self), sec.order)
                     for sec in ROW_SECTIONS}
        env = self.environment
        canonical["environment"] = Environment(
            env.timepoints,
            tuple(sorted((loc, tuple(sorted(res))) for loc, res in env.placements)),
            canonical.pop("environment.relocations"),
        )
        canonical["values"] = tuple(sorted(self.values))
        for attr, rows in canonical.items():
            object.__setattr__(self, attr, rows)

    @cached_property
    def index(self) -> ScenarioIndex:
        return ScenarioIndex(self)


_MAX_CHAIN = 10_000  # guard against parent cycles in unvalidated input


class ScenarioIndex:
    """Derived lookup tables for a structurally sound scenario.

    Ids are interned to dense integers in sorted-id order, so index order
    and lexicographic id order coincide; the kernels rely on that for
    deterministic iteration. An *element int* indexes `element_ids` and
    an *activity int* `activity_ids`. The tick works on these ints; names
    go in only through the lookups (`aidx`, `eidx`, `children`, ...) and
    the tables keyed by agent id (`agent_specs`, `*_by_agent`). Every
    table is grouped in the scenario's canonical row order, which
    `Scenario` guarantees, so only `element_ids`, which merges three
    sections, is sorted here. Building the index assumes references
    resolve and parent chains are acyclic (`build_scenario` checks the
    former, `validate_scenario` the latter).
    """

    def __init__(self, s: Scenario):
        # Each element's hierarchy parent, keyed by every element id.
        parent_of: dict[str, str | None] = {
            e.id: e.parent for e in (*s.context_elements, *s.activities, *s.agents)
        }
        self.element_ids: tuple[str, ...] = tuple(sorted(parent_of))
        self.eidx: dict[str, int] = {e: i for i, e in enumerate(self.element_ids)}
        eidx = self.eidx.__getitem__

        self.activity_ids: tuple[str, ...] = tuple(a.id for a in s.activities)
        self.aidx: dict[str, int] = {a: i for i, a in enumerate(self.activity_ids)}
        aidx = self.aidx.__getitem__
        # By activity int: its type, and its element int.
        self.activity_type: tuple[ActivityType, ...] = tuple(a.type for a in s.activities)
        self.activity_elements: tuple[int, ...] = tuple(map(eidx, self.activity_ids))
        self.atomic_ids: tuple[str, ...] = tuple(
            a.id for a in s.activities if a.type is ActivityType.ATOMIC
        )
        # The activity int every decision walk starts from.
        self.root: int | None = self.activity_index(s.roots[0]) if s.roots else None

        self.value_ids: tuple[str, ...] = s.values
        self.vidx: dict[str, int] = {v: i for i, v in enumerate(self.value_ids)}

        # Flattened ancestor chains: chain_data[start[e]:start[e+1]] lists
        # element e itself, then its parents outward.
        chain_data: list[int] = []
        chain_start: list[int] = [0]
        for e in self.element_ids:
            node: str | None = e
            steps = 0
            while node is not None:
                chain_data.append(self.eidx[node])
                node = parent_of.get(node)
                steps += 1
                if steps > _MAX_CHAIN:
                    raise ScenarioError(f"context hierarchy cycle at {e!r}")
            chain_start.append(len(chain_data))
        # Tuples, so every agent's habit store can share them uncopied.
        self.chain_data = tuple(chain_data)
        self.chain_start = tuple(chain_start)

        # Each node's children, id-ordered, by parent id.
        children: dict[str, list[str]] = {}
        for c in s.activity_connections:
            children.setdefault(c.parent, []).append(c.child)
        self._children = {k: tuple(v) for k, v in children.items()}
        # What a decision at each composite node chooses among, as activity
        # ints in id order: its children, which the validator allows only
        # one relation (IsA alternatives of an abstract node, PartOf parts
        # of a sequential one). Atomic nodes have no entry.
        self.options: dict[int, tuple[int, ...]] = {
            i: tuple(map(aidx, self._children.get(a.id, ())))
            for i, a in enumerate(s.activities) if a.type is not ActivityType.ATOMIC
        }

        self.agent_ids: tuple[str, ...] = tuple(a.id for a in s.agents)
        self.agent_elements: tuple[int, ...] = tuple(map(eidx, self.agent_ids))
        self.agent_specs: dict[str, AgentSpec] = {a.id: a for a in s.agents}

        # These sections are keyed agent first ((agent, activity, context_element),
        # (agent, value), (agent, activity, value)): one agent's rows are contiguous.
        agent = attrgetter("agent")
        self.habitual_by_agent: dict[str, tuple[HabitualConnection, ...]] = {
            ag: tuple(rows) for ag, rows in groupby(s.habitual_connections, agent)
        }
        self.priorities_by_agent: dict[str, tuple[ValuePriority, ...]] = {
            ag: tuple(rows) for ag, rows in groupby(s.value_priorities, agent)
        }
        self.connections_by_agent: dict[str, tuple[ValueConnection, ...]] = {
            ag: tuple(rows) for ag, rows in groupby(s.value_connections, agent)
        }

        # activity int -> element int -> affordance strength
        aff: dict[int, dict[int, float]] = {}
        for af in s.affordances:
            aff.setdefault(aidx(af.activity), {})[eidx(af.context_element)] = af.strength
        self.affordances_by_activity = aff

        # activity int -> its (competence, required) pairs
        reqs: dict[int, list[tuple[str, float]]] = {}
        for cr in s.competence_requirements:
            reqs.setdefault(aidx(cr.activity), []).append((cr.competence, cr.required))
        self.requirements_by_activity = {a: tuple(r) for a, r in reqs.items()}
        self.levels_by_agent: dict[str, dict[str, float]] = {}
        for cl in s.competence_levels:
            self.levels_by_agent.setdefault(cl.agent, {})[cl.competence] = cl.level

        # A location's cues, by its element int: the location itself, then
        # the resources placed there.
        self.cues: dict[int, tuple[int, ...]] = {
            eidx(e.id): (eidx(e.id),) for e in s.context_elements
            if e.kind is ElementKind.LOCATION
        }
        for loc, res in s.environment.placements:
            self.cues[eidx(loc)] = (eidx(loc), *map(eidx, res))
        # tick -> (agent position in agent_ids, location element int)
        position = {ag: i for i, ag in enumerate(self.agent_ids)}
        reloc: dict[int, list[tuple[int, int]]] = {}
        for r in s.environment.relocations:
            reloc.setdefault(r.tick, []).append((position[r.agent], eidx(r.location)))
        self.relocations_by_tick = {t: tuple(rs) for t, rs in reloc.items()}
        self.timepoints: tuple[str, ...] = s.environment.timepoints
        self.timepoint_elements: tuple[int, ...] = tuple(map(eidx, self.timepoints))

    def element_index(self, element: str) -> int:
        try:
            return self.eidx[element]
        except KeyError:
            raise UnknownIdError(f"unknown context element: {element!r}") from None

    def activity_index(self, activity: str) -> int:
        try:
            return self.aidx[activity]
        except KeyError:
            raise UnknownIdError(f"unknown activity: {activity!r}") from None

    def value_index(self, value: str) -> int:
        try:
            return self.vidx[value]
        except KeyError:
            raise UnknownIdError(f"unknown value: {value!r}") from None

    def children(self, activity: str) -> tuple[str, ...]:
        self.activity_index(activity)  # UnknownIdError for an unknown id
        return self._children.get(activity, ())

