"""The package's public surface: the names `sopra` exports, and the
Python quick start in README.md."""

from __future__ import annotations

import re
from pathlib import Path

import sopra
from sopra.scenarios import load_bundled

README = Path(__file__).resolve().parents[1] / "README.md"

# Every name the engine, the CLI or a documented example needs, and no
# other. A name added or removed here is a change of the public API.
PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(sopra.__all__) == PUBLIC_NAMES
    for name in sopra.__all__:
        assert getattr(sopra, name) is not None, name


def test_readme_python_quick_start_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    first_event, location = capsys.readouterr().out.splitlines()
    assert first_event.startswith("0,")  # tick 0's first logged decision
    assert location in load_bundled("commuting").index.element_ids
