from __future__ import annotations

import pytest
from helpers import activity_ints, activity_names, make_doc, snapshot_of

from sopra import (
    DecisionMode,
    ScenarioError,
    World,
    build_scenario,
    events_csv,
    extensions,
    filter_candidates,
    run,
    snapshot_context,
)


def _ctx(scenario, *elems):
    return snapshot_of(scenario.index, elems)


def _afforded(activity, ctx, scenario):
    """The filter's affordance factor for the named activity."""
    return extensions._afforded(scenario.index.activity_index(activity), ctx, scenario)


def _competent(agent_id, activity, scenario):
    """The filter's competence factor for the named activity."""
    return extensions._competent(agent_id, scenario.index.activity_index(activity), scenario)


def _filter(candidates, agent_id, ctx, scenario):
    """`filter_candidates` over named candidates; the kept ones by name."""
    idx = scenario.index
    kept, fallback = filter_candidates(activity_ints(idx, candidates), agent_id, ctx, scenario)
    return list(activity_names(idx, kept)), fallback


def test_afforded(extensions_demo):
    s = extensions_demo
    assert _afforded("sit", _ctx(s, "LivingRoom", "chair"), s) == 1.0
    # The declared affordance exists but its element is absent here.
    assert _afforded("sit", _ctx(s, "Patio"), s) == 0.0
    # Undeclared activities are unconstrained anywhere.
    assert _afforded("stand", _ctx(s, "Patio"), s) == 1.0
    assert _afforded("relax", _ctx(s, "Patio"), s) == 1.0
    with pytest.raises(ScenarioError):
        _afforded("fly", _ctx(s, "Patio"), s)


def test_afforded_takes_best_present_offer():
    doc = make_doc()
    doc["contextElements"] += [
        {"id": "stool", "kind": "Resource"},
        {"id": "sofa", "kind": "Resource"},
    ]
    doc["affordances"] = [
        {"contextElement": "stool", "activity": "opt_a", "strength": 0.4},
        {"contextElement": "sofa", "activity": "opt_a", "strength": 0.9},
    ]
    s = build_scenario(doc)
    assert _afforded("opt_a", _ctx(s, "Home", "stool"), s) == 0.4
    assert _afforded("opt_a", _ctx(s, "Home", "stool", "sofa"), s) == 0.9
    assert _afforded("opt_a", _ctx(s, "Home"), s) == 0.0


def test_afforded_counts_any_context_element():
    # Not only placed resources afford: here the location itself does.
    from sopra.scenarios import bundled_document

    doc = bundled_document("extensions_demo")
    doc["affordances"] = [{"contextElement": "LivingRoom", "activity": "sit", "strength": 0.7}]
    w = World(build_scenario(doc))
    eidx = w.scenario.index.eidx
    assert _afforded("sit", snapshot_context(w, eidx["dana"]), w.scenario) == 0.7
    w.states["dana"].location = eidx["Patio"]
    assert _afforded("sit", snapshot_context(w, eidx["dana"]), w.scenario) == 0.0


def test_competent(extensions_demo):
    s = extensions_demo
    assert _competent("dana", "sit", s) == pytest.approx(1.0)  # 0.8/0.4 capped at 1
    assert _competent("dana", "stand", s) == 1.0  # nothing required
    with pytest.raises(ScenarioError):
        _competent("dana", "hover", s)


def test_competent_partial_and_missing_levels():
    doc = make_doc()
    doc["competences"] = {
        "levels": [{"agent": "ag1", "competence": "strength", "level": 0.3}],
        "requirements": [
            {"activity": "opt_a", "competence": "strength", "required": 0.6},
            {"activity": "opt_b", "competence": "grace", "required": 0.5},
        ],
    }
    s = build_scenario(doc)
    assert _competent("ag1", "opt_a", s) == pytest.approx(0.5)
    # A requirement with no declared level scores zero.
    assert _competent("ag1", "opt_b", s) == 0.0


def test_competent_multiple_requirements_take_min():
    doc = make_doc()
    doc["competences"] = {
        "levels": [
            {"agent": "ag1", "competence": "a", "level": 0.9},
            {"agent": "ag1", "competence": "b", "level": 0.2},
        ],
        "requirements": [
            {"activity": "opt_a", "competence": "a", "required": 0.3},
            {"activity": "opt_a", "competence": "b", "required": 0.8},
        ],
    }
    s = build_scenario(doc)
    assert _competent("ag1", "opt_a", s) == pytest.approx(0.25)


def test_filter_candidates(extensions_demo):
    s = extensions_demo  # feasibilityThreshold 0.5
    kept, fallback = _filter(["sit", "stand"], "dana", _ctx(s, "LivingRoom", "chair"), s)
    assert (kept, fallback) == (["sit", "stand"], False)
    kept, fallback = _filter(["sit", "stand"], "dana", _ctx(s, "Patio"), s)
    assert (kept, fallback) == (["stand"], False)


def test_filter_candidates_fallback_keeps_original():
    doc = make_doc()
    doc["affordances"] = [
        {"contextElement": "Away", "activity": "opt_a", "strength": 1.0},
        {"contextElement": "Away", "activity": "opt_b", "strength": 1.0},
    ]
    doc["globals"] = {"extensionsEnabled": True, "feasibilityThreshold": 0.5}
    s = build_scenario(doc)
    kept, fallback = _filter(["opt_a", "opt_b"], "ag1", _ctx(s, "Home"), s)
    assert (kept, fallback) == (["opt_a", "opt_b"], True)


def test_threshold_zero_is_identity():
    doc = make_doc()
    doc["affordances"] = [
        {"contextElement": "Away", "activity": "opt_a", "strength": 0.3},
    ]
    doc["globals"] = {"extensionsEnabled": True, "feasibilityThreshold": 0.0}
    s = build_scenario(doc)
    kept, fallback = _filter(["opt_a", "opt_b"], "ag1", _ctx(s, "Home"), s)
    assert (kept, fallback) == (["opt_a", "opt_b"], False)


def test_extensions_demo_relocation_changes_choice(extensions_demo):
    events, _ = run(extensions_demo, 30)
    by_tick = {e.tick: e for e in events}
    # With the chair present sitting wins on value; on the patio the
    # affordance filter removes it and standing is all that remains.
    for t in range(0, 21):
        assert by_tick[t].activity == "sit"
        assert by_tick[t].location == "LivingRoom"
    for t in range(21, 30):
        assert by_tick[t].activity == "stand"
        assert by_tick[t].location == "Patio"


def test_disabled_extensions_ignore_feasibility_data(extensions_demo):
    from sopra.scenarios import bundled_document

    doc = bundled_document("extensions_demo")
    doc["globals"]["extensionsEnabled"] = False
    events, _ = run(build_scenario(doc), 30)
    by_tick = {e.tick: e for e in events}
    # Without the filter dana keeps choosing the comfiest option even
    # where nothing affords it.
    assert by_tick[25].activity == "sit"
    assert by_tick[25].location == "Patio"


def test_enabling_extensions_without_data_changes_nothing(commuting, commuting_doc):
    import copy

    doc = copy.deepcopy(commuting_doc)
    doc["globals"]["extensionsEnabled"] = True
    a, _ = run(commuting, 60, seed=11)
    b, _ = run(build_scenario(doc), 60, seed=11)
    assert events_csv(a) == events_csv(b)
