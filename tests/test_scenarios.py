"""Scripted-scenario generation: geometry, perturbations, phase bookkeeping."""

import math

import pytest

from scenemon import (
    ActorTrack,
    LaneStrip,
    MapLayout,
    PhaseAutomaton,
    ScenarioScript,
    builtin_asgs,
    builtin_script,
    generate_trace,
    load_bundled_asg,
    overtake_script,
    pull_out_script,
    scenario_names,
    scene_record,
    sg_comparison,
)


def _pos(csg, oid):
    return csg.nodes[oid].attributes["position"]


def _dist(csg, a, b):
    ax, ay = _pos(csg, a)
    bx, by = _pos(csg, b)
    return math.hypot(ax - bx, ay - by)


def _simple_layout():
    return MapLayout("road", (LaneStrip("lane1", 0.0),))


# -- script validation -----------------------------------------------------


def test_scenario_names():
    assert scenario_names() == ("P1", "P2")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="P9"):
        builtin_script("P9")
    with pytest.raises(ValueError) as err:
        builtin_asgs("P3")
    assert str(err.value) == "unknown scenario 'P3'; expected one of ('P1', 'P2')"


def test_unknown_perturbation_key_rejected():
    with pytest.raises(ValueError, match="typo_gap"):
        pull_out_script({"typo_gap": 1.0})


def test_unknown_bundled_property_rejected():
    with pytest.raises(ValueError, match="nope"):
        load_bundled_asg("nope")


def _script(**over):
    kw = dict(
        scenario_id="t",
        duration=2.0,
        dt=0.5,
        phases=("A", "B"),
        boundaries=(0.0, 1.0, 2.0),
        layout=_simple_layout(),
        actors=(ActorTrack("ego", "Vehicle", (0.0, 0.0),
                           ((1.0, 0.0), (1.0, 0.0))),),
    )
    kw.update(over)
    return ScenarioScript(**kw)


def test_script_validation():
    _script()  # baseline is valid
    with pytest.raises(ValueError, match="dt"):
        _script(dt=0.0)
    with pytest.raises(ValueError, match="bracket"):
        _script(boundaries=(0.0, 2.0))
    with pytest.raises(ValueError, match="partition"):
        _script(boundaries=(0.0, 1.0, 3.0))
    with pytest.raises(ValueError, match="increasing"):
        _script(boundaries=(0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="ego"):
        _script(actors=(ActorTrack("car", "Vehicle", (0.0, 0.0),
                                   ((1.0, 0.0), (1.0, 0.0))),))
    with pytest.raises(ValueError, match="velocity per phase"):
        _script(actors=(ActorTrack("ego", "Vehicle", (0.0, 0.0),
                                   ((1.0, 0.0),)),))
    with pytest.raises(ValueError, match="duplicate"):
        _script(actors=(ActorTrack("ego", "Vehicle", (0.0, 0.0),
                                   ((1.0, 0.0), (1.0, 0.0))),
                        ActorTrack("lane1", "Vehicle", (5.0, 0.0),
                                   ((1.0, 0.0), (1.0, 0.0))),))


def test_zero_duration_yields_empty_trace(om):
    script = ScenarioScript(
        scenario_id="empty", duration=0.0, dt=0.5, phases=(),
        boundaries=(0.0,), layout=_simple_layout(),
        actors=(ActorTrack("ego", "Vehicle", (0.0, 0.0), ()),),
    )
    assert generate_trace(script, om) == []


def test_phase_windows():
    script = pull_out_script()
    assert script.segment_of("P1-2") == (3.0, 5.0)
    assert script.phase_index_at(0.0) == 0
    assert script.phase_index_at(2.9) == 0
    assert script.phase_index_at(3.0) == 1
    assert script.phase_index_at(4.9) == 1
    assert script.phase_index_at(5.0) == 2
    assert script.phase_index_at(12.0) == 2
    assert script.phase_index_at(99.0) == 2  # clamped


# -- nominal traces --------------------------------------------------------


def test_pull_out_trace_shape(om):
    trace = generate_trace(pull_out_script(), om)
    assert len(trace) == 121
    assert trace[0].timestamp == 0.0
    assert trace[-1].timestamp == 12.0
    ts = [c.timestamp for c in trace]
    assert ts == sorted(ts)
    assert len(set(ts)) == len(ts)


def test_pull_out_first_frame_is_parked(om):
    first = generate_trace(pull_out_script(), om)[0]
    ego = first.nodes["ego"]
    assert ego.attributes["velocity"] == 0.0
    assert ego.attributes["position"] == (20.0, -2.1)
    assert first.has_edge("ego", "isIn", "spot")
    assert first.has_edge("ego", "isIn", "lane1")
    assert not first.has_edge("rear", "isIn", "spot")
    assert first.has_edge("lane1", "isPartOf", "road")


def test_overtake_trace_shape(om):
    trace = generate_trace(overtake_script(), om)
    assert len(trace) == 201
    assert trace[-1].timestamp == 20.0


@pytest.mark.parametrize("scenario", ["P1", "P2"])
def test_in_front_of_implies_positive_distance(om, scenario):
    for csg in generate_trace(builtin_script(scenario), om):
        for src, rel, dst in csg.edges:
            if rel == "inFrontOf":
                assert _dist(csg, src, dst) > 0.0, (csg.timestamp, src, dst)


@pytest.mark.parametrize("scenario", ["P1", "P2"])
def test_nominal_trace_completes_without_violations(om, scenario):
    script = builtin_script(scenario)
    asgs = builtin_asgs(scenario, om)
    pa = PhaseAutomaton(script.phases)
    for csg in generate_trace(script, om):
        verdicts = {a.name: sg_comparison(a, csg) for a in asgs}
        pa = pa.step(verdicts)
    assert pa.completed
    assert pa.violations == 0
    assert pa.index == len(script.phases) - 1


def test_generation_is_deterministic(om):
    a = [scene_record(c) for c in generate_trace(overtake_script(), om)]
    b = [scene_record(c) for c in generate_trace(overtake_script(), om)]
    assert a == b


# -- perturbed traces ------------------------------------------------------


def test_pull_out_rear_gap_perturbation_pins_distance(om):
    script = pull_out_script({"rear_gap": -5.0})
    nominal = {c.timestamp: c for c in generate_trace(pull_out_script(), om)}
    hit = 0
    for csg in generate_trace(script, om):
        t = csg.timestamp
        if 3.0 <= t < 5.0:
            assert _dist(csg, "ego", "rear") == pytest.approx(10.0, abs=1e-6)
            hit += 1
        else:
            # outside the target phase the threat follows its nominal track
            assert _pos(csg, "rear") == _pos(nominal[t], "rear")
    assert hit == 20


def test_overtake_pass_gap_perturbation_places_abeam(om):
    script = overtake_script({"pass_gap": -1.0})
    for csg in generate_trace(script, om):
        t = csg.timestamp
        if 5.5 <= t < 9.0:
            assert _dist(csg, "ego", "obstacle") == pytest.approx(1.0, abs=1e-9)
            ex, ey = _pos(csg, "ego")
            assert _pos(csg, "obstacle") == (ex, ey - 1.0)


def test_overtake_rear_gap_perturbation_pins_distance(om):
    script = overtake_script({"rear_gap": -20.0})
    for csg in generate_trace(script, om):
        if 3.0 <= csg.timestamp < 5.5:
            assert _dist(csg, "ego", "oncoming") == pytest.approx(10.0, abs=1e-6)


def test_perturbation_does_not_touch_other_actors(om):
    script = overtake_script({"rear_gap": -20.0})
    nominal = {c.timestamp: c for c in generate_trace(overtake_script(), om)}
    for csg in generate_trace(script, om):
        t = csg.timestamp
        assert _pos(csg, "ego") == _pos(nominal[t], "ego")
        assert _pos(csg, "obstacle") == _pos(nominal[t], "obstacle")


# -- bundled phase properties ----------------------------------------------


def test_builtin_asgs_follow_phase_order(om):
    p1 = builtin_asgs("P1", om)
    p2 = builtin_asgs("P2", om)
    assert [a.name for a in p1] == ["P1-1", "P1-2", "P1-3"]
    assert [a.name for a in p2] == ["P2-1", "P2-2", "P2-3", "P2-4", "P2-5"]


def test_parked_phase_property_shape(om):
    asg = load_bundled_asg("P1-1", om)
    assert asg.pattern_nodes["spot"] == "ParkingSpot"
    assert ("ego", "isIn", "spot") in asg.pattern_edges
    assert [p.to_text() for p in asg.predicates] == ["ego.velocity == 0"]


def test_lane_change_property_thresholds(om):
    asg = load_bundled_asg("P2-2", om)
    texts = [p.to_text() for p in asg.predicates]
    assert "dist(ego, oncoming) >= 30" in texts
    assert "dist(ego, obstacle) >= 5" in texts


def test_passing_property_threshold(om):
    asg = load_bundled_asg("P2-3", om)
    texts = [p.to_text() for p in asg.predicates]
    assert "dist(ego, obstacle) >= 2" in texts
