import dataclasses
import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from scenemon import (
    AbstractSceneGraph,
    Cause,
    CauseKind,
    Embedding,
    FrozenInstanceError,
    PhaseAutomaton,
    Result,
    SceneObject,
    StreamOrderError,
    Verdict,
    builtin_asgs,
    builtin_script,
    generate_trace,
    load_bundled_asg,
    make_csg,
    monitor_stream,
    overtake_script,
    parse_asg,
    pull_out_script,
    read_scene_stream,
    serialize_asg,
    serialize_scene,
    serialize_verdict,
    sg_comparison,
    verdict_record,
)
from scenemon.monitor import _ENCODER, reference_verdict
from scenemon.predicates import attribute_reads


# -- single-scene verdicts -------------------------------------------------


def test_satisfied_with_witness(ahead_asg, scene_factory):
    v = sg_comparison(ahead_asg, scene_factory(t=2.5))
    assert v.result is Result.SATISFIED
    assert v.satisfied
    assert v.timestamp == 2.5
    assert v.property_name == "obstacle-ahead"
    assert v.cause is None
    assert v.witness.as_dict() == {"ego": "ego", "lane": "lane1", "obstacle": "obs"}


def test_violated_on_first_predicate(ahead_asg, scene_factory):
    v = sg_comparison(ahead_asg, scene_factory(obstacle_speed=1.0))
    assert v.result is Result.VIOLATED
    assert v.cause == Cause.predicate_failed(0)
    assert v.witness is None


def test_violated_on_second_predicate(ahead_asg, scene_factory):
    v = sg_comparison(ahead_asg, scene_factory(gap=25.0))
    assert v.cause == Cause.predicate_failed(1)


def test_violated_no_embedding(ahead_asg, scene_factory):
    v = sg_comparison(ahead_asg, scene_factory(obstacle_cls="Vehicle"))
    assert v.result is Result.VIOLATED
    assert v.cause == Cause.no_embedding()
    assert v.cause.kind is CauseKind.NO_EMBEDDING


def test_error_on_missing_attribute(ahead_asg, scene_factory):
    v = sg_comparison(ahead_asg, scene_factory(
        obstacle_attrs={"position": (10.0, 0.0)}))
    assert v.result is Result.ERROR
    assert v.cause == Cause.missing_attribute("obstacle.velocity")


def _multi_obstacle_scene(om, specs, ego_speed=8.0):
    """specs: list of (object_id, attrs) halted-candidate obstacles."""
    nodes = [
        SceneObject("ego", "Vehicle", {"velocity": ego_speed, "position": (0.0, 0.0)}),
        SceneObject("lane1", "Lane", {}),
    ]
    edges = [("ego", "isIn", "lane1")]
    for oid, attrs in specs:
        nodes.append(SceneObject(oid, "Static", attrs))
        edges += [(oid, "isIn", "lane1"), (oid, "inFrontOf", "ego")]
    return make_csg(om, 0.0, "ego", nodes, edges)


def test_witness_is_first_satisfying_in_matcher_order(om, ahead_asg):
    csg = _multi_obstacle_scene(om, [
        ("s1", {"velocity": 0.0, "position": (10.0, 0.0)}),
        ("s2", {"velocity": 0.0, "position": (12.0, 0.0)}),
    ])
    v = sg_comparison(ahead_asg, csg)
    assert v.satisfied
    assert v.witness["obstacle"] == "s1"


def test_satisfied_outranks_error(om, ahead_asg):
    # the lexicographically earlier candidate errors; the scan keeps going
    csg = _multi_obstacle_scene(om, [
        ("a0", {"position": (10.0, 0.0)}),
        ("s1", {"velocity": 0.0, "position": (11.0, 0.0)}),
    ])
    v = sg_comparison(ahead_asg, csg)
    assert v.satisfied
    assert v.witness["obstacle"] == "s1"


def test_error_outranks_predicate_failure(om, ahead_asg):
    csg = _multi_obstacle_scene(om, [
        ("a0", {"position": (10.0, 0.0)}),          # velocity missing
        ("b1", {"velocity": 0.0}),                   # position missing
        ("c2", {"velocity": 2.0, "position": (9.0, 0.0)}),  # fails predicate 0
    ])
    v = sg_comparison(ahead_asg, csg)
    assert v.result is Result.ERROR
    # first erroring embedding in matcher order decides the ref
    assert v.cause == Cause.missing_attribute("obstacle.velocity")


def test_failure_cause_comes_from_first_failing_embedding(om, ahead_asg):
    # a0 passes predicate 0 but fails 1; b1 fails predicate 0. The reported
    # index belongs to a0 because it comes first in matcher order.
    csg = _multi_obstacle_scene(om, [
        ("a0", {"velocity": 0.0, "position": (25.0, 0.0)}),
        ("b1", {"velocity": 2.0, "position": (10.0, 0.0)}),
    ])
    v = sg_comparison(ahead_asg, csg)
    assert v.cause == Cause.predicate_failed(1)


def test_a_later_failure_does_not_replace_the_first_on_incomplete_data(om, ahead_asg):
    # obs_a fails predicate 0 and obs_b, later in matcher order, fails 1.
    # obs_c has no velocity and is not in front of the ego: no embedding
    # maps it, but it is a gap object, so after the witness search finds
    # nothing the error search runs, finds no embedding, and the first
    # failure decides. The second scene is a memo hit.
    base = _multi_obstacle_scene(om, [
        ("obs_a", {"velocity": 1.0, "position": (10.0, 0.0)}),
        ("obs_b", {"velocity": 0.0, "position": (50.0, 0.0)}),
    ])
    nodes = [*base.nodes.values(), SceneObject("obs_c", "Static", {"position": (5.0, 0.0)})]
    edges = [*base.edges, ("obs_c", "isIn", "lane1")]
    scenes = [make_csg(om, t, "ego", nodes, edges) for t in (0.0, 1.0)]
    first = Cause.predicate_failed(0)
    assert reference_verdict(ahead_asg, scenes[0]).cause == first
    assert sg_comparison(ahead_asg, scenes[0]).cause == first
    assert [v.cause for _, (v,) in monitor_stream([ahead_asg], scenes)] == [first, first]


# -- predicate pushdown: the cause rule with the ego halted ----------------
# P2-1 asserts dist(ego, obstacle) >= 5, then ego.velocity > 0. With the ego
# halted the pruned search rejects every embedding at depth 0, so the cause
# must still come from the first embedding's own evaluation.


def _halted(om, specs):
    return _multi_obstacle_scene(om, specs, ego_speed=0.0)


def _obstacle_at(x):
    return {"velocity": 0.0, "position": (x, 0.0)}


def test_pushdown_keeps_first_embedding_cause(om):
    p21 = load_bundled_asg("P2-1", om)
    near_first = _halted(om, [("a0", _obstacle_at(3.0)), ("b1", _obstacle_at(10.0))])
    assert sg_comparison(p21, near_first) == Verdict(
        0.0, "P2-1", Result.VIOLATED, cause=Cause.predicate_failed(0))
    far_first = _halted(om, [("a0", _obstacle_at(10.0)), ("b1", _obstacle_at(3.0))])
    assert sg_comparison(p21, far_first) == Verdict(
        0.0, "P2-1", Result.VIOLATED, cause=Cause.predicate_failed(1))


def test_pushdown_falls_back_on_a_later_data_gap(om):
    # a0 fails ego.velocity > 0; b1 has no position, so the error search
    # reaches the gap, which a search pruned at depth 0 would never see
    csg = _halted(om, [("a0", _obstacle_at(10.0)), ("b1", {"velocity": 0.0})])
    v = sg_comparison(load_bundled_asg("P2-1", om), csg)
    assert v.result is Result.ERROR
    assert v.cause == Cause.missing_attribute("obstacle.position")


def test_pushdown_keeps_no_embedding(om):
    v = sg_comparison(load_bundled_asg("P2-1", om), _halted(om, []))
    assert v.result is Result.VIOLATED
    assert v.cause == Cause.no_embedding()


STANDOFF = """asg "standoff" {
  node ego: Vehicle; node obstacle: Static; node other: Vehicle; node lane: Lane;
  ego ego;
  edge ego isIn lane; edge obstacle isIn lane; edge other isIn lane;
  assert dist(ego, obstacle) >= 5;
  assert dist(obstacle, other) <= 10;
}"""


def test_pushdown_witness_is_first_satisfying_after_pruned_subtrees(om, monkeypatch):
    import scenemon.monitor

    rejected = []
    unpruned = scenemon.monitor.iter_embeddings

    def recording(asg, csg, **kwargs):
        check = kwargs.get("check")
        if check is not None:
            def logged(pid, mapping):
                ok = check(pid, mapping)
                if not ok:
                    rejected.append(dict(mapping))
                return ok
            kwargs["check"] = logged
        return unpruned(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.monitor, "iter_embeddings", recording)
    # visit order: ego, lane, obstacle (2 candidates), other (3 candidates)
    nodes = [SceneObject("ego", "Vehicle", {"velocity": 0.0, "position": (0.0, 0.0)}),
             SceneObject("lane1", "Lane", {})]
    for oid, cls, x in (("s1", "Static", 2.0), ("s2", "Static", 20.0),
                        ("v1", "Vehicle", 40.0), ("v2", "Vehicle", 25.0)):
        nodes.append(SceneObject(oid, cls, _obstacle_at(x)))
    edges = [(n.object_id, "isIn", "lane1") for n in nodes if n.cls != "Lane"]
    csg = make_csg(om, 0.0, "ego", nodes, edges)
    v = sg_comparison(parse_asg(STANDOFF, om), csg)
    assert v.satisfied
    assert v.witness.as_dict() == {"ego": "ego", "lane": "lane1",
                                   "obstacle": "s2", "other": "v2"}
    # s1's subtree went at the obstacle depth, before its completions
    assert rejected == [
        {"ego": "ego", "lane": "lane1", "obstacle": "s1"},
        {"ego": "ego", "lane": "lane1", "obstacle": "s2", "other": "v1"},
    ]


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -5.0])
def test_epsilon_must_be_finite_and_not_negative(om, scene_factory, epsilon):
    asg = load_bundled_asg("obstacle-ahead", om)
    with pytest.raises(ValueError, match="epsilon must be a finite number"):
        sg_comparison(asg, scene_factory(), epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon must be a finite number"):
        next(monitor_stream([asg], [scene_factory()], epsilon=epsilon))
    # a NaN key never compares equal: a plan filed under one would pile up
    assert asg.plans == {}


# -- stream monitoring -----------------------------------------------------


IN_LANE = ('asg "in-lane" { node ego: Vehicle; node lane: Lane; '
           'ego ego; edge ego isIn lane; }')


def test_stream_verdict_order(om, ahead_asg, scene_factory):
    lane_asg = parse_asg(IN_LANE, om)
    scenes = [scene_factory(t=0.0), scene_factory(t=1.0)]
    rows = list(monitor_stream([ahead_asg, lane_asg], scenes))
    out = [v for _, row in rows for v in row]
    assert [(v.timestamp, v.property_name) for v in out] == [
        (0.0, "obstacle-ahead"), (0.0, "in-lane"),
        (1.0, "obstacle-ahead"), (1.0, "in-lane"),
    ]
    # one row per scene: the scene itself, with its verdicts in property order
    assert [csg for csg, _ in rows] == scenes
    assert all(csg is scene and type(row) is tuple for (csg, row), scene in zip(rows, scenes))
    flipped = monitor_stream([lane_asg, ahead_asg], scenes)
    assert [[v.property_name for v in row] for _, row in flipped] == [
        ["in-lane", "obstacle-ahead"], ["in-lane", "obstacle-ahead"]]


def test_stream_rejects_decreasing_timestamps(ahead_asg, scene_factory):
    scenes = [scene_factory(t=1.0), scene_factory(t=0.5)]
    gen = monitor_stream([ahead_asg], scenes)
    assert next(gen)[0].timestamp == 1.0
    with pytest.raises(StreamOrderError, match="0.5 after 1.0"):
        next(gen)
    empty = monitor_stream([], scenes)  # no properties: empty rows, the same order check
    assert next(empty) == (scenes[0], ())
    with pytest.raises(StreamOrderError, match="0.5 after 1.0"):
        next(empty)


def test_stream_allows_equal_timestamps(ahead_asg, scene_factory):
    scenes = [scene_factory(t=1.0), scene_factory(t=1.0)]
    assert len(list(monitor_stream([ahead_asg], scenes))) == 2


def test_stream_is_online(om, ahead_asg, scene_factory):
    lane_asg = parse_asg(IN_LANE, om)
    pulled = []

    def scenes():
        for t in (0.0, 1.0, 2.0):
            pulled.append(t)
            yield scene_factory(t=t)

    for asgs in ([ahead_asg, lane_asg], []):
        pulled.clear()
        gen = monitor_stream(asgs, scenes())
        csg, row = next(gen)  # the row of scene 0, every verdict decided
        assert pulled == [0.0] and csg.timestamp == 0.0
        assert [(v.timestamp, v.property_name) for v in row] == [(0.0, a.name) for a in asgs]
        next(gen)
        assert pulled == [0.0, 1.0]


def test_stream_concatenation(ahead_asg, scene_factory):
    a = [scene_factory(t=0.0)]
    b = [scene_factory(t=1.0), scene_factory(t=2.0)]
    joined = list(monitor_stream([ahead_asg], a + b))
    split = list(monitor_stream([ahead_asg], a)) + list(monitor_stream([ahead_asg], b))
    assert joined == split


def _rebuilt(om, csg, attrs_of):
    nodes = [SceneObject(o.object_id, o.cls, attrs_of(o)) for o in csg.nodes.values()]
    return make_csg(om, csg.timestamp, csg.ego_id, nodes, csg.edges)


def test_checks_leave_no_reference_cycles(om, monkeypatch):
    """A check is freed by reference counting alone: it leaves nothing for
    the cycle collector, and a dropped scene dies at once."""
    import scenemon.monitor

    pushdowns = []
    unpruned = scenemon.monitor.iter_embeddings

    def counting(asg, csg, **kwargs):
        if kwargs.get("check") is not None:
            pushdowns.append(asg.name)
        return unpruned(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.monitor, "iter_embeddings", counting)
    cases = [(builtin_asgs(name, om), generate_trace(script, om))
             for name, script in (("P1", pull_out_script()), ("P2", overtake_script()))]
    gc.disable()
    try:
        gc.collect()
        kinds = set()
        for asgs, trace in cases:
            scene = trace[len(trace) // 2]
            ego = scene.ego_id
            halted = _rebuilt(om, scene, lambda o: (
                {**o.attributes, "velocity": 0.0} if o.object_id == ego else o.attributes))
            gap = _rebuilt(om, scene, lambda o: {
                k: v for k, v in o.attributes.items() if k != "position" or o.object_id == ego})
            for csg in (scene, halted, gap):
                for asg in asgs:
                    v = sg_comparison(asg, csg)
                    kinds.add(v.cause.kind if v.cause else v.result)
            refs = [weakref.ref(halted), weakref.ref(gap)]
            verdicts = [sg_comparison(asg, halted) for asg in asgs]
            del verdicts, halted, gap, csg, v
            assert [ref() for ref in refs] == [None, None]
            assert sum(len(row) for _, row in monitor_stream(asgs, trace[:10])) == 10 * len(asgs)
            # a stream reuses embeddings along a run of one topology and pins
            # no scene of an earlier run once it has moved past it
            pending = [_rebuilt(om, csg, lambda o: o.attributes) for csg in trace]
            cut = next(i for i in range(1, len(pending))
                       if _topology(pending[i]) != _topology(pending[i - 1]))
            first_run = [weakref.ref(csg) for csg in pending[:cut]]

            def feed():
                while pending:
                    yield pending.pop(0)

            stream = monitor_stream(asgs, feed())
            for _ in range(cut + 1):  # up to the new run's first scene
                next(stream)
            assert [ref() for ref in first_run] == [None] * cut
            assert sum(len(row) for _, row in stream) == (len(trace) - cut - 1) * len(asgs)
            # the same through ingest, where the scenes of a run share one
            # class index and edge set: these pin no scene either
            lines = [serialize_scene(csg) for csg in trace]
            read, tables = [], []

            def parsed():
                for csg in read_scene_stream(lines, om):
                    read.append(weakref.ref(csg))
                    tables.append((id(csg.class_index), id(csg.edges)))
                    yield csg

            stream = monitor_stream(asgs, parsed())
            for _ in range(cut + 1):
                next(stream)
            assert len(set(tables[:cut])) == 1 and tables[cut] != tables[0]
            assert [ref() for ref in read[:cut]] == [None] * cut
            assert sum(len(row) for _, row in stream) == (len(trace) - cut - 1) * len(asgs)
        assert kinds >= {Result.SATISFIED, CauseKind.PREDICATE_FAILED,
                         CauseKind.MISSING_ATTRIBUTE, CauseKind.NO_EMBEDDING}
        assert pushdowns
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- topology reuse: monitor_stream against fresh per-scene checks ---------

BUNDLED = ("obstacle-ahead", "P1-1", "P1-2", "P1-3", "P2-1", "P2-2", "P2-3", "P2-4", "P2-5")
# Patterns that each mutation below changes the verdict of, with and without
# `induced`: ego ahead of a vehicle in its lane (P1), ego abreast of one
# (P2), and ego in two lanes.
AHEAD = ('asg "ahead" { node ego: Vehicle; node other: Vehicle; node lane: Lane; ego ego; '
         'edge ego isIn lane; edge other isIn lane; edge ego inFrontOf other; '
         'assert dist(ego, other) >= 0; }')
ABREAST = ('asg "abreast" { node ego: Vehicle; node other: Vehicle; node lane: Lane; ego ego; '
           'edge ego isIn lane; edge other isIn lane; edge ego inFrontOf other; '
           'edge other inFrontOf ego; assert dist(ego, other) >= 0; }')
TWO_LANES = ('asg "two-lanes" { node ego: Vehicle; node a: Lane; node b: Lane; ego ego; '
             'edge ego isIn a; edge ego isIn b; }')


def _properties(om):
    return ([load_bundled_asg(name, om) for name in BUNDLED]
            + [parse_asg(text, om) for text in (AHEAD, ABREAST, TWO_LANES)])


def _topology(csg):
    """What the matcher reads of a scene, derived without the code under test."""
    return csg.ego_id, sorted((oid, obj.cls) for oid, obj in csg.nodes.items()), csg.edges


def _fresh_verdicts(om, asgs, scenes, **kwargs):
    """Each (scene, property) decided by a direct call, which has no memo
    and searches from scratch, on its own copy of the scene."""
    out = []
    for csg in scenes:
        copy = _rebuilt(om, csg, lambda o: o.attributes)
        out += [sg_comparison(asg, copy, **kwargs) for asg in asgs]
    return out


@pytest.mark.parametrize("induced", [False, True], ids=["mono", "induced"])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("perturb", [{}, {"rear_gap": -3.0}], ids=["nominal", "rear_gap"])
@pytest.mark.parametrize("scenario", ["P1", "P2"])
def test_stream_reuse_matches_fresh_checks(om, scenario, perturb, epsilon, induced):
    asgs = _properties(om)
    trace = generate_trace(builtin_script(scenario, offsets=perturb), om)
    kwargs = {"epsilon": epsilon, "induced": induced}
    got = [v for _, row in monitor_stream(asgs, trace, **kwargs) for v in row]
    assert got == _fresh_verdicts(om, asgs, trace, **kwargs)


def _other_vehicle(csg):
    return next(oid for oid, obj in sorted(csg.nodes.items())
                if obj.cls == "Vehicle" and oid != csg.ego_id)


def _class_changed(csg):
    other = _other_vehicle(csg)
    return csg.ego_id, {other: "Static"}, csg.edges, {}


def _ego_changed(csg):
    return _other_vehicle(csg), {}, csg.edges, {}


def _edge_removed(csg):
    other = _other_vehicle(csg)
    edge = min(e for e in csg.edges if e[0] == other and e[1] == "isIn")
    return csg.ego_id, {}, csg.edges - {edge}, {}


def _edge_added(csg):
    lane = min(oid for oid, obj in csg.nodes.items()
               if obj.cls == "Lane" and (csg.ego_id, "isIn", oid) not in csg.edges)
    return csg.ego_id, {}, csg.edges | {(csg.ego_id, "isIn", lane)}, {}


def _position_lost(csg):
    return csg.ego_id, {}, csg.edges, {_other_vehicle(csg): "position"}


MUTATIONS = {"class": _class_changed, "ego": _ego_changed, "edge_removed": _edge_removed,
             "edge_added": _edge_added, "position_lost": _position_lost}
MUTATED = range(60, 65)  # scenes mutated, inside a run of one topology in both traces


def _mutated_trace(om, scenario, mutate):
    trace = generate_trace(builtin_script(scenario), om)
    for i in MUTATED:
        csg = trace[i]
        ego, classes, edges, dropped = mutate(csg)
        nodes = [SceneObject(oid, classes.get(oid, obj.cls),
                             {k: v for k, v in obj.attributes.items() if dropped.get(oid) != k})
                 for oid, obj in csg.nodes.items()]
        trace[i] = make_csg(om, csg.timestamp, ego, nodes, edges)
    return trace


@pytest.mark.parametrize("induced", [False, True], ids=["mono", "induced"])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("scenario", ["P1", "P2"])
def test_stream_reuse_follows_a_topology_change_mid_run(om, monkeypatch, scenario, mutation,
                                                        induced):
    """A run of one topology is cut by a few scenes that differ in one
    node's class, the ego, one edge, or (topology kept) one attribute."""
    import scenemon.monitor

    trace = _mutated_trace(om, scenario, MUTATIONS[mutation])
    before, first, after = (trace[i] for i in (MUTATED[0] - 1, MUTATED[0], MUTATED[-1] + 1))
    assert _topology(before) == _topology(after)
    assert (_topology(before) == _topology(first)) == (mutation == "position_lost")
    asgs = _properties(om)
    expected = _fresh_verdicts(om, asgs, trace, induced=induced)
    unmutated = _fresh_verdicts(om, asgs, generate_trace(builtin_script(scenario), om),
                                induced=induced)
    assert expected != unmutated
    unchecked = []  # the scenes an unpruned search started on, in the stream alone
    search = scenemon.monitor.iter_embeddings

    def recording(asg, csg, **kwargs):
        if kwargs.get("check") is None:
            unchecked.append(csg.timestamp)
        yield from search(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.monitor, "iter_embeddings", recording)
    assert [v for _, row in monitor_stream(asgs, trace, induced=induced) for v in row] == expected
    around = {t for t in unchecked if before.timestamp <= t <= after.timestamp}
    if mutation == "position_lost":
        # the topology is kept, so every first embedding is reused; the gap
        # is found by checked searches alone
        assert around == set()
        assert any(v.result is Result.ERROR for v in expected)
    else:  # a new topology at the first mutated scene, the old one back after the last
        assert around == {first.timestamp, after.timestamp}


@pytest.mark.parametrize("scenario", ["P1", "P2"])
def test_two_streams_over_the_same_scenes_keep_their_verdicts(om, scenario):
    """Two streams walk the same scene objects in step, a scene's verdicts
    from one, then from the other, with different property lists and
    `induced`. The second list holds the first one's properties, and under
    the same names other patterns."""
    trace = generate_trace(builtin_script(scenario), om)
    first = _properties(om)
    second = [a.replace(name=b.name) for a, b in zip(first, reversed(first))]
    second += first
    expected = (_fresh_verdicts(om, first, trace), _fresh_verdicts(om, second, trace, induced=True))
    streams = (monitor_stream(first, trace), monitor_stream(second, trace, induced=True))
    got: tuple[list, list] = ([], [])
    for _ in trace:
        for out, stream, asgs in zip(got, streams, (first, second)):
            out += next(stream)[1]
    assert [next(stream, None) for stream in streams] == [None, None]
    assert got == expected


def test_unchecked_search_runs_once_per_topology_run_and_property(om, monkeypatch):
    """In a stream the unpruned search runs once per run of scenes with one
    topology and property; a direct call searches every time, on a scene a
    stream has checked as on one it has not."""
    import scenemon.monitor

    unchecked = []  # the properties an unpruned search started for
    search = scenemon.monitor.iter_embeddings

    def counting(asg, csg, **kwargs):
        if kwargs.get("check") is None:
            unchecked.append(asg.name)
        yield from search(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.monitor, "iter_embeddings", counting)
    asgs = builtin_asgs("P2", om)
    trace = generate_trace(overtake_script(), om)
    runs = 1 + sum(_topology(a) != _topology(b) for a, b in zip(trace, trace[1:]))
    assert 1 < runs < len(trace) / 10
    assert sum(len(row) for _, row in monitor_stream(asgs, trace)) == len(trace) * len(asgs)
    assert len(unchecked) == runs * len(asgs)
    unchecked.clear()
    scene = _rebuilt(om, trace[0], lambda o: o.attributes)
    for csg in (scene, trace[1]):
        for _ in range(2):
            for asg in asgs:
                sg_comparison(asg, csg)
    assert unchecked == [asg.name for asg in asgs] * 4


def test_a_stream_leaves_its_scenes_as_it_found_them(om):
    """The topology memo is the stream's own: a stream writes nothing into
    the scenes it reads, and once it and its property list are dropped the
    properties die by reference counting, though the scenes live on."""
    trace = generate_trace(overtake_script(), om)
    before = [dict(vars(csg)) for csg in trace]
    asgs = builtin_asgs("P2", om)
    refs = [weakref.ref(asg) for asg in asgs]
    gc.disable()
    try:
        gc.collect()
        stream = monitor_stream(asgs, trace)
        assert sum(len(row) for _, row in stream) == len(trace) * len(asgs)
        del stream, asgs
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
    for csg, fields in zip(trace, before):
        assert vars(csg).keys() == fields.keys()
        assert all(vars(csg)[name] is value for name, value in fields.items())


def _recording_searches(monkeypatch):
    """Replace the monitor's search with a plain function that records the
    `check` of every search built, whether or not it is ever started."""
    import scenemon.monitor

    built = []
    search = scenemon.monitor.iter_embeddings

    def recording(asg, csg, **kwargs):
        built.append(kwargs.get("check"))
        return search(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.monitor, "iter_embeddings", recording)
    return built, search


def test_a_memo_hit_decided_by_its_first_embedding_builds_no_search(om, ahead_asg, monkeypatch):
    """Along a P2 topology run a search is built for a property only on the
    run's first scene, or when the memo's first embedding does not decide
    the verdict and the topology has a second embedding: the first is
    there, and fails or hits missing data. No P2 topology has a second
    embedding for an undecided hit, so a two-obstacle run shows that case."""
    built, search = _recording_searches(monkeypatch)
    asgs = builtin_asgs("P2", om)
    trace = generate_trace(overtake_script(), om)
    streams = [monitor_stream([asg], trace) for asg in asgs]  # a row per check
    decided = undecided = 0
    for prev, csg in zip([None, *trace], trace):
        run_start = prev is None or _topology(prev) != _topology(csg)
        for asg, verdicts in zip(asgs, streams):
            built.clear()
            _, (v,) = next(verdicts)
            first, second = itertools.islice(itertools.chain(search(asg, csg), [None, None]), 2)
            if run_start:
                assert built[:1] == [None]
            elif first is None or v.witness == first or second is None:
                decided += 1
                assert built == [], (csg.timestamp, asg.name)
            else:
                undecided += 1
                assert built
    assert [next(verdicts, None) for verdicts in streams] == [None] * len(asgs)
    assert decided > 0 and undecided == 0
    moving_first = [_multi_obstacle_scene(om, [("a0", {"velocity": 2.0, "position": (10.0, 0.0)}),
                                               ("b1", _obstacle_at(12.0))])] * 3
    for _, (v,) in monitor_stream([ahead_asg], moving_first):
        assert v.witness["obstacle"] == "b1"
        assert built and built[-1] is not None  # a pushdown search, on every scene
        built.clear()


@pytest.mark.parametrize("perturb", [{}, {"rear_gap": -3.0}], ids=["nominal", "rear_gap"])
@pytest.mark.parametrize("scenario", ["P1", "P2"])
def test_a_memo_hit_on_a_one_embedding_topology_builds_no_search(om, monkeypatch, scenario,
                                                                 perturb):
    """When a topology has one embedding, a memo hit is decided by it,
    whether it satisfies, fails or hits missing data: no search is built.
    Ten scenes of each trace lose the ego's velocity to give the gaps."""
    built, search = _recording_searches(monkeypatch)
    asgs = _properties(om)
    trace = generate_trace(builtin_script(scenario, offsets=perturb), om)
    ego = trace[0].ego_id
    trace[50:60] = [_rebuilt(om, csg, lambda o: {
        k: v for k, v in o.attributes.items() if k != "velocity" or o.object_id != ego})
        for csg in trace[50:60]]
    expected = _fresh_verdicts(om, asgs, trace)
    streams = [monitor_stream([asg], trace) for asg in asgs]  # a row per check
    results = []
    for prev, csg in zip([None, *trace], trace):
        run_start = prev is None or _topology(prev) != _topology(csg)
        for asg, verdicts in zip(asgs, streams):
            built.clear()
            _, (v,) = next(verdicts)
            assert v == expected.pop(0)
            if not run_start and len(list(itertools.islice(search(asg, csg), 2))) == 1:
                assert built == [], (csg.timestamp, asg.name, v)
                results.append(v.result)
    assert [next(verdicts, None) for verdicts in streams] == [None] * len(asgs)
    assert all(results.count(r) >= 5 for r in Result), results


def test_memo_paths_match_the_reference_verdict(om, monkeypatch):
    """Runs of one random topology with fresh attribute values, some with a
    value left out, decided through the topology memo, equal the verdicts
    rebuilt from the exhaustive matcher on every path the memo can take."""
    from randscene import random_instance, topology_run

    built, search = _recording_searches(monkeypatch)
    rng = random.Random(2024)
    paths = dict.fromkeys(("memo-hit no_embedding", "satisfied at the first embedding",
                           "satisfied later", "violated after pushdown", "error",
                           "violated by the only embedding", "error by the only embedding"), 0)
    for _ in range(600):
        asg, csg = random_instance(rng, om, edge_p=0.9)  # dense: some patterns embed twice
        run = topology_run(rng, csg, 5)
        for epsilon, induced in itertools.product((0.0, 0.5), (False, True)):
            kwargs = {"epsilon": epsilon, "induced": induced}
            only = len(list(itertools.islice(search(asg, csg, induced=induced), 2))) == 1
            verdicts = monitor_stream([asg], run, **kwargs)
            for i, scene in enumerate(run):
                built.clear()
                _, (v,) = next(verdicts)
                assert v == reference_verdict(asg, scene, **kwargs)
                if v.result is Result.ERROR:
                    paths["error"] += 1
                    paths["error by the only embedding"] += only and i > 0
                elif v.satisfied and v.witness != next(search(asg, scene, induced=induced)):
                    paths["satisfied later"] += 1
                elif v.satisfied:
                    paths["satisfied at the first embedding"] += i > 0
                elif v.cause == Cause.no_embedding():
                    paths["memo-hit no_embedding"] += i > 0
                elif any(check is not None for check in built):
                    paths["violated after pushdown"] += 1
                elif only and i > 0:
                    paths["violated by the only embedding"] += 1
    assert min(paths.values()) >= 20, paths


@pytest.mark.parametrize("name, specs, ego_speed", [
    ("obstacle-ahead", [("a0", {"position": (10.0, 0.0)}),
                        ("s1", {"velocity": 0.0, "position": (11.0, 0.0)})], 8.0),
    ("obstacle-ahead", [("a0", {"position": (10.0, 0.0)}), ("b1", {"velocity": 0.0}),
                        ("c2", {"velocity": 2.0, "position": (9.0, 0.0)})], 8.0),
    ("obstacle-ahead", [("a0", {"velocity": 0.0, "position": (25.0, 0.0)}),
                        ("b1", {"velocity": 2.0, "position": (10.0, 0.0)})], 8.0),
    ("P2-1", [("a0", _obstacle_at(10.0)), ("b1", {"velocity": 0.0})], 0.0),
], ids=["satisfied-outranks-error", "error-outranks-failure", "first-failure-cause",
        "pushdown-falls-back-on-a-gap"])
def test_memo_hits_keep_the_verdict_rules(om, ahead_asg, name, specs, ego_speed):
    """The hand-built scenes with several embeddings, checked as a memo miss
    and then two hits, give the reference verdict, as a direct call does."""
    asg = ahead_asg if name == ahead_asg.name else load_bundled_asg(name, om)
    csg = _multi_obstacle_scene(om, specs, ego_speed)
    expected = reference_verdict(asg, csg)
    assert sg_comparison(asg, csg) == expected
    assert [v for _, (v,) in monitor_stream([asg], [csg] * 3)] == [expected] * 3


def test_a_predicates_pattern_nodes_are_the_nodes_it_reads(om):
    """The monitor schedules a predicate's pushdown at its `pattern_ids` and
    builds its gap table from `attribute_reads`: for each predicate of the
    bundled and of 300 random properties, the two name the same nodes."""
    from randscene import random_asg

    rng = random.Random(30)
    asgs = [load_bundled_asg(name, om) for name in BUNDLED]
    asgs += [random_asg(rng, om) for _ in range(300)]
    predicates = [pred for asg in asgs for pred in asg.predicates]
    assert len(predicates) > 300
    for pred in predicates:
        assert pred.pattern_ids() == set(attribute_reads([pred]))


def _with_gap(rng, asg, csg):
    """`csg` with one attribute that `asg` reads from a pattern node removed
    from a class-compatible non-ego object, or None if no object has one."""
    sites = [(oid, name)
             for pid, names in sorted(attribute_reads(asg.predicates).items())
             if pid != asg.ego_pattern_id
             for oid, obj in sorted(csg.nodes.items())
             if oid != csg.ego_id and csg.om.is_subclass(obj.cls, asg.pattern_nodes[pid])
             for name in sorted(names & obj.attributes.keys())]
    if not sites:
        return None
    oid, name = rng.choice(sites)
    nodes = [SceneObject(o.object_id, o.cls,
                         {k: v for k, v in o.attributes.items()
                          if (o.object_id, k) != (oid, name)})
             for o in csg.nodes.values()]
    return make_csg(csg.om, csg.timestamp, csg.ego_id, nodes, csg.edges)


def test_error_search_matches_the_reference_verdict(om, monkeypatch):
    """Random scenes with an attribute the property reads taken from a
    non-ego object, checked by direct call and as a memo miss then two hits,
    equal the verdicts rebuilt from the exhaustive matcher. The error search
    is the second checked search of a check; it must run often, and both
    find an error and come out `violated` although a gap exists."""
    from randscene import random_instance

    built, _ = _recording_searches(monkeypatch)
    rng = random.Random(2026)
    paths = dict.fromkeys(("error search", "error found by the error search",
                           "violated although a gap exists"), 0)
    for _ in range(1000):
        asg, csg = random_instance(rng, om, edge_p=rng.choice((0.3, 0.9)))
        csg = _with_gap(rng, asg, csg)
        if csg is None:
            continue
        for epsilon, induced in itertools.product((0.0, 0.5), (False, True)):
            kwargs = {"epsilon": epsilon, "induced": induced}
            expected = reference_verdict(asg, csg, **kwargs)
            built.clear()
            got = []
            for v in itertools.chain([sg_comparison(asg, csg, **kwargs)],
                                     (v for _, (v,) in monitor_stream([asg], [csg] * 3, **kwargs))):
                got.append(v)
                if sum(check is not None for check in built) == 2:
                    paths["error search"] += 1
                    paths["error found by the error search"] += expected.result is Result.ERROR
                    paths["violated although a gap exists"] += (
                        expected.result is Result.VIOLATED)
                built.clear()
            assert got == [expected] * 4
    assert paths["error search"] >= 50, paths
    assert min(paths.values()) >= 10, paths


def test_false_predicates_settle_error_searches(om, monkeypatch):
    """The error search's check prunes a partial mapping on which a bound
    predicate is false before any raises, where the gap test alone keeps
    it. Over the random scenes of the test above, such settled searches
    occur, and every verdict still equals the exhaustive reference."""
    import scenemon.monitor
    from randscene import random_instance

    search = scenemon.monitor.iter_embeddings
    settled = []  # per error search: whether a false predicate pruned a kept mapping

    def recording(asg, csg, **kwargs):
        check = kwargs.get("check")
        if check is not None and check.__qualname__.startswith("_gap_check."):
            reads = tuple(attribute_reads(asg.predicates).items())
            gaps_only = scenemon.monitor._gap_check(asg, csg, reads, ())
            settled.append(False)

            def compared(pid, mapping):
                keep = check(pid, mapping)
                settled[-1] |= gaps_only(pid, mapping) and not keep
                return keep

            kwargs["check"] = compared
        return search(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.monitor, "iter_embeddings", recording)
    rng = random.Random(2026)
    for _ in range(1000):
        asg, csg = random_instance(rng, om, edge_p=rng.choice((0.3, 0.9)))
        csg = _with_gap(rng, asg, csg)
        if csg is None:
            continue
        for epsilon, induced in itertools.product((0.0, 0.5), (False, True)):
            kwargs = {"epsilon": epsilon, "induced": induced}
            expected = reference_verdict(asg, csg, **kwargs)
            got = [sg_comparison(asg, csg, **kwargs),
                   *(v for _, (v,) in monitor_stream([asg], [csg] * 3, **kwargs))]
            assert got == [expected] * 4
    assert len(settled) >= 50 and sum(settled) >= 10, (len(settled), sum(settled))


def test_error_search_prunes_a_mapping_that_cannot_reach_a_gap(om, monkeypatch):
    """The error search's check drops a partial mapping once every gap node
    is mapped to an object that is no gap, before a predicate is bound.
    `a` is mapped before `b` (fewer candidates), and `s2`, which lacks
    `position`, is `a`'s only gap object: `a -> s1` is pruned at once, so
    `b` is tried only under `a -> s2`, where the error is found. Without
    the reachability test `a -> s1` would be kept until `dist(a, b)` is
    bound and false, one call more."""
    import scenemon.monitor

    asg = parse_asg('asg "far" { node ego: Vehicle; node a: Static; node b: Vehicle; ego ego; '
                    'edge a inFrontOf ego; edge b inFrontOf ego; assert dist(a, b) > 100; }', om)
    csg = make_csg(om, 0.0, "ego", [
        SceneObject("ego", "Vehicle", {"velocity": 5.0, "position": (0.0, 0.0)}),
        SceneObject("s1", "Static", {"velocity": 0.0, "position": (10.0, 0.0)}),
        SceneObject("s2", "Static", {"velocity": 0.0}),
        SceneObject("v1", "Vehicle", {"velocity": 5.0, "position": (20.0, 0.0)}),
    ], [("s1", "inFrontOf", "ego"), ("s2", "inFrontOf", "ego"), ("v1", "inFrontOf", "ego")])
    calls = []
    gap_check = scenemon.monitor._gap_check

    def counting(*args):
        check = gap_check(*args)

        def counted(pid, mapping):
            calls.append((pid, mapping[pid]))
            return check(pid, mapping)

        return counted

    monkeypatch.setattr(scenemon.monitor, "_gap_check", counting)
    v = sg_comparison(asg, csg)
    assert v == Verdict(0.0, "far", Result.ERROR, cause=Cause.missing_attribute("a.position"))
    assert v == reference_verdict(asg, csg)
    assert calls == [("ego", "ego"), ("a", "s1"), ("a", "s2"), ("b", "v1")]


def test_property_facts_are_built_once_per_property(om, monkeypatch):
    """Pattern facts and compiled predicates cost once per property object,
    however many scenes the stream holds, and a second stream over the same
    objects builds nothing."""
    import scenemon.monitor
    import scenemon.scene_graph

    calls = {"pattern_distances": 0, "compile_predicates": 0}
    for module, name in ((scenemon.scene_graph, "pattern_distances"),
                         (scenemon.monitor, "compile_predicates")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    scenes = generate_trace(pull_out_script(), om)
    for n in (1, 10, len(scenes)):
        asgs = builtin_asgs("P1", om)  # parsing validates, which reads distances
        calls.update(dict.fromkeys(calls, 0))
        assert sum(len(row) for _, row in monitor_stream(asgs, scenes[:n])) == n * len(asgs)
        assert calls == {"pattern_distances": len(asgs), "compile_predicates": len(asgs)}
        assert sum(len(row) for _, row in monitor_stream(asgs, scenes[:n])) == n * len(asgs)
        assert calls == {"pattern_distances": len(asgs), "compile_predicates": len(asgs)}


def test_equal_properties_parsed_twice_compare_equal(om, scene_factory):
    """Predicate trees compare and hash by value, positions aside, so a
    property parsed again equals its first parse and gets the same verdict."""
    csg = scene_factory()
    for asg in builtin_asgs("P2", om):
        text = serialize_asg(asg)
        first, again = parse_asg(text, om), parse_asg("\n\n  " + text, om)
        assert first.predicates[0].line != again.predicates[0].line
        assert first.predicates == again.predicates
        assert hash(first.predicates) == hash(again.predicates)
        assert {first.predicates, again.predicates} == {first.predicates}
        assert sg_comparison(first, csg) == sg_comparison(again, csg)


# -- phase automaton -------------------------------------------------------


def _reference_step(pa, verdicts):
    """The automaton rule, with the successor built by `replace`."""
    current = verdicts[pa.phases[pa.index]]
    nxt = verdicts[pa.phases[pa.index + 1]] if pa.index + 1 < len(pa.phases) else None
    index, violations, gaps = pa.index, pa.violations, pa.gaps
    if nxt is not None and nxt.satisfied:
        index += 1
    elif not current.satisfied:
        if Result.ERROR in {v.result for v in (current, nxt) if v is not None}:
            gaps += 1  # a data gap leaves the scene inconclusive
        else:
            violations += 1
    dwell = list(pa.dwell)
    dwell[index] += 1
    completed = pa.completed or (
        index == len(pa.phases) - 1 and verdicts[pa.phases[index]].satisfied)
    return pa.replace(index=index, dwell=tuple(dwell),
                      completed=completed, violations=violations, gaps=gaps)


def test_automaton_steps_match_the_replace_reference():
    rng = random.Random(77)
    seen = {"violations": 0, "gaps": 0}
    for _ in range(300):
        phases = tuple("ABCD"[:rng.randint(1, 4)])
        pa = ref = PhaseAutomaton(phases)
        for _ in range(rng.randint(1, 25)):
            verdicts = {name: _verdict(name, rng.choice(list(Result))) for name in phases}
            pa, ref = pa.step(verdicts), _reference_step(ref, verdicts)
            assert type(pa) is PhaseAutomaton
            assert pa == ref
        seen["violations"] += pa.violations
        seen["gaps"] += pa.gaps
    assert min(seen.values()) > 100, seen


def _verdict(name, result):
    cause = {Result.SATISFIED: None, Result.VIOLATED: Cause.no_embedding(),
             Result.ERROR: Cause.missing_attribute("ego.velocity")}[result]
    return Verdict(0.0, name, result, cause=cause)


def _v(name, sat):
    return _verdict(name, Result.SATISFIED if sat else Result.VIOLATED)


def test_automaton_advances_on_next_satisfied():
    pa = PhaseAutomaton(("A", "B", "C"))
    pa = pa.step({"A": _v("A", False), "B": _v("B", True)})
    assert pa.index == 1
    assert pa.violations == 0
    assert pa.dwell == (0, 1, 0)


def test_automaton_prefers_advancing_when_both_hold():
    pa = PhaseAutomaton(("A", "B"))
    pa = pa.step({"A": _v("A", True), "B": _v("B", True)})
    assert pa.index == 1
    assert pa.completed


def test_automaton_stays_on_current():
    pa = PhaseAutomaton(("A", "B"))
    pa = pa.step({"A": _v("A", True), "B": _v("B", False)})
    assert (pa.index, pa.violations, pa.dwell) == (0, 0, (1, 0))


def test_automaton_counts_violations():
    pa = PhaseAutomaton(("A", "B"))
    pa = pa.step({"A": _v("A", False), "B": _v("B", False)})
    assert (pa.index, pa.violations, pa.dwell) == (0, 1, (1, 0))


@pytest.mark.parametrize("results, gap", [
    (("violated", "violated"), False),
    (("error", "violated"), True),
    (("violated", "error"), True),
    (("error", "error"), True),
])
def test_automaton_counts_a_data_gap_apart_from_a_violation(results, gap):
    """A scene where neither phase holds is a violation only when both
    verdicts are violated; an error in either makes it a gap."""
    pa = PhaseAutomaton(("A", "B")).step(
        {name: _verdict(name, Result(r)) for name, r in zip("AB", results)})
    assert (pa.index, pa.dwell, pa.completed) == (0, (1, 0), False)
    assert (pa.violations, pa.gaps) == ((0, 1) if gap else (1, 0))


def test_automaton_counts_gaps_and_violations_of_one_stream():
    results = {"S": Result.SATISFIED, "V": Result.VIOLATED, "E": Result.ERROR}
    pa = PhaseAutomaton(("A", "B"))
    for scene in ("VV", "EV", "SV", "VS", "E", "V", "E", "S"):  # current, next phase
        pa = pa.step({name: _verdict(name, results[r])
                      for name, r in zip(pa.phases[pa.index:], scene)})
    assert (pa.index, pa.dwell, pa.completed) == (1, (3, 5), True)
    assert (pa.violations, pa.gaps) == (2, 3)


def test_automaton_never_skips():
    # C satisfied is irrelevant while B is not: its verdict is not consulted
    pa = PhaseAutomaton(("A", "B", "C"))
    pa = pa.step({"A": _v("A", False), "B": _v("B", False)})
    assert pa.index == 0
    assert pa.violations == 1


def test_automaton_requires_current_and_next_verdicts():
    pa = PhaseAutomaton(("A", "B"))
    with pytest.raises(ValueError, match="'B'"):
        pa.step({"A": _v("A", True)})
    with pytest.raises(ValueError, match="'A'"):
        pa.step({"B": _v("B", False)})


def test_automaton_completion_latches():
    pa = PhaseAutomaton(("A", "B"))
    pa = pa.step({"A": _v("A", True), "B": _v("B", True)})
    assert pa.completed and pa.index == 1
    after = pa.step({"B": _v("B", False)})
    assert after.completed
    assert after.violations == 1


def test_single_phase_automaton():
    pa = PhaseAutomaton(("only",))
    pa = pa.step({"only": _v("only", False)})
    assert not pa.completed and pa.violations == 1
    pa = pa.step({"only": _v("only", True)})
    assert pa.completed and pa.violations == 1


def test_automaton_dwell_counts_every_step():
    pa = PhaseAutomaton(("A", "B"))
    for sat_a in (True, True, False):
        pa = pa.step({"A": _v("A", sat_a), "B": _v("B", False)})
    pa = pa.step({"A": _v("A", False), "B": _v("B", True)})
    assert pa.dwell == (3, 1)
    assert sum(pa.dwell) == 4


def test_automaton_is_immutable():
    pa = PhaseAutomaton(("A", "B"))
    stepped = pa.step({"A": _v("A", True), "B": _v("B", True)})
    assert pa.index == 0 and stepped.index == 1
    with pytest.raises(FrozenInstanceError):
        pa.index = 5


@pytest.mark.parametrize("name", [*AbstractSceneGraph._fields, "om", "plans"])
def test_property_is_immutable(ahead_asg, name):
    """Plans and pattern facts are kept on the property, so its fields stay put."""
    with pytest.raises(FrozenInstanceError):
        setattr(ahead_asg, name, getattr(ahead_asg, name))


# Verdict's twin with the generated frozen __init__. Verdict's own __init__
# is hand-written; the rest of its contract must be the twin's.
_GENERATED_VERDICT = dataclasses.make_dataclass("Verdict", [
    ("timestamp", float), ("property_name", str), ("result", Result),
    ("witness", object, None), ("cause", object, None)],
    frozen=True)
VERDICT_ARGS = [
    (0.0, "p", Result.SATISFIED, Embedding((("ego", "e"), ("lane", "l1")))),
    (1.5, "p", Result.VIOLATED, None, Cause.no_embedding()),
    (1.5, "q", Result.VIOLATED, None, Cause.predicate_failed(2)),
    (-0.0, "q", Result.ERROR, None, Cause.missing_attribute("other.velocity")),
    (math.nan, "", Result.SATISFIED),
]


@pytest.mark.parametrize("args", VERDICT_ARGS)
def test_verdict_keeps_the_generated_dataclass_contract(args):
    """Fields, defaults, immutability, `replace`, `==`, `hash` and `repr`
    are those of the generated frozen dataclass, built positionally or by
    keyword."""
    names = [f.name for f in dataclasses.fields(_GENERATED_VERDICT)]
    assert Verdict._fields == tuple(names)
    assert repr(Verdict(*args[:3])) == repr(_GENERATED_VERDICT(*args[:3]))  # the defaults
    kwargs = dict(zip(names, args))
    for v, ref in ((Verdict(*args), _GENERATED_VERDICT(*args)),
                   (Verdict(**kwargs), _GENERATED_VERDICT(**kwargs))):
        assert repr(v) == repr(ref)
        assert hash(v) == hash(ref)
        assert v == v and (v != v) is False
        assert (v == Verdict(*args)) == (ref == _GENERATED_VERDICT(*args))
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(v, name, getattr(v, name))
            with pytest.raises(FrozenInstanceError):
                delattr(v, name)
        for other in VERDICT_ARGS:
            changes = dict(zip(names[1:], other[1:]))
            changed = v.replace(**changes)
            assert type(changed) is Verdict
            assert repr(changed) == repr(dataclasses.replace(ref, **changes))
            assert (changed == v) == (dataclasses.replace(ref, **changes) == ref)


def test_automaton_rejects_empty_phase_list():
    with pytest.raises(ValueError):
        PhaseAutomaton(())


@pytest.mark.parametrize("kwargs, message", [
    ({"dwell": (0,)}, "one count per phase"),
    ({"dwell": (0, 0, 0)}, "one count per phase"),
    ({"index": -1}, "not an int in 0..1"),
    ({"index": 2}, "not an int in 0..1"),
    ({"index": 0.5}, "not an int in 0..1"),
    ({"index": True}, "not an int in 0..1"),
])
def test_automaton_rejects_a_state_it_cannot_step(kwargs, message):
    """An index that is not an int or lies outside the phases, or a dwell
    tuple of another length, would step from the wrong phase or fail at
    the first step."""
    with pytest.raises(ValueError, match=message):
        PhaseAutomaton(("A", "B"), **kwargs)


def test_automaton_rejects_repeated_phase_names():
    with pytest.raises(ValueError, match="unique"):
        PhaseAutomaton(("A", "B", "A"))


def test_automaton_keeps_a_given_state_it_can_step():
    pa = PhaseAutomaton(("A", "B"), index=1, dwell=(2, 3), violations=4)
    pa = pa.step({"B": _v("B", False)})
    assert (pa.index, pa.dwell, pa.violations, pa.completed) == (1, (2, 4), 5, False)


# -- phase properties against the scripted pull-out trace ------------------


EXPECTED_PULL_OUT = {
    # frame time -> {property: (result, cause)}
    1.0: {
        "P1-1": (Result.SATISFIED, None),
        "P1-2": (Result.VIOLATED, Cause.predicate_failed(1)),
        "P1-3": (Result.VIOLATED, Cause.predicate_failed(0)),
    },
    4.0: {
        "P1-1": (Result.VIOLATED, Cause.predicate_failed(0)),
        "P1-2": (Result.SATISFIED, None),
        "P1-3": (Result.VIOLATED, Cause.predicate_failed(0)),
    },
    8.0: {
        "P1-1": (Result.VIOLATED, Cause.no_embedding()),
        "P1-2": (Result.VIOLATED, Cause.no_embedding()),
        "P1-3": (Result.SATISFIED, None),
    },
}


def test_pull_out_phases_hold_exactly_in_their_own_segment(om):
    trace = generate_trace(pull_out_script(), om)
    by_time = {csg.timestamp: csg for csg in trace}
    asgs = {a.name: a for a in builtin_asgs("P1", om)}
    for t, expectations in EXPECTED_PULL_OUT.items():
        for name, (result, cause) in expectations.items():
            v = sg_comparison(asgs[name], by_time[t])
            assert (v.result, v.cause) == (result, cause), (t, name)


# -- verdict records -------------------------------------------------------


def test_satisfied_record_layout(ahead_asg, scene_factory):
    v = sg_comparison(ahead_asg, scene_factory())
    rec = verdict_record(v)
    assert list(rec) == ["t", "property", "result", "witness"]
    assert serialize_verdict(v) == (
        '{"t": 0.0, "property": "obstacle-ahead", "result": "satisfied", '
        '"witness": {"ego": "ego", "lane": "lane1", "obstacle": "obs"}}'
    )


def test_violation_record_layout():
    v = Verdict(1.5, "p", Result.VIOLATED, cause=Cause.predicate_failed(2))
    assert serialize_verdict(v, phase_index=3) == (
        '{"t": 1.5, "property": "p", "result": "violated", '
        '"cause": {"kind": "predicate_failed", "index": 2}, "phase_index": 3}'
    )


def test_error_record_layout():
    v = Verdict(0.0, "p", Result.ERROR, cause=Cause.missing_attribute("ego.velocity"))
    assert serialize_verdict(v) == (
        '{"t": 0.0, "property": "p", "result": "error", '
        '"cause": {"kind": "missing_attribute", "ref": "ego.velocity"}}'
    )


# Strings the escaper must handle: quotes, backslashes, control characters,
# DEL, non-ASCII, non-BMP and lone surrogates, mixed into arbitrary text.
_texts = st.one_of(
    st.text(st.characters(codec=None, exclude_categories=())),
    st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f697",
                             "\ud800", "a"])),
)
_numbers = st.one_of(st.none(), st.integers(), st.booleans())
_causes = st.one_of(
    st.none(),
    # a kind's plain string value is not the enum: the reference rejects it
    st.builds(Cause, st.sampled_from(list(CauseKind) + [k.value for k in CauseKind]), _numbers,
              st.one_of(st.none(), _texts)),
)
_embeddings = st.builds(Embedding, st.lists(st.tuples(_texts, _texts)).map(tuple))
_verdicts = st.builds(
    Verdict,
    st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
              st.integers(), st.booleans()),
    _texts,
    st.sampled_from(list(Result) + [r.value for r in Result]),
    st.one_of(st.none(), _embeddings),
    _causes,
)


def _outcome(fn, v):
    try:
        return fn(v)
    except (ValueError, AttributeError) as exc:
        return type(exc), str(exc)


def _reference_encoding(v, stamp=None):
    return _ENCODER.encode(verdict_record(v, stamp))


# phase indices the CLI may stamp: the template writes exact ints, the
# reference writes the rest (bools; ints too long to print raise for both)
_stamps = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(max_value=-1),
                    st.sampled_from([2**63, -2**64, 10**30, 10**5000]))


@settings(max_examples=500, deadline=None)
@given(_verdicts, _stamps)
@example(Verdict(math.nan, "p", Result.SATISFIED), 3)
@example(Verdict(-math.inf, "p", Result.VIOLATED, cause=Cause.predicate_failed(0)), None)
@example(Verdict(True, "p", Result.ERROR, cause=Cause(CauseKind.PREDICATE_FAILED, index=False)),
         True)
@example(Verdict(True, "p", Result.ERROR, cause=Cause(CauseKind.PREDICATE_FAILED, index=False)),
         -1)
@example(Verdict(0.5, "p", "satisfied"), 2**64)  # a result that is not the enum
@example(Verdict(0.5, "p", Result.SATISFIED), 7)
@example(Verdict(0.5, "p", Result.SATISFIED), "7")
@example(Verdict(0.5, "p", Result.SATISFIED), False)
@example(Verdict(0.5, "p", Result.VIOLATED, cause=Cause(CauseKind.MISSING_ATTRIBUTE, ref=1)), 2)
def test_serialize_verdict_matches_the_reference_encoder(v, stamp):
    """The template gives the reference's bytes, or raises its error: for a
    non-finite timestamp, or a result or cause kind that is not the enum.
    Stamped with a phase index, it gives the reference's bytes for the
    record with that stamp. Each is serialized twice, with the witness's
    and the cause's cached fragments cold, then warm."""
    v = _uncached(v)
    want = _outcome(_reference_encoding, v)
    assert _outcome(serialize_verdict, v) == want  # cold
    assert _outcome(serialize_verdict, v) == want  # warm
    v = _uncached(v)
    want = _outcome(lambda v: _reference_encoding(v, stamp), v)

    def stamped(v):
        return serialize_verdict(v, phase_index=stamp)
    assert _outcome(stamped, v) == want  # cold
    assert _outcome(stamped, v) == want  # warm


def _uncached(v):
    """`v` with fresh copies of its witness and cause, whose fragments have
    not been rendered."""
    return v.replace(witness=v.witness if v.witness is None else v.witness.replace(),
                     cause=v.cause if v.cause is None else v.cause.replace())


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.none(), _embeddings), _causes, st.lists(st.tuples(st.floats(), _stamps), min_size=1, max_size=4),
       st.sampled_from(list(Result)))
@example(Embedding((("ego", "e"), ("lane", "l1"))), Cause.predicate_failed(1),
         [(0.5, 1), (1.0, None), (-0.0, 3)], Result.VIOLATED)
@example(Embedding((("ego", 1),)), Cause(CauseKind.MISSING_ATTRIBUTE, ref=2),
         [(0.5, 1), (1.0, None)], Result.ERROR)
def test_serialize_verdict_shares_cached_fragments_across_verdicts(witness, cause, lines, result):
    """One witness and one cause object serve verdicts with different
    timestamps and phase stamps, as a memo entry's witness and a plan's
    cause do: each line is the reference's, or raises its error."""
    for t, stamp in lines:
        v = Verdict(t, "p", result, witness=witness, cause=cause)
        assert (_outcome(lambda v: serialize_verdict(v, phase_index=stamp), v)
                == _outcome(lambda v: _reference_encoding(v, stamp), v))
