import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from scenemon import (
    AbstractSceneGraph,
    SceneObject,
    SceneValidationError,
    export_dot,
    make_csg,
    parse_csg,
    read_scene_stream,
    scene_record,
    serialize_scene,
    validate_asg,
)

from conftest import halted_obstacle_scene


def _nodes(om_cls_pairs):
    return [SceneObject(oid, cls, attrs) for oid, cls, attrs in om_cls_pairs]


def test_make_csg_basic(om, scene_factory):
    csg = scene_factory()
    assert csg.ego_id == "ego"
    assert csg.nodes["obs"].cls == "Static"
    assert csg.has_edge("obs", "inFrontOf", "ego")
    assert csg.labels_between("obs", "ego") == {"inFrontOf"}


def test_duplicate_object_id_rejected(om):
    nodes = _nodes([("ego", "Vehicle", {}), ("ego", "Vehicle", {})])
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", nodes, [])


def test_abstract_class_rejected_in_scene(om):
    nodes = _nodes([("ego", "Vehicle", {}), ("e", "Entity", {})])
    with pytest.raises(SceneValidationError, match="abstract"):
        make_csg(om, 0.0, "ego", nodes, [])


def test_undeclared_attribute_rejected(om):
    nodes = _nodes([("ego", "Vehicle", {"colour": "red"})])
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", nodes, [])


def test_attribute_value_types_checked(om):
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", _nodes([("ego", "Vehicle", {"velocity": "fast"})]), [])
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", _nodes([("ego", "Vehicle", {"position": (1.0,)})]), [])
    # bool is not a Real
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", _nodes([("ego", "Vehicle", {"velocity": True})]), [])


def test_disallowed_edge_rejected(om):
    nodes = _nodes([("ego", "Vehicle", {}), ("road", "Road", {})])
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", nodes, [("ego", "isPartOf", "road")])


def test_in_front_of_self_loop_rejected(om):
    nodes = _nodes([("ego", "Vehicle", {})])
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", nodes, [("ego", "inFrontOf", "ego")])


def test_ego_must_be_vehicle(om):
    nodes = _nodes([("ego", "Static", {})])
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "ego", nodes, [])
    with pytest.raises(SceneValidationError):
        make_csg(om, 0.0, "missing", _nodes([("a", "Vehicle", {})]), [])


def test_timestamp_must_be_numeric(om):
    with pytest.raises(SceneValidationError):
        make_csg(om, "late", "ego", _nodes([("ego", "Vehicle", {})]), [])


def test_record_round_trip(om, scene_factory):
    csg = scene_factory(t=4.5, gap=12.0)
    rec = scene_record(csg)
    again = parse_csg(rec, om)
    assert scene_record(again) == rec
    assert again.timestamp == 4.5
    assert again.nodes["obs"].attributes["position"] == (12.0, 0.0)


def test_serialized_scene_is_canonical(om, scene_factory):
    text = serialize_scene(scene_factory())
    rec = json.loads(text)
    assert [n["id"] for n in rec["nodes"]] == sorted(n["id"] for n in rec["nodes"])
    assert serialize_scene(scene_factory()) == text


def test_read_scene_stream_reports_line(om, scene_factory):
    good = serialize_scene(scene_factory())
    lines = [good, "", "{not json}", good]
    with pytest.raises(SceneValidationError, match="line 3"):
        list(read_scene_stream(lines, om))


@pytest.mark.parametrize("line", ["[" * 100_000, '{"t": ' + "1" * 5000 + "}"],
                         ids=["deep-nesting", "long-int"])
def test_read_scene_stream_locates_undecodable_lines(om, line):
    with pytest.raises(SceneValidationError, match="line 1"):
        list(read_scene_stream([line], om))


def test_read_scene_stream_skips_blank_lines(om, scene_factory):
    good = serialize_scene(scene_factory())
    scenes = list(read_scene_stream([good, "", good, "\n"], om))
    assert len(scenes) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_non_finite_numbers_rejected(om, bad):
    with pytest.raises(SceneValidationError, match="timestamp"):
        make_csg(om, bad, "ego", _nodes([("ego", "Vehicle", {})]), [])
    with pytest.raises(SceneValidationError, match="velocity"):
        make_csg(om, 0.0, "ego", _nodes([("ego", "Vehicle", {"velocity": bad})]), [])
    with pytest.raises(SceneValidationError, match="position"):
        make_csg(om, 0.0, "ego", _nodes([("ego", "Vehicle", {"position": (0.0, bad)})]), [])


def test_unknown_names_in_a_record_are_located(om, scene_factory):
    good = scene_record(scene_factory())
    bike = copy.deepcopy(good)
    bike["nodes"][1]["class"] = "Bike"
    with pytest.raises(SceneValidationError, match="line 2: node lane1 has unknown class Bike"):
        list(read_scene_stream([json.dumps(good), json.dumps(bike)], om))
    follows = copy.deepcopy(good)
    follows["edges"][0]["rel"] = "follows"
    with pytest.raises(SceneValidationError,
                       match=r"line 1: edge \(ego, follows, lane1\): unknown relationship"):
        list(read_scene_stream([json.dumps(follows)], om))


@pytest.mark.parametrize("field, value", [("src", [1]), ("rel", ["isIn"]), ("dst", {"a": 1})])
def test_edge_fields_must_be_strings(om, scene_factory, field, value):
    record = scene_record(scene_factory())
    record["edges"][0][field] = value
    with pytest.raises(SceneValidationError, match="must be strings"):
        parse_csg(record, om)


def _paths(value, path=()):
    """The path to every value inside a decoded JSON document, root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            yield from _paths(item, path + (idx,))


def _substituted(document, path, value):
    if not path:
        return value
    out = copy.deepcopy(document)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["", "ego", "obs", "lane1", "Vehicle", "Lane", "Bike", "isIn"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_json_value_in_any_field_is_accepted_or_rejected(om, data):
    record = scene_record(halted_obstacle_scene(om))
    path = data.draw(st.sampled_from(list(_paths(record))))
    hostile = _substituted(record, path, data.draw(_JSON_VALUES))
    for parse in (lambda: [parse_csg(hostile, om)],
                  lambda: list(read_scene_stream([json.dumps(hostile)], om))):
        try:
            scenes = parse()
        except SceneValidationError:
            continue
        for csg in scenes:
            serialize_scene(csg)  # strict JSON: a non-finite number raises ValueError


def test_validate_asg_rejects_disconnected(om):
    asg = AbstractSceneGraph(
        name="broken",
        pattern_nodes={"ego": "Vehicle", "far": "Lane"},
        pattern_edges=frozenset(),
        ego_pattern_id="ego",
        predicates=(),
        om=om,
    )
    with pytest.raises(SceneValidationError, match="far"):
        validate_asg(asg)


def test_validate_asg_allows_abstract_pattern_classes(om):
    asg = AbstractSceneGraph(
        name="ok",
        pattern_nodes={"ego": "Vehicle", "p": "TrafficParticipant"},
        pattern_edges=frozenset({("p", "inFrontOf", "ego")}),
        ego_pattern_id="ego",
        predicates=(),
        om=om,
    )
    validate_asg(asg)


def test_validate_asg_ego_class(om):
    asg = AbstractSceneGraph(
        name="bad-ego",
        pattern_nodes={"ego": "Static"},
        pattern_edges=frozenset(),
        ego_pattern_id="ego",
        predicates=(),
        om=om,
    )
    with pytest.raises(SceneValidationError):
        validate_asg(asg)


# -- DOT export ------------------------------------------------------------


def _check_dot(text: str, node_ids):
    """Minimal structural well-formedness check for a DOT digraph."""
    assert text.startswith("digraph ")
    assert text.count("{") == text.count("}")
    assert text.rstrip().endswith("}")
    body = text[text.index("{") + 1:text.rindex("}")]
    declared = set()
    for line in body.splitlines():
        line = line.strip().rstrip(";")
        if not line or line.startswith(("rankdir", "node ", "edge ")):
            continue
        if "->" in line or "--" in line:
            continue
        declared.add(line.split(" ", 1)[0].split("[", 1)[0].strip())
    for oid in node_ids:
        assert any(oid in d for d in declared)


def test_export_dot_scene(om, scene_factory):
    csg = scene_factory()
    dot = export_dot(csg)
    _check_dot(dot, csg.nodes)
    assert "peripheries=2" in dot  # ego is highlighted
    assert "isIn" in dot
    assert "velocity" in dot


def test_export_dot_property(ahead_asg):
    dot = export_dot(ahead_asg)
    _check_dot(dot, ahead_asg.pattern_nodes)
    assert "dist" in dot  # two-node predicate drawn as an annotation
    assert "dashed" in dot
