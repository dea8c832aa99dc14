import copy
import json
import random
import re
import types
import typing
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from scenemon import (
    ConcreteSceneGraph,
    FrozenInstanceError,
    SceneObject,
    SceneValidationError,
    SchemaError,
    default_object_model,
    export_dot,
    generate_trace,
    is_relationship_allowed,
    make_csg,
    overtake_script,
    parse_csg,
    parse_object_model,
    pull_out_script,
    read_scene_stream,
    scene_record,
    serialize_object_model,
    serialize_scene,
)

from scenemon.matching import candidate_pools
from scenemon.scenarios import build_bench_scene
from scenemon.scene_graph import _check_attr_value, _finite, _normalized, parse_scene_json

from conftest import halted_obstacle_scene
from randscene import random_asg, random_csg


def _nodes(om_cls_pairs):
    return [SceneObject(oid, cls, attrs) for oid, cls, attrs in om_cls_pairs]


def test_make_csg_basic(om, scene_factory):
    csg = scene_factory()
    assert csg.ego_id == "ego"
    assert csg.nodes["obs"].cls == "Static"
    assert csg.has_edge("obs", "inFrontOf", "ego")
    assert csg.labels_between("obs", "ego") == {"inFrontOf"}


def test_one_scene_object_per_node(om, scene_factory):
    """Ingest builds one new object per node, each holding its own
    normalized copy of the node's attrs, and leaves the record as it was."""
    record = scene_record(scene_factory())
    record["nodes"][0]["attrs"] = {"velocity": 8, "position": [0, 0]}
    given = copy.deepcopy(record)
    first, second = parse_csg(record, om), parse_csg(record, om)
    for csg in (first, second):
        assert list(csg.nodes) == [node["id"] for node in record["nodes"]]
        for (oid, obj), node in zip(csg.nodes.items(), record["nodes"]):
            assert type(obj) is SceneObject and obj.object_id == oid
            assert type(obj.attributes) is dict and obj.attributes is not node["attrs"]
        assert csg.nodes["ego"].attributes == {"velocity": 8.0, "position": (0.0, 0.0)}
    objects = [*first.nodes.values(), *second.nodes.values()]
    assert len({id(obj) for obj in objects}) == len({id(obj.attributes) for obj in objects}) == 6
    assert record == given


_SCENE_OBJECT_ARGS = [
    ("ego", "Vehicle", {"velocity": 8.0, "position": (0.0, 1.5)}),
    ("obs", "Static", {"velocity": 0.0}),
    ("lane1", "Lane", {}),
    ("lane2", "Lane"),
]


@pytest.mark.parametrize("args", _SCENE_OBJECT_ARGS)
def test_scene_object_keeps_the_dataclass_contract(om, args):
    """An object built by ingest, fresh or on a reused topology, and one
    built by the constructor, positionally, by keyword or with the default
    attributes, are alike: each holds its own copy of the attributes,
    refuses every field assignment, and has one `repr`, `==`, `hash` (by
    id and class) and `replace`."""
    names = list(SceneObject._fields)
    assert names == ["object_id", "cls", "attributes"]
    oid, cls, attrs = (*args, {})[:3]
    node = {"id": oid, "class": cls, "attrs": {k: list(v) if isinstance(v, tuple) else v
                                               for k, v in attrs.items()}}
    nodes = [node] if oid == "ego" else [{"id": "ego", "class": "Vehicle"}, node]
    record = {"t": 0.0, "ego": "ego", "nodes": nodes, "edges": []}
    fresh = parse_csg(record, om)
    reused = parse_csg(record, om, previous=fresh)
    assert reused.class_index is fresh.class_index
    given = dict(attrs)
    built = [SceneObject(*args), SceneObject(**dict(zip(names, args))),
             fresh.nodes[oid], reused.nodes[oid]]
    reference = built[0]
    for obj in built:
        assert type(obj) is SceneObject and list(vars(obj)) == names
        assert obj.attributes == attrs and obj.attributes is not node["attrs"]
        assert repr(obj) == repr(reference)
        assert obj == reference and (obj != reference) is False
        assert hash(obj) == hash((oid, cls))
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        changed = obj.replace(attributes=given)
        assert type(changed) is SceneObject and changed.attributes is not given
        assert changed == reference and repr(changed) == repr(reference)
        moved = obj.replace(object_id="other")
        assert moved != reference and hash(moved) == hash(("other", cls))
    assert built[0].attributes is not built[1].attributes
    assert SceneObject(oid, cls).attributes == {}
    assert SceneObject(oid, cls).attributes is not SceneObject(oid, cls).attributes
    assert given == attrs


def test_make_csg_leaves_its_objects_alone(om):
    given = SceneObject("ego", "Vehicle", {"velocity": 8, "position": [1, 2]})
    csg = make_csg(om, 0.0, "ego", [given], [])
    assert csg.nodes["ego"] is not given
    assert csg.nodes["ego"].attributes == {"velocity": 8.0, "position": (1.0, 2.0)}
    assert given.attributes == {"velocity": 8, "position": [1, 2]}


@pytest.mark.parametrize("name", [*ConcreteSceneGraph._fields, "om", "class_index"])
def test_scene_is_immutable(om, scene_factory, name):
    """A scene is a value: one built in full and one that stream ingest
    built from the scene before it refuse every field assignment, and
    neither is hashable."""
    lines = [serialize_scene(scene_factory(t=t)) for t in (0.0, 1.0)]
    fresh, reused = read_scene_stream(lines, om)
    assert reused.class_index is fresh.class_index
    for csg in (fresh, reused):
        with pytest.raises(FrozenInstanceError):
            setattr(csg, name, getattr(csg, name))
        with pytest.raises(TypeError):
            hash(csg)


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


_TYPED_OM = ('class Signal extends TrafficEnvironment {\n'
             '  count: Int;\n  lit: Bool;\n  label: String;\n}\n')


@pytest.fixture(scope="module")
def typed_om(om):
    """The default model with a class carrying Int, Bool and String attributes."""
    return parse_object_model(serialize_object_model(om) + _TYPED_OM)


def _signal_record(attrs):
    return {"t": 0.0, "ego": "ego", "edges": [],
            "nodes": [{"id": "ego", "class": "Vehicle", "attrs": {}},
                      {"id": "sig", "class": "Signal", "attrs": attrs}]}


@pytest.mark.parametrize("attrs", [
    {"count": 3, "lit": True, "label": "red"},
    {"count": -(10**20), "lit": False, "label": ""},
    {"count": 0},
])
def test_int_bool_and_string_attributes_are_kept_as_given(typed_om, attrs):
    record = _signal_record(attrs)
    nodes = [SceneObject("ego", "Vehicle", {}), SceneObject("sig", "Signal", attrs)]
    line = json.dumps(record)
    for csg in (make_csg(typed_om, 0.0, "ego", nodes, []), parse_csg(record, typed_om),
                *read_scene_stream([line, line], typed_om)):
        got = csg.nodes["sig"].attributes
        assert [(type(v), v) for v in got.values()] == [(type(v), v) for v in attrs.values()]


@pytest.mark.parametrize("name,value,expects", [
    ("count", True, "Int"), ("count", 2.0, "Int"),
    ("lit", 1, "Bool"), ("label", 3, "String"),
])
def test_int_bool_and_string_attributes_reject_other_types(typed_om, name, value, expects):
    message = f"attribute {name} expects {expects}, got {value!r}"
    record = _signal_record({name: value})
    nodes = [SceneObject("ego", "Vehicle", {}), SceneObject("sig", "Signal", {name: value})]
    with pytest.raises(SceneValidationError, match=f"^{re.escape(message)}$"):
        make_csg(typed_om, 0.0, "ego", nodes, [])
    with pytest.raises(SceneValidationError, match=f"^{re.escape(message)}$"):
        parse_csg(record, typed_om)
    # alone, and after a line of the same topology, whose scene it reuses
    good = json.dumps(_signal_record({}))
    for lines, lineno in (([json.dumps(record)], 1), ([good, json.dumps(record)], 2)):
        with pytest.raises(SceneValidationError,
                           match=f"^line {lineno}: {re.escape(message)}$"):
            list(read_scene_stream(lines, typed_om))


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


def test_ego_check_on_a_schema_without_a_vehicle_class(om):
    """The ego rule names a class the schema need not declare: then no ego
    is a Vehicle, and the scene is rejected as any other scene would be."""
    cars = parse_object_model(serialize_object_model(om).replace("Vehicle", "Car"))
    with pytest.raises(SceneValidationError) as err:
        make_csg(cars, 0.0, "ego", _nodes([("ego", "Car", {})]), [])
    assert str(err.value) == "ego node ego has class Car, expected a Vehicle"


def test_timestamp_must_be_numeric(om, scene_factory):
    """A timestamp is a finite number. An int is read as a float, on a fresh
    record and on one that reuses the scene before it (line 2 of a stream);
    a string, a bool and an int beyond the float range are refused."""
    with pytest.raises(SceneValidationError):
        make_csg(om, "late", "ego", _nodes([("ego", "Vehicle", {})]), [])
    record = scene_record(scene_factory())
    record["t"] = 3
    fresh = parse_csg(record, om)
    assert type(fresh.timestamp) is float and fresh.timestamp == 3.0
    first, reused = read_scene_stream(
        [serialize_scene(scene_factory(t=2.5)), json.dumps(record)], om)
    assert reused.edges is first.edges
    assert type(reused.timestamp) is float and reused.timestamp == 3.0
    for value in (True, 10**400):
        record["t"] = value
        with pytest.raises(SceneValidationError) as err:
            parse_csg(record, om)
        assert str(err.value) == f"timestamp must be a finite number, got {value!r}"


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
    scenes = list(read_scene_stream([good, "", good + "\x0c\n", "\n", " \u2003\x1f\n"], om))
    assert len(scenes) == 2


def test_read_scene_stream_drops_the_record_before_yielding(om, scene_factory, monkeypatch):
    """The reader keeps no decoded object alive while its scene is monitored
    and the next line is decoded: not the record, and none of its node,
    attribute or edge objects, also when a scene reuses the topology of the
    scene before it."""
    import scenemon.scene_graph

    class Decoded(dict):  # unlike dict, weakref-able
        pass

    decoded = []  # per line, a weakref to every object decoded from it

    def loads(text):
        refs = []

        def hook(obj):
            obj = Decoded(obj)
            refs.append(weakref.ref(obj))
            return obj

        decoded.append(refs)
        return json.loads(text, object_hook=hook)

    lines = [serialize_scene(scene_factory(t=t, gap=gap))
             for t, gap in ((0.0, 10.0), (0.1, 9.0), (0.2, 8.0))]
    lines.append(serialize_scene(scene_factory(t=0.3, obstacle_cls="Vehicle")))
    monkeypatch.setattr(scenemon.scene_graph, "json", types.SimpleNamespace(loads=loads))
    scenes = []
    for csg in read_scene_stream(lines, om):
        scenes.append(csg)
        assert len(decoded) == len(scenes)
        assert len(decoded[-1]) == 10  # the record, 3 nodes, their 3 attrs, 3 edges
        assert [ref() for refs in decoded for ref in refs] == [None] * 10 * len(scenes)
    assert [s.class_index is scenes[0].class_index for s in scenes] == [True] * 3 + [False]


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


def _at(document, path):
    for key in path:
        document = document[key]
    return document


def _substituted(document, path, value):
    if not path:
        return value
    out = copy.deepcopy(document)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


# lone surrogates, alone or in a name, and surrogate pairs: a character past
# U+FFFF, which JSON text writes as a pair, and a pair's two code units,
# which a Python string holds as two lone ones; `st.text()` draws none
_SURROGATES = (st.sampled_from(["\ud83d", "e\udcffgo", "\ude97o", "\U0001f697", "\ud83d\ude97"])
               | st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                                       exclude_categories=()), min_size=1, max_size=2))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=6) | _SURROGATES
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


# -- differential test of ingest ---------------------------------------------


def _reference_ingest(record, om):
    """Scene ingest the way it worked before the lookup tables: a
    typing.Mapping structural pass and `is_relationship_allowed` on every
    edge, in record order. Returns (timestamp, ego, nodes, edges), or the
    SceneValidationError message. A node id holding a surrogate code point,
    which UTF-8 cannot encode, is refused. Attribute values and the
    timestamp go through the unchanged `_check_attr_value` and `_finite`."""
    try:
        if not isinstance(record, typing.Mapping):
            raise SceneValidationError(
                f"scene record must be an object, got {type(record).__name__}")
        for key in ("t", "ego", "nodes", "edges"):
            if key not in record:
                raise SceneValidationError(f"scene record missing field {key!r}")
        raw_nodes, raw_edges = record["nodes"], record["edges"]
        if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
            raise SceneValidationError("scene record fields nodes/edges must be arrays")
        objects = []
        for item in raw_nodes:
            if not isinstance(item, typing.Mapping) or "id" not in item or "class" not in item:
                raise SceneValidationError(f"malformed node entry: {item!r}")
            attrs = item.get("attrs", {})
            if not isinstance(attrs, typing.Mapping):
                raise SceneValidationError(f"node {item['id']}: attrs must be an object")
            if not isinstance(item["id"], str) or not isinstance(item["class"], str):
                raise SceneValidationError(f"malformed node entry: {item!r}")
            objects.append((item["id"], item["class"], attrs))
        edge_list = []
        for item in raw_edges:
            if not isinstance(item, typing.Mapping) or not {"src", "rel", "dst"} <= set(item):
                raise SceneValidationError(f"malformed edge entry: {item!r}")
            edge = (item["src"], item["rel"], item["dst"])
            if not all(isinstance(part, str) for part in edge):
                raise SceneValidationError(
                    f"edge fields src, rel and dst must be strings: {item!r}")
            edge_list.append(edge)
        if not isinstance(record["ego"], str):
            raise SceneValidationError("scene record field 'ego' must be a node id")
        nodes = {}
        for oid, cls, attrs in objects:
            if not oid:
                raise SceneValidationError("node with empty id")
            lone = [char for char in oid if "\ud800" <= char <= "\udfff"]
            if lone:
                raise SceneValidationError(f"node {oid!r}: lone surrogate {lone[0]!r} in a string")
            if oid in nodes:
                raise SceneValidationError(f"duplicate node id: {oid}")
            if not om.has_class(cls):
                raise SceneValidationError(f"node {oid} has unknown class {cls}")
            if om.require_class(cls).abstract:
                raise SceneValidationError(f"node {oid} has abstract class {cls}")
            nodes[oid] = SceneObject(oid, cls, {
                name: _check_attr_value(om, cls, name, value) for name, value in attrs.items()})
        edges = set()
        for src, rel, dst in edge_list:
            for end in (src, dst):
                if end not in nodes:
                    raise SceneValidationError(f"edge references unknown node {end}")
            try:
                allowed = is_relationship_allowed(om, rel, nodes[src].cls, nodes[dst].cls)
            except SchemaError as exc:
                raise SceneValidationError(f"edge ({src}, {rel}, {dst}): {exc}") from None
            if not allowed:
                raise SceneValidationError(
                    f"edge ({src}, {rel}, {dst}) not allowed: "
                    f"{rel} does not admit {nodes[src].cls} -> {nodes[dst].cls}")
            if rel == "inFrontOf" and src == dst:
                raise SceneValidationError(f"inFrontOf self-loop on {src}")
            edges.add((src, rel, dst))
        ego = record["ego"]
        if ego not in nodes:
            raise SceneValidationError(f"ego node {ego!r} not present in scene")
        if not om.is_subclass(nodes[ego].cls, "Vehicle"):
            raise SceneValidationError(
                f"ego node {ego} has class {nodes[ego].cls}, expected a Vehicle")
        t = _finite(record["t"])
        if t is None:
            raise SceneValidationError(
                f"timestamp must be a finite number, got {record['t']!r}")
    except SceneValidationError as exc:
        return str(exc)
    return t, ego, nodes, frozenset(edges)


def _ingest(record, om):
    try:
        csg = parse_csg(record, om)
    except SceneValidationError as exc:
        return str(exc)
    return csg.timestamp, csg.ego_id, csg.nodes, csg.edges


def _assert_class_tables_match(csg, asgs):
    """The class index and `candidate_pools` against an `is_subclass` filter."""
    om = csg.om
    for cls in (c.name for c in om.classes):
        naive = tuple(sorted(oid for oid, obj in csg.nodes.items()
                             if om.is_subclass(obj.cls, cls)))
        assert csg.class_index.get(cls, ()) == naive
    for asg in asgs:
        ego_ok = om.is_subclass(csg.nodes[csg.ego_id].cls, asg.pattern_nodes[asg.ego_pattern_id])
        expected = {
            pid: ((csg.ego_id,) if ego_ok else ()) if pid == asg.ego_pattern_id
            else tuple(sorted(oid for oid, obj in csg.nodes.items()
                              if om.is_subclass(obj.cls, cls)))
            for pid, cls in asg.pattern_nodes.items()}
        assert {pid: tuple(c) for pid, c in candidate_pools(asg, csg).items()} == expected


def test_ingest_matches_reference_on_random_scenes(om):
    rng = random.Random(404)
    for _ in range(200):
        record = scene_record(random_csg(rng, om))
        got = _ingest(record, om)
        assert got == _reference_ingest(record, om)
        _assert_class_tables_match(parse_csg(record, om), [random_asg(rng, om) for _ in range(3)])


@pytest.mark.parametrize("path, value", [
    (("edges", 1, "dst"), "obs"), (("edges", 0, "rel"), "follows"),
    (("edges", 0, "rel"), "isPartOf"), (("edges", 0, "src"), "ghost"),
    (("edges", 2, "dst"), "ghost"), (("edges", 0, "src"), 1), (("edges", 0), ["ego"]),
    (("nodes", 0, "class"), "Entity"), (("nodes", 1, "class"), "Bike"),
    (("nodes", 2, "id"), "ego"), (("nodes", 2, "id"), ""), (("nodes", 0, "attrs"), []),
    (("nodes", 2, "attrs", "velocity"), "fast"), (("ego",), "lane1"), (("ego",), "ghost"),
    (("t",), float("nan")), (("t",), True),
    # node 1 takes node 2's id: after the clean scene, node 1 is the first
    # that does not repeat it, and node 2 a duplicate that would repeat it
    (("nodes", 1, "id"), "obs"),
])
def test_single_fault_records_match_reference(om, scene_factory, path, value):
    """One fault in a record, parsed alone and with the clean record's scene
    as `previous`: the same message both ways, and the reference's."""
    clean = scene_record(scene_factory())
    record = _substituted(clean, path, value)
    message = _ingest(record, om)
    assert isinstance(message, str)
    assert message == _reference_ingest(record, om)
    with pytest.raises(SceneValidationError) as raised:
        parse_csg(record, om, previous=parse_csg(clean, om))
    assert str(raised.value) == message


_NAMES = st.sampled_from(["o0", "o1", "o9", "", "Vehicle", "Static", "Road", "Entity",
                          "isIn", "isPartOf", "inFrontOf", "follows"]) | _SURROGATES


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_hostile_ingest_matches_reference(om, seed, data):
    """One or two faults in a random record: any JSON value at any path, or
    a known id, class or relationship name in place of a string."""
    record = scene_record(random_csg(random.Random(seed), om))
    for _ in range(data.draw(st.integers(1, 2), label="faults")):
        paths = list(_paths(record))
        if data.draw(st.booleans(), label="rename"):
            paths = [p for p in paths if isinstance(_at(record, p), str)] or paths
            value = data.draw(_NAMES, label="name")
        else:
            value = data.draw(_JSON_VALUES, label="value")
        path = data.draw(st.sampled_from(paths), label="path")
        record = _substituted(record, path, value)
    got = _ingest(record, om)
    assert got == _reference_ingest(record, om)
    if not isinstance(got, str):
        _assert_class_tables_match(parse_csg(record, om), [])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_hostile_record_after_a_scene_matches_fresh_ingest(om, seed, data):
    """One fault in a random record parsed with the scene of the clean
    record as `previous`: the reuse test sees the record first, and the
    result or message must be that of a fresh parse."""
    record = scene_record(random_csg(random.Random(seed), om))
    path = data.draw(st.sampled_from(list(_paths(record))), label="path")
    hostile = _substituted(record, path, data.draw(_NAMES | _JSON_VALUES, label="value"))
    try:
        csg = parse_csg(hostile, om, previous=parse_csg(record, om))
        got = csg.timestamp, csg.ego_id, csg.nodes, csg.edges
    except SceneValidationError as exc:
        got = str(exc)
    assert got == _ingest(hostile, om) == _reference_ingest(hostile, om)


def test_non_dict_mappings_are_ingested_like_dicts(om, scene_factory):
    record = scene_record(scene_factory())
    proxied = dict(record, edges=list(record["edges"]))
    proxied["edges"][0] = types.MappingProxyType(record["edges"][0])
    proxied = types.MappingProxyType(proxied)
    assert _ingest(proxied, om) == _ingest(record, om) == _reference_ingest(record, om)
    assert parse_csg(proxied, om).class_index == parse_csg(record, om).class_index


class _GetlessEntry:
    """A node entry that can be indexed but is not a Mapping: it has no `get`."""

    def __init__(self, fields):
        self.fields = fields

    def __getitem__(self, key):
        return self.fields[key]

    def __repr__(self):
        return f"_GetlessEntry({self.fields!r})"


def test_a_node_entry_without_get_is_a_malformed_entry(om):
    entry = _GetlessEntry({"id": "ego", "class": "Vehicle"})
    record = {"t": 0.0, "ego": "ego", "nodes": [entry], "edges": []}
    with pytest.raises(SceneValidationError, match=re.escape(f"malformed node entry: {entry!r}")):
        parse_csg(record, om)


# -- the bulk edge path and its located fallback ----------------------------


def _dense_record(om):
    record = scene_record(build_bench_scene(120, seed=3, om=om))
    assert len(record["edges"]) >= 3000
    return record


def _bad_edge(om, record, kind, edge):
    """`edge` (a valid edge entry of `record`) turned into one fault of `kind`."""
    cls_of = {n["id"]: n["class"] for n in record["nodes"]}
    if kind == "unknown node":
        return dict(edge, dst="ghost")
    if kind == "unknown relationship":
        return dict(edge, rel="follows")
    if kind == "pair not admitted":
        pair = (cls_of[edge["src"]], cls_of[edge["dst"]])
        rel = next(r for r in om.relationship_names() if pair not in om.admitted_pairs(r))
        return dict(edge, rel=rel)
    if kind == "inFrontOf self-loop":
        return {"src": record["ego"], "rel": "inFrontOf", "dst": record["ego"]}
    if kind == "non-string field":
        return dict(edge, src=7)
    if kind == "bool field":
        return dict(edge, src=True)
    if kind == "null field":
        return dict(edge, dst=None)
    if kind == "list field":
        return dict(edge, rel=[edge["rel"]])
    if kind == "object field":
        return dict(edge, dst={"id": edge["dst"]})
    if kind == "relation names a node":
        return dict(edge, rel=edge["src"])
    if kind == "endpoint names a relation":
        return dict(edge, dst=edge["rel"])
    if kind == "missing key":
        return {"src": edge["src"], "dst": edge["dst"]}
    assert kind == "non-dict entry"
    return [edge["src"], edge["rel"], edge["dst"]]


_EDGE_FAULTS = ["unknown node", "unknown relationship", "pair not admitted",
                "inFrontOf self-loop", "non-string field", "missing key", "non-dict entry",
                # what the column lookups meet first
                "bool field", "null field", "list field", "object field",
                "relation names a node", "endpoint names a relation"]


@pytest.mark.parametrize("kind", _EDGE_FAULTS)
def test_one_bad_edge_in_a_dense_record_is_located(om, kind):
    """The bulk test sees that some edge is bad; the fallback must name the
    same edge with the same text as a per-edge pass, wherever it sits. A
    second fault further on must not be the one reported."""
    record = _dense_record(om)
    last = len(record["edges"]) - 1
    for pos in (0, last // 2, last):
        edges = list(record["edges"])
        edges[pos] = _bad_edge(om, record, kind, edges[pos])
        if pos < last:
            edges[last] = _bad_edge(om, record, "unknown node", edges[last])
        faulty = dict(record, edges=edges)
        message = _ingest(faulty, om)
        assert isinstance(message, str)
        assert message == _reference_ingest(faulty, om)


def test_a_dense_record_is_read_into_the_scenes_own_strings(om):
    """A serialized dense scene parses to the scene `make_csg` built from the
    same objects. Its objects hold the object model's class names, and its
    edge tuples the scene's own node-id keys and the object model's
    relation names, not the record's copies of them."""
    built = build_bench_scene(200, seed=5, om=om)
    csg = parse_csg(json.loads(serialize_scene(built)), om)
    assert csg.nodes == built.nodes and csg.edges == built.edges
    assert csg.class_index == built.class_index
    ids = {oid: oid for oid in csg.nodes}
    names = {name: name for name in om.relationship_names()}
    classes = {c.name: c.name for c in om.classes}
    assert all(obj.object_id is ids[oid] and obj.cls is classes[obj.cls]
               for oid, obj in csg.nodes.items())
    assert all(src is ids[src] and rel is names[rel] and dst is ids[dst]
               for src, rel, dst in csg.edges)


class _Name(str):
    pass


def test_valid_edges_off_the_bulk_path_give_the_same_scene(om):
    record = _dense_record(om)
    mid = len(record["edges"]) // 2
    expected = _reference_ingest(record, om)
    for entry in (dict(record["edges"][mid], src=_Name(record["edges"][mid]["src"])),
                  types.MappingProxyType(record["edges"][mid])):
        edges = list(record["edges"])
        edges[mid] = entry
        assert _ingest(dict(record, edges=edges), om) == expected
    csg = parse_csg(record, om)
    objects = list(csg.nodes.values())
    from_generator = make_csg(om, csg.timestamp, csg.ego_id, objects, (e for e in csg.edges))
    assert from_generator == csg
    # a generator is read once: the located pass still sees every edge
    bad = sorted(csg.edges) + [("ego", "inFrontOf", "ego")]
    with pytest.raises(SceneValidationError, match="inFrontOf self-loop on ego"):
        make_csg(om, csg.timestamp, csg.ego_id, objects, (e for e in bad))


@pytest.mark.parametrize("malformed", [("ego", ["isIn"], "lane1"), ("ego", "isIn")],
                         ids=["unhashable-rel", "two-fields"])
def test_make_csg_reports_the_first_bad_edge_before_a_malformed_one(om, scene_factory,
                                                                     malformed):
    objects = list(scene_factory().nodes.values())
    with pytest.raises(SceneValidationError, match="isPartOf does not admit Vehicle -> Lane"):
        make_csg(om, 0.0, "ego", objects, [("ego", "isPartOf", "lane1"), malformed])


@pytest.mark.parametrize("ego, edges, message", [
    (["ego"], [], "ego node ['ego'] not present in scene"),
    ("ego", [("ego", "isIn")], "malformed edge entry: ('ego', 'isIn')"),
    ("ego", [("ego", "isIn", "lane1", "x")], "malformed edge entry: ('ego', 'isIn', 'lane1', 'x')"),
    ("ego", [None], "malformed edge entry: None"),
    ("ego", [("ego", "isIn", "lane1"), ("ego", "isIn")], "malformed edge entry: ('ego', 'isIn')"),
    ("ego", [(["ego"], "isIn", "lane1")], "must be strings: (['ego'], 'isIn', 'lane1')"),
    ("ego", [("ego", {"isIn"}, "lane1")], "must be strings: ('ego', {'isIn'}, 'lane1')"),
    ("ego", [("ego", "isIn", ["lane1"])], "must be strings: ('ego', 'isIn', ['lane1'])"),
], ids=["list-ego", "two-fields", "four-fields", "none-edge", "two-fields-after-a-valid-edge",
        "list-src", "set-rel", "list-dst"])
def test_make_csg_rejects_a_malformed_ego_or_edge(om, scene_factory, ego, edges, message):
    objects = list(scene_factory().nodes.values())
    with pytest.raises(SceneValidationError) as exc:
        make_csg(om, 0.0, ego, objects, edges)
    assert str(exc.value).endswith(message)


@pytest.mark.parametrize("obj, message", [
    (SceneObject(7, "Static"), "node id must be a string, got 7"),
    (SceneObject(("s", 1), "Static"), "node id must be a string, got ('s', 1)"),
    (SceneObject("s", ["Static"]), "node s has unknown class ['Static']"),
], ids=["int-id", "tuple-id", "list-class"])
def test_make_csg_rejects_a_node_id_or_class_that_is_not_a_string(om, obj, message):
    with pytest.raises(SceneValidationError) as exc:
        make_csg(om, 0.0, "ego", [SceneObject("ego", "Vehicle"), obj], [])
    assert str(exc.value) == message


def _early_fault(record, kind):
    """A semantic fault near the start of `record`."""
    if kind == "unknown class":
        record["nodes"][1]["class"] = "Bike"
    elif kind == "bad attribute value":  # node 1, a lane, has no attributes
        record["nodes"][0]["attrs"]["velocity"] = "fast"
    else:
        assert kind == "unknown node in an edge"
        record["edges"][0]["dst"] = "ghost"


def _late_fault(record, kind):
    """A malformed entry or field at the end of `record`."""
    edge = record["edges"][-1]
    if kind == "int src":
        edge["src"] = 7
    elif kind == "edge as an array":
        record["edges"][-1] = [edge["src"], edge["rel"], edge["dst"]]
    elif kind == "attrs as an array":
        record["nodes"][-1]["attrs"] = [1.0]
    else:
        assert kind == "ego as a number"
        record["ego"] = 5


@pytest.mark.parametrize("late", ["int src", "edge as an array", "attrs as an array",
                                  "ego as a number"])
@pytest.mark.parametrize("early", ["unknown class", "bad attribute value",
                                   "unknown node in an edge"])
def test_a_late_malformed_entry_is_reported_before_an_early_fault(om, early, late):
    """The builder raises at the early fault; the malformed entry after it
    is still the error, as in a structural pass before any other check."""
    record = _dense_record(om)
    _early_fault(record, early)
    _late_fault(record, late)
    message = _ingest(record, om)
    assert isinstance(message, str)
    assert message == _reference_ingest(record, om)


def test_make_csg_takes_edges_as_lists(om, scene_factory):
    csg = scene_factory()
    objects = list(csg.nodes.values())
    as_lists = make_csg(om, csg.timestamp, csg.ego_id, objects, [list(e) for e in csg.edges])
    assert as_lists == csg


# -- a stream reuses the validated topology of the scene before ------------


def _topology_of(record):
    """What ingest may reuse a scene on, read off a valid record."""
    return (record["ego"], [(node["id"], node["class"]) for node in record["nodes"]],
            {(edge["src"], edge["rel"], edge["dst"]) for edge in record["edges"]})


def _scene_fields(csg):
    return csg.timestamp, csg.ego_id, csg.nodes, csg.edges, csg.class_index


def _assert_stream_matches_fresh_ingest(om, records):
    """`read_scene_stream` over `records` against a fresh `parse_csg` of each
    record alone, itself held to the reference ingest: the same scene up to
    the first bad record, then the same error located at its line. A scene
    shares the class index and edge set of the scene before it exactly when
    the two records have one ego, (id, class) list and edge set. Returns
    the number of scenes that did."""
    expected = []
    for lineno, record in enumerate(records, start=1):
        fresh = _ingest(record, om)
        assert fresh == _reference_ingest(record, om)
        if isinstance(fresh, str):
            expected.append(f"line {lineno}: {fresh}")
            break
        expected.append(_scene_fields(parse_csg(record, om)))
    scenes, got = [], []
    try:
        for csg in read_scene_stream([json.dumps(record) for record in records], om):
            scenes.append(csg)
            got.append(_scene_fields(csg))
    except SceneValidationError as exc:
        got.append(str(exc))
    assert got == expected
    hits = 0
    for before, after, (prev, csg) in zip(records, records[1:], zip(scenes, scenes[1:])):
        same = _topology_of(before) == _topology_of(after)
        assert (csg.class_index is prev.class_index, csg.edges is prev.edges) == (same, same)
        hits += same
    return hits


def _reused_position(records):
    """A record whose predecessor reused the topology of the one before it."""
    return next(i for i in range(100, len(records))
                if _topology_of(records[i - 2]) == _topology_of(records[i - 1])
                == _topology_of(records[i]))


def _node_of_class(record, cls):
    return next(node for node in record["nodes"]
                if node["class"] == cls and node["id"] != record["ego"])


def _ego_node(record):
    return next(node for node in record["nodes"] if node["id"] == record["ego"])


def _set(pick, key, value):
    """A change that sets `key` of the part of a record that `pick` finds;
    a callable `value` computes the new value from the record."""
    def change(record):
        pick(record)[key] = value(record) if callable(value) else value
    return change


def _record(record):
    return record


def _vehicle(record):
    return _node_of_class(record, "Vehicle")


def _ego_attrs(record):
    return _ego_node(record)["attrs"]


_STREAM_FAULTS = {
    # equal edges, one class changed: each must be validated again
    "class, still valid": _set(_vehicle, "class", "Static"),
    "class, edges not admitted": _set(lambda r: _node_of_class(r, "Lane"), "class", "Road"),
    "class unknown": _set(_vehicle, "class", "Bike"),
    "class abstract": _set(_vehicle, "class", "TrafficParticipant"),
    "ego": _set(_record, "ego", lambda r: _vehicle(r)["id"]),
    # the same edge set, listed otherwise: reused
    "edges reordered": _set(_record, "edges", lambda r: r["edges"][::-1]),
    "edge duplicated": _set(_record, "edges", lambda r: r["edges"] + r["edges"][:1]),
    "edge with another key": _set(lambda r: r["edges"][0], "note", 1),
    "nodes reordered": _set(_record, "nodes", lambda r: r["nodes"][::-1]),
    # new attribute values on the same topology
    "attrs dropped": _set(_ego_node, "attrs", {}),
    "attrs left out where they were {}": lambda r: _node_of_class(r, "Lane").pop("attrs"),
    "attrs on an attribute-free node": _set(lambda r: _node_of_class(r, "Lane"), "attrs",
                                            {"velocity": 1.0}),
    # hostile records after a reused one
    "attr type": _set(_ego_attrs, "velocity", "fast"),
    "attr non-finite": _set(_ego_attrs, "position", [float("inf"), 0.0]),
    "attr undeclared": _set(_ego_attrs, "colour", "red"),
    "timestamp non-finite": _set(_record, "t", float("nan")),
    "timestamp not a number": _set(_record, "t", "late"),
    "edge malformed": _set(_record, "edges", lambda r: [["ego", "isIn", "lane1"]] + r["edges"][1:]),
    "edge field unhashable": _set(lambda r: r["edges"][0], "dst", ["lane1"]),
    "node entry an array": _set(_record, "nodes", lambda r: [["ego", "Vehicle"]] + r["nodes"][1:]),
    "attrs an array": _set(_ego_node, "attrs", []),
    "attrs null": _set(_ego_node, "attrs", None),
    "ego an array": _set(_record, "ego", ["ego"]),
    "ego a number": _set(_record, "ego", 7),
    "edge renamed": _set(lambda r: r["edges"][0], "rel", "follows"),
    "edge to a ghost": _set(lambda r: r["edges"][-1], "dst", "ghost"),
}


def test_stream_ingest_matches_fresh_ingest_on_the_scenario_traces(om):
    for script in (pull_out_script(), overtake_script()):
        records = [scene_record(csg) for csg in generate_trace(script, om)]
        hits = _assert_stream_matches_fresh_ingest(om, records)
        assert 0 < len(records) - 1 - hits < 20  # equal and unequal neighbours


@pytest.mark.parametrize("fault", list(_STREAM_FAULTS))
def test_stream_ingest_matches_fresh_ingest_after_a_reused_scene(om, fault):
    records = [scene_record(csg) for csg in generate_trace(overtake_script(), om)]
    at = _reused_position(records)
    records[at] = copy.deepcopy(records[at])
    _STREAM_FAULTS[fault](records[at])
    _assert_stream_matches_fresh_ingest(om, records[:at + 3])


def test_non_dict_entries_after_a_scene_are_read_in_full(om, scene_factory):
    """A node entry or attrs that is a Mapping but not a dict gives the
    scene a fresh parse gives, also after a scene of the same topology."""
    record = scene_record(scene_factory())
    previous = parse_csg(record, om)
    for path in (("nodes", 0), ("nodes", 0, "attrs")):
        proxied = _substituted(record, path, types.MappingProxyType(_at(record, path)))
        again = parse_csg(proxied, om, previous=previous)
        assert _scene_fields(again) == _scene_fields(previous)
        assert _ingest(proxied, om) == _reference_ingest(proxied, om) == _ingest(record, om)


def test_a_scene_of_another_object_model_is_not_reused(om):
    record = scene_record(halted_obstacle_scene(om))
    previous = parse_csg(record, om)
    other = default_object_model()
    assert other == om and other is not om
    assert parse_csg(record, om, previous=previous).class_index is previous.class_index
    again = parse_csg(record, other, previous=previous)
    assert again.om is other and again.class_index is not previous.class_index
    assert _scene_fields(again) == _scene_fields(previous)


_SCALARS = (st.integers(-2, 2) | st.booleans() | st.floats() | st.text(max_size=2)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, float("nan"),
                               float("inf"), -float("inf"), 10**400, -10**400]))
_SEQUENCES = st.integers(1, 3).flatmap(lambda n: st.lists(_SCALARS, min_size=n, max_size=n))
_ATTR_VALUES = _SCALARS | _SEQUENCES | _SEQUENCES.map(tuple)


def _typed_outcome(check, *args):
    try:
        value = check(*args)
    except SceneValidationError as exc:
        return "error", str(exc)
    return "ok", type(value), repr(value)  # repr tells -0.0, 1.0 and 1 apart


@settings(max_examples=400, deadline=None)
@given(value=_ATTR_VALUES)
@example(value=[1.5, 2])
@example(value=[1.5, True])
@example(value=[-0.0, 5e-324])
@example(value=(1.5, 2.5))
@example(value=[1e308, 10**400])
def test_attribute_type_table_matches_the_full_check(om, value):
    """Ingest's attribute path (the per-class type table, then the full
    check) against `_check_attr_value`, for every class and every
    attribute name, declared on it or not."""
    names = sorted({a.name for c in om.classes for a in c.attributes}) + ["colour", ""]
    for cls in (c.name for c in om.classes):
        types = {a.name: a.type for a in om.attributes_of(cls)}
        for name in names:
            attrs = {name: value}

            def normalized():
                copied = dict(attrs)  # `_normalized` rewrites the dict it is given
                _normalized(om, cls, types, copied)
                return copied[name]

            checked = _typed_outcome(normalized)
            assert checked == _typed_outcome(_check_attr_value, om, cls, name, value)
            assert attrs == {name: value}


def test_a_reused_topology_takes_the_second_records_attributes(om):
    """A record pair of one topology whose second record gives the ego a new
    velocity and the obstacle no attrs at all: the second scene reuses the
    first one's topology, and holds the second record's values, as a fresh
    parse does, none of the first's."""
    first = scene_record(halted_obstacle_scene(om))
    second = scene_record(halted_obstacle_scene(om, t=1.0, ego_speed=3.0, obstacle_attrs={}))
    before, after = read_scene_stream([json.dumps(first), json.dumps(second)], om)
    assert after.class_index is before.class_index
    assert {oid: obj.attributes for oid, obj in after.nodes.items()} == {
        "ego": {"velocity": 3.0, "position": (0.0, 0.0)}, "obs": {}, "lane1": {}}
    assert scene_record(after) == scene_record(parse_csg(second, om))


def test_a_record_naming_another_ego_is_not_reused(om):
    """A record pair with the same nodes and edges whose second record names
    another object as ego: the second scene has that ego, as a fresh parse
    gives it, or the fresh parse's error when the object is no Vehicle."""
    scene = make_csg(om, 0.0, "ego", [
        SceneObject("ego", "Vehicle", {"velocity": 8.0, "position": (0.0, 0.0)}),
        SceneObject("obs", "Static", {"velocity": 0.0, "position": (10.0, 0.0)}),
        SceneObject("v2", "Vehicle", {"velocity": 5.0, "position": (-10.0, 0.0)}),
    ], [("obs", "inFrontOf", "ego"), ("ego", "inFrontOf", "v2")])
    first = scene_record(scene)
    second = dict(first, t=1.0, ego="v2")
    before, after = read_scene_stream([json.dumps(first), json.dumps(second)], om)
    assert after.ego_id == "v2" and after.class_index is not before.class_index
    assert _scene_fields(after) == _scene_fields(parse_csg(second, om))
    with pytest.raises(SceneValidationError,
                       match="line 2: ego node obs has class Static, expected a Vehicle"):
        list(read_scene_stream([json.dumps(first), json.dumps(dict(first, ego="obs"))], om))


def test_a_record_with_one_node_more_than_the_last_is_not_reused(om):
    """The first three entries repeat the record before, so only the node
    count tells the topologies apart; a reuse would drop the fourth node."""
    first = scene_record(halted_obstacle_scene(om))
    second = scene_record(halted_obstacle_scene(om, t=1.0))
    second["nodes"].append({"id": "x", "class": "Static", "attrs": {}})
    before, after = read_scene_stream([json.dumps(first), json.dumps(second)], om)
    assert sorted(after.nodes) == ["ego", "lane1", "obs", "x"]
    assert after.class_index is not before.class_index
    assert scene_record(after) == scene_record(parse_csg(second, om))


def test_a_bad_value_on_a_reused_topology_is_reported_as_a_fresh_parse_reports_it(om):
    """A record with its predecessor's ids, classes and edges and a bad
    value on node 0 gives the located value error, as a fresh parse does;
    with a malformed entry later in the record as well, the malformed entry
    is the error, also when it is a node entry the reuse pass reaches only
    after the bad value."""
    record = scene_record(halted_obstacle_scene(om))
    previous = parse_csg(record, om)
    value_error = "attribute velocity expects a finite Real, got 'fast'"
    cases = {
        "bad value": ([], value_error),
        "and a malformed last edge entry": (
            [_set(_record, "edges", lambda r: r["edges"][:-1] + [list(r["edges"][-1].values())])],
            "malformed edge entry: ['obs', 'isIn', 'lane1']"),
        "and a malformed last node entry": (
            [_set(lambda r: r["nodes"][-1], "attrs", [])], "node obs: attrs must be an object"),
    }
    for faults, message in cases.values():
        faulty = copy.deepcopy(record)
        faulty["nodes"][0]["attrs"]["velocity"] = "fast"
        for fault in faults:
            fault(faulty)
        with pytest.raises(SceneValidationError) as raised:
            parse_csg(faulty, om, previous=previous)
        assert str(raised.value) == message == _ingest(faulty, om) == _reference_ingest(faulty, om)
        with pytest.raises(SceneValidationError, match=re.escape(f"line 2: {message}")):
            list(read_scene_stream([json.dumps(record), json.dumps(faulty)], om))


_SURROGATE_OM = """
class Vehicle { plate: String; }
class Lane;
rel isIn: Vehicle -> Lane;
"""
# ids and String values with non-ASCII characters, pairs of surrogates that
# are two lone ones in a Python string, and lone surrogates
_TEXTS = st.one_of(
    st.text(st.sampled_from(["a", "\u00e9", "\U0001f697", "\ud83d", "\ude97", "\udcff"]),
            min_size=1, max_size=4),
    # the whole range alone seldom draws a surrogate, so they are drawn apart too
    st.text(st.characters(codec=None, exclude_categories=())
            | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
            min_size=1, max_size=4),
)


@given(ego=_TEXTS, lane=_TEXTS, plate=_TEXTS)
@example(ego="e\udcffgo", lane="l", plate="p")
@example(ego="ego", lane="l", plate="\ud83d\ude97")
def test_a_scene_the_api_accepts_round_trips_through_its_text(ego, lane, plate):
    """Every scene `parse_csg` and `make_csg` accept serializes to text
    that `parse_scene_json` reads back as the same scene: a node id or a
    String value that holds a lone surrogate is refused where it is given."""
    om = parse_object_model(_SURROGATE_OM)
    record = {"t": 0.0, "ego": ego, "nodes": [
        {"id": ego, "class": "Vehicle", "attrs": {"plate": plate}}, {"id": lane, "class": "Lane"}],
        "edges": [{"src": ego, "rel": "isIn", "dst": lane}]}
    objects = [SceneObject(ego, "Vehicle", {"plate": plate}), SceneObject(lane, "Lane")]
    # in the order the builder reads them
    lone = [where for text, where in ((ego, f"node {ego!r}"), (plate, "attribute plate"),
                                      (lane, f"node {lane!r}")) if not _utf8_encodes(text)]
    for build in (lambda: parse_csg(record, om),
                  lambda: make_csg(om, 0.0, ego, objects, [(ego, "isIn", lane)])):
        try:
            csg = build()
        except SceneValidationError as exc:
            if lone:
                assert str(exc).startswith(f"{lone[0]}: lone surrogate ")
            else:
                assert ego == lane and str(exc) == f"duplicate node id: {ego}"
            continue
        assert not lone
        assert scene_record(parse_scene_json(serialize_scene(csg), om)) == scene_record(csg)


def _utf8_encodes(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def test_labels_between_matches_a_scan_of_the_edges(om):
    rng = random.Random(606)
    for _ in range(100):
        csg = random_csg(rng, om)
        ids = sorted(csg.nodes) + ["ghost"]
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(20)]
        pairs += [(src, dst) for src, _, dst in rng.sample(sorted(csg.edges), min(5, len(csg.edges)))]
        for src, dst in pairs:
            assert csg.labels_between(src, dst) == {
                r for s, r, d in csg.edges if s == src and d == dst}


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
