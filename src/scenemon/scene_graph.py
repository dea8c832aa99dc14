"""Concrete and abstract scene graphs.

A ConcreteSceneGraph (CSG) is one observed snapshot: typed objects with
attribute values, labeled directed edges between them, a designated ego
vehicle, and a timestamp. An AbstractSceneGraph (ASG) is one property: a
pattern graph over the same vocabulary plus an ordered list of predicates
over the pattern nodes. Both are checked against an ObjectModel at load
time: a scene by the builder below, a property by `dsl.parse_asg`, its one
checker. Matching and verdicts live in the matching and monitor modules. An ASG is
immutable and carries the tables derived from it: the matcher's pattern
facts and the monitor's compiled plans, each built on first use.

One builder checks and builds every scene: `parse_csg` hands it a decoded
record's fields as they are, `make_csg` its objects and edge tuples. Nodes
are read in order: one lookup in the object model's per-concrete-class
table tells that a class may have instances, and gives the model's own
string for its name and its attribute types. The object is built on the
given attributes, which `SceneObject` copies, and that one copy's values
are checked and normalized in place, before the object is shared: a
finite `float` for a Real and a pair of them for a Vec2 pass at once;
anything else goes through the full check. A node id or a String value
that holds a lone surrogate is refused, since no text could carry it: an
ASCII string passes that test in O(1). Edges are read in canonical-id
columns, because a dense scene carries thousands of them: each `src` and
`dst` through the scene's {id: id} table, each `rel` through the object
model's relationship table. A lookup that succeeds proves a field a
string equal to a known name, and yields the scene's own string for it,
so the record's copies die with the record. The few distinct (relation,
source class, target class) kinds are then admitted, not each edge, and
`inFrontOf` self-loops found by identity. Only when the columns fail are
a record's edges read one by one; `make_csg`'s always are. The builder
raises the first error in record order, but a malformed entry (not an
object, a key missing, a field of the wrong type) comes first: when the
builder raises, `parse_csg` raises the record's first malformed entry if
it has one. The scene keeps no adjacency: edge tests read the edge set.
`ConcreteSceneGraph.__init__` builds its one table, `class_index`
(each class, abstract ancestors included -> the sorted ids of its
objects), class by class; the matcher finds its candidates there.

A stream's topology rarely changes from one snapshot to the next: positions
and speeds move, but the objects, their classes and the relations stay.
`read_scene_stream` therefore parses each record with the scene before it
as `previous`. `parse_csg` hands `previous` on to the builder when the
record has its object model, ego, node count and edge set; the edge set
is compared last, on the decoded entries as they are. In its one node
loop the builder then skips the id and class checks of each node that
repeats `previous`'s (id, class) in order with dict attrs, as `previous`
passed them, and shares the object when neither scene gives it
attributes. Past the first node that does not repeat, every node is
checked in full and the edges are read one by one. When all repeat, the
ego's class and the edges passed on `previous` as well: the scene shares
its class index and edge set, and only attribute values and the
timestamp are checked. Either way the scene or the error is a fresh
parse's. A run of such scenes thus shares one class index and one edge
set, which the monitor compares by identity.

Scene records travel as JSON objects (one per line in a stream):

    {"t": 0.0, "ego": "ego",
     "nodes": [{"id": "ego", "class": "Vehicle",
                "attrs": {"velocity": 8.33, "position": [0.0, 0.0]}}],
     "edges": [{"src": "ego", "rel": "isIn", "dst": "l1"}]}

The exact record schema is documented in docs/formats.md.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from itertools import compress
from operator import is_, itemgetter, methodcaller
from typing import TYPE_CHECKING

from .errors import SceneValidationError, SchemaError
from .frozen import Frozen
from .object_model import ObjectModel

if TYPE_CHECKING:  # predicate AST lives in dsl.py; only needed for typing
    from .dsl import Expr


class SceneObject(Frozen):
    object_id: str
    cls: str
    attributes: dict[str, object]  # its own copy

    def __init__(self, object_id: str, cls: str, attributes: Mapping[str, object] = {}) -> None:
        self.__dict__.update(object_id=object_id, cls=cls, attributes=dict(attributes))

    def __hash__(self) -> int:
        return hash((self.object_id, self.cls))


class ConcreteSceneGraph(Frozen):
    timestamp: float
    nodes: dict[str, SceneObject]
    edges: frozenset[tuple[str, str, str]]
    ego_id: str
    __hash__ = None  # type: ignore[assignment]  # holds dicts: unhashable, though frozen

    def __init__(self, timestamp: float, nodes: dict[str, SceneObject],
                 edges: frozenset[tuple[str, str, str]], ego_id: str, om: ObjectModel) -> None:
        ids_of: dict[str, list[str]] = {}
        for nid, obj in nodes.items():
            ids_of.setdefault(obj.cls, []).append(nid)
        members: dict[str, list[str]] = {}
        for cls, ids in ids_of.items():  # class by class, not node by node
            for ancestor in om.ancestors(cls):
                members.setdefault(ancestor, []).extend(ids)
        # `om` and `class_index` are not compared or shown
        self.__dict__.update(timestamp=timestamp, nodes=nodes, edges=edges, ego_id=ego_id, om=om,
                             class_index={cls: tuple(sorted(ids)) for cls, ids in members.items()})

    def has_edge(self, src: str, rel: str, dst: str) -> bool:
        return (src, rel, dst) in self.edges

    def labels_between(self, src: str, dst: str) -> set[str]:
        return {r for r in self.om.relationship_names() if (src, r, dst) in self.edges}


# pattern id -> (label, neighbour pattern ids) per label of its edges
PatternAdjacency = dict[str, tuple[tuple[str, frozenset[str]], ...]]


class AbstractSceneGraph(Frozen):
    name: str
    pattern_nodes: dict[str, str]  # pattern id -> class name (may be abstract)
    pattern_edges: frozenset[tuple[str, str, str]]
    ego_pattern_id: str
    predicates: "tuple[Expr, ...]"

    def __init__(self, name: str, pattern_nodes: dict[str, str],
                 pattern_edges: frozenset[tuple[str, str, str]], ego_pattern_id: str,
                 predicates: tuple[Expr, ...], om: ObjectModel) -> None:
        # not compared or shown: `om`, and `plans`, epsilon -> the
        # monitor's compiled checking plan, filled on first use
        self.__dict__.update(name=name, pattern_nodes=pattern_nodes, pattern_edges=pattern_edges,
                             ego_pattern_id=ego_pattern_id, predicates=predicates, om=om, plans={})

    @cached_property
    def pattern_facts(self) -> tuple[dict[str, int], PatternAdjacency, PatternAdjacency]:
        """The matcher's facts about the pattern, built on first use: each
        node's rank (BFS distance from ego; an unreached node ranks last) and
        the labelled out- and in-adjacency. The tables are shared: read only."""
        dist = pattern_distances(self.pattern_edges, self.ego_pattern_id)
        rank = {pid: dist.get(pid, len(self.pattern_nodes)) for pid in self.pattern_nodes}
        p_out: dict[str, dict[str, set[str]]] = {pid: {} for pid in self.pattern_nodes}
        p_in: dict[str, dict[str, set[str]]] = {pid: {} for pid in self.pattern_nodes}
        for src, rel, dst in self.pattern_edges:
            p_out[src].setdefault(rel, set()).add(dst)
            p_in[dst].setdefault(rel, set()).add(src)

        def frozen(adj: dict[str, dict[str, set[str]]]) -> PatternAdjacency:
            return {pid: tuple((rel, frozenset(ids)) for rel, ids in rels.items())
                    for pid, rels in adj.items()}

        return rank, frozen(p_out), frozen(p_in)


# -- validation ------------------------------------------------------------


def _finite(value: object) -> float | None:
    """`value` as a float if it is a finite number (not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        out = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return out if math.isfinite(out) else None


def _refuse_lone_surrogate(text: str, where: str) -> None:
    """SceneValidationError, prefixed with `where`, if `text` holds a lone
    surrogate: no Unicode scalar value, so UTF-8 cannot encode it, and a
    scene holding one would serialize to text that `parse_scene_json`
    refuses. Callers test `isascii()` first, which passes ASCII in O(1)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SceneValidationError(
            f"{where}: lone surrogate {exc.object[exc.start]!r} in a string") from None


def _check_attr_value(om: ObjectModel, cls: str, name: str, value: object) -> object:
    """Type-check one attribute value against its declaration; returns the
    normalized value (Real -> float, Vec2 -> tuple of floats)."""
    decl = om.find_attribute(cls, name)
    if decl is None:
        raise SceneValidationError(f"class {cls} has no attribute {name}")
    t = decl.type
    if t == "Real":
        real = _finite(value)
        if real is None:
            raise SceneValidationError(f"attribute {name} expects a finite Real, got {value!r}")
        return real
    if t == "Int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SceneValidationError(f"attribute {name} expects Int, got {value!r}")
        return value
    if t == "Bool":
        if not isinstance(value, bool):
            raise SceneValidationError(f"attribute {name} expects Bool, got {value!r}")
        return value
    if t == "String":
        if not isinstance(value, str):
            raise SceneValidationError(f"attribute {name} expects String, got {value!r}")
        if not value.isascii():
            _refuse_lone_surrogate(value, f"attribute {name}")
        return value
    if t == "Vec2":
        if isinstance(value, (list, tuple)) and len(value) == 2:
            vec = (_finite(value[0]), _finite(value[1]))
            if None not in vec:
                return vec
        raise SceneValidationError(f"attribute {name} expects a finite Vec2, got {value!r}")
    raise SceneValidationError(f"attribute {name} has unsupported type {t}")


def make_csg(
    om: ObjectModel,
    timestamp: float,
    ego_id: str,
    nodes: Iterable[SceneObject],
    edges: Iterable[tuple[str, str, str]],
) -> ConcreteSceneGraph:
    """Build and fully validate a ConcreteSceneGraph.

    Validation is closed-world over what the record claims: every node class
    and every provided attribute must be declared, every edge must be allowed
    by the object model, and the timestamp and every Real or Vec2 value must
    be finite. Attributes that the class declares but the record
    omits stay absent; predicate evaluation reports them as errors later.
    The given objects are left as they are: the scene holds new ones.
    """
    return _built_csg(om, timestamp, ego_id,
                      ((obj.object_id, obj.cls, obj.attributes) for obj in nodes),
                      None, edges)


def _built_csg(
    om: ObjectModel, timestamp: object, ego_id: object,
    nodes: Iterable[tuple[object, object, object]],
    columns: tuple[Iterable[object], Iterable[object], Iterable[object]] | None,
    edges: Iterable[tuple[object, object, object]],
    previous: ConcreteSceneGraph | None = None,
) -> ConcreteSceneGraph:
    """The scene of (id, class, attrs) `nodes` and of edges given twice: as
    (src, rel, dst) `columns`, and as `edges` triples, read one by one only
    when the columns fail or are None, to raise at the first rejected edge.
    Nodes, edges, the ego and the timestamp are checked in that order, and
    the first error is raised. Node ids and classes must be strings.

    `previous`, if given, is a scene of `om` with this ego, node count and
    edge set. The nodes that repeat its (id, class) list in order, up to
    the first that does not, skip the checks it passed and take its
    strings; if all do, the scene shares its class index and edge set."""
    classes = om.concrete_class_table()
    node_map: dict[str, SceneObject] = {}
    olds = None if previous is None else iter(previous.nodes.values())
    for oid, cls, attrs in nodes:
        if olds is not None:
            old = next(olds)
            if oid == old.object_id and cls == old.cls and isinstance(attrs, dict):
                if attrs or old.attributes:
                    obj = node_map[old.object_id] = SceneObject(old.object_id, old.cls, attrs)
                    _normalized(om, old.cls, classes[old.cls][1], obj.attributes)
                else:  # no attributes in either scene: the same value
                    node_map[old.object_id] = old
                continue
            olds = None  # past the first mismatch, every node is checked in full
        if not oid:
            raise SceneValidationError("node with empty id")
        if not isinstance(oid, str):
            raise SceneValidationError(f"node id must be a string, got {oid!r}")
        if not oid.isascii():
            _refuse_lone_surrogate(oid, f"node {oid!r}")
        if oid in node_map:
            raise SceneValidationError(f"duplicate node id: {oid}")
        known = classes.get(cls) if isinstance(cls, str) else None
        if known is None:  # not a string, or an unknown or abstract class
            kind = "abstract" if isinstance(cls, str) and om.has_class(cls) else "unknown"
            raise SceneValidationError(f"node {oid} has {kind} class {cls}")
        if not (isinstance(attrs, dict) or isinstance(attrs, Mapping)):
            raise SceneValidationError(f"node {oid}: attrs must be an object")
        cls, types = known  # the model's own string for the class name
        obj = node_map[oid] = SceneObject(oid, cls, attrs)
        _normalized(om, cls, types, obj.attributes)  # the object's own copy
    if olds is not None:  # every node repeats `previous`'s
        scene = object.__new__(ConcreteSceneGraph)  # `previous`'s class index, not a new one
        vars(scene).update(vars(previous), timestamp=_timestamp(timestamp), nodes=node_map)
        return scene
    cls_of = {oid: obj.cls for oid, obj in node_map.items()}
    edge_set = None if columns is None else _column_edges(om, cls_of, *columns)
    if edge_set is None:  # edge by edge: raises at the first rejected one
        edge_set = set()
        for edge in edges:
            try:
                src, rel, dst = edge
            except (TypeError, ValueError):
                raise SceneValidationError(f"malformed edge entry: {edge!r}") from None
            if not (isinstance(src, str) and isinstance(rel, str) and isinstance(dst, str)):
                raise SceneValidationError(
                    f"edge fields src, rel and dst must be strings: {edge!r}")
            src_cls = cls_of.get(src)
            if src_cls is None:
                raise SceneValidationError(f"edge references unknown node {src}")
            dst_cls = cls_of.get(dst)
            if dst_cls is None:
                raise SceneValidationError(f"edge references unknown node {dst}")
            try:
                pairs = om.admitted_pairs(rel)
            except SchemaError as exc:
                raise SceneValidationError(f"edge ({src}, {rel}, {dst}): {exc}") from None
            if (src_cls, dst_cls) not in pairs:
                raise SceneValidationError(
                    f"edge ({src}, {rel}, {dst}) not allowed: "
                    f"{rel} does not admit {src_cls} -> {dst_cls}")
            if rel == "inFrontOf" and src == dst:
                raise SceneValidationError(f"inFrontOf self-loop on {src}")
            edge_set.add((src, rel, dst))
    if not isinstance(ego_id, str) or ego_id not in cls_of:
        raise SceneValidationError(f"ego node {ego_id!r} not present in scene")
    if "Vehicle" not in om.ancestors(cls_of[ego_id]):
        raise SceneValidationError(
            f"ego node {ego_id} has class {cls_of[ego_id]}, expected a Vehicle")
    return ConcreteSceneGraph(_timestamp(timestamp), node_map, frozenset(edge_set), ego_id, om)


def _column_edges(
    om: ObjectModel, cls_of: dict[str, str],
    srcs: Iterable[object], rels: Iterable[object], dsts: Iterable[object],
) -> frozenset[tuple[str, str, str]] | None:
    """The edge set of (src, rel, dst) columns, or None unless every edge
    is admitted. Each `src` and `dst` is looked up in the scene's {id: id}
    table and each `rel` in the object model's relationship table: a
    lookup that succeeds proves a decoded field a string equal to a known
    name, and yields the scene's own string for it. Admission then tests
    the few distinct (relation, source class, target class) kinds, not
    each edge. `cls_of` maps each node id to its class."""
    ids = dict(zip(cls_of, cls_of))
    names = om.relationship_table()
    try:
        srcs = list(map(ids.__getitem__, srcs))
        rels = list(map(names.__getitem__, rels))
        dsts = list(map(ids.__getitem__, dsts))
    except (KeyError, TypeError):  # an unknown or unhashable name, or a malformed entry
        return None
    kinds = set(zip(rels, map(cls_of.__getitem__, srcs), map(cls_of.__getitem__, dsts)))
    if not all((src_cls, dst_cls) in om.admitted_pairs(rel) for rel, src_cls, dst_cls in kinds):
        return None
    if "inFrontOf" in compress(rels, map(is_, srcs, dsts)):  # the scene's ids: equal is identical
        return None
    return frozenset(zip(srcs, rels, dsts))


def _normalized(om: ObjectModel, cls: str, types: Mapping[str, str],
                attrs: dict[str, object]) -> None:
    """Check each value of `attrs` against `types`, the attribute types of
    `cls`, and replace it by its normalized value in place: a finite
    `float` for a Real and a list of two for a Vec2 pass at once, anything
    else goes through the full check. `attrs` is a new object's own copy,
    not yet shared."""
    for name, value in attrs.items():  # replaces values only
        t = types.get(name)
        if t == "Real":
            if type(value) is float and value - value == 0.0:  # finite: inf - inf is nan
                continue
        elif t == "Vec2" and type(value) is list and len(value) == 2:
            x, y = value
            if type(x) is float and type(y) is float and x - x == 0.0 == y - y:
                attrs[name] = (x, y)
                continue
        attrs[name] = _check_attr_value(om, cls, name, value)


def _timestamp(value: object) -> float:
    """A record's timestamp as a float; SceneValidationError unless finite.
    A finite `float` passes at once, as a Real value does."""
    if type(value) is float and value - value == 0.0:
        return value
    t = _finite(value)
    if t is None:
        raise SceneValidationError(f"timestamp must be a finite number, got {value!r}")
    return t


_ID, _CLASS = itemgetter("id"), itemgetter("class")
# The one `{}` stands for every missing attrs: `SceneObject` copies it, and
# `_normalized` writes only that copy.
_ATTRS = methodcaller("get", "attrs", {})
_EDGE_FIELDS = itemgetter("src", "rel", "dst")
_SRC, _REL, _DST = itemgetter("src"), itemgetter("rel"), itemgetter("dst")


def parse_csg(
    record: Mapping, om: ObjectModel, *, previous: ConcreteSceneGraph | None = None,
) -> ConcreteSceneGraph:
    """Parse one scene record (a decoded JSON object) into a validated CSG.

    `previous`, if given, is the scene parsed just before this one in the
    same stream. The scene builder reads the record's fields as they are,
    with `previous` when it was parsed against `om` and the record has its
    ego, node count and edge set: the builder then skips the checks that
    `previous` passed on the nodes that repeat it, and reads the edges one
    by one if any does not. Only when the builder raises are the entries
    walked, to report the first malformed one, or else the builder's
    error. The result, or the error raised, is the same with `previous`
    or without; only the time taken differs.
    """
    if not (isinstance(record, dict) or isinstance(record, Mapping)):
        raise SceneValidationError(f"scene record must be an object, got {type(record).__name__}")
    for key in ("t", "ego", "nodes", "edges"):
        if key not in record:
            raise SceneValidationError(f"scene record missing field {key!r}")
    raw_nodes = record["nodes"]
    raw_edges = record["edges"]
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise SceneValidationError("scene record fields nodes/edges must be arrays")
    try:
        if previous is not None and (
                previous.om is not om or record["ego"] != previous.ego_id
                # a dense scene's node count rarely repeats: its edge set is then not built
                or len(raw_nodes) != len(previous.nodes)
                or frozenset(map(_EDGE_FIELDS, raw_edges)) != previous.edges):
            previous = None
        columns = None if previous is not None else (
            map(_SRC, raw_edges), map(_REL, raw_edges), map(_DST, raw_edges))
        return _built_csg(
            om, record["t"], record["ego"],
            zip(map(_ID, raw_nodes), map(_CLASS, raw_nodes), map(_ATTRS, raw_nodes)),
            columns, map(_EDGE_FIELDS, raw_edges), previous)
    except (SceneValidationError, KeyError, TypeError, AttributeError):
        # entry by entry: the first malformed one is the error to report;
        # AttributeError comes from a node entry with no `get`
        for item in raw_nodes:
            # the dict test first: it is cheap and passes every decoded object
            if (not (isinstance(item, dict) or isinstance(item, Mapping))
                    or "id" not in item or "class" not in item):
                raise SceneValidationError(f"malformed node entry: {item!r}")
            attrs = item.get("attrs", {})
            if not (isinstance(attrs, dict) or isinstance(attrs, Mapping)):
                raise SceneValidationError(f"node {item['id']}: attrs must be an object")
            if not isinstance(item["id"], str) or not isinstance(item["class"], str):
                raise SceneValidationError(f"malformed node entry: {item!r}")
        for item in raw_edges:
            if (not (isinstance(item, dict) or isinstance(item, Mapping))
                    or "src" not in item or "rel" not in item or "dst" not in item):
                raise SceneValidationError(f"malformed edge entry: {item!r}")
            src, rel, dst = item["src"], item["rel"], item["dst"]
            if not (isinstance(src, str) and isinstance(rel, str) and isinstance(dst, str)):
                raise SceneValidationError(
                    f"edge fields src, rel and dst must be strings: {item!r}")
        if not isinstance(record["ego"], str):
            raise SceneValidationError("scene record field 'ego' must be a node id")
        raise  # no malformed entry: the builder's error is the first


def scene_record(csg: ConcreteSceneGraph) -> dict:
    """Render a CSG back to its JSON record form (canonical: sorted ids)."""

    def attr_out(value: object) -> object:
        if isinstance(value, tuple):
            return list(value)
        return value

    return {
        "t": csg.timestamp,
        "ego": csg.ego_id,
        "nodes": [
            {
                "id": nid,
                "class": obj.cls,
                "attrs": {k: attr_out(v) for k, v in sorted(obj.attributes.items())},
            }
            for nid, obj in sorted(csg.nodes.items())
        ],
        "edges": [
            {"src": s, "rel": r, "dst": d} for s, r, d in sorted(csg.edges)
        ],
    }


def serialize_scene(csg: ConcreteSceneGraph) -> str:
    return json.dumps(scene_record(csg), separators=(", ", ": "), allow_nan=False)


def parse_scene_json(text: str, om: ObjectModel, *,
                     previous: ConcreteSceneGraph | None = None) -> ConcreteSceneGraph:
    """The scene of one scene record's JSON text, as `parse_csg` reads it.
    Stream text keeps a byte that is not UTF-8 as a lone surrogate (read
    with errors="surrogateescape"), refused here; ASCII is passed in O(1).
    A `\\u` escape can decode to a lone surrogate too, which is no Unicode
    scalar value: a record decoded from text with a backslash is refused
    if one of its strings holds one."""
    try:
        if not text.isascii():
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        record = json.loads(text)
    except UnicodeError as exc:
        raise SceneValidationError(f"not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # malformed text, an int literal past the digit limit, or nesting too deep
        raise SceneValidationError(f"invalid JSON: {exc}") from exc
    if "\\" in text:
        try:  # UTF-8 encodes a surrogate pair, decoded as one character, but no lone one
            json.dumps(record, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SceneValidationError(
                f"lone surrogate {exc.object[exc.start]!r} in a string") from None
    return parse_csg(record, om, previous=previous)


def read_scene_stream(lines: Iterable[str], om: ObjectModel) -> Iterator[ConcreteSceneGraph]:
    """Parse a JSONL scene stream lazily, one validated CSG per nonblank line.
    Each line is parsed with the scene of the line before as `previous`. The
    stripped line and its decoded record are temporaries of the parse call,
    so neither stays alive while the scene is monitored and the next line
    is decoded."""
    scene: ConcreteSceneGraph | None = None
    for lineno, line in enumerate(lines, start=1):
        if line and not line.isspace():  # what str.strip leaves nonempty
            try:
                scene = parse_scene_json(line.strip(), om, previous=scene)
            except SceneValidationError as exc:
                raise SceneValidationError(f"line {lineno}: {exc}") from exc
            yield scene


def pattern_distances(
    pattern_edges: Iterable[tuple[str, str, str]], start: str,
) -> dict[str, int]:
    """Edge count from `start` to each pattern node it reaches, with the
    pattern edges read undirected (breadth-first search)."""
    adj: dict[str, set[str]] = {}
    for src, _, dst in pattern_edges:
        adj.setdefault(src, set()).add(dst)
        adj.setdefault(dst, set()).add(src)
    dist = {start: 0}
    frontier = [start]
    for pid in frontier:  # the list grows while it is read: a FIFO queue
        for nb in adj.get(pid, ()):
            if nb not in dist:
                dist[nb] = dist[pid] + 1
                frontier.append(nb)
    return dist


# -- DOT export ------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_id(text: str) -> str:
    return f'"{_dot_escape(text)}"'


def export_dot(graph: "ConcreteSceneGraph | AbstractSceneGraph") -> str:
    """Render a scene or pattern graph as Graphviz DOT text.

    Pattern predicates are drawn as annotations in grey: a predicate over
    two pattern nodes becomes a dashed grey edge between them, anything else
    becomes a dashed-linked grey note. The ego node gets a double border.
    """
    lines = ["digraph scene {", "  rankdir=LR;", '  node [shape=box, fontname="Helvetica"];']
    if isinstance(graph, ConcreteSceneGraph):
        for nid, obj in sorted(graph.nodes.items()):
            parts = [f"{nid} : {obj.cls}"]
            for name, value in sorted(obj.attributes.items()):
                if isinstance(value, tuple):
                    value = f"({value[0]:g}, {value[1]:g})"
                parts.append(f"{name} = {value}")
            label = _dot_escape("\\n".join(parts))
            extra = ", peripheries=2" if nid == graph.ego_id else ""
            lines.append(f'  {_dot_id(nid)} [label="{label}"{extra}];')
        for src, rel, dst in sorted(graph.edges):
            lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="{_dot_escape(rel)}"];')
    else:
        for pid, cls in sorted(graph.pattern_nodes.items()):
            label = _dot_escape(f"{pid} : {cls}")
            extra = ", peripheries=2" if pid == graph.ego_pattern_id else ""
            lines.append(f'  {_dot_id(pid)} [label="{label}"{extra}];')
        for src, rel, dst in sorted(graph.pattern_edges):
            lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="{_dot_escape(rel)}"];')
        for idx, pred in enumerate(graph.predicates):
            text = _dot_escape(pred.to_text())
            pids = sorted(pred.pattern_ids())
            if len(pids) == 2:
                lines.append(
                    f'  {_dot_id(pids[0])} -> {_dot_id(pids[1])} '
                    f'[label="{text}", style=dashed, color=grey, fontcolor=grey, dir=none];')
            else:
                note = f"pred{idx}"
                lines.append(
                    f'  {_dot_id(note)} [label="{text}", shape=plaintext, fontcolor=grey];')
                anchor = pids[0] if pids else graph.ego_pattern_id
                lines.append(
                    f'  {_dot_id(note)} -> {_dot_id(anchor)} '
                    f'[style=dashed, color=grey, dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
