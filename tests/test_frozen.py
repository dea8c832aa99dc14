"""The record types on the frozen value base keep the contract of the
frozen dataclasses they were: each is checked against a generated twin."""
import dataclasses

import pytest

from scenemon import (
    AbstractSceneGraph,
    Cause,
    CauseKind,
    ConcreteSceneGraph,
    Embedding,
    FrozenInstanceError,
    ObjectModel,
    PhaseAutomaton,
    SceneObject,
    SchemaError,
    load_bundled_asg,
)
from scenemon.object_model import ClassDef

from conftest import halted_obstacle_scene


def _hidden(**kwargs):
    """A field that takes no part in `==`, `hash` or `repr`."""
    return dataclasses.field(compare=False, repr=False, **kwargs)


# Each type's twin with the generated frozen dataclass methods, and the
# fields the type held as a dataclass.
_TWINS = {
    Embedding: dataclasses.make_dataclass(
        "Embedding", [("mapping", object)], frozen=True),
    Cause: dataclasses.make_dataclass(
        "Cause", [("kind", object), ("index", object, None), ("ref", object, None)],
        frozen=True),
    PhaseAutomaton: dataclasses.make_dataclass("PhaseAutomaton", [
        ("phases", object), ("index", object, 0), ("dwell", object, ()),
        ("completed", object, False), ("violations", object, 0), ("gaps", object, 0)],
        frozen=True),
    ObjectModel: dataclasses.make_dataclass("ObjectModel", [
        ("classes", object, ()), ("relationships", object, ()), ("functions", object, ())],
        frozen=True),
    SceneObject: dataclasses.make_dataclass("SceneObject", [
        ("object_id", object), ("cls", object),
        ("attributes", object, dataclasses.field(default_factory=dict))],
        frozen=True, namespace={"__hash__": lambda self: hash((self.object_id, self.cls))}),
    ConcreteSceneGraph: dataclasses.make_dataclass("ConcreteSceneGraph", [
        ("timestamp", object), ("nodes", object), ("edges", object), ("ego_id", object),
        ("om", object, _hidden()), ("class_index", object, _hidden(init=False))],
        frozen=True, namespace={"__hash__": None}),
    AbstractSceneGraph: dataclasses.make_dataclass("AbstractSceneGraph", [
        ("name", object), ("pattern_nodes", object), ("pattern_edges", object),
        ("ego_pattern_id", object), ("predicates", object),
        ("om", object, _hidden()), ("plans", object, _hidden(init=False, default_factory=dict))],
        frozen=True),
}


def _samples(om):
    """Two or more values of each type, and changes for `replace`: ones the
    constructor takes, and ones its checks refuse, with the error."""
    scene = halted_obstacle_scene(om)
    return {
        Embedding: ([Embedding((("ego", "e"), ("lane", "l1"))), Embedding(())],
                    [{"mapping": (("ego", "e2"),)}], []),
        Cause: ([Cause(CauseKind.NO_EMBEDDING), Cause.predicate_failed(2),
                 Cause.missing_attribute("obs.velocity")],
                [{"index": 3}, {"kind": CauseKind.MISSING_ATTRIBUTE, "ref": "a.b"}], []),
        PhaseAutomaton: ([PhaseAutomaton(("A", "B")),
                          PhaseAutomaton(("A", "B"), 1, (2, 3), True, 1, 2)],
                         [{"index": 1}, {"dwell": (4, 5), "gaps": 7}],
                         [({"index": 5}, ValueError), ({"phases": ("A", "A")}, ValueError),
                          ({"dwell": (1,)}, ValueError)]),
        ObjectModel: ([om, ObjectModel(), ObjectModel((ClassDef("A", None, False),))],
                      [{"functions": ()}, {"classes": om.classes[:1], "relationships": ()}],
                      [({"classes": (ClassDef("A", None, False),) * 2}, SchemaError)]),
        SceneObject: ([*scene.nodes.values(), SceneObject("x", "Lane")],
                      [{"attributes": {"velocity": 1.0}}, {"object_id": "other"}], []),
        ConcreteSceneGraph: ([scene, halted_obstacle_scene(om, t=1.0)],
                             [{"timestamp": 2.0}, {"nodes": {"ego": scene.nodes["ego"]}}],
                             [({"nodes": {"x": SceneObject("x", "Nope")}}, SchemaError)]),
        AbstractSceneGraph: ([load_bundled_asg("obstacle-ahead", om), load_bundled_asg("P1-1", om)],
                             [{"name": "renamed"}, {"predicates": ()}], []),
    }


def _twin(obj):
    """The twin of `obj`, built from the values `obj` holds."""
    twin = _TWINS[type(obj)]
    return twin(**{f.name: vars(obj)[f.name] for f in dataclasses.fields(twin) if f.init})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError as exc:
        return TypeError, str(exc)


@pytest.mark.parametrize("cls", list(_TWINS), ids=lambda cls: cls.__name__)
def test_record_type_keeps_the_generated_dataclass_contract(om, cls):
    """Fields, `repr`, `==` and `hash` (or its TypeError) are the twin's;
    every attribute refuses assignment and deletion with the twin's
    message; and `replace` builds through the constructor, so its checks
    run and its tables are rebuilt."""
    values, changes, refused = _samples(om)[cls]
    twin = _TWINS[cls]
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin) if f.compare)
    assert {f.name for f in dataclasses.fields(twin)} <= set(vars(values[0]))
    for v in values:
        ref = _twin(v)
        assert repr(v) == repr(ref)
        assert _outcome(hash, v) == _outcome(hash, ref)
        for other in values:
            assert (v == other) == (ref == _twin(other))
            assert (v != other) == (ref != _twin(other))
        for name in list(vars(v)):
            for act in (lambda o: setattr(o, name, getattr(o, name, None)),
                        lambda o: delattr(o, name)):
                with pytest.raises(FrozenInstanceError) as ours:
                    act(v)
                with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                    act(ref)
                assert str(ours.value) == str(theirs.value)
        for change in [{}, *changes]:
            changed, want = v.replace(**change), dataclasses.replace(ref, **change)
            assert type(changed) is cls
            assert repr(changed) == repr(want) and (changed == v) == (want == ref)
            rebuilt = cls(**{f.name: vars(changed)[f.name]
                             for f in dataclasses.fields(twin) if f.init})
            assert vars(changed) == vars(rebuilt)  # as the constructor builds it
        for change, error in refused:
            with pytest.raises(error):
                v.replace(**change)
        with pytest.raises(TypeError):
            v.replace(no_such_field=1)
    if cls is SceneObject:
        given = {"velocity": 1.0}
        assert values[0].replace(attributes=given).attributes is not given
    if cls is AbstractSceneGraph:
        assert values[0].replace().plans is not values[0].plans
