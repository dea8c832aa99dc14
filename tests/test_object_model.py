import pytest
from hypothesis import given, settings, strategies as st

from scenemon import (
    ObjectModel,
    SchemaError,
    SpecSyntaxError,
    default_object_model,
    is_relationship_allowed,
    load_object_model,
    parse_object_model,
    serialize_object_model,
)
from scenemon.object_model import AttributeDef, ClassDef, RelationshipType


def test_default_schema_classes(om):
    assert om.has_class("Vehicle")
    assert om.is_subclass("Vehicle", "TrafficParticipant")
    assert om.is_subclass("Vehicle", "Entity")
    assert om.is_subclass("Lane", "TrafficEnvironment")
    assert not om.is_subclass("Lane", "TrafficParticipant")
    assert om.require_class("Entity").abstract
    assert not om.require_class("Vehicle").abstract


def test_default_schema_concrete_classes(om):
    assert set(om.concrete_classes()) == {
        "Vehicle", "Static", "Lane", "Road", "ParkingSpot"}


def test_inherited_attributes(om):
    attrs = {a.name: a.type for a in om.attributes_of("Vehicle")}
    assert attrs == {"velocity": "Real", "position": "Vec2"}
    assert om.find_attribute("Static", "velocity").type == "Real"
    assert om.find_attribute("Lane", "velocity") is None


def test_relationship_admission(om):
    assert is_relationship_allowed(om, "isIn", "Vehicle", "Lane")
    assert is_relationship_allowed(om, "isIn", "Static", "ParkingSpot")
    # Lane is an Entity, so the schema admits Lane-in-Lane
    assert is_relationship_allowed(om, "isIn", "Lane", "Lane")
    assert is_relationship_allowed(om, "isPartOf", "Lane", "Road")
    assert not is_relationship_allowed(om, "isPartOf", "Vehicle", "Road")
    assert is_relationship_allowed(om, "inFrontOf", "Static", "Vehicle")
    assert not is_relationship_allowed(om, "inFrontOf", "Lane", "Vehicle")


def test_relationship_admission_unknown_names(om):
    with pytest.raises(SchemaError):
        is_relationship_allowed(om, "isIn", "Bicycle", "Lane")
    with pytest.raises(SchemaError):
        is_relationship_allowed(om, "follows", "Vehicle", "Vehicle")


def test_dist_function_symbol(om):
    fn = om.find_function("dist")
    assert fn.params == ("node", "node")
    assert fn.result == "Real"


def test_serialize_round_trip(om):
    assert parse_object_model(serialize_object_model(om)) == om


def test_load_default_literal(om):
    assert load_object_model("default") == om


def test_load_from_file(tmp_path, om):
    path = tmp_path / "schema.om"
    path.write_text(serialize_object_model(om), encoding="utf-8")
    assert load_object_model(str(path)) == om


def test_duplicate_class_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        parse_object_model("class A; class A;")


def test_unknown_parent_rejected():
    with pytest.raises(SchemaError):
        parse_object_model("class A extends Missing;")


def test_inheritance_cycle_rejected():
    with pytest.raises(SchemaError, match="cycle"):
        parse_object_model("class A extends B; class B extends A;")


def test_attribute_shadowing_rejected():
    text = """
    abstract class Base { speed: Real; }
    class Car extends Base { speed: Real; }
    """
    with pytest.raises(SchemaError):
        parse_object_model(text)


def test_unknown_attribute_type_rejected():
    with pytest.raises(SchemaError):
        parse_object_model("class A { weight: Kg; }")


def test_duplicate_relationship_row_rejected():
    text = "class A; class B; rel r: A -> B; rel r: A -> B;"
    with pytest.raises(SchemaError):
        parse_object_model(text)


def test_relationship_unknown_endpoint_rejected():
    with pytest.raises(SchemaError):
        parse_object_model("class A; rel r: A -> Missing;")


def test_function_bad_parameter_kind_rejected():
    with pytest.raises(SchemaError):
        parse_object_model("fn f(Banana) -> Real;")


@pytest.mark.parametrize("text, message", [
    ("class Lane; rel r: Ghost -> Lane;", "relationship r has unknown source class Ghost"),
    ("fn f(node) -> Real; fn f(node) -> Real;", "duplicate function: f"),
    ("fn f(node) -> Banana;", "function f has unknown result type Banana"),
], ids=["relationship-source", "duplicate-function", "result-type"])
def test_schema_errors_name_their_declaration(text, message):
    with pytest.raises(SchemaError) as err:
        parse_object_model(text)
    assert str(err.value) == message


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_object_model("class A {\n  speed Real;\n}")
    assert err.value.line == 2
    assert err.value.column >= 1


def test_a_stray_word_between_declarations_is_a_located_syntax_error():
    with pytest.raises(SpecSyntaxError) as err:
        parse_object_model("class A;\nbogus")
    assert (err.value.line, err.value.column) == (2, 1)
    assert str(err.value) == "2:1: expected class, rel, or fn declaration, found 'bogus'"


def test_direct_construction_validates():
    with pytest.raises(SchemaError, match="cycle"):
        ObjectModel((ClassDef("A", "B", False), ClassDef("B", "A", False)))
    with pytest.raises(SchemaError, match="extends unknown class Missing"):
        ObjectModel((ClassDef("A", "Missing", False),))


# -- differential: lookup tables against a naive chain walk ---------------


def _ref_class(om, name):
    for cls in om.classes:
        if cls.name == name:
            return cls
    raise SchemaError(f"unknown class: {name}")


def _ref_chain(om, name):
    """The class and its ancestors, leaf first, by walking parent links."""
    chain = [_ref_class(om, name)]
    while chain[-1].parent is not None:
        chain.append(_ref_class(om, chain[-1].parent))
    return chain


def _ref_is_subclass(om, sub, sup):
    _ref_class(om, sup)
    return any(cls.name == sup for cls in _ref_chain(om, sub))


def _ref_attributes_of(om, name):
    return tuple(a for cls in reversed(_ref_chain(om, name)) for a in cls.attributes)


def _ref_find_attribute(om, name, attr):
    return next((a for a in _ref_attributes_of(om, name) if a.name == attr), None)


def _ref_is_relationship_allowed(om, rel, src, dst):
    _ref_class(om, src)
    _ref_class(om, dst)
    rows = [r for r in om.relationships if r.name == rel]
    if not rows:
        raise SchemaError(f"unknown relationship: {rel}")
    return any(_ref_is_subclass(om, src, r.source) and _ref_is_subclass(om, dst, r.target)
               for r in rows)


def _ref_relationship_names(om):
    return tuple(dict.fromkeys(r.name for r in om.relationships))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SchemaError as exc:
        return "error", str(exc)


def _assert_matches_reference(om):
    names = [c.name for c in om.classes] + ["Unknown"]
    attrs = sorted({a.name for c in om.classes for a in c.attributes}) + ["unknown"]
    rels = list(_ref_relationship_names(om)) + ["unknownRel"]
    assert om.relationship_names() == _ref_relationship_names(om)
    for a in names:
        assert _outcome(om.attributes_of, a) == _outcome(_ref_attributes_of, om, a)
        if a in om.concrete_class_table():
            assert om.concrete_class_table()[a][1] == {
                attr.name: attr.type for attr in _ref_attributes_of(om, a)}
        for attr in attrs:
            assert (_outcome(om.find_attribute, a, attr)
                    == _outcome(_ref_find_attribute, om, a, attr))
        for b in names:
            assert _outcome(om.is_subclass, a, b) == _outcome(_ref_is_subclass, om, a, b)
            for rel in rels:
                assert (_outcome(is_relationship_allowed, om, rel, a, b)
                        == _outcome(_ref_is_relationship_allowed, om, rel, a, b))


def test_default_tables_match_chain_walk(om):
    _assert_matches_reference(om)


@st.composite
def _acyclic_models(draw):
    """Random class forests (parents declared in any order), attributes
    unique along every chain, and random relationship rows."""
    classes = []
    for i in range(draw(st.integers(1, 7))):
        parent = draw(st.sampled_from([None] + [f"C{j}" for j in range(i)]))
        attrs = tuple(AttributeDef(f"a{i}_{k}", draw(st.sampled_from(["Real", "Vec2"])))
                      for k in range(draw(st.integers(0, 2))))
        classes.append(ClassDef(f"C{i}", parent, draw(st.booleans()), attrs))
    names = st.sampled_from([c.name for c in classes])
    rows = draw(st.lists(st.builds(RelationshipType, st.sampled_from(["r", "s", "t"]),
                                   names, names), unique=True, max_size=6))
    return ObjectModel(tuple(draw(st.permutations(classes))), tuple(rows))


@settings(max_examples=150, deadline=None)
@given(model=_acyclic_models())
def test_random_tables_match_chain_walk(model):
    _assert_matches_reference(model)
    assert parse_object_model(serialize_object_model(model)) == model


def _assert_ingest_tables(model):
    """The tables scene ingest reads agree with the per-class queries."""
    concrete = model.concrete_class_table()
    assert concrete == {name: (name, {a.name: a.type for a in _ref_attributes_of(model, name)})
                        for name in model.concrete_classes()}
    assert all(key is name for key, (name, _) in concrete.items())
    table = model.relationship_table()
    assert tuple(table) == model.relationship_names()
    assert all(key is value for key, value in table.items())


def test_default_ingest_tables(om):
    _assert_ingest_tables(om)


@settings(max_examples=50, deadline=None)
@given(model=_acyclic_models())
def test_random_ingest_tables(model):
    _assert_ingest_tables(model)


def test_schema_records_are_values():
    from scenemon.object_model import FunctionSymbol
    assert ClassDef("A", None, False) == ClassDef("A", None, False, ())
    assert ClassDef("A", None, False).attributes == ()
    assert ClassDef("A", "B", True, (AttributeDef("x", "Real"),)) != ClassDef("A", "B", True)
    records = [AttributeDef("x", "Real"), ClassDef("A", None, False),
               RelationshipType("r", "A", "B"), FunctionSymbol("f", ("node",), "Real")]
    for record in records:
        copy = type(record)(*(getattr(record, name) for name in _record_fields(record)))
        assert copy == record and hash(copy) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, _record_fields(record)[0], "other")
    assert RelationshipType("r", "A", "B") != RelationshipType("r", "B", "A")
    assert len({RelationshipType("r", "A", "B"), RelationshipType("r", "A", "B")}) == 1
    assert (AttributeDef("x", "Real").name, AttributeDef("x", "Real").type) == ("x", "Real")


def _record_fields(record):
    return {"AttributeDef": ("name", "type"),
            "ClassDef": ("name", "parent", "abstract", "attributes"),
            "RelationshipType": ("name", "source", "target"),
            "FunctionSymbol": ("name", "params", "result")}[type(record).__name__]
