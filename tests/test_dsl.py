import pytest

from scenemon import (
    SpecSyntaxError,
    SpecTypeError,
    bind,
    compile_predicates,
    evaluate,
    find_embeddings,
    load_asg,
    load_bundled_asg,
    parse_asg,
    parse_object_model,
    serialize_asg,
    serialize_object_model,
)
from scenemon.dsl import (
    And, AttrRef, BoolLit, Call, Compare, InInterval, NodeRef, NumberLit, StringLit)
from scenemon.lexing import KIND_IDENT, Token, tokenize

from conftest import halted_obstacle_scene

BUNDLED = ("obstacle-ahead", "P1-1", "P1-2", "P1-3",
           "P2-1", "P2-2", "P2-3", "P2-4", "P2-5")

SMALL = """
// standing in a parking spot
asg "parked" {
  node ego: Vehicle;
  node spot: ParkingSpot;
  ego ego;
  edge ego isIn spot;
  assert ego.velocity == 0;
}
"""


def test_parse_small(om):
    asg = parse_asg(SMALL, om)
    assert asg.name == "parked"
    assert asg.pattern_nodes == {"ego": "Vehicle", "spot": "ParkingSpot"}
    assert asg.pattern_edges == {("ego", "isIn", "spot")}
    assert asg.ego_pattern_id == "ego"
    assert len(asg.predicates) == 1
    assert asg.predicates[0].to_text() == "ego.velocity == 0"


def test_round_trip_structural_identity(om):
    asg = parse_asg(SMALL, om)
    again = parse_asg(serialize_asg(asg), om)
    assert again.pattern_nodes == asg.pattern_nodes
    assert again.pattern_edges == asg.pattern_edges
    assert again.predicates == asg.predicates
    assert serialize_asg(again) == serialize_asg(asg)


def test_number_formatting_minimal(om):
    asg = parse_asg(
        'asg "n" { node ego: Vehicle; ego ego; '
        'assert ego.velocity >= 15.0 and ego.velocity < 16.5; }', om)
    text = asg.predicates[0].to_text()
    assert ">= 15 " in text  # integral floats render without the trailing .0
    assert "16.5" in text


def test_negative_literal_and_interval(om):
    asg = parse_asg(
        'asg "n" { node ego: Vehicle; ego ego; '
        'assert ego.velocity in [-1, 2.5); }', om)
    assert asg.predicates[0].to_text() == "ego.velocity in [-1, 2.5)"
    with pytest.raises(SpecSyntaxError) as err:
        parse_asg('asg "a" { node e: Vehicle; ego e; assert e.velocity > - x; }', om)
    assert str(err.value) == "1:57: expected number after '-'"


@pytest.mark.parametrize("literal, column", [
    ("1" * 401, 25), ("-" + "1" * 401, 26), ("\u00b2", 25),
], ids=["401-digits", "negated-401-digits", "superscript-two"])
def test_number_literal_must_be_a_finite_float(om, literal, column):
    text = ('asg "n" {\n  node ego: Vehicle; ego ego;\n'
            f'  assert ego.velocity > {literal};\n}}')
    with pytest.raises(SpecSyntaxError) as err:
        parse_asg(text, om)
    assert (err.value.line, err.value.column) == (3, column)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_property_round_trips(om, name):
    asg = load_bundled_asg(name, om)
    assert parse_asg(serialize_asg(asg), om) == asg


def test_tiny_literal_round_trips_without_exponent(om):
    asg = parse_asg('asg "n" { node ego: Vehicle; ego ego; '
                    'assert ego.velocity > 0.0000000000000000000001; }', om)
    assert "e" not in asg.predicates[0].to_text().split(">")[1]
    assert parse_asg(serialize_asg(asg), om) == asg


def test_string_escapes(om):
    asg = parse_asg('asg "a \\"quoted\\" name" { node ego: Vehicle; ego ego; }', om)
    assert asg.name == 'a "quoted" name'
    assert parse_asg(serialize_asg(asg), om).name == asg.name


def test_reserved_word_rejected_with_position(om):
    with pytest.raises(SpecSyntaxError) as err:
        parse_asg('asg "r" {\n  node assert: Vehicle;\n  ego assert;\n}', om)
    assert err.value.line == 2


def test_missing_ego_rejected(om):
    with pytest.raises(SpecTypeError, match="ego"):
        parse_asg('asg "r" { node v: Vehicle; }', om)


def test_duplicate_node_rejected(om):
    with pytest.raises(SpecTypeError):
        parse_asg('asg "r" { node ego: Vehicle; node ego: Vehicle; ego ego; }', om)
    with pytest.raises(SpecTypeError) as err:
        parse_asg('asg "a" { node e: Vehicle; ego e; ego e; }', om)
    assert str(err.value) == "1:35: duplicate ego declaration"


def test_unknown_class_located(om):
    with pytest.raises(SpecTypeError) as err:
        parse_asg('asg "r" {\n  node ego: Bicycle;\n  ego ego;\n}', om)
    assert err.value.line == 2


def test_unknown_relationship_rejected(om):
    with pytest.raises(SpecTypeError):
        parse_asg(
            'asg "r" { node ego: Vehicle; node v: Vehicle; ego ego; '
            'edge ego follows v; }', om)


def test_disconnected_pattern_rejected(om):
    with pytest.raises(SpecTypeError):
        parse_asg('asg "r" { node ego: Vehicle; node l: Lane; ego ego; }', om)


def test_ego_must_be_vehicle_class(om):
    with pytest.raises(SpecTypeError):
        parse_asg('asg "r" { node ego: Static; ego ego; }', om)


def test_parse_asg_rejects_disconnected(om):
    with pytest.raises(SpecTypeError) as err:
        parse_asg('asg "broken" { node ego: Vehicle; node far: Lane; ego ego; }', om)
    assert str(err.value) == "1:40: pattern 'broken' is disconnected; unreachable: far"


def test_parse_asg_allows_abstract_pattern_classes(om):
    parse_asg('asg "ok" { node ego: Vehicle; node p: TrafficParticipant; ego ego; '
              'edge p inFrontOf ego; }', om)


def test_parse_asg_ego_class(om):
    with pytest.raises(SpecTypeError) as err:
        parse_asg('asg "bad-ego" { node ego: Static; ego ego; }', om)
    assert str(err.value) == (
        "1:27: pattern 'bad-ego': ego node has class Static, expected a Vehicle")


def test_parse_asg_ego_class_on_a_schema_without_a_vehicle_class(om):
    """The ego rule names a class the schema need not declare: then no ego
    is a Vehicle, and the property is refused at the ego's class."""
    cars = parse_object_model(serialize_object_model(om).replace("Vehicle", "Car"))
    with pytest.raises(SpecTypeError) as err:
        parse_asg('asg "cars" {\n  node ego: Car;\n  ego ego;\n}', cars)
    assert str(err.value) == "2:13: pattern 'cars': ego node has class Car, expected a Vehicle"


def test_parse_asg_rejects_a_pattern_edge_the_schema_does_not_admit(om):
    """isIn admits only a Lane or a ParkingSpot as its target."""
    with pytest.raises(SpecTypeError) as err:
        parse_asg('asg "r" { node ego: Vehicle; node o: Static; ego ego; '
                  'edge ego isIn o; }', om)
    assert str(err.value) == (
        "1:64: pattern 'r': edge (ego, isIn, o) not allowed for Vehicle -> Static")


# type checking


def _expr_asg(om, pred, extra=""):
    return parse_asg(
        'asg "t" { node ego: Vehicle; node other: Static; node lane: Lane; '
        'ego ego; edge ego isIn lane; edge other isIn lane; ' + extra +
        f'assert {pred}; }}', om)


def test_velocity_compares_with_numbers(om):
    _expr_asg(om, "ego.velocity >= 6")
    _expr_asg(om, "dist(ego, other) in (0, 20]")
    _expr_asg(om, "ego.velocity == 0 and other.velocity == 0")


def test_bool_number_comparison_rejected(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "ego.velocity == true")


def test_ordering_on_bool_rejected(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "true < false")


def test_vec2_equality_rejected(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "ego.position == other.position")


def test_function_without_implementation_located(om):
    """A function the object model declares but the monitor cannot evaluate
    is rejected when the property is parsed, not when a scene reaches it."""
    heading_om = parse_object_model(serialize_object_model(om) + "fn heading(node) -> Real;\n")
    text = 'asg "r" {\n  node ego: Vehicle;\n  ego ego;\n  assert heading(ego) > 0;\n}'
    with pytest.raises(SpecTypeError) as err:
        parse_asg(text, heading_om)
    assert str(err.value) == "4:10: function 'heading' has no implementation"
    assert (err.value.line, err.value.column) == (4, 10)


def test_string_and_bool_literals_round_trip_and_evaluate(om):
    text = ('asg "lits" { node ego: Vehicle; ego ego; assert "a\\"b" == "a\\"b"; '
            'assert true != false; assert "a" == "b"; }')
    asg = parse_asg(text, om)
    assert [p.to_text() for p in asg.predicates] == [
        '"a\\"b" == "a\\"b"', "true != false", '"a" == "b"']
    assert all(p.pattern_ids() == frozenset() for p in asg.predicates)
    assert serialize_asg(asg) == (
        'asg "lits" {\n  node ego: Vehicle;\n  ego ego;\n  assert "a\\"b" == "a\\"b";\n'
        '  assert true != false;\n  assert "a" == "b";\n}\n')
    assert parse_asg(serialize_asg(asg), om) == asg
    csg = halted_obstacle_scene(om)
    (emb,) = find_embeddings(asg, csg)
    assert evaluate(asg.predicates, bind(emb, csg)) == (False, 2)
    assert [f(csg.nodes, emb.as_dict()) for f in compile_predicates(asg.predicates)] == [
        True, True, False]


def test_unknown_attribute_names_class(om):
    with pytest.raises(SpecTypeError, match="Lane"):
        _expr_asg(om, "lane.velocity == 0")


def test_call_arity_checked(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "dist(ego) > 1")


def test_call_node_args_must_be_declared(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "dist(ego, ghost) > 1")


def test_unknown_function_rejected(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "gap(ego, other) > 1")


def test_bare_node_outside_call_rejected(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "ego == other")


def test_and_needs_bool_operands(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "ego.velocity and true")


def test_interval_needs_numeric_subject(om):
    with pytest.raises(SpecTypeError):
        _expr_asg(om, "true in (0, 1)")


def test_assert_must_be_bool(om):
    with pytest.raises(SpecTypeError, match="Bool"):
        parse_asg('asg "t" { node ego: Vehicle; ego ego; assert ego.velocity; }', om)


def test_syntax_error_positions_are_one_based(om):
    with pytest.raises(SpecSyntaxError) as err:
        parse_asg('asg "x" {', om)
    assert err.value.line >= 1
    assert err.value.column >= 1


def test_load_asg_from_file(tmp_path, om):
    path = tmp_path / "p.asg"
    path.write_text(SMALL, encoding="utf-8")
    assert load_asg(str(path), om).name == "parked"


# value semantics of the syntax tree and its tokens


def _tree(line=1, column=1):
    """One tree holding each of the nine node types, every node at
    (`line`, `column`)."""
    at = (line, column)
    return And(*at,
               InInterval(*at, Call(*at, "dist", (NodeRef(*at, "ego"), NodeRef(*at, "v"))),
                          NumberLit(*at, 0.0), NumberLit(*at, 20.5), False, True),
               And(*at, Compare(*at, "!=", AttrRef(*at, "ego", "velocity"), NumberLit(*at, -1.0)),
                   Compare(*at, "==", BoolLit(*at, True), StringLit(*at, 'a"b'))))


def test_syntax_tree_equality_ignores_positions():
    assert _tree(1, 1) == _tree(7, 3)
    assert hash(_tree(1, 1)) == hash(_tree(7, 3))
    assert _tree() != _tree().left
    assert len({_tree(1, 1), _tree(2, 2), _tree().left}) == 2


def test_syntax_nodes_of_different_types_differ():
    assert NodeRef(1, 1, "a") != StringLit(1, 1, "a")
    assert StringLit(1, 1, "a") != NodeRef(1, 1, "a")
    assert NodeRef(1, 1, "a") != "a"
    assert len({NodeRef(1, 1, "a"), StringLit(1, 1, "a"), NodeRef(2, 5, "a")}) == 2


def test_syntax_nodes_refuse_assignment():
    tree = _tree()
    for node, name in ((tree, "left"), (tree, "line"), (tree.left.value, "fn"),
                       (tree.left.value, "operands")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert tree == _tree()


def test_syntax_tree_repr_is_pinned():
    assert repr(_tree(2, 9)) == (
        "And(line=2, column=9, left=InInterval(line=2, column=9, value=Call(line=2, column=9, "
        "fn='dist', args=(NodeRef(line=2, column=9, name='ego'), NodeRef(line=2, column=9, "
        "name='v'))), lo=NumberLit(line=2, column=9, value=0.0), hi=NumberLit(line=2, "
        "column=9, value=20.5), lo_closed=False, hi_closed=True), right=And(line=2, column=9, "
        "left=Compare(line=2, column=9, op='!=', left=AttrRef(line=2, column=9, node_id='ego', "
        "attr='velocity'), right=NumberLit(line=2, column=9, value=-1.0)), "
        "right=Compare(line=2, column=9, op='==', left=BoolLit(line=2, column=9, value=True), "
        "right=StringLit(line=2, column=9, value='a\"b'))))")


def test_a_call_operand_is_an_attribute_reference_at_its_argument():
    call = _tree(4, 2).left.value
    assert call.operands == (AttrRef(4, 2, "ego", "position"), AttrRef(4, 2, "v", "position"))
    assert call.operands is call.operands
    assert [(o.line, o.column) for o in call.operands] == [(4, 2), (4, 2)]


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)


def test_pattern_ids_is_the_union_over_the_children():
    """Every node of `_tree`, in the order `children` gives, with the pattern
    nodes it names: a reference its node, a literal none, and any other
    node the union over its children. A call's children are its arguments
    as written."""
    tree = _tree()
    assert tree.left.value.children() == tree.left.value.args
    assert [(type(e).__name__, e.pattern_ids()) for e in _walk(tree)] == [
        ("And", {"ego", "v"}),
        ("InInterval", {"ego", "v"}),
        ("Call", {"ego", "v"}),
        ("NodeRef", {"ego"}),
        ("NodeRef", {"v"}),
        ("NumberLit", set()),
        ("NumberLit", set()),
        ("And", {"ego"}),
        ("Compare", {"ego"}),
        ("AttrRef", {"ego"}),
        ("NumberLit", set()),
        ("Compare", set()),
        ("BoolLit", set()),
        ("StringLit", set()),
    ]


def test_tokens_are_values_with_a_compact_repr():
    tok = Token(KIND_IDENT, "ego", 2, 5)
    assert tok == Token(KIND_IDENT, "ego", 2, 5)
    assert tok != Token(KIND_IDENT, "ego", 2, 6)
    assert hash(tok) == hash(Token(KIND_IDENT, "ego", 2, 5))
    assert (tok.kind, tok.text, tok.line, tok.column) == (KIND_IDENT, "ego", 2, 5)
    assert repr(tokenize('a // c\n "s" 1.5 ->')) == (
        "[IDENT('a')@1:1, STRING('s')@2:2, NUMBER('1.5')@2:6, PUNCT('->')@2:10, EOF('')@2:12]")
    with pytest.raises(AttributeError):
        tok.text = "other"


@pytest.mark.parametrize("text, idents, eof", [
    ("a // to the end", [("a", 1, 1)], (1, 3)),
    ("a // then\n  b", [("a", 1, 1), ("b", 2, 3)], (2, 4)),
    ("//\n//x\n\n  c //", [("c", 4, 3)], (4, 5)),
])
def test_comments_end_at_the_line_break(text, idents, eof):
    tokens = tokenize(text)
    assert [(t.text, t.line, t.column) for t in tokens if t.kind == "IDENT"] == idents
    assert (tokens[-1].kind, tokens[-1].line, tokens[-1].column) == ("EOF", *eof)


@pytest.mark.parametrize("text, message", [
    ("a // ok\n  #", "2:3: unexpected character '#'"),
    ('a // "\n "open', "2:2: unterminated string literal"),
])
def test_errors_after_a_comment_are_located(text, message):
    with pytest.raises(SpecSyntaxError) as err:
        tokenize(text)
    assert str(err.value) == message
