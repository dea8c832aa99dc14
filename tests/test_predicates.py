"""Exact-boundary and epsilon semantics for predicate evaluation."""

import math
import random

import pytest

from scenemon import (
    Binding,
    Embedding,
    MissingAttributeError,
    SceneMonError,
    SceneObject,
    bind,
    compile_predicates,
    evaluate,
    find_embeddings,
    make_csg,
    parse_asg,
    sg_comparison,
)
from scenemon.dsl import And, AttrRef, BoolLit, Call, Compare, NodeRef, NumberLit, StringLit
from scenemon.object_model import NODE_PARAM
from scenemon.predicates import BUILTINS, _eval

from randscene import random_instance


def _single_pred_asg(om, pred_text, extra_nodes="", extra_edges=""):
    text = (
        'asg "t" { node ego: Vehicle; node lane: Lane; '
        + extra_nodes
        + "ego ego; edge ego isIn lane; "
        + extra_edges
        + f"assert {pred_text}; }}"
    )
    return parse_asg(text, om)


def _scene(om, *, ego_attrs=None, extra=(), edges=()):
    attrs = {"velocity": 0.0, "position": (0.0, 0.0)}
    if ego_attrs is not None:
        attrs = ego_attrs
    nodes = [SceneObject("ego", "Vehicle", attrs), SceneObject("lane1", "Lane", {})]
    nodes += list(extra)
    all_edges = [("ego", "isIn", "lane1")] + list(edges)
    return make_csg(om, 0.0, "ego", nodes, all_edges)


def _verdict(om, pred_text, csg, epsilon=0.0, **asg_kw):
    asg = _single_pred_asg(om, pred_text, **asg_kw)
    return sg_comparison(asg, csg, epsilon=epsilon)


def _eval_one(om, pred_text, csg, epsilon=0.0, **asg_kw):
    asg = _single_pred_asg(om, pred_text, **asg_kw)
    embs = find_embeddings(asg, csg)
    assert embs, "scene must embed the pattern for this helper"
    return evaluate(asg.predicates, bind(embs[0], csg), epsilon=epsilon)


def _static_at(x, y=0.0, v=0.0):
    return SceneObject("s1", "Static", {"velocity": v, "position": (x, y)})


def test_ge_holds_at_exact_threshold(om):
    csg = _scene(om, extra=[_static_at(15.0)], edges=[("s1", "isIn", "lane1")])
    ok, idx = _eval_one(om, "dist(ego, s1) >= 15",
                        csg, extra_nodes="node s1: Static; ",
                        extra_edges="edge s1 isIn lane; ")
    assert ok and idx is None


def test_gt_fails_at_exact_threshold(om):
    csg = _scene(om, extra=[_static_at(15.0)], edges=[("s1", "isIn", "lane1")])
    ok, idx = _eval_one(om, "dist(ego, s1) > 15",
                        csg, extra_nodes="node s1: Static; ",
                        extra_edges="edge s1 isIn lane; ")
    assert (ok, idx) == (False, 0)


def test_half_open_interval_bounds(om):
    # (0, 20]: inclusive only on the right
    for gap, expected in [(20.0, True), (20.000001, False), (0.0, False), (0.001, True)]:
        csg = _scene(om, extra=[_static_at(gap)], edges=[("s1", "isIn", "lane1")])
        ok, _ = _eval_one(om, "dist(ego, s1) in (0, 20]",
                          csg, extra_nodes="node s1: Static; ",
                          extra_edges="edge s1 isIn lane; ")
        assert ok is expected, gap


def test_closed_open_interval_bounds(om):
    for v, expected in [(0.0, True), (2.5, False), (2.4999, True), (-0.0001, False)]:
        csg = _scene(om, ego_attrs={"velocity": v, "position": (0.0, 0.0)})
        ok, _ = _eval_one(om, "ego.velocity in [0, 2.5)", csg)
        assert ok is expected, v


EPSILON_CASES = [
    # (predicate, velocity, epsilon, expected)
    ("ego.velocity == 10", 10.05, 0.1, True),
    ("ego.velocity == 10", 10.15, 0.1, False),
    ("ego.velocity == 10", 10.05, 0.0, False),
    ("ego.velocity != 10", 10.05, 0.1, False),
    ("ego.velocity != 10", 10.15, 0.1, True),
    ("ego.velocity < 10", 10.05, 0.1, True),
    ("ego.velocity < 10", 10.15, 0.1, False),
    ("ego.velocity <= 10", 10.05, 0.1, True),
    ("ego.velocity > 10", 9.95, 0.1, True),
    ("ego.velocity > 10", 9.85, 0.1, False),
    ("ego.velocity >= 10", 9.95, 0.1, True),
    ("ego.velocity >= 10", 9.85, 0.1, False),
    ("ego.velocity in [10, 20]", 9.95, 0.1, True),
    ("ego.velocity in [10, 20]", 20.05, 0.1, True),
    ("ego.velocity in (10, 20)", 9.95, 0.1, True),
    ("ego.velocity in (10, 20)", 9.89, 0.1, False),
]


@pytest.mark.parametrize("pred,velocity,epsilon,expected", EPSILON_CASES)
def test_epsilon_loosening(om, pred, velocity, epsilon, expected):
    csg = _scene(om, ego_attrs={"velocity": velocity, "position": (0.0, 0.0)})
    ok, _ = _eval_one(om, pred, csg, epsilon=epsilon)
    assert ok is expected


def test_open_interval_epsilon_keeps_strictness(om):
    # x > lo - eps is still strict: exactly lo - eps stays outside
    csg = _scene(om, ego_attrs={"velocity": 9.9, "position": (0.0, 0.0)})
    ok, _ = _eval_one(om, "ego.velocity in (10, 20)", csg, epsilon=0.1)
    assert ok is False


def test_first_failure_index_reported(om):
    asg = parse_asg(
        'asg "t" { node ego: Vehicle; node lane: Lane; ego ego; '
        "edge ego isIn lane; "
        "assert ego.velocity >= 0; "
        "assert ego.velocity > 5; "
        "assert ego.velocity > 99; }",
        om,
    )
    csg = _scene(om, ego_attrs={"velocity": 1.0, "position": (0.0, 0.0)})
    emb = find_embeddings(asg, csg)[0]
    assert evaluate(asg.predicates, bind(emb, csg)) == (False, 1)


def test_missing_attribute_names_pattern_node(om):
    csg = _scene(om, ego_attrs={"position": (0.0, 0.0)})
    asg = _single_pred_asg(om, "ego.velocity == 0")
    emb = find_embeddings(asg, csg)[0]
    with pytest.raises(MissingAttributeError) as exc:
        evaluate(asg.predicates, bind(emb, csg))
    assert exc.value.ref == "ego.velocity"


def test_missing_position_via_dist(om):
    extra = [SceneObject("s1", "Static", {"velocity": 0.0})]
    csg = _scene(om, extra=extra, edges=[("s1", "isIn", "lane1")])
    asg = _single_pred_asg(om, "dist(ego, s1) >= 1",
                           extra_nodes="node s1: Static; ",
                           extra_edges="edge s1 isIn lane; ")
    emb = find_embeddings(asg, csg)[0]
    with pytest.raises(MissingAttributeError) as exc:
        evaluate(asg.predicates, bind(emb, csg))
    assert exc.value.ref == "s1.position"


def test_dist_is_euclidean_and_symmetric(om):
    extra = [_static_at(3.0, 4.0)]
    csg = _scene(om, extra=extra, edges=[("s1", "isIn", "lane1")])
    ok, _ = _eval_one(om, "dist(ego, s1) == 5",
                      csg, extra_nodes="node s1: Static; ",
                      extra_edges="edge s1 isIn lane; ")
    assert ok
    ok, _ = _eval_one(om, "dist(s1, ego) == 5",
                      csg, extra_nodes="node s1: Static; ",
                      extra_edges="edge s1 isIn lane; ")
    assert ok


def test_conjunction_and_epsilon_scope(om):
    csg = _scene(om, ego_attrs={"velocity": 10.05, "position": (0.0, 0.0)})
    ok, _ = _eval_one(om, "ego.velocity >= 10 and ego.velocity <= 10", csg, epsilon=0.1)
    assert ok
    ok, idx = _eval_one(om, "ego.velocity >= 10 and ego.velocity <= 10", csg)
    assert (ok, idx) == (False, 0)


def test_int_and_real_compare_numerically(om):
    csg = _scene(om, ego_attrs={"velocity": 2, "position": (0, 0)})
    ok, _ = _eval_one(om, "ego.velocity == 2.0", csg)
    assert ok


def test_verdict_boundary_exactness_end_to_end(om):
    csg = _scene(om, extra=[_static_at(15.0)], edges=[("s1", "isIn", "lane1")])
    v = _verdict(om, "dist(ego, s1) >= 15", csg,
                 extra_nodes="node s1: Static; ",
                 extra_edges="edge s1 isIn lane; ")
    assert v.satisfied


# -- compiled predicates against the interpreter -----------------------------


def _outcome(run):
    """(ok, index), or the error a run raised, as comparable values."""
    try:
        return run()
    except MissingAttributeError as exc:
        return ("missing", exc.ref)
    except SceneMonError as exc:
        return ("error", str(exc))


def _reference(preds, emb, csg, epsilon):
    return _outcome(lambda: evaluate(preds, bind(emb, csg), epsilon=epsilon))


def _compiled(preds, emb, csg, epsilon):
    def run():
        mapping = emb.as_dict()
        for idx, pred in enumerate(compile_predicates(preds, epsilon=epsilon)):
            if not pred(csg.nodes, mapping):
                return False, idx
        return True, None
    return _outcome(run)


def _drop_attributes(rng, om, csg):
    nodes = [SceneObject(oid, obj.cls, {k: v for k, v in obj.attributes.items()
                                        if rng.random() < 0.7})
             for oid, obj in csg.nodes.items()]
    return make_csg(om, csg.timestamp, csg.ego_id, nodes, csg.edges)


def test_compiled_predicates_match_the_interpreter(om):
    rng = random.Random(20261018)
    outcomes = set()
    compared = 0
    for _ in range(1000):
        asg, csg = random_instance(rng, om)
        for scene in (csg, _drop_attributes(rng, om, csg)):
            for emb in find_embeddings(asg, scene):
                for epsilon in (0.0, 0.5):
                    want = _reference(asg.predicates, emb, scene, epsilon)
                    assert _compiled(asg.predicates, emb, scene, epsilon) == want
                    outcomes.add(want[0])
                    compared += 1
    assert compared > 800
    assert outcomes == {True, False, "missing"}


def test_compiled_predicates_keep_the_missing_reference(om):
    asg = _single_pred_asg(om, "dist(ego, rear) >= 15",
                           extra_nodes="node rear: Vehicle; ",
                           extra_edges="edge rear isIn lane; ")
    for rear_attrs, ego_attrs, ref in (
        ({"velocity": 1.0}, {"position": (0.0, 0.0)}, "rear.position"),
        ({"velocity": 1.0}, {"velocity": 1.0}, "ego.position"),
    ):
        csg = _scene(om, ego_attrs=ego_attrs,
                     extra=[SceneObject("r1", "Vehicle", rear_attrs)],
                     edges=[("r1", "isIn", "lane1")])
        emb = find_embeddings(asg, csg)[0]
        assert _compiled(asg.predicates, emb, csg, 0.0) == ("missing", ref)
        assert _reference(asg.predicates, emb, csg, 0.0) == ("missing", ref)


def _ast(cls, *fields):
    return cls(1, 1, *fields)


@pytest.mark.parametrize("pred", [
    # a false left side hides the missing attribute on the right
    _ast(And, _ast(Compare, ">", _ast(AttrRef, "ego", "velocity"), _ast(NumberLit, 5.0)),
         _ast(Compare, ">", _ast(AttrRef, "ego", "colour"), _ast(NumberLit, 0.0))),
    _ast(And, _ast(Compare, "<", _ast(AttrRef, "ego", "velocity"), _ast(NumberLit, 5.0)),
         _ast(Compare, ">", _ast(AttrRef, "ego", "colour"), _ast(NumberLit, 0.0))),
    _ast(Compare, "==", _ast(StringLit, "a"), _ast(StringLit, "a")),
    _ast(Compare, "<", _ast(StringLit, "a"), _ast(NumberLit, 1.0)),
    _ast(Compare, "~", _ast(NumberLit, 1.0), _ast(NumberLit, 1.0)),
    # no implementation: raises when evaluated, before reading any argument
    _ast(Compare, ">", _ast(Call, "heading", (_ast(NodeRef, "nobody"),)), _ast(NumberLit, 0.0)),
    _ast(NodeRef, "ego"),
])
def test_compiled_predicates_match_the_interpreter_off_the_grammar(om, pred):
    csg = _scene(om, ego_attrs={"velocity": 1.0, "position": (0.0, 0.0)})
    emb = find_embeddings(_single_pred_asg(om, "ego.velocity >= 0"), csg)[0]
    compiled = compile_predicates((pred,))  # compiling never raises
    assert len(compiled) == 1
    assert _compiled((pred,), emb, csg, 0.0) == _reference((pred,), emb, csg, 0.0)


def _value(run):
    """A run's value, or the reference of the attribute it found missing."""
    try:
        return run()
    except MissingAttributeError as exc:
        return ("missing", exc.ref)


def _random_position(rng):
    """Two coordinates, each a float, an integral float, an int or a tiny float."""
    return tuple(rng.choice((rng.uniform(-1e3, 1e3), float(rng.randint(-50, 50)),
                             rng.randint(-50, 50), rng.uniform(-1e-9, 1e-9)))
                 for _ in range(2))


@pytest.mark.parametrize("missing", [(), ("ego",), ("s1",), ("ego", "s1")])
def test_compiled_dist_matches_the_interpreter(om, missing):
    """`dist` over random positions, with `position` left out of the first
    argument, the second or both: both forms give the same value, or the
    same missing reference, the first argument's first."""
    rng = random.Random(f"dist {missing}")
    for _ in range(200):
        attrs = {pid: {"velocity": 0.0} if pid in missing else
                 {"velocity": 0.0, "position": _random_position(rng)} for pid in ("ego", "s1")}
        csg = _scene(om, ego_attrs=attrs["ego"], extra=[SceneObject("s1", "Static", attrs["s1"])],
                     edges=[("s1", "isIn", "lane1")])
        emb = Embedding.from_dict({"ego": "ego", "lane": "lane1", "s1": "s1"})
        for args in (("ego", "s1"), ("s1", "ego")):
            call = _ast(Call, "dist", tuple(_ast(NodeRef, a) for a in args))
            (compiled,) = compile_predicates((call,))
            got = _value(lambda: compiled(csg.nodes, emb.as_dict()))
            assert got == _value(lambda: _eval(call, bind(emb, csg), 0.0))
            absent = [a for a in args if a in missing]
            if absent:
                assert got == ("missing", f"{absent[0]}.position")
            else:
                (xa, ya), (xb, yb) = (attrs[a]["position"] for a in args)
                assert got == math.hypot(xa - xb, ya - yb)


def test_every_builtin_with_a_node_parameter_declares_its_reads(om):
    """A node argument becomes the values of the reads `BUILTINS` declares,
    so a builtin that takes a node with no reads would receive none."""
    for name, builtin in BUILTINS.items():
        fn = om.find_function(name)
        assert fn is not None, name
        if NODE_PARAM in fn.params:
            assert builtin.reads, name


# -- the compiled comparison rules against `_compare` ------------------------


def _float_operands():
    """(left, right) float pairs at, one step below and one step above each
    threshold where a rule can flip, at epsilon 0 and 0.5."""
    for right in (3.0, 0.1, -2.5):
        for threshold in (right, right - 0.5, right + 0.5):
            for left in (threshold, math.nextafter(threshold, -math.inf),
                         math.nextafter(threshold, math.inf)):
                yield left, right
                yield right, left


_MIXED_OPERANDS = [(2, 2.0), (3, 2.5), (2.0, 3), (True, 1.0), (0.0, False),
                   ("a", "a"), ("a", "b"), (True, True), (True, False)]


def _literal(value):
    cls = {bool: BoolLit, str: StringLit}.get(type(value), NumberLit)
    return _ast(cls, value)


def _outcome_or_error(run):
    try:
        return run()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
def test_compiled_comparisons_match_the_interpreter_for_every_operand_type(op):
    """The operator rule a comparison is lowered to, for two floats, and
    `_compare` for any other operands, against the interpreter."""
    outcomes = []
    for left, right in [*_float_operands(), *_MIXED_OPERANDS]:
        pred = _ast(Compare, op, _literal(left), _literal(right))
        for epsilon in (0.0, 0.5):
            (compiled,) = compile_predicates((pred,), epsilon=epsilon)
            got = _outcome_or_error(lambda: compiled({}, {}))
            want = _outcome_or_error(
                lambda: evaluate((pred,), Binding({}), epsilon=epsilon)[0])
            assert got == want, (left, right, epsilon)
            outcomes.append(want)
    assert True in outcomes and False in outcomes
    # ordering strings or bools raises, whichever form evaluates it
    assert any(isinstance(o, tuple) for o in outcomes) == (op not in ("==", "!="))
