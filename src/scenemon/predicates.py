"""Predicate evaluation over bound pattern nodes.

Once the matcher has mapped pattern nodes to scene objects, a Binding
snapshots the mapped objects' attribute values and the predicate list is
evaluated against it in declaration order, stopping at the first failure.

Comparisons are exact by default: dist(ego, obstacle) == 20.0 means float
equality, and interval bounds are honored exactly, so thresholds behave
boundary-inclusive or -exclusive precisely as written. An optional epsilon
loosens every numeric comparison by that margin for noisy inputs; 0.0 (the
default) keeps exact semantics.

A predicate that touches an attribute the scene did not provide raises
MissingAttributeError naming "<pattern-id>.<attribute>"; callers decide how
to surface it (the monitor turns it into an Error verdict, distinct from
Violated).

Two forms evaluate the same predicates. `compile_predicates` lowers each
predicate once per property into closures that read attribute values
straight from the scene's objects through a pattern-id -> object-id
mapping, so nothing is copied per embedding; the monitor uses that form.
`bind` plus `evaluate` interpret the syntax tree over a snapshot of the
matched objects. They are the reference that tests and the benchmark
check the compiled form against, as the exhaustive matcher is for the
search. Both call the builtins `dsl.BUILTINS` describes, the table the
property checker reads too; each writes the interval rule itself, in
`_eval` and in `_lower`'s `interval`.

A builtin's node argument stands for the attributes the builtin reads
from it, so `dist(ego, rear)` receives `ego.position` and
`rear.position`, and a missing one raises MissingAttributeError for the
first argument first. `Call.operands` holds the reads as `AttrRef`s,
which both forms evaluate as any other.

Lowering does once what depends on the predicate alone. A call holds its
builtin's implementation; a function with none lowers to a closure that
raises the interpreter's SceneMonError when evaluated, so compiling never
raises. A comparison with a number literal on the right, as every bundled
comparison has, holds the literal's value and its operator's rule from
`_NUMERIC_RULES`, and applies the rule directly when both operands are
floats. Any other comparison goes to `_compare`, which the interpreter
always uses: it is both the fallback and the reference the table is
tested against.
"""
from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import MissingAttributeError, SceneMonError
from .dsl import (
    BUILTINS,
    And,
    AttrRef,
    BoolLit,
    Call,
    Compare,
    Expr,
    InInterval,
    NumberLit,
    StringLit,
)
from .matching import Embedding
from .scene_graph import ConcreteSceneGraph, SceneObject


class BoundObject(NamedTuple):
    pattern_id: str
    object_id: str
    cls: str
    attributes: Mapping[str, object]

    def attribute(self, name: str) -> object:
        try:
            return self.attributes[name]
        except KeyError:
            raise MissingAttributeError(f"{self.pattern_id}.{name}") from None


class Binding(NamedTuple):
    """Pattern-id keyed snapshot of the matched objects' attribute values."""

    objects: Mapping[str, BoundObject]

    def __getitem__(self, pattern_id: str) -> BoundObject:  # by pattern id, not position
        return self.objects[pattern_id]


def bind(embedding: Embedding, csg: ConcreteSceneGraph) -> Binding:
    """Snapshot attribute values for every mapped object."""
    objects = {}
    for pid, oid in embedding.mapping:
        obj = csg.nodes[oid]
        objects[pid] = BoundObject(pid, oid, obj.cls, dict(obj.attributes))
    return Binding(objects)


def attribute_reads(predicates: Sequence[Expr]) -> dict[str, frozenset[str]]:
    """The attributes evaluating `predicates` may read, per pattern node. A
    function with no implementation reads none: it raises first."""
    reads: dict[str, set[str]] = {}
    stack = list(predicates)
    while stack:
        expr = stack.pop()
        if isinstance(expr, AttrRef):
            reads.setdefault(expr.node_id, set()).add(expr.attr)
        elif isinstance(expr, Call):
            stack += expr.operands
        else:
            stack += expr.children()
    return {pid: frozenset(names) for pid, names in reads.items()}


# The numeric rule of each comparison operator, on two floats and epsilon,
# as `_compare` applies it
_NUMERIC_RULES: dict[str, Callable[[float, float, float], bool]] = {
    "==": lambda a, b, epsilon: abs(a - b) <= epsilon,
    "!=": lambda a, b, epsilon: abs(a - b) > epsilon,
    "<": lambda a, b, epsilon: a < b + epsilon,
    "<=": lambda a, b, epsilon: a <= b + epsilon,
    ">": lambda a, b, epsilon: a > b - epsilon,
    ">=": lambda a, b, epsilon: a >= b - epsilon,
}


def _compare(op: str, left: object, right: object, epsilon: float) -> bool:
    if isinstance(left, (str, bool)) or isinstance(right, (str, bool)):
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        raise SceneMonError(f"operator {op} not defined for {left!r} and {right!r}")
    a = float(left)  # type: ignore[arg-type]
    b = float(right)  # type: ignore[arg-type]
    if op == "==":
        return abs(a - b) <= epsilon
    if op == "!=":
        return abs(a - b) > epsilon
    if op == "<":
        return a < b + epsilon
    if op == "<=":
        return a <= b + epsilon
    if op == ">":
        return a > b - epsilon
    if op == ">=":
        return a >= b - epsilon
    raise SceneMonError(f"unknown comparison operator {op}")


def _eval(expr: Expr, binding: Binding, epsilon: float) -> object:
    if isinstance(expr, NumberLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, StringLit):
        return expr.value
    if isinstance(expr, AttrRef):
        return binding[expr.node_id].attribute(expr.attr)
    if isinstance(expr, Call):
        builtin = BUILTINS.get(expr.fn)
        if builtin is None:
            raise SceneMonError(f"no implementation for function {expr.fn!r}")
        return builtin.impl(*[_eval(a, binding, epsilon) for a in expr.operands])
    if isinstance(expr, Compare):
        return _compare(expr.op,
                        _eval(expr.left, binding, epsilon),
                        _eval(expr.right, binding, epsilon),
                        epsilon)
    if isinstance(expr, InInterval):
        x = float(_eval(expr.value, binding, epsilon))  # type: ignore[arg-type]
        lo = float(_eval(expr.lo, binding, epsilon))  # type: ignore[arg-type]
        hi = float(_eval(expr.hi, binding, epsilon))  # type: ignore[arg-type]
        lo_ok = (x >= lo - epsilon) if expr.lo_closed else (x > lo - epsilon)
        hi_ok = (x <= hi + epsilon) if expr.hi_closed else (x < hi + epsilon)
        return lo_ok and hi_ok
    if isinstance(expr, And):
        return bool(_eval(expr.left, binding, epsilon)) and bool(
            _eval(expr.right, binding, epsilon))
    raise SceneMonError(f"cannot evaluate expression {expr!r}")


def evaluate(
    predicates: Sequence[Expr],
    binding: Binding,
    *,
    epsilon: float = 0.0,
) -> tuple[bool, int | None]:
    """Evaluate predicates in order against a binding.

    Returns (True, None) when every predicate holds, else (False, i) for the
    first failing predicate's index. Raises MissingAttributeError if a
    predicate touches an attribute the binding does not carry.
    """
    for idx, pred in enumerate(predicates):
        if not _eval(pred, binding, epsilon):
            return False, idx
    return True, None


# A compiled predicate: f(nodes, mapping) with `nodes` a scene's object
# table and `mapping` pattern id -> object id; returns what `_eval` would.
Compiled = Callable[[Mapping[str, SceneObject], Mapping[str, str]], object]


def compile_predicates(
    predicates: Sequence[Expr], *, epsilon: float = 0.0,
) -> tuple[Compiled, ...]:
    """Lower each predicate to a closure, once per property.

    A closure reads attribute values straight from the scene's objects
    through the mapping, so nothing is bound or copied per embedding. It
    gives the same values and raises the same errors, in the same order,
    as `evaluate` on a `bind` of the same embedding, which stays the
    reference it is tested against. A function's implementation is
    resolved here; a missing one still fails at evaluation time, not here.
    """
    return tuple(_lower(pred, epsilon) for pred in predicates)


def _lower(expr: Expr, epsilon: float) -> Compiled:
    if isinstance(expr, (NumberLit, BoolLit, StringLit)):
        value = expr.value
        return lambda nodes, mapping: value
    if isinstance(expr, AttrRef):
        return _lower_attribute(expr.node_id, expr.attr)
    if isinstance(expr, Call):
        fn = expr.fn
        builtin = BUILTINS.get(fn)
        if builtin is None:
            def missing(nodes, mapping):
                raise SceneMonError(f"no implementation for function {fn!r}")
            return missing
        impl, args = builtin.impl, [_lower(a, epsilon) for a in expr.operands]
        return lambda nodes, mapping: impl(*[arg(nodes, mapping) for arg in args])
    if isinstance(expr, Compare):
        return _lower_compare(expr, epsilon)
    if isinstance(expr, InInterval):
        x_of, lo_of, hi_of = (_lower(e, epsilon) for e in (expr.value, expr.lo, expr.hi))
        lo_closed, hi_closed = expr.lo_closed, expr.hi_closed

        def interval(nodes, mapping):
            x = float(x_of(nodes, mapping))  # type: ignore[arg-type]
            lo = float(lo_of(nodes, mapping))  # type: ignore[arg-type]
            hi = float(hi_of(nodes, mapping))  # type: ignore[arg-type]
            lo_ok = (x >= lo - epsilon) if lo_closed else (x > lo - epsilon)
            hi_ok = (x <= hi + epsilon) if hi_closed else (x < hi + epsilon)
            return lo_ok and hi_ok
        return interval
    if isinstance(expr, And):
        left, right = _lower(expr.left, epsilon), _lower(expr.right, epsilon)
        return lambda nodes, mapping: bool(left(nodes, mapping)) and bool(right(nodes, mapping))

    def unknown(nodes, mapping):
        raise SceneMonError(f"cannot evaluate expression {expr!r}")
    return unknown


def _lower_attribute(pid: str, name: str) -> Compiled:
    """An attribute of a pattern node: an `AttrRef`, written or one of a
    call's operands."""
    ref = f"{pid}.{name}"

    def attribute(nodes, mapping):
        attributes = nodes[mapping[pid]].attributes
        try:
            return attributes[name]
        except KeyError:
            raise MissingAttributeError(ref) from None
    return attribute


def _lower_compare(expr: Compare, epsilon: float) -> Compiled:
    """A comparison, with its operator's rule resolved and a number literal
    on the right held as its value."""
    op, rule = expr.op, _NUMERIC_RULES.get(expr.op)
    if isinstance(expr.right, NumberLit):
        left, b = _lower(expr.left, epsilon), expr.right.value

        def compare_to_literal(nodes, mapping):
            a = left(nodes, mapping)
            if a.__class__ is float and b.__class__ is float and rule is not None:
                return rule(a, b, epsilon)
            return _compare(op, a, b, epsilon)
        return compare_to_literal
    left, right = _lower(expr.left, epsilon), _lower(expr.right, epsilon)
    return lambda nodes, mapping: _compare(
        op, left(nodes, mapping), right(nodes, mapping), epsilon)
