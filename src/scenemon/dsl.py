"""Property-spec language for abstract scene graphs.

One `.asg` file holds one property in block form:

    // braking trigger: a halted obstacle close ahead in the ego's lane
    asg "obstacle-ahead" {
      node ego: Vehicle;
      node obstacle: Static;
      node lane: Lane;
      ego ego;
      edge ego isIn lane;
      edge obstacle isIn lane;
      edge obstacle inFrontOf ego;
      assert obstacle.velocity == 0;
      assert dist(ego, obstacle) in (0, 20];
    }

`assert` statements become the property's ordered predicate list; their
order is the order violation causes are reported in. The expression grammar
covers comparisons, closed/open interval membership, function calls over
pattern nodes, and `and` conjunction; see docs/asg-grammar.ebnf.

The parser is hand-written recursive descent over the shared tokenizer so
errors carry exact line/column positions, and parsing is total: any input
either yields an AbstractSceneGraph or raises a located package error.

The bundled properties are loaded here too (`load_bundled_asg`,
`builtin_asgs`), with the phase names of each built-in scenario
(`SCENARIO_PHASES`), so monitoring imports no scenario generator.

`parse_asg` is a property's one checker: one that could never be
evaluated is refused at load, not reported on every scene. A builtin call
is checked as it will run: the schema must declare the signature in
`BUILTINS`, the table of builtins defined here for the checker and both
evaluators in `predicates`, and a node argument is checked as the
`AttrRef`s it stands for (`Call.operands`), so `dist(ego, lane)` is
refused at `lane` as `lane.position` would be.
"""
from __future__ import annotations

import math
from functools import cached_property
from importlib import resources
from typing import Callable, NamedTuple, Sequence

from .errors import SpecSyntaxError, SpecTypeError, parse_file
from .frozen import Frozen
from .lexing import (
    KIND_EOF,
    KIND_IDENT,
    KIND_NUMBER,
    KIND_STRING,
    Token,
    TokenStream,
    tokenize,
)
from .object_model import (NODE_PARAM, AttributeDef, ObjectModel, default_object_model,
                           is_relationship_allowed)
from .scene_graph import AbstractSceneGraph, pattern_distances

# "ego" stays legal as a node id: the ego declaration is identified by its
# statement position, so the conventional `node ego: Vehicle; ego ego;`
# spelling stays unambiguous.
RESERVED = frozenset({"asg", "node", "edge", "assert", "and", "in", "true", "false"})

_COMPARE_OPS = ("==", "!=", "<=", ">=", "<", ">")


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    from decimal import Decimal  # only serialization loads it

    # the shortest round-tripping digits, without the exponent repr() may use
    return format(Decimal(repr(float(value))), "f")


class Expr(Frozen):
    """Base expression node: an immutable value of its class and the fields
    the class annotates, built from its position and then those fields.

    Positions point at the node's first token; they inform error messages
    only and are excluded from structural equality so a re-parsed
    serialization compares equal to its source AST.
    """

    line: int
    column: int

    def __init__(self, line: int, column: int, *values: object) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True), line=line, column=column)

    def __repr__(self) -> str:  # as a dataclass shows it
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in ("line", "column", *self._fields))
        return f"{type(self).__qualname__}({shown})"

    def children(self) -> tuple[Expr, ...]:
        """The subexpressions: each `Expr` field and tuple field member, in order."""
        out: list[Expr] = []
        for name in self._fields:
            value = self.__dict__[name]
            if isinstance(value, Expr):
                out.append(value)
            elif isinstance(value, tuple):
                out += value
        return tuple(out)

    def pattern_ids(self) -> frozenset[str]:
        """The pattern nodes the expression names."""
        return frozenset().union(*[child.pattern_ids() for child in self.children()])

    def to_text(self) -> str:
        raise NotImplementedError


class NumberLit(Expr):
    value: float

    def to_text(self) -> str:
        return _fmt_number(self.value)


class BoolLit(Expr):
    value: bool

    def to_text(self) -> str:
        return "true" if self.value else "false"


class StringLit(Expr):
    value: str

    def to_text(self) -> str:
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


class NodeRef(Expr):
    """Bare pattern-node reference; only valid as a function argument."""

    name: str

    def pattern_ids(self) -> frozenset[str]:
        return frozenset({self.name})

    def to_text(self) -> str:
        return self.name


class AttrRef(Expr):
    node_id: str
    attr: str

    def pattern_ids(self) -> frozenset[str]:
        return frozenset({self.node_id})

    def to_text(self) -> str:
        return f"{self.node_id}.{self.attr}"


def dist(pa: Sequence[float], pb: Sequence[float]) -> float:
    """Euclidean distance between two positions."""
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


class Builtin(NamedTuple):
    """A builtin function as the checker and both evaluators see it."""

    impl: Callable[..., object]
    nodes: int  # the pattern-node arguments it takes; it takes no others
    reads: tuple[AttributeDef, ...]  # read from each node argument, in order
    result: str


BUILTINS = {"dist": Builtin(dist, 2, (AttributeDef("position", "Vec2"),), "Real")}


class Call(Expr):
    fn: str
    args: tuple[Expr, ...]

    def to_text(self) -> str:
        return f"{self.fn}({', '.join(a.to_text() for a in self.args)})"

    @cached_property
    def operands(self) -> tuple[Expr, ...]:
        """The builtin's arguments, built on first use: each pattern-node
        argument becomes an `AttrRef` at its position for each attribute
        the builtin reads, and any other stays. A function with no builtin
        receives none."""
        builtin = BUILTINS.get(self.fn)
        if builtin is None:
            return ()
        operands: list[Expr] = []
        for a in self.args:
            if isinstance(a, NodeRef):
                operands += [AttrRef(a.line, a.column, a.name, read.name)
                             for read in builtin.reads]
            else:
                operands.append(a)
        return tuple(operands)


class Compare(Expr):
    op: str
    left: Expr
    right: Expr

    def to_text(self) -> str:
        return f"{self.left.to_text()} {self.op} {self.right.to_text()}"


class InInterval(Expr):
    """value in (lo, hi] style membership; each bound open or closed."""

    value: Expr
    lo: Expr
    hi: Expr
    lo_closed: bool
    hi_closed: bool

    def to_text(self) -> str:
        lo_b = "[" if self.lo_closed else "("
        hi_b = "]" if self.hi_closed else ")"
        return (f"{self.value.to_text()} in {lo_b}{self.lo.to_text()}, "
                f"{self.hi.to_text()}{hi_b}")


class And(Expr):
    left: Expr
    right: Expr

    def to_text(self) -> str:
        return f"{self.left.to_text()} and {self.right.to_text()}"


# -- parsing ---------------------------------------------------------------


def parse_asg(text: str, om: ObjectModel) -> AbstractSceneGraph:
    """Parse and type-check one property spec against an object model.

    Raises SpecSyntaxError for malformed text, and SpecTypeError for
    well-formed text that misuses the vocabulary, for an ego that is no
    Vehicle (at its class), an edge the schema does not admit (at its
    relationship) and a pattern that is disconnected when read undirected
    (at the first unreachable node declared). Pattern classes may be
    abstract.
    """
    ts = TokenStream(tokenize(text))
    open_tok = ts.expect_keyword("asg")
    name_tok = ts.peek()
    if name_tok.kind != KIND_STRING:
        raise SpecSyntaxError("expected property name string after 'asg'",
                              name_tok.line, name_tok.column)
    ts.next()
    ts.expect_punct("{")
    nodes: dict[str, str] = {}
    node_tokens: dict[str, tuple[Token, Token]] = {}  # each node's id and class
    edges: list[tuple[str, str, str]] = []
    edge_tokens: list[Token] = []
    ego_id: str | None = None
    predicates: list[Expr] = []
    while not ts.accept_punct("}"):
        tok = ts.peek()
        if tok.kind == KIND_EOF:
            raise SpecSyntaxError("unexpected end of input inside asg block",
                                  tok.line, tok.column)
        if ts.at_keyword("node"):
            ts.next()
            id_tok = ts.expect_ident("pattern node id")
            if id_tok.text in RESERVED:
                raise SpecSyntaxError(f"{id_tok.text!r} is a reserved word",
                                      id_tok.line, id_tok.column)
            ts.expect_punct(":")
            cls_tok = ts.expect_ident("class name")
            ts.expect_punct(";")
            if id_tok.text in nodes:
                raise SpecTypeError(f"duplicate pattern node {id_tok.text!r}",
                                    id_tok.line, id_tok.column)
            nodes[id_tok.text] = cls_tok.text
            node_tokens[id_tok.text] = (id_tok, cls_tok)
        elif ts.at_keyword("edge"):
            ts.next()
            src_tok = ts.expect_ident("source node id")
            rel_tok = ts.expect_ident("relationship name")
            dst_tok = ts.expect_ident("target node id")
            ts.expect_punct(";")
            edges.append((src_tok.text, rel_tok.text, dst_tok.text))
            edge_tokens.append(rel_tok)
        elif ts.at_keyword("ego"):
            ego_tok = ts.next()
            id_tok = ts.expect_ident("ego node id")
            ts.expect_punct(";")
            if ego_id is not None:
                raise SpecTypeError("duplicate ego declaration",
                                    ego_tok.line, ego_tok.column)
            ego_id = id_tok.text
        elif ts.at_keyword("assert"):
            ts.next()
            predicates.append(_parse_expr(ts))
            ts.expect_punct(";")
        else:
            raise SpecSyntaxError(
                f"expected node, edge, ego, or assert, found {tok.text or 'end of input'!r}",
                tok.line, tok.column)
    ts.expect_eof()
    if ego_id is None:
        raise SpecTypeError("missing ego declaration", open_tok.line, open_tok.column)
    if ego_id not in nodes:
        raise SpecTypeError(f"ego references undeclared node {ego_id!r}",
                            open_tok.line, open_tok.column)
    for _, cls_tok in node_tokens.values():
        if not om.has_class(cls_tok.text):
            raise SpecTypeError(f"unknown class {cls_tok.text!r}",
                                cls_tok.line, cls_tok.column)
    for (src, rel, dst), rel_tok in zip(edges, edge_tokens):
        for pid in (src, dst):
            if pid not in nodes:
                raise SpecTypeError(f"edge references undeclared node {pid!r}",
                                    rel_tok.line, rel_tok.column)
        if rel not in om.relationship_names():
            raise SpecTypeError(f"unknown relationship {rel!r}",
                                rel_tok.line, rel_tok.column)
    for pred in predicates:
        t = _check_expr(pred, nodes, om)
        if t != "Bool":
            raise SpecTypeError(f"assert expression has type {t}, expected Bool",
                                pred.line, pred.column)
    name = name_tok.text
    if "Vehicle" not in om.ancestors(nodes[ego_id]):
        _, cls_tok = node_tokens[ego_id]
        raise SpecTypeError(
            f"pattern {name!r}: ego node has class {nodes[ego_id]}, expected a Vehicle",
            cls_tok.line, cls_tok.column)
    for (src, rel, dst), rel_tok in zip(edges, edge_tokens):
        if not is_relationship_allowed(om, rel, nodes[src], nodes[dst]):
            raise SpecTypeError(
                f"pattern {name!r}: edge ({src}, {rel}, {dst}) not allowed for "
                f"{nodes[src]} -> {nodes[dst]}", rel_tok.line, rel_tok.column)
    reached = pattern_distances(edges, next(iter(nodes)))
    if len(reached) != len(nodes):
        missing = [pid for pid in nodes if pid not in reached]
        id_tok, _ = node_tokens[missing[0]]
        raise SpecTypeError(
            f"pattern {name!r} is disconnected; unreachable: {', '.join(sorted(missing))}",
            id_tok.line, id_tok.column)
    return AbstractSceneGraph(
        name=name,
        pattern_nodes=nodes,
        pattern_edges=frozenset(edges),
        ego_pattern_id=ego_id,
        predicates=tuple(predicates),
        om=om,
    )


def load_asg(path: str, om: ObjectModel) -> AbstractSceneGraph:
    """Parse the property file `path`; an error in it names the file."""
    return parse_file(path, parse_asg, om)


# The phases of each built-in scenario, in order, each named after the
# bundled property it is monitored against; the scenario scripts read it
SCENARIO_PHASES = {
    "P1": ("P1-1", "P1-2", "P1-3"),
    "P2": ("P2-1", "P2-2", "P2-3", "P2-4", "P2-5"),
}

# each bundled property -> its file in scenemon/assets
_ASSET_FILES = {name: name.lower().replace("-", "_") + ".asg"
                for name in ("obstacle-ahead", *SCENARIO_PHASES["P1"], *SCENARIO_PHASES["P2"])}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(SCENARIO_PHASES))


def _bundled_text(filename: str) -> str:
    return (resources.files("scenemon.assets") / filename).read_text("utf-8")


def load_bundled_asg(name: str, om: ObjectModel | None = None) -> AbstractSceneGraph:
    """Load one of the shipped properties by name (e.g. ``"P1-2"``)."""
    if om is None:
        om = default_object_model()
    try:
        filename = _ASSET_FILES[name]
    except KeyError:
        raise ValueError(
            f"unknown bundled property {name!r}; expected one of "
            f"{sorted(_ASSET_FILES)}"
        ) from None
    return parse_asg(_bundled_text(filename), om)


def builtin_asgs(
    scenario: str, om: ObjectModel | None = None
) -> tuple[AbstractSceneGraph, ...]:
    """The phase properties of a built-in scenario, in phase order."""
    if scenario not in SCENARIO_PHASES:
        raise ValueError(
            f"unknown scenario {scenario!r}; expected one of {scenario_names()}")
    return tuple(load_bundled_asg(name, om) for name in SCENARIO_PHASES[scenario])


def _parse_expr(ts: TokenStream) -> Expr:
    left = _parse_comparison(ts)
    while ts.at_keyword("and"):
        and_tok = ts.next()
        right = _parse_comparison(ts)
        left = And(and_tok.line, and_tok.column, left, right)
    return left


def _parse_comparison(ts: TokenStream) -> Expr:
    left = _parse_operand(ts)
    for op in _COMPARE_OPS:
        if ts.at_punct(op):
            ts.next()
            right = _parse_operand(ts)
            return Compare(left.line, left.column, op, left, right)
    if ts.at_keyword("in"):
        ts.next()
        tok = ts.peek()
        if ts.accept_punct("("):
            lo_closed = False
        elif ts.accept_punct("["):
            lo_closed = True
        else:
            raise SpecSyntaxError("expected '(' or '[' to open interval", tok.line, tok.column)
        lo = _parse_operand(ts)
        ts.expect_punct(",")
        hi = _parse_operand(ts)
        tok = ts.peek()
        if ts.accept_punct(")"):
            hi_closed = False
        elif ts.accept_punct("]"):
            hi_closed = True
        else:
            raise SpecSyntaxError("expected ')' or ']' to close interval", tok.line, tok.column)
        return InInterval(left.line, left.column, left, lo, hi, lo_closed, hi_closed)
    return left


def _number(tok: Token) -> float:
    """The value of a number token; SpecSyntaxError there unless it is a
    finite float."""
    try:
        value = float(tok.text)
    except ValueError:  # the lexer takes any Unicode digit, float() not all
        raise SpecSyntaxError(f"invalid number {tok.text!r}", tok.line, tok.column) from None
    if not math.isfinite(value):
        raise SpecSyntaxError("number out of the float range", tok.line, tok.column)
    return value


def _parse_operand(ts: TokenStream) -> Expr:
    tok = ts.peek()
    if ts.accept_punct("-"):
        num = ts.peek()
        if num.kind != KIND_NUMBER:
            raise SpecSyntaxError("expected number after '-'", num.line, num.column)
        ts.next()
        return NumberLit(tok.line, tok.column, -_number(num))
    if tok.kind == KIND_NUMBER:
        ts.next()
        return NumberLit(tok.line, tok.column, _number(tok))
    if tok.kind == KIND_STRING:
        ts.next()
        return StringLit(tok.line, tok.column, tok.text)
    if tok.kind == KIND_IDENT:
        if tok.text == "true":
            ts.next()
            return BoolLit(tok.line, tok.column, True)
        if tok.text == "false":
            ts.next()
            return BoolLit(tok.line, tok.column, False)
        ts.next()
        if ts.accept_punct("."):
            attr_tok = ts.expect_ident("attribute name")
            return AttrRef(tok.line, tok.column, tok.text, attr_tok.text)
        if ts.accept_punct("("):
            args: list[Expr] = []
            if not ts.at_punct(")"):
                while True:
                    args.append(_parse_operand(ts))
                    if not ts.accept_punct(","):
                        break
            ts.expect_punct(")")
            return Call(tok.line, tok.column, tok.text, tuple(args))
        return NodeRef(tok.line, tok.column, tok.text)
    raise SpecSyntaxError(f"expected expression, found {tok.text or 'end of input'!r}",
                          tok.line, tok.column)


# -- type checking ---------------------------------------------------------

_NUMERIC = ("Real", "Int")


def _is_numeric(t: str) -> bool:
    return t in _NUMERIC


def _signature(fn: str, params: tuple[str, ...], result: str) -> str:
    return f"{fn}({', '.join(params)}) -> {result}"


def _check_expr(expr: Expr, nodes: dict[str, str], om: ObjectModel) -> str:
    """Return the expression's base type, raising SpecTypeError on misuse."""
    if isinstance(expr, NumberLit):
        return "Real"
    if isinstance(expr, BoolLit):
        return "Bool"
    if isinstance(expr, StringLit):
        return "String"
    if isinstance(expr, NodeRef):
        raise SpecTypeError(
            f"pattern node {expr.name!r} can only appear as a function argument",
            expr.line, expr.column)
    if isinstance(expr, AttrRef):
        if expr.node_id not in nodes:
            raise SpecTypeError(f"unknown pattern node {expr.node_id!r}",
                                expr.line, expr.column)
        cls = nodes[expr.node_id]
        decl = om.find_attribute(cls, expr.attr)
        if decl is None:
            raise SpecTypeError(f"class {cls} has no attribute {expr.attr!r}",
                                expr.line, expr.column)
        return decl.type
    if isinstance(expr, Call):
        fn = om.find_function(expr.fn)
        if fn is None:
            raise SpecTypeError(f"unknown function {expr.fn!r}", expr.line, expr.column)
        builtin = BUILTINS.get(expr.fn)
        if builtin is None:
            raise SpecTypeError(f"function {expr.fn!r} has no implementation",
                                expr.line, expr.column)
        params = (NODE_PARAM,) * builtin.nodes
        if (fn.params, fn.result) != (params, builtin.result):
            raise SpecTypeError(
                f"function {expr.fn} is declared {_signature(expr.fn, fn.params, fn.result)}, "
                f"its implementation is {_signature(expr.fn, params, builtin.result)}",
                expr.line, expr.column)
        if len(expr.args) != len(params):
            raise SpecTypeError(
                f"function {expr.fn} expects {len(params)} arguments, got {len(expr.args)}",
                expr.line, expr.column)
        for arg in expr.args:
            if not isinstance(arg, NodeRef):
                raise SpecTypeError(
                    f"function {expr.fn} expects a pattern node here",
                    arg.line, arg.column)
        # the AttrRef rule, which also finds an undeclared node
        for operand, read in zip(expr.operands, builtin.reads * builtin.nodes):
            t = _check_expr(operand, nodes, om)
            if t != read.type:
                raise SpecTypeError(
                    f"function {expr.fn} reads {operand.to_text()} as {read.type}, got {t}",
                    operand.line, operand.column)
        return builtin.result
    if isinstance(expr, Compare):
        lt = _check_expr(expr.left, nodes, om)
        rt = _check_expr(expr.right, nodes, om)
        if _is_numeric(lt) and _is_numeric(rt):
            return "Bool"
        if expr.op in ("==", "!=") and lt == rt and lt in ("Bool", "String"):
            return "Bool"
        raise SpecTypeError(f"cannot compare {lt} {expr.op} {rt}", expr.line, expr.column)
    if isinstance(expr, InInterval):
        for part, what in ((expr.value, "interval subject"), (expr.lo, "lower bound"),
                           (expr.hi, "upper bound")):
            t = _check_expr(part, nodes, om)
            if not _is_numeric(t):
                raise SpecTypeError(f"{what} must be numeric, got {t}",
                                    part.line, part.column)
        return "Bool"
    if isinstance(expr, And):
        for side in (expr.left, expr.right):
            t = _check_expr(side, nodes, om)
            if t != "Bool":
                raise SpecTypeError(f"'and' operand must be Bool, got {t}",
                                    side.line, side.column)
        return "Bool"
    raise SpecTypeError(f"unsupported expression {expr!r}", expr.line, expr.column)


# -- serialization ---------------------------------------------------------


def serialize_asg(asg: AbstractSceneGraph) -> str:
    """Render an ASG back to spec text.

    Canonical form: nodes in declaration order, sorted edges, predicates in
    their reporting order. parse_asg(serialize_asg(a)) is structurally equal
    to `a`.
    """
    name = asg.name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'asg "{name}" {{']
    for pid, cls in asg.pattern_nodes.items():
        lines.append(f"  node {pid}: {cls};")
    lines.append(f"  ego {asg.ego_pattern_id};")
    for src, rel, dst in sorted(asg.pattern_edges):
        lines.append(f"  edge {src} {rel} {dst};")
    for pred in asg.predicates:
        lines.append(f"  assert {pred.to_text()};")
    lines.append("}")
    return "\n".join(lines) + "\n"
