"""Object model: the typed vocabulary scenes and properties are checked against.

An ObjectModel declares the class hierarchy, per-class attributes, the
relationship types that may connect instances, and the function symbols
(such as dist) usable in property specs. Scene graphs and property specs are
only meaningful relative to one object model, and both validate against it
at load time.

Constructing an ObjectModel validates its declarations, raising SchemaError
naming the offending one, and resolves the class hierarchy once into lookup
tables: the ancestors and the attributes of every class, the attribute
types of every concrete class with the name string the model holds, and
the class pairs each relationship admits and the name string it is held
under. Every query afterwards is a table lookup.

The schema text format is line-oriented:

    abstract class TrafficParticipant extends Entity {
      velocity: Real;
      position: Vec2;
    }
    class Vehicle extends TrafficParticipant;
    rel isIn: Entity -> Lane;
    fn dist(node, node) -> Real;

The exact grammar ships in docs/schema-grammar.ebnf.
"""
from __future__ import annotations

import importlib.resources
from itertools import product
from typing import NamedTuple

from .errors import SchemaError, SpecSyntaxError, parse_file
from .frozen import Frozen
from .lexing import KIND_EOF, TokenStream, tokenize

BASE_TYPES: tuple[str, ...] = ("Real", "Int", "Bool", "String", "Vec2")

# Marker for function parameters that take a pattern node rather than a value.
NODE_PARAM = "node"


class AttributeDef(NamedTuple):
    name: str
    type: str


class ClassDef(NamedTuple):
    name: str
    parent: str | None
    abstract: bool
    # Attributes declared on this class itself; inherited ones are resolved
    # through ObjectModel.attributes_of.
    attributes: tuple[AttributeDef, ...] = ()


class RelationshipType(NamedTuple):
    """One allowed edge shape: `name` edges from `source` to `target` classes.

    The same name may appear in several rows with different endpoints; an
    edge is allowed if any row admits it under the class hierarchy.
    """

    name: str
    source: str
    target: str


class FunctionSymbol(NamedTuple):
    name: str
    params: tuple[str, ...]  # each NODE_PARAM or a base type
    result: str


class ObjectModel(Frozen):
    classes: tuple[ClassDef, ...]
    relationships: tuple[RelationshipType, ...]
    functions: tuple[FunctionSymbol, ...]

    def __init__(self, classes: tuple[ClassDef, ...] = (),
                 relationships: tuple[RelationshipType, ...] = (),
                 functions: tuple[FunctionSymbol, ...] = ()) -> None:
        by_name: dict[str, ClassDef] = {}
        for cls in classes:
            if cls.name in by_name:
                raise SchemaError(f"duplicate class: {cls.name}")
            by_name[cls.name] = cls
        for cls in classes:
            if cls.parent is not None and cls.parent not in by_name:
                raise SchemaError(f"class {cls.name} extends unknown class {cls.parent}")
            for a in cls.attributes:
                if a.type not in BASE_TYPES:
                    raise SchemaError(f"attribute {cls.name}.{a.name} has unknown type {a.type}")
        # the one walk up each parent chain, leaf first; it also finds cycles
        chains: dict[str, dict[str, ClassDef]] = {}
        for cls in classes:
            chain: dict[str, ClassDef] = {}
            cur: str | None = cls.name
            while cur is not None:
                if cur in chain:
                    raise SchemaError(f"inheritance cycle through class {cur}")
                chain[cur] = by_name[cur]
                cur = chain[cur].parent
            chains[cls.name] = chain
        attributes: dict[str, dict[str, AttributeDef]] = {}
        for name, chain in chains.items():
            attrs = [a for c in reversed(chain.values()) for a in c.attributes]
            names = [a.name for a in attrs]
            for n in names:
                if names.count(n) > 1:
                    raise SchemaError(f"attribute {n} declared more than once along {name}")
            attributes[name] = {a.name: a for a in attrs}
        ancestors = {name: frozenset(chain) for name, chain in chains.items()}
        admitted: dict[str, set[tuple[str, str]]] = {}
        seen_rel: set[RelationshipType] = set()
        for r in relationships:
            if r.source not in by_name:
                raise SchemaError(f"relationship {r.name} has unknown source class {r.source}")
            if r.target not in by_name:
                raise SchemaError(f"relationship {r.name} has unknown target class {r.target}")
            if r in seen_rel:
                raise SchemaError(f"duplicate relationship: {r.name}: {r.source} -> {r.target}")
            seen_rel.add(r)
            srcs = [n for n, anc in ancestors.items() if r.source in anc]
            dsts = [n for n, anc in ancestors.items() if r.target in anc]
            admitted.setdefault(r.name, set()).update(product(srcs, dsts))
        seen_fn: set[str] = set()
        for f in functions:
            if f.name in seen_fn:
                raise SchemaError(f"duplicate function: {f.name}")
            seen_fn.add(f.name)
            for p in f.params:
                if p != NODE_PARAM and p not in BASE_TYPES:
                    raise SchemaError(f"function {f.name} has unknown parameter kind {p}")
            if f.result not in BASE_TYPES:
                raise SchemaError(f"function {f.name} has unknown result type {f.result}")
        # lookup tables, read only here: each class -> its declaration, ->
        # itself and its ancestors, -> attribute name -> declaration (inherited
        # first); each concrete class -> (its name, attribute name -> type);
        # each relationship name -> its (source, target) class pairs, -> itself
        self.__dict__.update(
            classes=classes, relationships=relationships, functions=functions,
            _by_name=by_name, _ancestors=ancestors, _attributes=attributes,
            _concrete_classes={name: (name, {a.name: a.type for a in attributes[name].values()})
                               for name, cls in by_name.items() if not cls.abstract},
            _admitted={k: frozenset(v) for k, v in admitted.items()},
            _relationship_table={k: k for k in admitted})

    # -- class hierarchy -------------------------------------------------

    def _lookup(self, table: dict, name: str):
        """`table[name]` for a declared class `name`; SchemaError otherwise."""
        try:
            return table[name]
        except KeyError:
            raise SchemaError(f"unknown class: {name}") from None

    def has_class(self, name: str) -> bool:
        return name in self._by_name

    def require_class(self, name: str) -> ClassDef:
        return self._lookup(self._by_name, name)

    def ancestors(self, name: str) -> frozenset[str]:
        """The class `name` itself and every class it derives from."""
        return self._lookup(self._ancestors, name)

    def is_subclass(self, sub: str, sup: str) -> bool:
        """True iff `sub` equals `sup` or derives from it transitively."""
        self.require_class(sup)
        return sup in self._lookup(self._ancestors, sub)

    def concrete_classes(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes if not c.abstract)

    def attributes_of(self, cls_name: str) -> tuple[AttributeDef, ...]:
        """All attributes of a class, inherited ones first, in declaration order."""
        return tuple(self._lookup(self._attributes, cls_name).values())

    def find_attribute(self, cls_name: str, attr: str) -> AttributeDef | None:
        return self._lookup(self._attributes, cls_name).get(attr)

    def concrete_class_table(self) -> dict[str, tuple[str, dict[str, str]]]:
        """Each concrete class -> (its name, the string this model holds,
        and each of its attributes, inherited ones included -> its declared
        type). An abstract or unknown class is absent, so one lookup tells
        scene ingest that a class may have instances, and gives the name to
        keep and the types to check. The table is shared: read only."""
        return self._concrete_classes

    # -- relationships and functions -------------------------------------

    def relationship_names(self) -> tuple[str, ...]:
        return tuple(self._admitted)

    def relationship_table(self) -> dict[str, str]:
        """Each relationship name -> itself: a lookup turns a string equal
        to a name into the model's own string. The table is shared: read
        only."""
        return self._relationship_table

    def admitted_pairs(self, rel: str) -> frozenset[tuple[str, str]]:
        """Every (source class, target class) pair a `rel` edge may connect,
        subclasses included; SchemaError for an unknown relationship."""
        try:
            return self._admitted[rel]
        except KeyError:
            raise SchemaError(f"unknown relationship: {rel}") from None

    def find_function(self, name: str) -> FunctionSymbol | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None


def is_relationship_allowed(om: ObjectModel, rel: str, src_class: str, dst_class: str) -> bool:
    """True iff an edge `src_class -rel-> dst_class` is admitted by `om`.

    Admission follows the class hierarchy: a row declared on a superclass
    admits all its subclasses at either endpoint. Unknown relationship or
    class names raise SchemaError.
    """
    om.require_class(src_class)
    om.require_class(dst_class)
    return (src_class, dst_class) in om.admitted_pairs(rel)


# -- schema text parsing ---------------------------------------------------


def parse_object_model(text: str) -> ObjectModel:
    """Parse schema text into a validated ObjectModel.

    Raises SpecSyntaxError (with line/column) on malformed text and
    SchemaError naming the offending declaration on semantic problems.
    """
    ts = TokenStream(tokenize(text))
    classes: list[ClassDef] = []
    relationships: list[RelationshipType] = []
    functions: list[FunctionSymbol] = []
    while ts.peek().kind != KIND_EOF:
        if ts.at_keyword("abstract") or ts.at_keyword("class"):
            classes.append(_parse_class(ts))
        elif ts.at_keyword("rel"):
            relationships.append(_parse_rel(ts))
        elif ts.at_keyword("fn"):
            functions.append(_parse_fn(ts))
        else:
            tok = ts.peek()
            raise SpecSyntaxError(
                f"expected class, rel, or fn declaration, found {tok.text!r}",
                tok.line, tok.column)
    return ObjectModel(tuple(classes), tuple(relationships), tuple(functions))


def _parse_class(ts: TokenStream) -> ClassDef:
    abstract = False
    if ts.at_keyword("abstract"):
        ts.next()
        abstract = True
    ts.expect_keyword("class")
    name = ts.expect_ident("class name").text
    parent: str | None = None
    if ts.at_keyword("extends"):
        ts.next()
        parent = ts.expect_ident("superclass name").text
    attrs: list[AttributeDef] = []
    if ts.accept_punct("{"):
        while not ts.accept_punct("}"):
            attr_name = ts.expect_ident("attribute name").text
            ts.expect_punct(":")
            type_tok = ts.expect_ident("attribute type")
            ts.expect_punct(";")
            attrs.append(AttributeDef(attr_name, type_tok.text))
        ts.accept_punct(";")
    else:
        ts.expect_punct(";")
    return ClassDef(name, parent, abstract, tuple(attrs))


def _parse_rel(ts: TokenStream) -> RelationshipType:
    ts.expect_keyword("rel")
    name = ts.expect_ident("relationship name").text
    ts.expect_punct(":")
    source = ts.expect_ident("source class").text
    ts.expect_punct("->")
    target = ts.expect_ident("target class").text
    ts.expect_punct(";")
    return RelationshipType(name, source, target)


def _parse_fn(ts: TokenStream) -> FunctionSymbol:
    ts.expect_keyword("fn")
    name = ts.expect_ident("function name").text
    ts.expect_punct("(")
    params: list[str] = []
    if not ts.at_punct(")"):
        while True:
            params.append(ts.expect_ident("parameter kind").text)
            if not ts.accept_punct(","):
                break
    ts.expect_punct(")")
    ts.expect_punct("->")
    result = ts.expect_ident("result type").text
    ts.expect_punct(";")
    return FunctionSymbol(name, tuple(params), result)


def serialize_object_model(om: ObjectModel) -> str:
    """Render an ObjectModel back to schema text (load/serialize round-trips)."""
    lines: list[str] = []
    for cls in om.classes:
        head = "abstract class" if cls.abstract else "class"
        ext = f" extends {cls.parent}" if cls.parent else ""
        if cls.attributes:
            lines.append(f"{head} {cls.name}{ext} {{")
            for a in cls.attributes:
                lines.append(f"  {a.name}: {a.type};")
            lines.append("}")
        else:
            lines.append(f"{head} {cls.name}{ext};")
    for r in om.relationships:
        lines.append(f"rel {r.name}: {r.source} -> {r.target};")
    for f in om.functions:
        params = ", ".join(f.params)
        lines.append(f"fn {f.name}({params}) -> {f.result};")
    return "\n".join(lines) + "\n"


def load_object_model(source: str) -> ObjectModel:
    """Load an ObjectModel from a schema file path, or the bundled default.

    `source` may be a filesystem path or the literal string "default". An
    error in the file names the file.
    """
    if source == "default":
        return default_object_model()
    return parse_file(source, parse_object_model)


def default_object_model() -> ObjectModel:
    """The bundled two-lane urban traffic vocabulary."""
    text = (
        importlib.resources.files("scenemon")
        .joinpath("assets/default.om")
        .read_text(encoding="utf-8")
    )
    return parse_object_model(text)
