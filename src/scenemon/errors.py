"""Exception hierarchy shared across the package.

Every error raised while reading user-supplied text (schemas, property
specs, scene records) derives from SceneMonError so callers can catch one
type at the CLI boundary and map it to an exit code.
"""
from __future__ import annotations

from typing import Any, Callable, TypeVar

T = TypeVar("T")


class SceneMonError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SceneMonError):
    """Invalid object-model schema (bad reference, duplicate, type misuse)."""


class _LocatedError(SceneMonError):
    """An error at a 1-based line and column of spec text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class SpecSyntaxError(_LocatedError):
    """Lexical or grammatical error in schema or property-spec text."""


class SpecTypeError(_LocatedError):
    """Well-formed spec text that fails type checking against the object model."""


def parse_file(path: str, parse: Callable[..., T], *args: Any) -> T:
    """`parse(text, *args)` of the text of the file `path`, read as UTF-8.
    A SceneMonError it raises names the file: `path:line:column: message`
    where it is located, `path: message` where it is not. Text that is
    not UTF-8 is `path: not UTF-8: ...`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SceneMonError(f"{path}: not UTF-8: {exc}") from None
    try:
        return parse(text, *args)
    except SceneMonError as exc:
        exc.args = (path + (":" if isinstance(exc, _LocatedError) else ": ") + str(exc),)
        raise


class SceneValidationError(SceneMonError):
    """Scene record that violates the object model or the record schema."""


class MissingAttributeError(SceneMonError):
    """Predicate evaluation touched an attribute absent from the scene.

    `ref` names the offending access as "<pattern-id>.<attribute>".
    """

    def __init__(self, ref: str) -> None:
        super().__init__(f"missing attribute: {ref}")
        self.ref = ref


class StreamOrderError(SceneMonError):
    """Scene stream with a timestamp lower than its predecessor."""


class OracleSizeError(SceneMonError):
    """Brute-force oracle asked to enumerate a scene above its size bound."""
