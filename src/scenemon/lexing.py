"""Shared hand-written tokenizer for the schema and property-spec grammars.

Both text formats use the same lexical vocabulary: identifiers, numbers,
quoted strings, punctuation, and // line comments. The parsers differ only
in grammar, so they share this tokenizer. Every token carries its source
position for error reporting. A token is a named tuple: the object model
and every property are tokenized before a monitor reads its first scene.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import SpecSyntaxError

# Longest operators first so "<=" never lexes as "<", "=".
_PUNCT = (
    "==", "!=", "<=", ">=", "->",
    "{", "}", "(", ")", "[", "]",
    ":", ";", ",", ".", "<", ">", "-",
)

KIND_IDENT = "IDENT"
KIND_NUMBER = "NUMBER"
KIND_STRING = "STRING"
KIND_PUNCT = "PUNCT"
KIND_EOF = "EOF"


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # compact form for parser error messages
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    """Lex `text` into tokens, ending with an EOF token.

    Raises SpecSyntaxError with a 1-based line/column on any character that
    does not begin a token. Never raises anything else, regardless of input.
    """
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            i = text.find("\n", i)
            if i < 0:
                i = n
            continue
        if _is_ident_start(ch):
            start = i
            while i < n and _is_ident_part(text[i]):
                i += 1
            tokens.append(Token(KIND_IDENT, text[start:i], line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(Token(KIND_NUMBER, text[start:i], line, col))
            col += i - start
            continue
        if ch == '"':
            start = i
            start_line, start_col = line, col
            i += 1
            col += 1
            buf: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise SpecSyntaxError("unterminated string literal", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\" and i + 1 < n and text[i + 1] in ('"', "\\"):
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                buf.append(c)
                i += 1
                col += 1
            tokens.append(Token(KIND_STRING, "".join(buf), start_line, start_col))
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(KIND_PUNCT, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(KIND_EOF, "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != KIND_EOF:
            self._pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == KIND_PUNCT and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == KIND_IDENT and tok.text == word

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if not self.at_punct(text):
            raise SpecSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.column)
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not self.at_keyword(word):
            raise SpecSyntaxError(f"expected {word!r}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.column)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != KIND_IDENT:
            raise SpecSyntaxError(f"expected {what}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.column)
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != KIND_EOF:
            raise SpecSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
