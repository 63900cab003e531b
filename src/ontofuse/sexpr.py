"""Minimal S-expression reader and writer.

Values are either symbols (plain strings) or lists of values.  Symbols
are any run of characters excluding whitespace, parentheses, and the
comment character.  The reader tracks line and column for error
reporting and refuses lists nested deeper than MAX_DEPTH; the writer
emits one canonical layout.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import OntofuseError


class SexprSyntaxError(OntofuseError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


_DELIMS = "()"
_COMMENT = ";"

# Deepest list nesting the reader accepts.  The reader, the writer and
# the recursive passes over expressions (free variables, well-formedness,
# evaluation, token order) take one or two Python frames per level, so
# this keeps them well inside the interpreter's default recursion limit.
MAX_DEPTH = 200

WIDTH = 78  # the writer puts a value on one line when it fits in this many columns


@dataclass
class _Reader:
    text: str
    pos: int = 0
    line: int = 1
    column: int = 1

    def error(self, message: str) -> SexprSyntaxError:
        return SexprSyntaxError(message, self.line, self.column)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return c

    def skip_blank(self) -> None:
        while self.pos < len(self.text):
            c = self.peek()
            if c.isspace():
                self.advance()
            elif c == _COMMENT:
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            else:
                return

    def read_value(self, depth: int = 1):
        self.skip_blank()
        if not self.peek():
            raise self.error("unexpected end of input")
        if self.peek() == "(":
            if depth > MAX_DEPTH:
                raise self.error(f"lists nested deeper than {MAX_DEPTH} levels")
            start_line, start_col = self.line, self.column
            self.advance()
            items = []
            while True:
                self.skip_blank()
                if not self.peek():
                    raise SexprSyntaxError("unclosed parenthesis", start_line, start_col)
                if self.peek() == ")":
                    self.advance()
                    return items
                items.append(self.read_value(depth + 1))
        if self.peek() == ")":
            raise self.error("unmatched closing parenthesis")
        chars = []
        while self.peek() and not self.peek().isspace() \
                and self.peek() not in _DELIMS and self.peek() != _COMMENT:
            chars.append(self.advance())
        return "".join(chars)


def parse_all(text: str) -> list:
    """All top-level values in the text, in order."""
    r = _Reader(text)
    out = []
    while True:
        r.skip_blank()
        if r.pos >= len(r.text):
            return out
        out.append(r.read_value())


def is_symbol(v) -> bool:
    return isinstance(v, str)


def write_value(v, indent: int = 0) -> str:
    """Canonical text: one line when it fits, else head-aligned wrapping."""
    flat = _flat(v)
    if len(flat) + indent <= WIDTH or is_symbol(v):
        return flat
    pad = " " * (indent + 2)
    if not v or not is_symbol(v[0]):
        body = ("\n" + pad).join(write_value(i, indent + 2) for i in v)
        return "(" + body + ")"
    # keep the head (and a symbolic name right after it) on the first line
    split = 2 if len(v) > 1 and is_symbol(v[1]) else 1
    head = " ".join(v[:split])
    rest = ("\n" + pad).join(write_value(i, indent + 2) for i in v[split:])
    return f"({head}\n{pad}{rest})"


def _flat(v) -> str:
    if is_symbol(v):
        return v
    return "(" + " ".join(_flat(i) for i in v) + ")"


def write_all(values) -> str:
    return "\n\n".join(write_value(v) for v in values) + "\n"
