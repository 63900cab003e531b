"""Minimal S-expression reader and writer.

Values are either symbols (plain strings) or lists of values.  Symbols
are any run of characters excluding whitespace, parentheses, and the
comment character.  The reader takes the text's tokens in one
``findall`` pass, which skips whitespace, and builds lists from them
with a stack of open lists, dropping comments; it refuses lists nested
deeper than MAX_DEPTH.  That pass keeps no offsets: on a syntax error a
second scan, run only then, finds the first fault again and names its
line and column.  The writer emits one canonical layout.
"""
from __future__ import annotations

import re

from .errors import OntofuseError


class SexprSyntaxError(OntofuseError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# Deepest list nesting the reader accepts.  The reader keeps its own
# stack and does not recurse, but what it reads goes on to
# parse_expression, the writer, free_vars, token_key and evaluation,
# which take one or two Python frames per level; this keeps them well
# inside the interpreter's default recursion limit.
MAX_DEPTH = 200

WIDTH = 78  # the writer puts a value on one line when it fits in this many columns

# a comment, a parenthesis, or a symbol; whitespace falls between tokens
_TOKEN = re.compile(r";[^\n]*|[()]|[^\s();]+")


def parse_all(text: str) -> list:
    """All top-level values in the text, in order."""
    out = items = []
    opened = []  # the enclosing list of each open list
    for tok in _TOKEN.findall(text):
        if tok == "(":
            if len(opened) == MAX_DEPTH:
                raise _first_fault(text)
            opened.append(items)
            items = []
        elif tok == ")":
            if not opened:
                raise _first_fault(text)
            outer = opened.pop()
            outer.append(items)
            items = outer
        elif tok[0] != ";":
            items.append(tok)
    if opened:
        raise _first_fault(text)
    return out


def _first_fault(text: str) -> SexprSyntaxError:
    """The first syntax error in a text that has one, with its position."""
    opened = []  # the offset of each open list's "("
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            if len(opened) == MAX_DEPTH:
                return _error(text, m.start(), f"lists nested deeper than {MAX_DEPTH} levels")
            opened.append(m.start())
        elif tok == ")":
            if not opened:
                return _error(text, m.start(), "unmatched closing parenthesis")
            opened.pop()
    return _error(text, opened[-1], "unclosed parenthesis")


def _error(text: str, pos: int, message: str) -> SexprSyntaxError:
    return SexprSyntaxError(message, text.count("\n", 0, pos) + 1,
                            pos - text.rfind("\n", 0, pos))


def is_symbol(v) -> bool:
    return isinstance(v, str)


def write_value(v, indent: int = 0) -> str:
    """Canonical text: one line when it fits, else head-aligned wrapping."""
    return _write(v, indent)[1]


def _write(v, indent: int) -> tuple[str, str]:
    """v's one-line text and its text laid out at this indent."""
    if is_symbol(v):
        return v, v
    parts = [_write(i, indent + 2) for i in v]
    flat = "(" + " ".join(p[0] for p in parts) + ")"
    if len(flat) + indent <= WIDTH:
        return flat, flat
    pad = "\n" + " " * (indent + 2)
    if not v or not is_symbol(v[0]):
        return flat, "(" + pad.join(p[1] for p in parts) + ")"
    # keep the head (and a symbolic name right after it) on the first line
    split = 2 if len(v) > 1 and is_symbol(v[1]) else 1
    rest = pad.join(p[1] for p in parts[split:])
    return flat, "(" + " ".join(v[:split]) + pad + rest + ")"


def write_all(values) -> str:
    return "\n\n".join(write_value(v) for v in values) + "\n"
