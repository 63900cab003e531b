"""Minimal S-expression reader and writer.

Values are either symbols (plain strings) or lists of values.  Symbols
are any run of characters excluding whitespace, parentheses, and the
comment character.  The reader drops the comments, pads each
parenthesis with spaces, and takes the tokens from one ``str.split``;
it builds lists from them with a stack of open lists and refuses lists
nested deeper than MAX_DEPTH.  It shares equal sub-lists: within one
call of parse_all, lists with equal contents are one list object, so
callers must treat the values they get as read-only.  That pass keeps
no offsets: on a syntax error a regular-expression scan, run only then,
finds the first fault again and names its line and column.

The writer emits one canonical layout: a list goes on one line when that
fits in WIDTH columns, else its children go on lines of their own.  One
call of write_all or write_value keeps a memo, dropped when it returns,
from the id of each list it wrote on one line to that line; a list met
again, as serialize_document shares one list among equal tokens, is
written from its line wherever the line fits, and laid out afresh where
it does not.
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

_COMMENT = re.compile(r";[^\n]*")


def parse_all(text: str) -> list:
    """All top-level values in the text, in order.  Equal lists among them
    are one object, so the values are read-only."""
    words = _COMMENT.sub("", text).replace("(", " ( ").replace(")", " ) ").split()
    out = items = []
    keys = []  # per item of items: a symbol itself, a list its id
    opened = []  # the enclosing list and keys of each open list
    shared = {}  # a list's keys -> the one list with those items
    for w in words:
        if w == "(":
            if len(opened) == MAX_DEPTH:
                raise _first_fault(text)
            opened.append((items, keys))
            items, keys = [], []
        elif w == ")":
            if not opened:
                raise _first_fault(text)
            done = shared.setdefault(tuple(keys), items)
            items, keys = opened.pop()
            items.append(done)
            keys.append(id(done))
        else:
            items.append(w)
            keys.append(w)
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
    if isinstance(v, str):
        return v
    return _write(v, indent, {})[0]


def _write(v, indent: int, memo: dict) -> tuple[str, bool]:
    """The list v laid out at this indent, and whether that is on one line.

    memo maps the id of each list already written on one line to that
    line, which is its text wherever it fits: a list met again, as the
    writer meets each shared rendered token, is not laid out again there.
    """
    line = memo.get(id(v))
    if line is not None and len(line) + indent <= WIDTH:
        return line, True
    inner = indent + 2
    parts = []
    flat = True  # every child is on one line
    for c in v:
        if type(c) is str or isinstance(c, str):
            parts.append(c)
        else:
            text, one_line = _write(c, inner, memo)
            parts.append(text)
            flat = flat and one_line
    # A child that does not fit one line at inner leaves its list too long
    # for one line at indent, its line being two columns longer.
    if flat:
        line = "(" + " ".join(parts) + ")"
        if len(line) + indent <= WIDTH:
            memo[id(v)] = line
            return line, True
    pad = "\n" + " " * inner
    if not v or not is_symbol(v[0]):
        return "(" + pad.join(parts) + ")", False
    # keep the head (and a symbolic name right after it) on the first line
    split = 2 if len(v) > 1 and is_symbol(v[1]) else 1
    return "(" + " ".join(parts[:split]) + pad + pad.join(parts[split:]) + ")", False


def write_all(values) -> str:
    """The values' canonical texts, separated by blank lines.  One memo
    serves them all, for this call only."""
    values = list(values)  # the memo's ids name lists that live until this returns
    memo = {}
    return "\n\n".join(v if isinstance(v, str) else _write(v, 0, memo)[0]
                        for v in values) + "\n"
