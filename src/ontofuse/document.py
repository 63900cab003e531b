"""Named-form documents: the textual ontology format.

A document is an ordered sequence of named top-level forms (language,
theory, model, logic, theory-morphism, logic-morphism, alignment) with
unique names and resolved cross-references.  One table, _FORMS, declares
each form kind's clauses once, in written order; the reader, the writer
and document_of all derive from it.  The serializer is canonical: sets
are sorted, maps are sorted by key, and the layout is fixed, so
serialize(parse(serialize(d))) == serialize(d).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import OntofuseError, raise_first_fault
from .language import (And, Atomic, Exists, Expression, Forall, Implies,
                       LanguageMorphism, Not, Or, Subst, TypeLanguage)
from .logic import Logic, LogicMorphism
from .model import Model, _lax_incidence, fdict
from .sexpr import MAX_DEPTH, is_symbol, parse_all, write_all, write_value
from .theory import Theory, TheoryMorphism
from .tokens import FrozenDict, _memo_key, sorted_tokens, token_key


class FormError(OntofuseError):
    """A malformed or unresolvable top-level form."""

    def __init__(self, form: str, message: str):
        super().__init__(f"form {form}: {message}")
        self.form = form
        self.message = message


def _text(v) -> str:
    """A read value as the document writes it, on one line, for a message."""
    return " ".join(write_value(v).split())


def _map(form: str, pairs, what: str) -> dict:
    """A dict from parsed pairs; a key given two different values is an
    error, which names the key and both values in document syntax."""
    out = {}
    for k, v in pairs:
        first = out.setdefault(k, v)
        if first != v:
            raise FormError(form, f"{what} gives {_shown(k)} two values, "
                                  f"{_shown(first)} and {_shown(v)}")
    return out


def _shown(v) -> str:
    """A parsed token or expression as the document writes it, for a message."""
    return _text(render_expression(v) if isinstance(v, Expression) else render_token(v))


def _pairs(name: str, items, what: str, tok):
    """The pairs of tokens that the pair values spell, parsed by tok."""
    out = []
    for p in items:
        if is_symbol(p) or len(p) != 2:
            raise FormError(name, f"{what} entry must be a pair, got {_text(p)}")
        out.append((tok(p[0]), tok(p[1])))
    return out


# --- structured tokens -------------------------------------------------------

_RESERVED = {"set", "tuple", "map"}


def render_token(t):
    """t as a value, the members of its sets and maps in token order."""
    return _token_renderer(token_key)(t)


def _token_renderer(key):
    """render_token for one piece of work, which renders each composite
    token once: equal tokens get one shared list.

    The memo is a plain dict, sound because the only tokens rendered are
    symbols, tuples, frozensets and FrozenDicts, among which equal tokens
    render alike; a token holding anything else (an int, or True, equal
    to 1) raises FormError, and a failure is never kept.  tok is a method,
    as a closure that passed itself on would leave its memo in a cycle.
    """
    return _TokenRenderer(key).tok


class _TokenRenderer:
    def __init__(self, key):
        self.key, self.memo = key, {}

    def tok(self, t):
        if type(t) is str:
            return t
        try:
            return self.memo[t]
        except KeyError:
            pass
        except TypeError:  # unhashable, so no token: _render_composite says so
            return _render_composite(t, self.key, self.tok)
        value = self.memo[t] = _render_composite(t, self.key, self.tok)
        return value


def _render_composite(t, key, tok):
    """t as a value, its members rendered by tok."""
    if isinstance(t, str):
        return t
    if isinstance(t, frozenset):
        return ["set"] + [tok(x) for x in sorted_tokens(t, key)]
    if isinstance(t, FrozenDict):
        return ["map", *_write_map(t, key, tok)]
    if isinstance(t, tuple):
        return ["tuple"] + [tok(x) for x in t]
    raise FormError("token", f"cannot render token {t!r}")


def parse_token(v):
    """The token the value v spells."""
    return _token_parser()(v)


def _token_parser():
    """parse_token for one piece of work, which parses each list once.

    tok(v) is the token v spells; tok(v, name) is instead the assignment
    (a FrozenDict) that v spells in the form named name.  Each is kept in
    a plain dict from the list's id, sound while every list parsed lives:
    parse_document's read tree lives until it returns, and parse_all
    makes equal lists one object, so each distinct list is parsed once.
    A failure is never kept.  tok is a method, as in _token_renderer.
    """
    return _TokenParser().tok


class _TokenParser:
    def __init__(self):
        self.tokens, self.assignments = {}, {}

    def tok(self, v, name=None):
        if name is not None:
            a = self.assignments.get(id(v))
            if a is None:
                a = self.assignments[id(v)] = fdict(
                    _map(name, _pairs(name, v, "assignment", self.tok), "assignment"))
            return a
        if type(v) is str:
            return v
        t = self.tokens.get(id(v))
        if t is None:
            t = self.tokens[id(v)] = _parse_composite(v, self.tok)
        return t


def _parse_composite(v, tok):
    """The token v spells, its members parsed by tok."""
    if is_symbol(v):
        return v
    if not v or not is_symbol(v[0]) or v[0] not in _RESERVED:
        raise FormError("token", f"expected a token, got {_text(v)}")
    head, args = v[0], v[1:]
    if head == "set":
        return frozenset(map(tok, args))
    if head == "tuple":
        return tuple(map(tok, args))
    return fdict(_map("token", _pairs("token", args, "map", tok), "map"))


# --- expressions --------------------------------------------------------------

_BINARY_HEADS = {"and": And, "or": Or, "implies": Implies}
_QUANT_HEADS = {"exists": Exists, "forall": Forall}


def render_expression(e: Expression, key=token_key, tok=None):
    """e as a value; key orders tokens and tok, if given, renders them."""
    if tok is None:
        tok = _token_renderer(key)
    if isinstance(e, Atomic):
        return ["atom", tok(e.relation)]
    if isinstance(e, Not):
        return ["not", render_expression(e.body, key, tok)]
    if isinstance(e, (And, Or, Implies)):
        head = {And: "and", Or: "or", Implies: "implies"}[type(e)]
        return [head, render_expression(e.left, key, tok), render_expression(e.right, key, tok)]
    if isinstance(e, (Exists, Forall)):
        head = "exists" if isinstance(e, Exists) else "forall"
        return [head, tok(e.var), render_expression(e.body, key, tok)]
    if isinstance(e, Subst):
        return ["subst", _write_map(e.mapping, key, tok), render_expression(e.body, key, tok)]
    raise FormError("expression", f"cannot render {e!r}")


def parse_expression(v):
    """The expression an S-expression value spells, at most MAX_DEPTH deep."""
    return _parse_expression(v, _token_parser())


def _parse_expression(v, tok, depth: int = 1):
    """The expression v spells, its tokens parsed by tok."""
    if depth > MAX_DEPTH:
        raise FormError("expression", f"nested deeper than {MAX_DEPTH} levels")
    if is_symbol(v) or not v or not is_symbol(v[0]):
        raise FormError("expression", f"expected an expression, got {_text(v)}")
    head, args = v[0], v[1:]
    if head == "atom" and len(args) == 1:
        return Atomic(tok(args[0]))
    if head == "not" and len(args) == 1:
        return Not(_parse_expression(args[0], tok, depth + 1))
    if head in _BINARY_HEADS and len(args) == 2:
        return _BINARY_HEADS[head](_parse_expression(args[0], tok, depth + 1),
                                   _parse_expression(args[1], tok, depth + 1))
    if head in _QUANT_HEADS and len(args) == 2:
        return _QUANT_HEADS[head](tok(args[0]), _parse_expression(args[1], tok, depth + 1))
    if head == "subst" and len(args) == 2 and not is_symbol(args[0]):
        return Subst.make(_map("expression", _pairs("expression", args[0], "subst", tok),
                               "subst"),
                          _parse_expression(args[1], tok, depth + 1))
    raise FormError("expression", f"unknown expression form {_text(v)}")


# --- documents ----------------------------------------------------------------

@dataclass(frozen=True)
class Alignment:
    """Universe, mediating theory, and the two theoretical links, by value."""

    universe: frozenset
    mediating_theory: Theory
    left_link: TheoryMorphism
    right_link: TheoryMorphism


@dataclass
class Document:
    order: list = field(default_factory=list)  # (kind, name) in source order
    objects: dict = field(default_factory=dict)  # name -> object
    kinds: dict = field(default_factory=dict)  # name -> kind

    def add(self, kind: str, name: str, obj) -> None:
        if name in self.objects:
            raise FormError(name, "duplicate form name")
        self.order.append((kind, name))
        self.objects[name] = obj
        self.kinds[name] = kind

    def get(self, name: str, kind: str = None):
        if name not in self.objects:
            raise FormError(name, "unresolved reference")
        if kind is not None and self.kinds[name] != kind:
            raise FormError(name, f"expected a {kind}, found a {self.kinds[name]}")
        return self.objects[name]


# --- clause shapes ------------------------------------------------------------

class _Shape(NamedTuple):
    """How a clause's items spell a value: read(form name, items, tok) is the
    value, write(value, key, tok) the items, with tokens parsed or rendered
    by tok and ordered by key; absent is the value of a clause left out."""

    read: Callable
    write: Callable
    absent: object = None


def _read_entries(name: str, items, tok, what: str, must: str, ok, read) -> FrozenDict:
    """The map entries (KEY ...) spell, read(name, rest, tok) reading KEY's
    value from the rest of its entry; `must` says what an entry not ok must be."""
    entries = []
    for entry in items:
        if is_symbol(entry) or not entry or not ok(entry):
            raise FormError(name, f"{must}, got {_text(entry)}")
        entries.append((tok(entry[0]), read(name, entry[1:], tok)))
    return fdict(_map(name, entries, what))


def _entry_map(what: str, must: str, ok, read, write, absent=FrozenDict()) -> _Shape:
    """A map written as entries (KEY ...), each entry's rest written by write."""
    return _Shape(lambda name, items, tok: _read_entries(name, items, tok, what, must, ok, read),
                  lambda m, key, tok: [[tok(k), *write(m[k], key, tok)]
                                       for k in sorted_tokens(m, key)], absent)


def _write_map(m, key, tok) -> list:
    """A map, or an assignment, as its (KEY VALUE) pairs in key order."""
    return [[tok(k), tok(m[k])] for k in sorted_tokens(m, key)]


def _pair_map(what: str) -> _Shape:
    return _Shape(lambda name, items, tok: fdict(_map(name, _pairs(name, items, what, tok), what)),
                  _write_map, FrozenDict())


def _pair_set(what: str, absent=frozenset()) -> _Shape:
    return _Shape(lambda name, items, tok: frozenset(_pairs(name, items, what, tok)),
                  lambda pairs, key, tok: [[tok(a), tok(b)] for a, b in sorted_tokens(pairs, key)],
                  absent)


def _read_image(name: str, rest, tok):
    """A relation's image: a relation type, or (expr EXPRESSION) in a refinement."""
    img = rest[0]
    if is_symbol(img) or not img or img[0] != "expr":
        return tok(img)
    if len(img) != 2:
        raise FormError(name, "expected (expr EXPRESSION)")
    return _parse_expression(img[1], tok)


def _read_tuple(name: str, rest, tok) -> tuple:
    """A tuple's arity and valuation, from its (arity ...) and (valuation ...)."""
    sub = _clauses(name, rest, ("arity", "valuation"))
    return (_TOKENS.read(name, sub.get("arity", ()), tok),
            _VALUATION.read(name, sub.get("valuation", ()), tok))


_TOKENS = _Shape(lambda name, items, tok: frozenset(map(tok, items)),
                 lambda ts, key, tok: [tok(t) for t in sorted_tokens(ts, key)], frozenset())
_NARROWED = _TOKENS._replace(absent=None)  # left out where it is the whole set
_EXPRESSIONS = _Shape(lambda name, items, tok: [_parse_expression(a, tok) for a in items],
                      lambda es, key, tok: [render_expression(e, key, tok)
                                            for e in sorted_tokens(es, key)], ())
_ASSIGNMENTS = _Shape(lambda name, items, tok: [tok(a, name) for a in items],
                      lambda assignments, key, tok: [_write_map(a, key, tok)
                                                     for a in sorted_tokens(assignments, key)])
_FLAG = _Shape(lambda name, items, tok: True, lambda flag, key, tok: [], False)
_VALUATION = _pair_map("valuation")
_ARITIES = _entry_map("relations", "relation entry must be (R (vars...))",
                      lambda r: len(r) == 2 and not is_symbol(r[1]),
                      lambda name, rest, tok: frozenset(map(tok, rest[0])),
                      lambda arity, key, tok: [_TOKENS.write(arity, key, tok)])
_RELATION_MAP = _entry_map(
    "relation map", "relation map entry must be a pair", lambda p: len(p) == 2, _read_image,
    lambda img, key, tok: [["expr", render_expression(img, key, tok)]
                           if isinstance(img, Expression) else tok(img)])
_EXTENTS = _entry_map("extents", "extent entry must be (R assignments...)", lambda e: True,
                      lambda name, rest, tok: frozenset(tok(a, name) for a in rest),
                      _ASSIGNMENTS.write, absent=None)
_TUPLES = _entry_map("tuples", "tuple entry must be (TOKEN (arity ...) (valuation ...))",
                     lambda entry: len(entry) == 3, _read_tuple,
                     lambda t, key, tok: [["arity", *_TOKENS.write(t[0], key, tok)],
                                          ["valuation", *_write_map(t[1], key, tok)]],
                     absent=None)


# --- the form kinds -------------------------------------------------------------

class _Form(NamedTuple):
    """A form kind: its clauses in written order, each a shape or the kind of
    form the clause refers to; build(form name, *the clauses' values), the
    object; values(object), the clauses' values, None for one left out."""

    clauses: dict
    build: Callable
    values: Callable


def _own_valuations(m: Model) -> bool:
    """Is every tuple a FrozenDict that is its own valuation?"""
    return all(isinstance(t, FrozenDict) and v == t for t, v in m.tuple_valuation.items())


def _extent_faithful(m: Model, extents: dict) -> bool:
    """Does from_extents on the derived extents, with m's other tuples as
    extra tuples, rebuild this exact model?

    For a model whose entity incidence is in range, as in every model
    the library builds, it does exactly when every tuple is a FrozenDict
    that is its own valuation, every extent row is one of the tuples,
    every tuple is well-sorted, and the relation incidence is the lax one.
    """
    val = m.tuple_valuation
    if not _own_valuations(m):
        return False
    if not all(row in val for rows in extents.values() for row in rows):
        return False
    sort = m.language.reference
    if not all((e, sort.get(x)) in m.entity_incidence for t in val for x, e in t.items()):
        return False
    # Each incidence pair (t, rho) is in the lax incidence, since t
    # restricted to rho's arity is a row of rho's extent; so the two are
    # equal when the lax incidence has no more pairs.
    lax = sum(1 for _ in _lax_incidence(m.language, val, m._masks))
    return lax == len(m.relation_incidence)


def _model_values(m: Model) -> tuple:
    """A model in extent form when its extents rebuild it, else in tuples form."""
    if _own_valuations(m):
        extents = {rho: m.relation_extent(rho) for rho in m.language.relation_types}
        if _extent_faithful(m, extents):
            covered = frozenset().union(*extents.values())
            extra = [t for t in m.tuples if t not in covered]
            return m.language, m.entities, m.entity_incidence, extents, extra or None, None, None
    tuples = {t: (val.keys(), val) for t, val in m.tuple_valuation.items()}
    return m.language, m.entities, m.entity_incidence, None, None, tuples, m.relation_incidence


def _build_model(name: str, lang, entities, incidence, extents, extra, tuples, rel_inc) -> Model:
    if tuples is None and rel_inc is None:
        return Model.from_extents(lang, entities, incidence, extents or {}, extra or ())
    for clause, value in (("extents", extents), ("extra-tuples", extra)):
        if value is not None:
            raise FormError(name, f"clause {clause} in a model written in tuples form")
    tuples = tuples or {}
    raise_first_fault((t, f"tuple of {t!r} not total exactly on its arity")
                      for t, (arity, val) in tuples.items() if val.keys() != arity)
    m = Model(lang, entities, incidence, fdict({t: val for t, (_, val) in tuples.items()}),
              rel_inc or frozenset())
    m.check(well_sorted=False)
    return m


def _build_alignment(name: str, universe, t: Theory, g1: TheoryMorphism,
                     g2: TheoryMorphism) -> Alignment:
    if g1.source != t or g2.source != t:
        raise FormError(name, "alignment links must start at the mediating theory")
    return Alignment(universe, t, g1, g2)


def _language_maps(lm: LanguageMorphism) -> tuple:
    return lm.var_map, lm.entity_map, lm.relation_map, lm.refinement or None


_LANGUAGE_MAPS = {"variables": _pair_map("variable map"), "entity-types": _pair_map("entity map"),
                  "relations": _RELATION_MAP, "refinement": _FLAG}

# Each form kind once: the reader, the writer and document_of all derive from it.
_FORMS = {
    "language": _Form(
        {"variables": _TOKENS, "entity-types": _TOKENS, "reference": _pair_map("reference"),
         "relations": _ARITIES},
        lambda name, *values: TypeLanguage.make(*values),
        lambda l: (l.variables, l.entity_types, l.reference, l.arity)),
    "theory": _Form(
        {"language": "language", "axioms": _EXPRESSIONS},
        lambda name, *values: Theory.make(*values),
        lambda t: (t.language, t.axioms)),
    "model": _Form(
        {"language": "language", "entities": _TOKENS, "incidence": _pair_set("incidence"),
         "extents": _EXTENTS, "extra-tuples": _ASSIGNMENTS, "tuples": _TUPLES,
         "relation-incidence": _pair_set("relation-incidence", absent=None)},
        _build_model, _model_values),
    "logic": _Form(
        # each normal set is written only where it is narrower than the model's
        {"theory": "theory", "model": "model", "normal-entities": _NARROWED,
         "normal-tuples": _NARROWED},
        lambda name, *values: Logic.make(*values),
        lambda l: (l.theory, l.model,
                   None if l.normal_entities == l.model.entities else l.normal_entities,
                   None if l.normal_tuples == l.model.tuples else l.normal_tuples)),
    "theory-morphism": _Form(
        {"source": "theory", "target": "theory", **_LANGUAGE_MAPS},
        lambda name, s, t, *maps: TheoryMorphism.make(
            LanguageMorphism.make(s.language, t.language, *maps), s, t),
        lambda g: (g.source, g.target, *_language_maps(g.language_morphism))),
    "logic-morphism": _Form(
        {"source": "logic", "target": "logic", **_LANGUAGE_MAPS,
         "entity-map": _pair_map("entity map"), "tuple-map": _pair_map("tuple map")},
        lambda name, s, t, *maps: LogicMorphism.make(
            s, t, LanguageMorphism.make(s.language, t.language, *maps[:4]), *maps[4:]),
        lambda f: (f.source, f.target, *_language_maps(f.language_morphism),
                   f.entity_map, f.tuple_map)),
    "alignment": _Form(
        # the universe precedes the references, as in the corpus files
        {"universe": _TOKENS, "mediating-theory": "theory", "left-link": "theory-morphism",
         "right-link": "theory-morphism"},
        _build_alignment,
        lambda a: (a.universe, a.mediating_theory, a.left_link, a.right_link)),
}


# --- reading --------------------------------------------------------------------

def _clauses(name: str, body, known) -> dict:
    out = {}
    for clause in body:
        if is_symbol(clause) or not clause or not is_symbol(clause[0]):
            raise FormError(name, f"expected a (key ...) clause, got {_text(clause)}")
        if clause[0] not in known:
            raise FormError(name, f"unknown clause {clause[0]}")
        if clause[0] in out:
            raise FormError(name, f"duplicate clause {clause[0]}")
        out[clause[0]] = clause[1:]
    return out


def _read_clause(doc: Document, name: str, clauses: dict, clause: str, shape, tok):
    """One clause's value; a reference names exactly one earlier form of its kind."""
    if isinstance(shape, str):
        items = clauses.get(clause, ())
        if len(items) != 1 or not is_symbol(items[0]):
            raise FormError(name, f"expected exactly one symbol in ({clause} ...)")
        return doc.get(items[0], shape)
    return shape.read(name, clauses[clause], tok) if clause in clauses else shape.absent


def parse_document(text: str) -> Document:
    """The document a text spells, each form's clauses read in written order.

    One token parser serves the call and goes with it, so each distinct
    list is parsed once, as a token or as an assignment.  An error in a
    token or an expression is raised naming the form it is in."""
    doc = Document()
    forms = parse_all(text)  # kept until this returns: the parser's memos name its lists by id
    tok = _token_parser()
    for form in forms:
        if is_symbol(form) or len(form) < 2 or not is_symbol(form[0]) or not is_symbol(form[1]):
            raise FormError("document",
                            f"top-level form must be (kind name ...), got {_text(form)}")
        kind, name = form[0], form[1]
        if kind not in _FORMS:
            raise FormError(name, f"unknown form kind {kind}")
        table = _FORMS[kind]
        c = _clauses(name, form[2:], table.clauses)
        try:
            obj = table.build(name, *[_read_clause(doc, name, c, clause, shape, tok)
                                      for clause, shape in table.clauses.items()])
        except FormError as e:
            if e.form in ("token", "expression"):  # raised inside this form: name it
                raise FormError(name, e.message) from None
            raise
        except OntofuseError as e:  # a construction error: name its form, keep its class
            e.args = (f"{kind} {name}: {e}",)
            raise
        doc.add(kind, name, obj)
    return doc


# --- writing --------------------------------------------------------------------

def _render_form(doc: Document, kind: str, name: str, key, tok) -> list:
    """The form as a value, its tokens ordered by key and rendered by tok."""
    out = [kind, name]
    table = _FORMS[kind]
    for (clause, shape), value in zip(table.clauses.items(), table.values(doc.objects[name])):
        if isinstance(shape, str):
            out.append([clause, _name_of(doc, value, shape)])
        elif value is not None:
            out.append([clause, *shape.write(value, key, tok)])
    return out


def serialize_document(doc: Document) -> str:
    """Canonical text for a document.  A reference is written as the name of
    the first form of its kind holding an equal object, not the same one.

    Two memos serve the call and go with it.  One key orders every token
    by its one-string token_key and remembers the key of each token object
    but a symbol, and one renderer renders each distinct composite token
    once, giving every occurrence the same list; the model sums meet each
    token many times over.  write_all then lays out each shared list on
    one line once, wherever that line fits."""
    key = _memo_key()
    tok = _token_renderer(key)
    return write_all([_render_form(doc, kind, name, key, tok) for kind, name in doc.order])


def _held_name(doc: Document, obj, kind: str):
    """The first form of this kind holding an object equal to obj, or None."""
    return next((n for k, n in doc.order if k == kind and doc.objects[n] == obj), None)


def _name_of(doc: Document, obj, kind: str) -> str:
    name = _held_name(doc, obj, kind)
    if name is None:
        raise FormError(kind, f"no {kind} form holds the referenced object")
    return name


def document_of(kind: str, name: str, obj) -> Document:
    """obj as a form named `name`, after each object it references, directly
    or not, that no earlier form holds, named `<name>-<kind>`: a logic L
    is written as L-language, L-theory, L-model and L.  Two unequal
    references of one kind, as in most morphisms, would share a name, and
    Document.add refuses the second."""
    doc = Document()

    def add(kind, form, obj):
        for clause, ref_kind in _FORMS[kind].clauses.items():
            if isinstance(ref_kind, str):  # named after the attribute that holds its object
                value = getattr(obj, clause.replace("-", "_"))
                if _held_name(doc, value, ref_kind) is None:
                    add(ref_kind, f"{name}-{ref_kind}", value)
        doc.add(kind, form, obj)

    add(kind, name, obj)
    return doc
