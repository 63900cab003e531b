"""Named-form documents: the textual ontology format.

A document is an ordered sequence of named top-level forms (language,
theory, model, logic, theory-morphism, logic-morphism, alignment) with
unique names and resolved cross-references.  The serializer is
canonical: sets are sorted, maps are sorted by key, and the layout is
fixed, so serialize(parse(serialize(d))) == serialize(d).
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    to 1) raises FormError, and a failure is never kept.
    """
    memo = {}

    def tok(t):
        if type(t) is str:
            return t
        try:
            return memo[t]
        except KeyError:
            pass
        except TypeError:  # unhashable, so no token: _render_composite says so
            return _render_composite(t, key, tok)
        value = memo[t] = _render_composite(t, key, tok)
        return value
    return tok


def _render_composite(t, key, tok):
    """t as a value, its members rendered by tok."""
    if isinstance(t, str):
        return t
    if isinstance(t, frozenset):
        return ["set"] + [tok(x) for x in sorted_tokens(t, key)]
    if isinstance(t, FrozenDict):
        return ["map"] + [[tok(k), tok(t[k])] for k in sorted_tokens(t, key)]
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
    A failure is never kept.
    """
    tokens, assignments = {}, {}

    def tok(v, name=None):
        if name is not None:
            a = assignments.get(id(v))
            if a is None:
                a = assignments[id(v)] = fdict(_map(name, _pairs(name, v, "assignment", tok),
                                                    "assignment"))
            return a
        if type(v) is str:
            return v
        t = tokens.get(id(v))
        if t is None:
            t = tokens[id(v)] = _parse_composite(v, tok)
        return t
    return tok


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
        pairs = [[tok(x), tok(e.mapping[x])] for x in sorted_tokens(e.mapping, key)]
        return ["subst", pairs, render_expression(e.body, key, tok)]
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

# Each form kind's references, in written order: (clause, attribute of the
# object, kind of the form referred to).  The reader resolves them, the
# writer names them, and document_of adds the forms they need.
_REFERENCES = {
    "language": (),
    "theory": (("language", "language", "language"),),
    "model": (("language", "language", "language"),),
    "logic": (("theory", "theory", "theory"), ("model", "model", "model")),
    "theory-morphism": (("source", "source", "theory"), ("target", "target", "theory")),
    "logic-morphism": (("source", "source", "logic"), ("target", "target", "logic")),
    "alignment": (("mediating-theory", "mediating_theory", "theory"),
                  ("left-link", "left_link", "theory-morphism"),
                  ("right-link", "right_link", "theory-morphism")),
}

# Each form kind's clauses, its references' and its own; the reader refuses any other.
_CLAUSES = {kind: frozenset([c for c, _, _ in _REFERENCES[kind]] + own.split()) for kind, own in {
    "language": "variables entity-types reference relations",
    "theory": "axioms",
    "model": "entities incidence extents extra-tuples tuples relation-incidence",
    "logic": "normal-entities normal-tuples",
    "theory-morphism": "variables entity-types relations refinement",
    "logic-morphism": "variables entity-types relations refinement entity-map tuple-map",
    "alignment": "universe"}.items()}


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


def _parse_language(name: str, c: dict, tok) -> TypeLanguage:
    relations = []
    for r in c.get("relations", ()):
        if is_symbol(r) or len(r) != 2 or is_symbol(r[1]):
            raise FormError(name, f"relation entry must be (R (vars...)), got {_text(r)}")
        relations.append((tok(r[0]), frozenset(map(tok, r[1]))))
    return TypeLanguage.make(
        list(map(tok, c.get("variables", ()))),
        list(map(tok, c.get("entity-types", ()))),
        _map(name, _pairs(name, c.get("reference", ()), "reference", tok), "reference"),
        _map(name, relations, "relations"))


def _parse_theory(name: str, c: dict, lang: TypeLanguage, tok) -> Theory:
    return Theory.make(lang, [_parse_expression(a, tok) for a in c.get("axioms", ())])


def _one(name: str, clauses: dict, key: str) -> str:
    if key not in clauses or len(clauses[key]) != 1 or not is_symbol(clauses[key][0]):
        raise FormError(name, f"expected exactly one symbol in ({key} ...)")
    return clauses[key][0]


def _parse_model(name: str, c: dict, lang: TypeLanguage, tok) -> Model:
    entities = list(map(tok, c.get("entities", ())))
    incidence = _pairs(name, c.get("incidence", ()), "incidence", tok)
    if "tuples" in c or "relation-incidence" in c:
        for clause in ("extents", "extra-tuples"):
            if clause in c:
                raise FormError(name, f"clause {clause} in a model written in tuples form")
        entries = []
        for entry in c.get("tuples", ()):
            if is_symbol(entry) or len(entry) != 3:
                raise FormError(name, "tuple entry must be (TOKEN (arity ...) (valuation ...)), "
                                      f"got {_text(entry)}")
            sub = _clauses(name, entry[1:], ("arity", "valuation"))
            entries.append((tok(entry[0]), (
                frozenset(map(tok, sub.get("arity", ()))),
                fdict(_map(name, _pairs(name, sub.get("valuation", ()), "valuation", tok),
                           "valuation")))))
        tuples = _map(name, entries, "tuples")
        raise_first_fault((t, f"tuple of {t!r} not total exactly on its arity")
                          for t, (arity, val) in tuples.items() if val.keys() != arity)
        rel_inc = _pairs(name, c.get("relation-incidence", ()), "relation-incidence", tok)
        m = Model(lang, frozenset(entities), frozenset(incidence),
                  fdict({t: v for t, (_, v) in tuples.items()}), frozenset(rel_inc))
        m.check(well_sorted=False)
        return m
    extents = []
    for entry in c.get("extents", ()):
        if is_symbol(entry) or not entry:
            raise FormError(name, f"extent entry must be (R assignments...), got {_text(entry)}")
        extents.append((tok(entry[0]), frozenset(tok(a, name) for a in entry[1:])))
    extra = [tok(a, name) for a in c.get("extra-tuples", ())]
    return Model.from_extents(lang, entities, incidence, _map(name, extents, "extents"), extra)


def _parse_logic(name: str, c: dict, theory: Theory, model: Model, tok) -> Logic:
    ne = list(map(tok, c["normal-entities"])) if "normal-entities" in c else None
    nt = list(map(tok, c["normal-tuples"])) if "normal-tuples" in c else None
    return Logic.make(theory, model, ne, nt)


def _parse_language_maps(name: str, c: dict, source, target, tok) -> LanguageMorphism:
    """The language morphism between the languages of two theories or logics."""
    rel = []
    for p in c.get("relations", ()):
        if is_symbol(p) or len(p) != 2:
            raise FormError(name, f"relation map entry must be a pair, got {_text(p)}")
        img = p[1]
        if not is_symbol(img) and img and img[0] == "expr":
            if len(img) != 2:
                raise FormError(name, "expected (expr EXPRESSION)")
            rel.append((tok(p[0]), _parse_expression(img[1], tok)))
        else:
            rel.append((tok(p[0]), tok(img)))
    return LanguageMorphism.make(
        source.language, target.language,
        _map(name, _pairs(name, c.get("variables", ()), "variable map", tok), "variable map"),
        _map(name, _pairs(name, c.get("entity-types", ()), "entity map", tok), "entity map"),
        _map(name, rel, "relation map"), refinement="refinement" in c)


def _parse_theory_morphism(name: str, c: dict, source: Theory, target: Theory,
                           tok) -> TheoryMorphism:
    return TheoryMorphism.make(_parse_language_maps(name, c, source, target, tok),
                               source, target)


def _parse_logic_morphism(name: str, c: dict, source: Logic, target: Logic,
                          tok) -> LogicMorphism:
    return LogicMorphism.make(
        source, target, _parse_language_maps(name, c, source, target, tok),
        _map(name, _pairs(name, c.get("entity-map", ()), "entity map", tok), "entity map"),
        _map(name, _pairs(name, c.get("tuple-map", ()), "tuple map", tok), "tuple map"))


def _parse_alignment(name: str, c: dict, t: Theory, g1: TheoryMorphism,
                     g2: TheoryMorphism, tok) -> Alignment:
    if g1.source != t or g2.source != t:
        raise FormError(name, "alignment links must start at the mediating theory")
    return Alignment(frozenset(map(tok, c.get("universe", ()))), t, g1, g2)


# kind -> parser(name, clauses, *the objects its references name, in table order, tok),
# which parses the form's tokens, expressions and assignments with tok
_PARSERS = {"language": _parse_language, "theory": _parse_theory, "model": _parse_model,
            "logic": _parse_logic, "theory-morphism": _parse_theory_morphism,
            "logic-morphism": _parse_logic_morphism, "alignment": _parse_alignment}


def parse_document(text: str) -> Document:
    """The document a text spells.

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
        if kind not in _PARSERS:
            raise FormError(name, f"unknown form kind {kind}")
        c = _clauses(name, form[2:], _CLAUSES[kind])
        refs = [doc.get(_one(name, c, clause), ref_kind)
                for clause, _, ref_kind in _REFERENCES[kind]]
        try:
            obj = _PARSERS[kind](name, c, *refs, tok)
        except FormError as e:
            if e.form in ("token", "expression"):  # raised inside this form: name it
                raise FormError(name, e.message) from None
            raise
        except OntofuseError as e:  # a construction error: name its form, keep its class
            e.args = (f"{kind} {name}: {e}",)
            raise
        doc.add(kind, name, obj)
    return doc


# --- rendering ----------------------------------------------------------------

def _render_pairs(clause: str, pairs, tok) -> list:
    return [clause] + [[tok(a), tok(b)] for (a, b) in pairs]


def _render_assignment(a, key, tok) -> list:
    return [[tok(x), tok(a[x])] for x in sorted_tokens(a, key)]


# render_<kind>(name, obj, refs, key, tok) places the rendered reference
# clauses refs where its kind writes them, orders tokens by key and renders
# them with tok.

def render_language(name: str, lang: TypeLanguage, refs: list, key, tok) -> list:
    variables = sorted_tokens(lang.variables, key)
    return ["language", name, *refs,
            ["variables"] + [tok(x) for x in variables],
            ["entity-types"] + [tok(a) for a in sorted_tokens(lang.entity_types, key)],
            _render_pairs("reference", [(x, lang.reference[x]) for x in variables], tok),
            ["relations"] + [[tok(r), [tok(x) for x in sorted_tokens(lang.arity[r], key)]]
                             for r in sorted_tokens(lang.relation_types, key)]]


def render_theory(name: str, t: Theory, refs: list, key, tok) -> list:
    return ["theory", name, *refs,
            ["axioms"] + [render_expression(a, key, tok) for a in sorted_tokens(t.axioms, key)]]


def _extent_faithful(m: Model, extents: dict) -> bool:
    """Does from_extents on the derived extents, with m's other tuples as
    extra tuples, rebuild this exact model?

    For a model whose entity incidence is in range, as in every model
    the library builds, it does exactly when every tuple is a FrozenDict
    that is its own valuation, every extent row is one of the tuples,
    every tuple is well-sorted, and the relation incidence is the lax one.
    """
    val = m.tuple_valuation
    if not all(isinstance(t, FrozenDict) and v == t for t, v in val.items()):
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


def render_model(name: str, m: Model, refs: list, key, tok) -> list:
    out = ["model", name, *refs,
           ["entities"] + [tok(e) for e in sorted_tokens(m.entities, key)],
           _render_pairs("incidence", sorted_tokens(m.entity_incidence, key), tok)]
    extents = {rho: m.relation_extent(rho) for rho in m.language.relation_types}
    if _extent_faithful(m, extents):
        rendered = ["extents"]
        for rho in sorted_tokens(m.language.relation_types, key):
            rendered.append([tok(rho)] + [_render_assignment(a, key, tok)
                                          for a in sorted_tokens(extents[rho], key)])
        out.append(rendered)
        covered = frozenset().union(*extents.values())
        extra = sorted_tokens([t for t in m.tuples if t not in covered], key)
        if extra:
            out.append(["extra-tuples"] + [_render_assignment(t, key, tok) for t in extra])
        return out
    tuples = ["tuples"]
    for t in sorted_tokens(m.tuples, key):
        val = m.tuple_valuation[t]
        arity = sorted_tokens(val, key)
        tuples.append([tok(t),
                       ["arity"] + [tok(x) for x in arity],
                       _render_pairs("valuation", [(x, val[x]) for x in arity], tok)])
    out.append(tuples)
    out.append(_render_pairs("relation-incidence", sorted_tokens(m.relation_incidence, key),
                             tok))
    return out


def render_logic(name: str, l: Logic, refs: list, key, tok) -> list:
    out = ["logic", name, *refs]
    if l.normal_entities != l.model.entities:
        out.append(["normal-entities"] + [tok(e) for e in sorted_tokens(l.normal_entities, key)])
    if l.normal_tuples != l.model.tuples:
        out.append(["normal-tuples"] + [tok(t) for t in sorted_tokens(l.normal_tuples, key)])
    return out


def _render_language_maps(lm: LanguageMorphism, key, tok) -> list:
    rel = ["relations"]
    for r in sorted_tokens(lm.relation_map, key):
        img = lm.relation_map[r]
        rendered = ["expr", render_expression(img, key, tok)] if isinstance(img, Expression) \
            else tok(img)
        rel.append([tok(r), rendered])
    out = [_render_pairs("variables", [(x, lm.var_map[x])
                                       for x in sorted_tokens(lm.var_map, key)], tok),
           _render_pairs("entity-types", [(a, lm.entity_map[a])
                                          for a in sorted_tokens(lm.entity_map, key)], tok),
           rel]
    if lm.refinement:
        out.append(["refinement"])
    return out


def render_theory_morphism(name: str, g: TheoryMorphism, refs: list, key, tok) -> list:
    return ["theory-morphism", name, *refs] + \
        _render_language_maps(g.language_morphism, key, tok)


def render_logic_morphism(name: str, f: LogicMorphism, refs: list, key, tok) -> list:
    return ["logic-morphism", name, *refs] + \
        _render_language_maps(f.language_morphism, key, tok) + \
        [_render_pairs("entity-map", [(e, f.entity_map[e])
                                      for e in sorted_tokens(f.entity_map, key)], tok),
         _render_pairs("tuple-map", [(t, f.tuple_map[t])
                                     for t in sorted_tokens(f.tuple_map, key)], tok)]


def render_alignment(name: str, a: Alignment, refs: list, key, tok) -> list:
    # the universe precedes the references, as in the corpus files
    return ["alignment", name,
            ["universe"] + [tok(e) for e in sorted_tokens(a.universe, key)],
            *refs]


_RENDERERS = {"language": render_language, "theory": render_theory, "model": render_model,
              "logic": render_logic, "theory-morphism": render_theory_morphism,
              "logic-morphism": render_logic_morphism, "alignment": render_alignment}


def serialize_document(doc: Document) -> str:
    """Canonical text for a document.  A reference is written as the name of
    the first form of its kind holding an equal object, not the same one.

    Two memos serve the call and go with it.  One key orders every token
    and remembers the keys it works out, and one renderer renders each
    distinct composite token once, giving every occurrence the same list;
    the model sums meet each token many times over.  write_all then lays
    out each shared list on one line once, wherever that line fits."""
    key = _memo_key()
    tok = _token_renderer(key)
    forms = []
    for kind, name in doc.order:
        obj = doc.objects[name]
        refs = [[clause, _name_of(doc, getattr(obj, attr), ref_kind)]
                for clause, attr, ref_kind in _REFERENCES[kind]]
        forms.append(_RENDERERS[kind](name, obj, refs, key, tok))
    return write_all(forms)


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
        for _, attr, ref_kind in _REFERENCES[kind]:
            if _held_name(doc, getattr(obj, attr), ref_kind) is None:
                add(ref_kind, f"{name}-{ref_kind}", getattr(obj, attr))
        doc.add(kind, form, obj)

    add(kind, name, obj)
    return doc
