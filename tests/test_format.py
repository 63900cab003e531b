"""The S-expression ontology format: parsing, canonical serialization."""
import contextlib
import gc
import io
import pathlib
import random
import re
import sys
import tempfile
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ontofuse import document
from ontofuse.cli import main
from ontofuse.document import (Alignment, Document, FormError, document_of,
                               parse_document, parse_expression, parse_token,
                               render_expression, render_token,
                               serialize_document)
from ontofuse.language import (And, Atomic, Exists, Forall, Implies, LanguageMorphism, Not,
                               Or, Subst, TypeLanguage, free_vars)
from ontofuse.errors import OntofuseError
from ontofuse.integration import practical_integrate
from ontofuse.logic import Logic, LogicMorphism, free_logic
from ontofuse.model import Model, model_sum
from ontofuse.sexpr import (MAX_DEPTH, WIDTH, SexprSyntaxError, parse_all,
                            write_all, write_value)
from ontofuse.theory import Theory, TheoryMorphism
from ontofuse.tokens import FrozenDict, fdict, sorted_tokens, token_key

from fixtures import (VARS, mutate, partial_span_text, practical_scenarios, rand_language,
                      rand_model, w_language)
from oracles import naive_extent_faithful, naive_parse, naive_serialize, naive_write

CORPUS = sorted(pathlib.Path(__file__).parent.parent.joinpath("corpus").glob("*.iff"))


# --- reader ---------------------------------------------------------------------

def test_parse_single_language_form():
    text = ("(language W (variables x y) (entity-types Person Company) "
            "(reference (x Person) (y Company)) (relations (WorksFor (x y))))")
    doc = parse_document(text)
    lang = doc.get("W", "language")
    assert lang == w_language()


def test_empty_document():
    doc = parse_document("")
    assert not doc.order


def test_comments_are_ignored():
    doc = parse_document("; a remark\n(language L (variables) "
                         "(entity-types) (reference) (relations)) ; trailing")
    assert doc.get("L", "language").entity_types == frozenset()


def test_syntax_error_carries_line_and_column():
    with pytest.raises(SexprSyntaxError) as err:
        parse_all("(language W\n  (variables x y")
    assert err.value.line == 2
    assert err.value.column is not None


def test_reader_refuses_lists_nested_beyond_the_limit():
    assert parse_all("(" * MAX_DEPTH + ")" * MAX_DEPTH)
    with pytest.raises(SexprSyntaxError) as err:
        parse_all("(a\n " + "(" * MAX_DEPTH + ")" * (MAX_DEPTH + 1))
    assert (err.value.line, err.value.column) == (2, MAX_DEPTH + 1)


@pytest.mark.parametrize("text, message, line, column", [
    # an unclosed list reports its innermost open "("
    ("(a\n  (b (c)\n", "unclosed parenthesis", 2, 3),
    ("; (not ( a list\n(a\n\t(b ; )\n", "unclosed parenthesis", 3, 2),
    ("(a \r(b\x1c(c))", "unclosed parenthesis", 1, 1),
    # an unmatched ")" reports its own position
    ("(a)\r )", "unmatched closing parenthesis", 1, 6),
    ("; ) in a comment\n(a)\n\t\x1c)", "unmatched closing parenthesis", 3, 3),
    (")", "unmatched closing parenthesis", 1, 1),
    # list MAX_DEPTH + 1 reports its "(", before the missing ")"s
    (";c\n\t" + "(" * (MAX_DEPTH + 1), f"lists nested deeper than {MAX_DEPTH} levels",
     2, MAX_DEPTH + 2),
    ("(a)\r\n x " + "(" * (MAX_DEPTH + 5) + ")", f"lists nested deeper than {MAX_DEPTH} levels",
     2, MAX_DEPTH + 4),
    # a comment that runs to the end of the text closes nothing
    ("(a ;)", "unclosed parenthesis", 1, 1),
    ("(a)\n(b;)", "unclosed parenthesis", 2, 1),
    ("a;(\n)", "unmatched closing parenthesis", 2, 1),
])
def test_syntax_error_message_line_and_column(text, message, line, column):
    with pytest.raises(SexprSyntaxError) as err:
        parse_all(text)
    assert (str(err.value), err.value.line, err.value.column) == \
        (f"{line}:{column}: {message}", line, column)


def test_reader_whitespace_and_comments():
    assert parse_all("a\x1cb\r(c\td) ; (e\r f\n\x85g;h") == ["a", "b", ["c", "d"], "g"]


COMMENT_PLACEMENTS = [
    # a comment at the end of the text, with no newline after it
    ("(a b) ; end", [["a", "b"]]),
    (";", []),
    ("a ;", ["a"]),
    # a comment holding a parenthesis just before the end of the text
    ("(a) ;(", [["a"]]),
    ("(a) ;)", [["a"]]),
    ("(a)\n; ( )", [["a"]]),
    # a comment right after a symbol
    ("a;b", ["a"]),
    ("(x;y)\n)", [["x"]]),
    ("(set;\n b)", [["set", "b"]]),
]


@pytest.mark.parametrize("text, values", COMMENT_PLACEMENTS)
def test_reader_reads_what_a_comment_leaves(text, values):
    assert parse_all(text) == values == naive_parse(text, MAX_DEPTH)


def _read(text: str):
    """parse_all's values, or None on a syntax error, as naive_parse gives them."""
    try:
        return parse_all(text)
    except SexprSyntaxError:
        return None


def _whitespace() -> list:
    """Every code point that str.isspace or re's \\s takes for whitespace
    under this interpreter's Unicode tables."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    return sorted(set(re.findall(r"\s", every)) | {c for c in every if c.isspace()})


def test_reader_splits_at_every_whitespace_character_as_the_oracle_does():
    spaces = _whitespace()
    assert set(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000") <= set(spaces)
    for c in spaces:
        texts = [f"a{c}b", f"(a{c}(b{c}c))"] + [t.replace(" ", c) for t, _ in COMMENT_PLACEMENTS]
        for text in texts:
            assert _read(text) == naive_parse(text, MAX_DEPTH), repr(text)
        assert parse_all(texts[1]) == [["a", ["b", "c"]]]


def _lists(values) -> list:
    """Every list among the values and their members, each occurrence once."""
    out, todo = [], list(values)
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            out.append(v)
            todo.extend(v)
    return out


def _shares_equal_lists(values) -> bool:
    """Are equal lists among the values one object?"""
    first = {}
    return all(first.setdefault(repr(v), v) is v for v in _lists(values))


def test_reader_agrees_with_the_oracle_on_random_texts():
    rng = random.Random(12)
    spaces = [" ", "\n", "\r", "\t", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
    for i in range(300):
        if i % 2:  # written values, their spaces varied and comments put between
            chars = []
            for ch in write_all([_random_value(rng) for _ in range(rng.randint(0, 4))]):
                chars.append(rng.choice(spaces) if ch in " \n" else ch)
                if rng.random() < 0.02:
                    chars.append(";" + rng.choice(["", "(", ")", " x (y"]) + rng.choice(["\n", "\r\n"]))
        else:  # anything, mostly unbalanced
            chars = rng.choices(["(", ")", ";", "a", "set", "é"] + spaces, k=rng.randint(0, 40))
        text = "".join(chars)
        values = _read(text)
        assert values == naive_parse(text, MAX_DEPTH), repr(text)
        assert values is None or _shares_equal_lists(values), repr(text)


def test_reader_shares_equal_lists_within_a_call_and_none_between_calls():
    text = "(a (b c) ()) (d (b c) (())) (a (b c) ()) ; (b c)\n(b c) (a (b c d) ())"
    first, second = parse_all(text), parse_all(text)
    assert first == second == naive_parse(text, MAX_DEPTH)
    assert first[0] is first[2] and first[0][1] is first[1][1] is first[3]
    assert first[0][2] is first[1][2][0] is first[4][2] and first[4][1] is not first[3]
    assert _shares_equal_lists(first)
    assert not {id(v) for v in _lists(first)} & {id(v) for v in _lists(second)}


def test_parse_expression_refuses_nesting_beyond_the_limit():
    v = ["atom", "R"]
    for _ in range(MAX_DEPTH - 1):
        v = ["not", v]
    assert isinstance(parse_expression(v), Not)
    with pytest.raises(FormError):
        parse_expression(["not", v])


def test_unbalanced_close_rejected():
    with pytest.raises(SexprSyntaxError):
        parse_all("(a))")


def test_duplicate_names_rejected():
    text = ("(language L (variables) (entity-types) (reference) (relations))\n"
            "(language L (variables) (entity-types) (reference) (relations))")
    with pytest.raises(FormError):
        parse_document(text)


def test_conflicting_reference_keys_rejected():
    text = ("(language W (variables x) (entity-types A B) "
            "(reference (x B) (x A)) (relations))")
    with pytest.raises(FormError, match="^form W: reference gives x two values, B and A$"):
        parse_document(text)


def test_conflicting_assignment_keys_rejected():
    text = ("(language W (variables x) (entity-types T) (reference (x T)) "
            "(relations (R (x))))\n"
            "(model M (language W) (entities a b) (incidence (a T) (b T)) "
            "(extents (R ((x a) (x b)))))")
    with pytest.raises(FormError, match="^form M: assignment gives x two values, a and b$"):
        parse_document(text)


def test_repeated_identical_keys_accepted():
    text = ("(language W (variables x) (entity-types T) "
            "(reference (x T) (x T)) (relations (R (x))))\n"
            "(model M (language W) (entities a) (incidence (a T)) "
            "(extents (R ((x a) (x a)))))")
    m = parse_document(text).get("M", "model")
    assert m.relation_extent("R") == {fdict({"x": "a"})}


def test_unresolved_reference_rejected():
    with pytest.raises(FormError):
        parse_document("(theory T (language Missing) (axioms))")


# --- structured tokens --------------------------------------------------------------

class _Symbol(str):
    """A str subclass, which the reader and the writer take for a symbol."""


def test_token_round_trip():
    for tok in ("plain", frozenset({"a", "b"}), ("pair", "of"),
                fdict({"x": "bob"}),
                frozenset({("t", "u"), "v"}), _Symbol("sym")):
        assert parse_token(render_token(tok)) == tok


def test_expression_round_trip():
    exprs = [Atomic("R"),
             Not(And(Atomic("R"), Exists("x", Atomic("S")))),
             Subst.make({"x": "y"}, Atomic("R"))]
    for e in exprs:
        assert parse_expression(render_expression(e)) == e


def test_reserved_heads_rejected_as_symbols():
    with pytest.raises(FormError):
        parse_token(["set", ["unknown-head", "x"]])


def test_every_corpus_form_refuses_a_clause_its_kind_does_not_take():
    for path in CORPUS:
        forms = parse_all(path.read_text())
        for form in forms:
            for clause in ("bogus", "universe" if form[0] != "alignment" else "axioms"):
                form.append([clause])
                with pytest.raises(FormError, match=re.escape(
                        f"form {form[1]}: unknown clause {clause}")):
                    parse_document(write_all(forms))
                form.pop()


@pytest.mark.parametrize("clauses, clause", [
    ("(tuples) (extents (R ((x a))))", "extents"),
    ("(relation-incidence) (extra-tuples ((x a)))", "extra-tuples"),
], ids=["extents", "extra-tuples"])
def test_a_model_in_both_forms_is_refused_naming_its_extents_clause(clauses, clause):
    text = ("(language L (variables x) (entity-types T) (reference (x T)) (relations (R (x))))\n"
            f"(model M (language L) (entities a) (incidence (a T)) {clauses})\n")
    with pytest.raises(FormError, match=f"form M: clause {clause} in a model written in tuples"):
        parse_document(text)


# --- canonical serialization ----------------------------------------------------------

def test_aristotle_language_canonical_order():
    text = pathlib.Path(CORPUS[0].parent, "aristotle.iff").read_text()
    doc = parse_document(text)
    out = serialize_document(doc)
    assert "(entity-types Quality Quantity Relation Substance)" in out


def test_round_trip_structural_equality_over_corpus():
    for path in CORPUS:
        doc = parse_document(path.read_text())
        again = parse_document(serialize_document(doc))
        assert again.order == doc.order
        for (_, name) in doc.order:
            assert again.objects[name] == doc.objects[name], path.name


def test_serializer_is_canonical_fixed_point_over_corpus():
    for path in CORPUS:
        once = serialize_document(parse_document(path.read_text()))
        twice = serialize_document(parse_document(once))
        assert once == twice, path.name


def test_corpus_files_already_canonical():
    # golden files are stored in canonical form
    for path in CORPUS:
        text = path.read_text()
        if ";" in text:
            continue  # hand-commented sources keep their comments
        assert serialize_document(parse_document(text)) == text, path.name


def test_a_reference_to_an_equal_object_is_written_as_the_first_form_holding_it():
    language = "(variables x) (entity-types T) (reference (x T)) (relations (R (x)))"
    doc = parse_document(f"(language L1 {language})\n(language L2 {language})\n"
                         "(theory T2 (language L2) (axioms))\n")
    text = serialize_document(doc)
    assert "(theory T2 (language L1) (axioms))" in text
    assert parse_document(text) == doc


def test_model_with_explicit_tuples_round_trips():
    text = pathlib.Path(CORPUS[0].parent, "abstract.iff").read_text()
    doc = parse_document(text)
    again = parse_document(serialize_document(doc))
    for (_, name) in doc.order:
        assert again.objects[name] == doc.objects[name]


# --- extent form ------------------------------------------------------------------

def _extents(m):
    return {rho: m.relation_extent(rho) for rho in m.language.relation_types}


def _seeded_models(seed):
    """Models of the kinds the writer meets, from one seed: built from
    extents with extra tuples, free, and summed; and, from the first two,
    sub-models, models with some tuples renamed, and models with a
    relation incidence pair dropped."""
    rng = random.Random(seed)
    lang = rand_language(rng, max_rels=3)
    m = rand_model(rng, lang)
    domain = rng.sample(VARS, rng.randint(0, len(VARS)))
    extra = [a for a in m.well_sorted_assignments(domain) if rng.random() < 0.5]
    m = Model.from_extents(lang, m.entities, m.entity_incidence, _extents(m), extra)
    free = free_logic(Theory.make(lang, [])).model
    models = [m, free, model_sum(m, rand_model(rng, rand_language(rng, "b")))[0]]
    for base in (m, free):
        tuples = sorted_tokens(base.tuples)
        models.append(base.restrict(base.entities,
                                    rng.sample(tuples, rng.randint(0, len(tuples)))))
        name = {t: ("t", i) if rng.random() < 0.3 else t for i, t in enumerate(tuples)}
        models.append(replace(base,
                              tuple_valuation=fdict({name[t]: v for t, v
                                                     in base.tuple_valuation.items()}),
                              relation_incidence=frozenset((name[t], rho) for t, rho
                                                           in base.relation_incidence)))
        pairs = sorted_tokens(base.relation_incidence)
        if pairs:
            models.append(replace(base, relation_incidence=base.relation_incidence -
                                  {rng.choice(pairs)}))
    return models


def _extent_form(m):
    """m's extent form, which, when there is one, holds m's extents and
    rebuilds m."""
    form = m.extent_form()
    if form is not None:
        extents, extra = form
        assert extents == _extents(m)
        assert Model.from_extents(m.language, m.entities, m.entity_incidence,
                                  extents, extra) == m
    return form


def test_extent_form_is_chosen_as_rebuilding_the_model_chooses_it():
    seen = Counter()
    for seed in range(80):
        for m in _seeded_models(seed):
            faithful = _extent_form(m) is not None
            assert faithful == naive_extent_faithful(m, _extents(m)), (seed, m)
            seen[faithful] += 1
    assert seen[True] >= 50 and seen[False] >= 50, seen


def _two_variable_model(entities, tuples, incidence):
    """A model over x and y of sort T, with R on x and S on x and y."""
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"},
                             {"R": {"x"}, "S": {"x", "y"}})
    return Model(lang, frozenset(entities), frozenset({("a", "T"), ("b", "T")}),
                 fdict(tuples), frozenset(incidence))


_XA, _XAYB = fdict({"x": "a"}), fdict({"x": "a", "y": "b"})


@pytest.mark.parametrize("m, faithful", [
    # each tuple its own valuation, incidence the lax one: extent form
    (_two_variable_model("ab", {_XA: _XA, _XAYB: _XAYB},
                         {(_XA, "R"), (_XAYB, "R"), (_XAYB, "S")}), True),
    # a tuple token that is not its own valuation
    (_two_variable_model("ab", {"t": _XA}, {("t", "R")}), False),
    # a tuple whose restriction to R's arity is not itself a tuple
    (_two_variable_model("ab", {_XAYB: _XAYB}, {(_XAYB, "R"), (_XAYB, "S")}), False),
    # an ill-sorted tuple: c is of no sort
    (_two_variable_model("abc", {fdict({"x": "c"}): fdict({"x": "c"})},
                         {(fdict({"x": "c"}), "R")}), False),
    # the lax rule puts (x=a, y=b) in R too, where this incidence does not.  (It
    # derives every pair a model has, as extents are read off its incidence.)
    (_two_variable_model("ab", {_XA: _XA, _XAYB: _XAYB}, {(_XA, "R"), (_XAYB, "S")}), False),
], ids=["extents", "token", "restriction", "ill-sorted", "incidence"])
def test_a_model_that_extents_do_not_rebuild_is_written_in_tuples_form(m, faithful):
    assert (_extent_form(m) is not None) == naive_extent_faithful(m, _extents(m)) == faithful
    text = serialize_document(document_of("model", "M", m))
    assert ("(tuples" in text) != faithful
    assert parse_document(text).get("M", "model") == m


def test_write_all_parses_back():
    values = [["a", "b", ["c", "d"]], ["e"]]
    assert parse_all(write_all(values)) == values


# --- writer layout ----------------------------------------------------------------------

@pytest.mark.parametrize("indent", [0, 4, 30])
def test_writer_keeps_a_list_that_just_fits_on_one_line(indent):
    fits = ["f", ["x" * (WIDTH - indent - 6)]]  # "(f (xx...))"
    assert len(write_value(fits)) == WIDTH - indent
    assert write_value(fits, indent) == f"(f ({fits[1][0]}))"
    over = ["f", ["x" * (WIDTH - indent - 5)]]
    assert write_value(over, indent) == f"(f\n{' ' * (indent + 2)}({over[1][0]}))"


def test_writer_wraps_a_list_with_a_non_symbol_head_one_child_per_line():
    v = [["a"], "b" * 40, ["c", "d" * 40]]
    assert write_value(v, 2) == f"((a)\n    {'b' * 40}\n    (c {'d' * 40}))"


def test_writer_keeps_a_symbolic_name_beside_the_head():
    v = ["model", "M", ["entities"] + [f"entity{i}" for i in range(8)], ["x"]]
    entities = "(entities " + " ".join(f"entity{i}" for i in range(8)) + ")"
    assert write_value(v) == f"(model M\n  {entities}\n  (x))"
    assert write_value(["model", "M" * WIDTH]) == f"(model {'M' * WIDTH}\n  )"


def test_writer_leaves_symbols_and_empty_lists_unwrapped_at_any_indent():
    assert write_value("s" * 100, 10) == "s" * 100
    for indent in (77, 78, 80):
        assert write_value([], indent) == "()"
        assert write_value([[]], indent) == "(())"
    assert write_value(["a", []], 77) == "(a\n" + " " * 79 + "())"


def _shared_list_values(at_2, at_14):
    """Two values, the list at_2 at indent 2 and at_14 at indent 14."""
    return [["a", "b" * 20, at_2], ["c", ["d", ["e", ["f", ["g", ["h", ["i", at_14]]]]]]]]


def test_writer_lays_out_a_shared_list_at_each_indent_as_its_copies():
    shared = ["s"] + ["x" * 10] * 6  # 69 columns: fits at indent 2, not at 14
    line = write_value(shared)
    wrapped = "(s " + "x" * 10 + "".join("\n" + " " * 16 + "x" * 10 for _ in range(5)) + ")"
    assert (len(line), write_value(shared, 2), write_value(shared, 14)) == (69, line, wrapped)
    for step in (1, -1):  # met first where it fits, then first where it does not
        values = _shared_list_values(shared, shared)[::step]
        copies = _shared_list_values(list(shared), list(shared))[::step]
        text = write_all(values)
        assert text == write_all(copies) == "\n\n".join(map(write_value, values)) + "\n"
        assert text.count(line) == text.count(wrapped) == 1


def _composites(tokens) -> set:
    """The tuples, frozensets and FrozenDicts among the tokens and their members."""
    out, todo = set(), list(tokens)
    while todo:
        t = todo.pop()
        if not isinstance(t, str) and t not in out:
            out.add(t)
            todo.extend(t)
            if isinstance(t, FrozenDict):
                todo.extend(t.values())
    return out


def _model_sum_document():
    """A 16-entity, 6-tuple model sum, written in tuples form, and the
    composite tokens it holds."""
    rng = random.Random(56)
    a, b = (rand_model(rng, rand_language(rng, max_rels=3), 4) for _ in range(2))
    s = model_sum(a, b)[0]
    doc = document_of("model", "S", s)
    assert (len(s.entities), len(s.tuples)) == (16, 6)
    lang = s.language
    return doc, _composites(
        [*lang.variables, *lang.entity_types, *lang.reference.values(), *lang.relation_types,
         *s.entities, *(e for e, _ in s.entity_incidence), *s.tuples,
         *(v for val in s.tuple_valuation.values() for v in val.values())])


def test_serializing_a_model_sum_renders_each_distinct_composite_token_once(monkeypatch):
    doc, composites = _model_sum_document()
    text = serialize_document(doc)
    assert "(tuples" in text
    rendered = Counter()
    render = document._render_composite

    def counted(t, key, tok):
        rendered[t] += 1
        return render(t, key, tok)
    monkeypatch.setattr(document, "_render_composite", counted)
    for _ in range(2):
        rendered.clear()
        assert serialize_document(doc) == text
        assert rendered.keys() == composites and set(rendered.values()) == {1}


def test_parsing_a_model_sum_parses_each_distinct_composite_token_once(monkeypatch):
    doc, composites = _model_sum_document()
    text = serialize_document(doc)
    assert "(tuples" in text
    parsed = Counter()
    parse = document._parse_composite

    def counted(v, tok):
        parsed[write_value(v)] += 1
        return parse(v, tok)
    monkeypatch.setattr(document, "_parse_composite", counted)
    for _ in range(2):
        parsed.clear()
        again = parse_document(text)
        assert again.order == doc.order and again.objects == doc.objects
        assert parsed.keys() == {write_value(render_token(t)) for t in composites}
        assert set(parsed.values()) == {1}


@pytest.mark.parametrize("bad, message", [
    (["bogus", "a"], "expected a token, got (bogus a)"),
    ([], "expected a token, got ()"),
    (["set", "a", ["tuple", ["a"]]], "expected a token, got (a)"),
    (["map", ["x", "a"], ["y"]], "map entry must be a pair, got (y)"),
    (["map", ["x", "a"], ["x", "b"]], "map gives x two values, a and b"),
], ids=["head", "empty", "member", "map-entry", "map-key"])
def test_a_bad_token_fails_with_one_message_every_time_it_is_met(bad, message):
    tok = document._TokenParser().tok
    good = ["tuple", "a", ["set", "b"]]
    assert tok(good) is tok(good) == ("a", frozenset({"b"}))
    text = ("(language L (variables x) (entity-types T) (reference (x T)) (relations (R (x))))\n"
            f"(model M (language L) (entities a) (incidence (a T)) (extents (R ((x a))"
            f" ((x {write_value(bad)})))))\n")
    for _ in range(2):
        for parse in (tok, parse_token):
            with pytest.raises(FormError) as err:
                parse(bad)
            assert str(err.value) == f"form token: {message}"
        with pytest.raises(FormError) as err:
            parse_document(text)
        assert str(err.value) == f"form M: {message}"


@pytest.mark.parametrize("bad", [("a", True), ("a", 1), frozenset({True}), frozenset({1}),
                                 fdict({"x": True}), ("a", ("b", 1))], ids=repr)
def test_a_token_holding_a_number_fails_to_render_every_time(bad):
    tok = document._TokenRenderer(token_key).tok
    assert tok(("a", "b")) is tok(("a", "b"))
    for _ in range(2):
        with pytest.raises(FormError, match="cannot render token"):
            tok(bad)
        with pytest.raises(FormError, match="cannot render token"):
            render_token(bad)


def test_reading_and_writing_leave_nothing_for_the_cyclic_collector():
    """The reader, the writer and their memos form no reference cycles, so
    all they make goes as soon as it is no longer used."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for text in CORPUS_TEXTS:
            serialize_document(parse_document(text))
        render_token(("a", frozenset({"b"})))
        parse_token(["tuple", "a", ["set", "b"]])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _unheld_reference() -> Document:
    """A theory without the form of its language."""
    doc = Document()
    doc.add("theory", "T", Theory.make(w_language(), []))
    return doc


@pytest.mark.parametrize("write, message", [
    # unhashable, so no token
    (lambda: render_token(["a"]), "form token: cannot render token ['a']"),
    (lambda: render_token(("a", ["b"])), "form token: cannot render token ['b']"),
    (lambda: render_expression("R"), "form expression: cannot render 'R'"),
    (lambda: serialize_document(_unheld_reference()),
     "form language: no language form holds the referenced object"),
], ids=["unhashable", "unhashable-member", "not-an-expression", "unheld-reference"])
def test_the_writer_refuses_what_it_cannot_write(write, message):
    with pytest.raises(FormError) as err:
        write()
    assert str(err.value) == message


# --- differential and fuzz --------------------------------------------------------------

CORPUS_TEXTS = [p.read_text() for p in CORPUS]


def _random_value(rng: random.Random, depth: int = 0):
    if depth > 5 or rng.random() < 0.4:
        return rng.choice(["a", "set", "x" * rng.randint(1, 30), "é"])
    return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 6))]


def _wide_token_document() -> Document:
    """A model whose one entity is 71 columns on one line: it fits in
    (entities ...) and (incidence ...), and wraps in its extent row."""
    wide = ("w" * 61, "f")
    lang = TypeLanguage.make(["x"], ["T"], {"x": "T"}, {"R": {"x"}})
    m = Model.from_extents(lang, [wide], [(wide, "T")], {"R": [fdict({"x": wide})]})
    return document_of("model", "M", m)


def _escaped_symbol_document() -> Document:
    """A model whose symbols hold \\x00, \\x01 or \\x02, each a prefix of others:
    the characters the token key escapes, and the first it does not."""
    names = ["a", "a\x00", "a\x01", "a\x02", "a\x01b", "a\x01\x02", "\x01", "\x02a", "a\x01\x01"]
    entities = names + [(n, "a\x01") for n in names] + [("a",), ("a", "b")]
    lang = TypeLanguage.make(["x", "x\x01"], ["T", "T\x01"], {"x": "T", "x\x01": "T\x01"},
                             {"R": {"x", "x\x01"}, "R\x02": {"x"}})
    incidence = [(e, "T") for e in entities] + [(e, "T\x01") for e in entities[::2]]
    rows = [fdict({"x": e, "x\x01": f}) for e in entities[:6] for f in entities[::2]]
    m = Model.from_extents(lang, entities, incidence,
                           {"R": rows, "R\x02": [fdict({"x": e}) for e in entities[1::3]]})
    return document_of("model", "M\x01", m)


def test_symbols_holding_escaped_characters_read_back_and_write_as_the_oracle_does():
    doc = _escaped_symbol_document()
    text = serialize_document(doc)
    assert text == naive_serialize(doc)
    assert "a\x01\x02" in text
    again = parse_document(text)
    assert again.order == doc.order and again.objects == doc.objects


def _built_documents() -> list:
    """Documents built in memory: 30 seeded model sums, the fused logics
    of the practical scenarios, and each corpus document's forms added
    afresh to an empty document."""
    docs = []
    rng = random.Random(37)
    for _ in range(30):
        a, b = (rand_model(rng, rand_language(rng, max_rels=3)) for _ in range(2))
        docs.append(document_of("model", "S", model_sum(a, b)[0]))
    for l1, l2, c, t, g1, g2 in practical_scenarios():
        docs.append(document_of("logic", "F", practical_integrate(l1, l2, c, t, g1, g2, 2)[0].fused))
    for text in CORPUS_TEXTS:
        read, doc = parse_document(text), Document()
        for kind, name in read.order:
            doc.add(kind, name, read.objects[name])
        docs.append(doc)
    return docs


def test_serialize_document_writes_what_the_writer_without_memos_wrote():
    docs = _built_documents() + [_wide_token_document()]
    for doc in docs:
        assert serialize_document(doc) == naive_serialize(doc)
    wide = serialize_document(docs[-1])
    assert f"(tuple {'w' * 61} f)" in wide and f"(tuple {'w' * 61}\n" in wide


def test_documents_built_in_memory_read_back_equal():
    docs = _built_documents()
    assert len(docs) == 30 + 21 + len(CORPUS_TEXTS)
    for doc in docs + [_wide_token_document()]:
        again = parse_document(serialize_document(doc))
        assert again.order == doc.order and again.objects == doc.objects


# --- round trip over generated documents --------------------------------------------------

# Symbols, the reserved heads among them, and composite tokens up to a few levels deep.
_TOKENS = st.recursive(
    st.sampled_from(["a", "b", "c", "set", "map", "é"]),
    lambda ts: st.one_of(st.lists(ts, max_size=3).map(tuple), st.frozensets(ts, max_size=3),
                         st.dictionaries(ts, ts, max_size=2).map(fdict)),
    max_leaves=4)


def _some(tokens, max_size=3, min_size=0):
    """A set of distinct tokens, drawn from tokens (a strategy or a collection)."""
    if not isinstance(tokens, st.SearchStrategy):
        if not tokens:
            return st.just(frozenset())
        tokens = st.sampled_from(sorted_tokens(tokens))
    return st.frozensets(tokens, min_size=min_size, max_size=max_size)


def _map_into(keys, values):
    """A map from some of keys into values, a strategy, a collection or None (no values)."""
    if values is not None and not isinstance(values, st.SearchStrategy):
        values = st.sampled_from(sorted_tokens(values)) if values else None
    if not keys or values is None:
        return st.just({})
    return st.dictionaries(st.sampled_from(sorted_tokens(keys)), values)


@st.composite
def _languages(draw):
    variables = draw(_some(_TOKENS))
    sorts = sorted_tokens(draw(_some(_TOKENS, 2, min_size=1)))
    reference = {x: draw(st.sampled_from(sorts)) for x in sorted_tokens(variables)}
    return TypeLanguage.make(variables, sorts, reference, {
        r: draw(_some(variables)) for r in sorted_tokens(draw(_some(_TOKENS)))})


def _expressions(lang):
    """Well-formed expressions over lang, substitutions among them; None if
    lang has no relation types."""
    if not lang.relation_types:
        return None
    variables = sorted_tokens(lang.variables)

    def subst(e):  # each free variable to a variable of its sort
        return st.fixed_dictionaries({x: st.sampled_from(
            [y for y in variables if lang.reference[y] == lang.reference[x]])
            for x in sorted_tokens(free_vars(lang, e))}).map(lambda m: Subst.make(m, e))

    def extend(es):
        out = [es.map(Not), st.builds(And, es, es), st.builds(Or, es, es),
               st.builds(Implies, es, es)]
        if variables:
            out += [st.builds(Exists, st.sampled_from(variables), es),
                    st.builds(Forall, st.sampled_from(variables), es), es.flatmap(subst)]
        return st.one_of(out)
    return st.recursive(st.sampled_from(sorted_tokens(lang.relation_types)).map(Atomic),
                        extend, max_leaves=4)


@st.composite
def _models(draw, lang):
    """A model over lang: from extents with extra tuples, or any checked model,
    which the writer gives in tuples form unless its extents rebuild it."""
    entities = draw(_some(_TOKENS, 4))
    pairs = [(e, a) for e in sorted_tokens(entities) for a in sorted_tokens(lang.entity_types)]
    incidence = draw(_some(pairs, len(pairs)))
    if draw(st.booleans()):
        m = Model.from_extents(lang, entities, incidence, {})
        extents = {rho: draw(_some(m.well_sorted_assignments(lang.arity[rho]), 3))
                   for rho in sorted_tokens(lang.relation_types)}
        extra = m.well_sorted_assignments(draw(_some(lang.variables)))
        return Model.from_extents(lang, entities, incidence, extents, draw(_some(extra, 2)))
    valuation = {t: fdict(draw(_map_into(lang.variables, entities)))
                 for t in sorted_tokens(draw(_some(_TOKENS)))}
    rel_inc = [(t, rho) for t, val in valuation.items() for rho in lang.relation_types
               if lang.arity[rho] <= val.keys()]
    return Model(lang, entities, frozenset(incidence), fdict(valuation),
                 draw(_some(rel_inc, len(rel_inc))))


@st.composite
def _logics(draw, theory, model):
    """A logic over theory and model: sound, or with its normal entities,
    its normal tuples or both narrowed."""
    narrowed = draw(st.sampled_from(["neither", "entities", "tuples", "both"]))
    valuation = model.tuple_valuation
    tuples = draw(_some(model.tuples, len(model.tuples))) \
        if narrowed in ("tuples", "both") else model.tuples
    needed = frozenset(e for t in tuples for e in valuation[t].values())
    entities = needed | draw(_some(model.entities - needed, len(model.entities))) \
        if narrowed in ("entities", "both") else model.entities
    return Logic.make(theory, model, entities, tuples)


@st.composite
def _language_maps(draw, source, target):
    """Maps from some of source's symbols to target's; with the refinement
    flag, some relations go to expressions over target."""
    refinement = draw(st.booleans())
    images = target.relation_types
    if refinement and images:
        images = st.one_of(st.sampled_from(sorted_tokens(images)), _expressions(target))
    return LanguageMorphism.make(
        source, target, draw(_map_into(source.variables, target.variables)),
        draw(_map_into(source.entity_types, target.entity_types)),
        draw(_map_into(source.relation_types, images)), refinement)


@st.composite
def _documents(draw):
    """A document holding forms of every kind, each named apart, each
    reference to a form written before it."""
    doc, theories, logics = Document(), [], []
    for i in range(draw(st.integers(1, 2))):
        lang = draw(_languages())
        axioms = _expressions(lang)
        axioms = draw(st.lists(axioms, max_size=2)) if axioms is not None else []
        theory = Theory.make(lang, axioms)
        model = draw(_models(lang))
        logics.append(draw(_logics(theory, model)))
        theories.append(theory)
        for kind, obj in zip(("language", "theory", "model", "logic"),
                             (lang, theory, model, logics[-1])):
            doc.add(kind, f"{kind}{i}", obj)

    def theory_morphism(name, source):
        target = draw(st.sampled_from(theories))
        g = TheoryMorphism.make(draw(_language_maps(source.language, target.language)),
                                source, target)
        doc.add("theory-morphism", name, g)
        return g
    for i in range(draw(st.integers(0, 2))):
        theory_morphism(f"g{i}", draw(st.sampled_from(theories)))
    for i in range(draw(st.integers(0, 2))):
        source, target = draw(st.sampled_from(logics)), draw(st.sampled_from(logics))
        doc.add("logic-morphism", f"f{i}", LogicMorphism.make(
            source, target, draw(_language_maps(source.language, target.language)),
            draw(_map_into(target.model.entities, source.model.entities)),
            draw(_map_into(target.model.tuples, source.model.tuples))))
    for i in range(draw(st.integers(0, 1))):
        t = draw(st.sampled_from(theories))
        links = [theory_morphism(f"a{i}-{side}", t) for side in "lr"]
        doc.add("alignment", f"a{i}", Alignment(draw(_some(_TOKENS)), t, *links))
    return doc


@given(_documents())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_a_generated_document_reads_back_equal_and_its_text_is_a_fixed_point(doc):
    text = serialize_document(doc)
    again = parse_document(text)
    assert again.order == doc.order and again.objects == doc.objects
    assert serialize_document(again) == text
    for kind, name in doc.order:
        if kind == "model":
            _extent_form(doc.objects[name])


def test_reader_agrees_with_the_oracle_on_corpus_and_mutated_texts():
    rng = random.Random(8)
    texts = CORPUS_TEXTS + [mutate(rng, rng.choice(CORPUS_TEXTS)) for _ in range(400)]
    for text in texts:
        try:
            values = parse_all(text)
        except SexprSyntaxError as err:
            values = None
            # the error names the parenthesis at fault
            assert text.split("\n")[err.line - 1][err.column - 1] in "()", text
        assert values == naive_parse(text, MAX_DEPTH), text


def test_written_values_read_back():
    rng = random.Random(9)
    for _ in range(300):
        values = [_random_value(rng) for _ in range(rng.randint(0, 4))]
        assert parse_all(write_all(values)) == values


def test_writer_agrees_with_the_writer_without_memos_on_shared_lists():
    rng = random.Random(10)
    for _ in range(300):
        pool = [_random_value(rng) for _ in range(3)]

        def shared(depth=0):  # a value holding the pool's lists at several depths
            if depth > 4 or rng.random() < 0.3:
                return rng.choice(pool)
            return [rng.choice(["a", "x" * 20])] + [shared(depth + 1)
                                                    for _ in range(rng.randint(0, 4))]
        values = [shared() for _ in range(rng.randint(1, 4))]
        assert write_all(values) == "\n\n".join(naive_write(v, 0)[1] for v in values) + "\n"


@given(st.sampled_from(CORPUS_TEXTS), st.randoms(use_true_random=False))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_mutated_documents_fail_only_with_ontofuse_errors(text, rng):
    text = mutate(rng, text)
    try:
        assert isinstance(parse_document(text), Document)
    except OntofuseError:
        pass
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d, "mutated.iff")
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    assert code in (0, 1)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def _uncommented(path: pathlib.Path) -> str:
    return re.sub(r";[^\n]*", "", path.read_text())


FIXTURE_TEXT = _uncommented(CORPUS[0].with_name("fixture.iff"))
SPAN_TEXT = _uncommented(CORPUS[0].with_name("span.iff"))


def _swap_symbols(rng: random.Random, text: str) -> str:
    """Replace one to three symbols by symbols of the same text, so the text
    still parses and fails, if at all, in alignment or fusion."""
    symbols = sorted(set(re.findall(r"[^\s();]+", text)))
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(list(re.finditer(r"[^\s();]+", text)))
        text = text[:m.start()] + rng.choice(symbols) + text[m.end():]
    return text


@st.composite
def _mutated(draw, text: str) -> str:
    """The text with noise spliced in, or with symbols swapped."""
    rng = draw(st.randoms(use_true_random=False))
    return (_swap_symbols if draw(st.booleans()) else mutate)(rng, text)


def _runs_to_an_exit_code(text: str, command: str, *options: str) -> None:
    """``ontofuse <command> <text's file> <options> -o <file>`` exits 0 or 1,
    with no traceback."""
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d, "mutated.iff")
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *options, "-o", str(pathlib.Path(d, "out.iff"))])
    assert code in (0, 1)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@given(_mutated(FIXTURE_TEXT), st.booleans())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_mutated_fixture_integrates_or_fails_with_an_error(text, practical):
    _runs_to_an_exit_code(text, "integrate", "--left", "L1", "--right", "L2",
                          "--alignment", "A", *["--practical"][:practical])


@given(_mutated(SPAN_TEXT))
@example(partial_span_text())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_mutated_span_fuses_or_fails_with_an_error(text):
    _runs_to_an_exit_code(text, "fuse", "--left-link", "m1", "--right-link", "m2")


@given(_mutated(FIXTURE_TEXT))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_mutated_fixture_sums_or_fails_with_an_error(text):
    _runs_to_an_exit_code(text, "sum", "--left", "L1", "--right", "L2")


@pytest.mark.parametrize("command", [
    ("quotient", "--of", "T", "--identify-entity", "Agent", "Org"),
    ("quotient", "--of", "L1", "--keep-entities", "bob", "acme"),
    ("restrict", "--logic", "L1", "--to", "bob", "acme"),
    ("fiber", "--morphism", "g1", "--logic", "L1"),
    ("sound-part", "--logic", "L1"),
    ("free-logic", "--theory", "TW"),
    ("entails", "--theory", "TW", "--query", "(implies (atom WorksFor) (atom WorksFor))"),
], ids=lambda c: " ".join(c[:3]))
@given(text=_mutated(FIXTURE_TEXT))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_mutated_fixture_runs_each_step_or_fails_with_an_error(command, text):
    _runs_to_an_exit_code(text, *command)
