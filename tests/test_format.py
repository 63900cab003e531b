"""The S-expression ontology format: parsing, canonical serialization."""
import pathlib

import pytest

from ontofuse.document import (Document, FormError, parse_document,
                               parse_expression, parse_token,
                               render_expression, render_token,
                               serialize_document)
from ontofuse.language import And, Atomic, Exists, Not, Subst
from ontofuse.sexpr import MAX_DEPTH, SexprSyntaxError, parse_all, write_all
from ontofuse.tokens import fdict

from fixtures import w_language

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
    with pytest.raises(FormError, match="'x' two values"):
        parse_document(text)


def test_conflicting_assignment_keys_rejected():
    text = ("(language W (variables x) (entity-types T) (reference (x T)) "
            "(relations (R (x))))\n"
            "(model M (language W) (entities a b) (incidence (a T) (b T)) "
            "(extents (R ((x a) (x b)))))")
    with pytest.raises(FormError, match="'x' two values"):
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

def test_token_round_trip():
    for tok in ("plain", frozenset({"a", "b"}), ("pair", "of"),
                fdict({"x": "bob"}),
                frozenset({("t", "u"), "v"})):
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


def test_model_with_explicit_tuples_round_trips():
    text = pathlib.Path(CORPUS[0].parent, "abstract.iff").read_text()
    doc = parse_document(text)
    again = parse_document(serialize_document(doc))
    for (_, name) in doc.order:
        assert again.objects[name] == doc.objects[name]


def test_write_all_parses_back():
    values = [["a", "b", ["c", "d"]], ["e"]]
    assert parse_all(write_all(values)) == values
