"""Command-line interface: exit codes, reports, determinism.

Most tests run ``main`` in this process.  A test that takes ``seed_runs``
reads the outcomes of the invocations declared with ``seeded``, which one
run of the hash-seed harness (``hashseed.py``) makes under every seed.
"""
import ast
import pathlib
import random
import re

import pytest

from ontofuse.cli import main
from ontofuse.document import Document, parse_document, serialize_document
from ontofuse.errors import IncompatibleQuotient
from ontofuse.language import LanguageMorphism
from ontofuse.logic import LogicMorphism
from ontofuse.sexpr import MAX_DEPTH
from ontofuse.theory import DEFAULT_BUDGET

from fixtures import mutate, partial_span_text
from hashseed import Invocation, Outcome, run_under_every_seed
from oracles import one_fusion_practical_integrate

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
CORPUS_FILES = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.iff"))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SEEDED = []  # every invocation the hash-seed harness runs


def seeded(argv, files: dict):
    """An invocation the harness runs, where files {name: text} are written."""
    SEEDED.append(Invocation(tuple(argv), tuple(files.items())))
    return SEEDED[-1]


def corpus_run(command: str, doc: str, *options: str):
    """``ontofuse <command> <corpus doc> <options> -o out.iff`` for the harness."""
    return seeded([command, doc, *options, "-o", "out.iff"], {doc: CORPUS_FILES[doc]})


@pytest.fixture(scope="module")
def seed_runs():
    return run_under_every_seed(SEEDED)


# --- check ----------------------------------------------------------------------

CORPUS_CHECK = seeded(["check", *CORPUS_FILES], CORPUS_FILES)


def test_check_corpus_all_ok(seed_runs):
    lines = []
    for name, text in CORPUS_FILES.items():
        order = parse_document(text).order
        lines += [f"{name}: ok: {kind} {form}\n" for kind, form in order] or \
            [f"{name}: no forms\n"]
    assert "empty.iff: no forms\n" in lines
    assert seed_runs[CORPUS_CHECK] == Outcome(0, "".join(lines), "", None)


def test_check_invalid_morphism_reports_witness(tmp_path, capsys):
    doc = parse_document((CORPUS / "fixture.iff").read_text())
    l1 = doc.get("L1", "logic")
    lm = LanguageMorphism.make(
        l1.language, l1.language, {"x": "x", "y": "y"},
        {"Person": "Person", "Company": "Company"}, {"WorksFor": "WorksFor"})
    ents = {e: e for e in l1.model.entities}
    ents["acme"] = "bob"  # breaks the entity infomorphism condition
    bad = LogicMorphism.make(l1, l1, lm, ents,
                             {t: t for t in l1.model.tuples})
    out_doc = Document()
    out_doc.add("language", "W", l1.language)
    out_doc.add("theory", "TW", l1.theory)
    out_doc.add("model", "M1", l1.model)
    out_doc.add("logic", "L1", l1)
    out_doc.add("logic-morphism", "broken", bad)
    path = tmp_path / "bad.iff"
    path.write_text(serialize_document(out_doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    # the witness names the offending instance and its type, in document syntax
    assert out.splitlines()[-1] == f"{path}: fail: logic-morphism broken: model: entity acme Company"


def test_check_rejects_tuple_valued_outside_entities(tmp_path, capsys):
    path = tmp_path / "ghost.iff"
    path.write_text(
        "(language W (variables x) (entity-types T) (reference (x T)) "
        "(relations (R (x))))\n"
        "(model M (language W) (entities a) (incidence (a T))\n"
        "  (tuples (t1 (arity x) (valuation (x ghost))))\n"
        "  (relation-incidence (t1 R)))\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "fail:" in out


def test_check_names_the_missing_reference_key(tmp_path, capsys):
    path = tmp_path / "partial.iff"
    text = (CORPUS / "fixture.iff").read_text()
    path.write_text(text.replace("(reference (x Person) (y Company))", "(reference (x Person))"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert out == f"{path}: fail: language W: reference is not total on its domain: missing 'y'\n"


def test_check_rejects_a_tuple_whose_arity_is_not_its_valuations_domain(tmp_path, capsys):
    path = tmp_path / "abstract.iff"
    text = (CORPUS / "abstract.iff").read_text()
    path.write_text(text.replace("(l1 (arity s)", "(l1 (arity s t)"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert out == f"{path}: fail: model M: tuple of 'l1' not total exactly on its arity\n"


ONE_SORT_LANGUAGE = ("(language W (variables x) (entity-types T) (reference (x T)) "
                     "(relations (R (x))))\n")
EXTENTS_LANGUAGE = ("(language W (variables x y) (entity-types Person Company) "
                    "(reference (x Person) (y Company)) (relations (WorksFor (x y))))\n"
                    "(model M (language W) (entities bob acme) "
                    "(incidence (bob Person) (acme Company)) ")


def check_model(extents: str):
    return seeded(["check", "extents.iff"], {"extents.iff": EXTENTS_LANGUAGE + extents + ")\n"})


@pytest.mark.parametrize("run, message", [
    (check_model("(extents (WorksFor ((x bob))))"),
     "extent row {'x': 'bob'} of 'WorksFor' not total exactly on its arity"),
    (check_model("(extents (WorksFor) (Foo ((x bob) (y acme))))"),
     "extent of unknown relation type 'Foo'"),
], ids=["short-row", "unknown-relation"])
def test_check_rejects_a_bad_extent_under_every_hash_seed(seed_runs, run, message):
    assert seed_runs[run] == Outcome(1, f"extents.iff: fail: model M: {message}\n", "", None)


def check_one_sort(text: str):
    """``ontofuse check`` of text that goes on a one-sort language's opening clauses."""
    return seeded(["check", "first.iff"], {"first.iff": (
        "(language L (variables x) (entity-types T) (reference (x T)) " + text)})


# each document has several offenders, which a scan in set order meets in an
# order that depends on the hash seed; the message names the token-order-first
@pytest.mark.parametrize("run, message", [
    (check_model("(extents (WorksFor ((x bob) (y ghost1)) "
                 "((x bob) (y ghost2)) ((x bob) (y ghost3))))"),
     "extents.iff: fail: model M: tuple of {'x': 'bob', 'y': 'ghost1'} leaves the node set"),
    (check_one_sort("(relations (A (x q)) (B (x r)) (C (x s)) (D (x t)) (E (x u)) (F (x v))))\n"),
     "first.iff: fail: language L: arity of 'A' uses unknown variables"),
    (check_one_sort("(relations (R (x))))\n(theory S (language L) "
                    "(axioms (atom P) (atom Q) (atom U) (atom V) (atom W) (atom Z)))\n"),
     "first.iff: fail: theory S: axiom Atomic(relation='P') is not well-formed over the language"),
    (check_one_sort("(relations (R (x))))\n(theory TL (language L) (axioms))\n"
                    "(model M (language L) (entities a b c d e f g h)\n"
                    "  (incidence (a T) (b T) (c T) (d T) (e T) (f T) (g T) (h T))\n"
                    "  (extents (R ((x a)) ((x b)) ((x c)) ((x d)) ((x e)) ((x f)) ((x g)) "
                    "((x h)))))\n(logic G (theory TL) (model M) (normal-entities h))\n"),
     "first.iff: fail: logic G: normal tuple {'x': 'a'} has an abnormal component"),
    (check_model("(tuples (t2 (arity x y) (valuation (x bob))) "
                 "(t1 (arity x) (valuation (x bob) (y acme)))) (relation-incidence)"),
     "extents.iff: fail: model M: tuple of 't1' not total exactly on its arity"),
], ids=["stray-tuples", "language-arities", "theory-axioms", "logic-normal-tuples",
        "tuples-form-arities"])
def test_check_names_the_token_order_first_offender_under_every_hash_seed(seed_runs, run, message):
    assert seed_runs[run] == Outcome(1, message + "\n", "", None)


@pytest.mark.parametrize("run, message", [
    (check_model("(extent (WorksFor ((x bob) (y acme))))"), "form M: unknown clause extent"),
    (check_model("(extents) (bogus 1 2)"), "form M: unknown clause bogus"),
    (check_model("(tuples (t (arity x y) (valuations (x bob) (y acme))))"),
     "form M: unknown clause valuations"),
    (check_model("(tuples) (relation-incidence) (extra-tuples ((x bob) (y acme)))"),
     "form M: clause extra-tuples in a model written in tuples form"),
    (check_model("(extents (WorksFor ((x bob) (y acme)))) (relation-incidence)"),
     "form M: clause extents in a model written in tuples form"),
    (check_model("(tuples (t (arity x y)))"),
     "form M: tuple entry must be (TOKEN (arity ...) (valuation ...)), got (t (arity x y))"),
    (check_model("(extents WorksFor)"),
     "form M: extent entry must be (R assignments...), got WorksFor"),
    # a form's clauses are read in written order: the extents' fault is met
    # before the clash of the two model forms
    (check_model("(extents WorksFor) (tuples)"),
     "form M: extent entry must be (R assignments...), got WorksFor"),
    (seeded(["check", "extents.iff"], {"extents.iff": ONE_SORT_LANGUAGE + """\
(theory T1 (language W) (axioms))
(theory T2 (language W) (axioms (atom R)))
(theory-morphism g (source T1) (target T2) (variables (x x)) (entity-types (T T)) (relations (R R)))
(alignment A (universe) (mediating-theory T2) (left-link g) (right-link g))
"""}), "form A: alignment links must start at the mediating theory"),
], ids=["misspelled", "unknown", "tuple-entry", "extra-tuples-with-tuples",
        "extents-with-relation-incidence", "tuple-entry-shape", "extent-entry",
        "two-faults-extents-first", "alignment-links"])
def test_check_refuses_an_unknown_clause_or_mixed_model_forms(seed_runs, run, message):
    assert seed_runs[run] == Outcome(1, f"extents.iff: fail: {message}\n", "", None)


CLASHING_KEY = check_model("(extents (WorksFor ((x (map (k (set b a)) (k (set c a)))) (y acme))))")


def test_check_writes_a_key_given_two_values_in_document_syntax_under_every_hash_seed(
        seed_runs):
    assert seed_runs[CLASHING_KEY] == Outcome(
        1, "extents.iff: fail: form M: map gives k two values, (set a b) and (set a c)\n",
        "", None)


REFUTED_MORPHISM = seeded(["check", "refuted.iff"], {"refuted.iff": """\
(language W (variables x) (entity-types T) (reference (x T)) (relations (R (x))))
(theory TW (language W) (axioms (exists x (atom R)) (atom R)))
(theory T0 (language W) (axioms))
(theory-morphism g (source TW) (target T0)
  (variables (x x)) (entity-types (T T)) (relations (R R)))
"""})


def test_check_names_the_first_refuted_axiom_of_a_theory_morphism(seed_runs):
    # T0 has a model with R empty, which refutes both axioms' translates
    assert seed_runs[REFUTED_MORPHISM] == Outcome(1, "".join([
        "refuted.iff: ok: language W\n", "refuted.iff: ok: theory TW\n",
        "refuted.iff: ok: theory T0\n",
        "refuted.iff: fail: theory-morphism g: axiom (atom R)\n"]), "", None)


REFUTED_EDGES = seeded(["check", "edges.iff"], {"edges.iff": """\
(language W (variables x) (entity-types T) (reference (x T)) (relations (R (x))))
(theory TW (language W) (axioms (atom R)))
(theory T0 (language W) (axioms))
(theory-morphism g (source TW) (target T0)
  (variables (x x)) (entity-types (T T)) (relations (R R)))
(theory-morphism i (source TW) (target TW)
  (variables (x x)) (entity-types (T T)) (relations (R R)))
(alignment A (universe) (mediating-theory TW) (left-link g) (right-link i))
(model M (language W) (entities) (incidence) (extents (R)))
(logic LW (theory TW) (model M))
(logic L0 (theory T0) (model M))
(logic-morphism f (source LW) (target L0)
  (variables (x x)) (entity-types (T T)) (relations (R R)) (entity-map) (tuple-map))
"""})


def test_check_writes_each_refuted_edge_in_document_syntax(seed_runs):
    assert seed_runs[REFUTED_EDGES] == Outcome(1, "".join(f"edges.iff: {line}\n" for line in [
        "ok: language W", "ok: theory TW", "ok: theory T0",
        "fail: theory-morphism g: axiom (atom R)", "ok: theory-morphism i",
        "fail: alignment A: left-link: axiom (atom R)",
        "ok: model M", "ok: logic LW", "ok: logic L0",
        "fail: logic-morphism f: theory: axiom (atom R)"]), "", None)


# TW has a model with WorksFor empty, which refutes the mediating axiom's translate
REFUTED_LINK = {"employer.iff": CORPUS_FILES["fixture.iff"].replace(
    "(theory T (language T-lang) (axioms))",
    "(theory T (language T-lang) (axioms (exists x (exists y (atom Emp)))))")}
REFUTED_LINK_INTEGRATE = seeded(["integrate", "employer.iff", "--left", "L1", "--right", "L2",
                                 "--alignment", "A", "-o", "out.iff"], REFUTED_LINK)
REFUTED_LINK_CHECK = seeded(["check", "employer.iff"], REFUTED_LINK)


def test_integrate_writes_a_refuted_edge_in_document_syntax_as_check_does(seed_runs):
    witness = "axiom (exists x (exists y (atom Emp)))"
    assert seed_runs[REFUTED_LINK_INTEGRATE] == Outcome(
        1, "", f"error: edge left alignment link is not a valid morphism: {witness}\n", None)
    assert f"employer.iff: fail: alignment A: left-link: {witness}\n" in \
        seed_runs[REFUTED_LINK_CHECK].out


BOGUS_THEORY = ONE_SORT_LANGUAGE + "(theory T (language W) (axioms (bogus (atom R))))\n"


@pytest.mark.parametrize("run, out, err", [
    (seeded(["check", "bogus.iff"], {"bogus.iff": BOGUS_THEORY}),
     "bogus.iff: fail: form T: unknown expression form (bogus (atom R))\n", ""),
    (check_model("(extents (WorksFor ((x (bogus bob)) (y acme))))"),
     "extents.iff: fail: form M: expected a token, got (bogus bob)\n", ""),
    (check_model("(extents (WorksFor ((x (set (tuple a) (map (x)))) (y acme))))"),
     "extents.iff: fail: form M: map entry must be a pair, got (x)\n", ""),
    (seeded(["entails", "bogus.iff", "--theory", "T", "--query", "(bogus (atom R))"],
            {"bogus.iff": BOGUS_THEORY.replace("(bogus (atom R))", "")}),
     "", "error: form expression: unknown expression form (bogus (atom R))\n"),
    (seeded(["check", "bogus.iff"], {"bogus.iff": BOGUS_THEORY.replace("(bogus (atom R))", "x")}),
     "bogus.iff: fail: form T: expected an expression, got x\n", ""),
    (seeded(["check", "bogus.iff"], {"bogus.iff": BOGUS_THEORY.replace("(bogus (atom R))", "") +
                                     "(theory-morphism g (source T) (target T) (variables (x x))"
                                     " (entity-types (T T)) (relations (R (expr))))\n"}),
     "bogus.iff: fail: form g: expected (expr EXPRESSION)\n", ""),
    # a form's clauses are read in written order: the variables' bad token
    # is met before the malformed relation entry
    (seeded(["check", "bogus.iff"], {"bogus.iff": "(language W (variables x (bogus y)) "
                                     "(entity-types T) (reference (x T)) (relations (R)))\n"}),
     "bogus.iff: fail: form W: expected a token, got (bogus y)\n", ""),
], ids=["expression", "token", "map-entry", "query", "axiom-symbol", "expr-image",
        "two-faults-variables-first"])
def test_a_bad_token_or_expression_is_named_by_its_form_in_document_syntax(seed_runs, run,
                                                                            out, err):
    assert seed_runs[run] == Outcome(1, out, err, None)


def test_check_syntax_error_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.iff"
    path.write_text("(language L (variables")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "fail" in out


PARTIAL_ENTITY_MAP = """\
(language A (variables x) (entity-types P Q) (reference (x P)) (relations (R (x))))
(theory TA (language A) (axioms))
(theory-morphism g (source TA) (target TA)
  (variables (x x)) (entity-types (P P)) (relations (R R)))
(theory-morphism h (source TA) (target TA)
  (variables (x x)) (entity-types (P P) (Q Q)) (relations (R R)))
"""


def test_check_reports_a_map_error_as_its_form_and_goes_on(tmp_path, capsys):
    path = tmp_path / "partial.iff"
    path.write_text(PARTIAL_ENTITY_MAP)
    unary = str(CORPUS / "unary.iff")
    _, unary_out, _ = run(capsys, "check", unary)
    code, out, err = run(capsys, "check", str(path), unary)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        f"{path}: ok: language A",
        f"{path}: ok: theory TA",
        f"{path}: fail: theory-morphism g: entity map is not total on its domain: missing 'Q'",
        f"{path}: ok: theory-morphism h",
        *unary_out.splitlines()]
    assert len(unary_out.splitlines()) == 4


# --- entails -------------------------------------------------------------------

def test_entails_axiom_consequence_exit_zero(capsys):
    code, out, _ = run(capsys, "entails", str(CORPUS / "employment.iff"),
                       "--theory", "TW", "--query",
                       "(implies (atom WorksFor) (atom Employed))",
                       "--bound", "1")
    assert code == 0
    assert "no counterexample up to 1" in out


def test_entails_beyond_the_budget_exit_one(capsys):
    code, out, err = run(capsys, "entails", str(CORPUS / "employment.iff"),
                         "--theory", "TW", "--query",
                         "(implies (atom WorksFor) (atom Employed))",
                         "--bound", "4")
    assert (code, out) == (1, "")
    assert err == f"error: model enumeration exceeded {DEFAULT_BUDGET} candidates\n"


def test_entails_refuted_exit_one_with_countermodel(tmp_path, capsys):
    out_file = tmp_path / "counter.iff"
    code, out, _ = run(capsys, "entails", str(CORPUS / "employment.iff"),
                       "--theory", "TW", "--query", "(atom Employed)",
                       "--bound", "1", "-o", str(out_file))
    assert code == 1
    assert "refuted" in out
    counter = parse_document(out_file.read_text())
    assert counter.get("countermodel", "model") is not None


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["entails", str(CORPUS / "employment.iff")])  # missing flags
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["entails", str(CORPUS / "employment.iff"), "--theory", "TW",
     "--query", "(implies (atom WorksFor) (atom Employed))"],
    ["check", str(CORPUS / "employment.iff")],
], ids=["entails", "check"])
def test_negative_bound_exit_two(argv, capsys):
    for option in ("--bound", "--budget"):
        with pytest.raises(SystemExit) as err:
            main(argv + [option, "-1"])
        assert err.value.code == 2
        assert option in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["sum", "fixture.iff", "--left", "L1", "--right", "L2"], "--budget"),
    (["sum", "fixture.iff", "--left", "L1", "--right", "L2"], "--bound"),
    (["quotient", "quotient-demo.iff", "--of", "L", "--identify-relation", "Cat", "Feline"],
     "--bound"),
    (["fuse", "span.iff", "--left-link", "m1", "--right-link", "m2"], "--budget"),
    (["restrict", "fixture.iff", "--logic", "L1", "--to", "bob", "acme"], "--bound"),
    (["fiber", "fixture.iff", "--morphism", "g1", "--logic", "L1"], "--budget"),
    (["sound-part", "fixture.iff", "--logic", "L1"], "--bound"),
    (["free-logic", "fixture.iff", "--theory", "TW"], "--bound"),
    (["free-logic", "fixture.iff", "--theory", "TW"], "--strict-free-logic"),
], ids=["sum-budget", "sum-bound", "quotient-bound", "fuse-budget", "restrict-bound",
        "fiber-budget", "sound-part-bound", "free-logic-bound", "free-logic-strict"])
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv, option):
    out_file = tmp_path / "out.iff"
    with pytest.raises(SystemExit) as err:
        main([argv[0], str(CORPUS / argv[1]), *argv[2:], option, "0", "-o", str(out_file)])
    assert err.value.code == 2
    assert option in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("name", ["a b", "", "x)"], ids=["two-symbols", "empty", "paren"])
def test_name_the_reader_cannot_read_back_is_a_usage_error(tmp_path, capsys, name):
    out_file = tmp_path / "sum.iff"
    with pytest.raises(SystemExit) as err:
        main(["sum", str(CORPUS / "fixture.iff"), "--left", "L1", "--right", "L2",
              "-o", str(out_file), "--name", name])
    assert err.value.code == 2
    assert "--name" in capsys.readouterr().err
    assert not out_file.exists()


# --- pipeline commands -----------------------------------------------------------

def test_free_logic_command(tmp_path, capsys):
    out_file = tmp_path / "free.iff"
    code, out, _ = run(capsys, "free-logic", str(CORPUS / "fixture.iff"),
                       "--theory", "TW", "-o", str(out_file), "--name", "F")
    assert code == 0
    assert "sound: yes" in out
    doc = parse_document(out_file.read_text())
    assert doc.get("F", "logic") is not None


def test_free_logic_over_the_budget_is_one_error_line(tmp_path, capsys):
    # 2^40 variable subsets: the budget stops the listing, not its end
    variables = " ".join(f"x{i}" for i in range(40))
    reference = " ".join(f"(x{i} T)" for i in range(40))
    path = tmp_path / "wide.iff"
    path.write_text(f"(language L (variables {variables}) (entity-types T) "
                    f"(reference {reference}) (relations (R (x0))))\n"
                    "(theory TL (language L) (axioms))\n")
    code, out, err = run(capsys, "free-logic", str(path), "--theory", "TL",
                         "-o", str(tmp_path / "free.iff"))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "free.iff").exists()


def test_sum_command(tmp_path, capsys):
    out_file = tmp_path / "sum.iff"
    code, out, _ = run(capsys, "sum", str(CORPUS / "fixture.iff"),
                       "--left", "L1", "--right", "L2", "-o", str(out_file))
    assert code == 0
    assert "logic sum" in out


def test_fuse_command_on_the_span(tmp_path, capsys):
    out_file = tmp_path / "fused.iff"
    code, out, _ = run(capsys, "fuse", str(CORPUS / "span.iff"),
                       "--left-link", "m1", "--right-link", "m2", "-o", str(out_file))
    assert code == 0
    assert "fused: " in out and "sound: yes" in out
    assert parse_document(out_file.read_text())


def test_fuse_with_a_partial_entity_map_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "partial.iff"
    path.write_text(partial_span_text())
    code, out, err = run(capsys, "fuse", str(path), "--left-link", "m1",
                         "--right-link", "m2", "-o", str(tmp_path / "fused.iff"))
    assert code == 1
    assert out == ""
    assert err == "error: right entity map is not total on its domain: missing 'bob'\n"
    assert not (tmp_path / "fused.iff").exists()


def test_restrict_command(tmp_path, capsys):
    out_file = tmp_path / "restricted.iff"
    code, out, _ = run(capsys, "restrict", str(CORPUS / "fixture.iff"),
                       "--logic", "L1", "--to", "bob", "acme",
                       "-o", str(out_file))
    assert code == 0
    assert "2 entities" in out


def test_integrate_fixture_three_classes(tmp_path, capsys):
    out_file = tmp_path / "fused.iff"
    code, out, _ = run(capsys, "integrate", str(CORPUS / "fixture.iff"),
                       "--left", "L1", "--right", "L2", "--alignment", "A",
                       "--bound", "2", "-o", str(out_file))
    assert code == 0
    assert "3 type classes (2 entity, 1 relation)" in out
    assert "sound: yes" in out


PRACTICAL_GOLDEN = corpus_run("integrate", "fixture.iff", "--left", "L1", "--right", "L2",
                              "--alignment", "A", "--practical", "--name", "fused")
UNIFIED_GOLDEN = corpus_run("integrate", "fixture.iff", "--left", "L1", "--right", "L2",
                            "--alignment", "A", "--name", "fused")
REFUTED_GOLDEN = corpus_run("entails", "employment.iff", "--theory", "TW", "--query",
                            "(implies (exists x (atom Employed)) (forall x (atom Employed)))",
                            "--bound", "2")


def test_integrate_practical_matches_golden(seed_runs):
    code, out, _, written = seed_runs[PRACTICAL_GOLDEN]
    assert code == 0
    assert "universe: acme bob" in out
    assert written == (CORPUS / "fused.golden.iff").read_bytes()


def test_integrate_unify_matches_golden(seed_runs):
    code, out, _, written = seed_runs[UNIFIED_GOLDEN]
    assert code == 0
    assert out.startswith("integration: 3 type classes (2 entity, 1 relation)")
    assert written == (CORPUS / "unified.golden.iff").read_bytes()


def test_entails_countermodel_matches_golden(seed_runs):
    code, out, _, written = seed_runs[REFUTED_GOLDEN]
    assert code == 1
    assert out.startswith("refuted: countermodel with 2 entities\n")
    assert written == (CORPUS / "countermodel.golden.iff").read_bytes()


@pytest.mark.parametrize("practical", [(), ("--practical",)])
def test_integrate_budget_caps_the_free_logic(tmp_path, capsys, practical):
    # the mediating theory has two sorts, so its free logic has 4 entities
    out_file = tmp_path / "fused.iff"
    code, out, err = run(capsys, "integrate", str(CORPUS / "fixture.iff"),
                         "--left", "L1", "--right", "L2", "--alignment", "A",
                         "--budget", "3", *practical, "-o", str(out_file))
    assert code == 1
    assert out == ""
    assert err == "error: power classification would have 4 instances\n"
    assert not out_file.exists()


SWAPPED_RIGHT_LINK = """
(language W (variables x y) (entity-types Thing) (reference (x Thing) (y Thing))
  (relations (R (x y))))
(language Wp (variables x y) (entity-types Item) (reference (x Item) (y Item))
  (relations (S (x y))))
(language TL (variables x y) (entity-types Any) (reference (x Any) (y Any))
  (relations (Q (x y))))
(theory TW (language W) (axioms))
(theory TWp (language Wp) (axioms))
(theory T (language TL) (axioms))
(model M1 (language W) (entities a b) (incidence (a Thing) (b Thing))
  (tuples (t (arity x y) (valuation (x a) (y b)))) (relation-incidence (t R)))
(model M2 (language Wp) (entities a b) (incidence (a Item) (b Item))
  (tuples (t (arity x y) (valuation (x b) (y a)))) (relation-incidence (t S)))
(logic L1 (theory TW) (model M1))
(logic L2 (theory TWp) (model M2))
(theory-morphism g1 (source T) (target TW)
  (variables (x x) (y y)) (entity-types (Any Thing)) (relations (Q R)))
(theory-morphism g2 (source T) (target TWp)
  (variables (x y) (y x)) (entity-types (Any Item)) (relations (Q S)))
(alignment A (universe a b) (mediating-theory T) (left-link g1) (right-link g2))
"""


def test_integrate_practical_fails_when_the_free_fusion_does(tmp_path, capsys):
    # the fibers agree and the C-fusion keeps no tuple, but the free fusion
    # pairs t with itself across a and b, valuing the merged variables
    # differently: the free fusion's failure is the command's
    doc = tmp_path / "swapped.iff"
    doc.write_text(SWAPPED_RIGHT_LINK)
    d = parse_document(SWAPPED_RIGHT_LINK)
    a = d.get("A", "alignment")
    with pytest.raises(IncompatibleQuotient) as err:
        one_fusion_practical_integrate(d.get("L1", "logic"), d.get("L2", "logic"),
                                       a.universe, a.mediating_theory, a.left_link,
                                       a.right_link, 2, DEFAULT_BUDGET)
    out_file = tmp_path / "fused.iff"
    code, out, stderr = run(capsys, "integrate", str(doc), "--left", "L1", "--right", "L2",
                            "--alignment", "A", "--practical", "-o", str(out_file))
    assert code == 1
    assert out == ""
    assert stderr == f"error: {err.value}\n"
    assert "tuple ('t', 't') values merged variables differently" in stderr
    assert not out_file.exists()


def test_reports_deterministic(tmp_path, capsys):
    outs = []
    for i in range(2):
        out_file = tmp_path / f"fused{i}.iff"
        code, out, _ = run(capsys, "integrate", str(CORPUS / "fixture.iff"),
                           "--left", "L1", "--right", "L2", "--alignment", "A",
                           "-o", str(out_file))
        assert code == 0
        outs.append(out.replace(str(out_file), "OUT"))
    assert outs[0] == outs[1]
    assert (tmp_path / "fused0.iff").read_text() == \
        (tmp_path / "fused1.iff").read_text()


# --- error witnesses independent of the hash seed --------------------------------------

QUOTIENT_ERRORS = """\
(language Pets (variables a) (entity-types Animal) (reference (a Animal))
  (relations (Avian (a)) (Bird (a)) (Canine (a)) (Cat (a)) (Dog (a)) (Feline (a))))
(theory TPets (language Pets) (axioms))
(model MPets (language Pets) (entities milo) (incidence (milo Animal))
  (extents (Bird ((a milo))) (Cat ((a milo))) (Dog ((a milo)))))
(logic Pet (theory TPets) (model MPets))
(language E (variables x) (entity-types A1 A2 B1 B2 C1 C2) (reference (x A1)) (relations))
(theory TE (language E) (axioms))
(model ME (language E) (entities e f) (incidence (e A1) (e B1) (e C1) (f A2)) (extents))
(logic Ent (theory TE) (model ME))
(language V (variables x y z) (entity-types T) (reference (x T) (y T) (z T))
  (relations (R (x y z))))
(theory TV (language V) (axioms))
(model MV (language V) (entities a b c) (incidence (a T) (b T) (c T))
  (extents (R ((x a) (y b) (z c)))))
(logic Var (theory TV) (model MV))
(language Q (variables a b c d) (entity-types S T) (reference (a S) (b T) (c S) (d T))
  (relations (P (a b)) (R (a)) (U (c)) (V (c d))))
(theory TQ (language Q) (axioms))
"""


def quotient_errors(*options: str):
    return seeded(["quotient", "errors.iff", *options, "-o", "out.iff"],
                  {"errors.iff": QUOTIENT_ERRORS})


# R and S are identified: {'x': 'a'} is classified by R and not S, but S's
# arity does not cover it, so only the tuple that both arities cover splits them
LAX_RESPECT = """\
(language L (variables x y) (entity-types T) (reference (x T) (y T))
  (relations (P (x y)) (R (x)) (S (y))))
(theory TL (language L) (axioms))
(model M (language L) (entities a b) (incidence (a T) (b T))
  (extents (P ((x b) (y b))) (R ((x a)) ((x b))) (S ((y a)))))
(logic Lax (theory TL) (model M))
"""


@pytest.mark.parametrize("run, message", [
    (quotient_errors("--of", "Pet", "--identify-relation", "Cat", "Feline",
                     "--identify-relation", "Dog", "Canine", "--identify-relation", "Bird", "Avian"),
     "invariant not respected: {'a': 'milo'} distinguishes 'Bird' and 'Avian'"),
    (quotient_errors("--of", "Ent", "--identify-entity", "A1", "A2", "--identify-entity", "B1", "B2",
                     "--identify-entity", "C1", "C2"),
     "invariant not respected: 'e' distinguishes 'A1' and 'A2'"),
    (quotient_errors("--of", "Var", "--identify-variable", "x", "y", "--identify-variable", "y", "z"),
     "cannot identify 'y' with ('x', 'y', 'z'): "
     "tuple {'x': 'a', 'y': 'b', 'z': 'c'} values merged variables differently"),
    (quotient_errors("--of", "TQ", "--identify-variable", "a", "b", "--identify-variable", "c", "d"),
     "cannot identify 'b' with 'a': merged variables have unrelated references"),
    (quotient_errors("--of", "TQ", "--identify-relation", "R", "P", "--identify-relation", "U", "V"),
     "cannot identify 'R' with 'P': merged relation types have incompatible arities"),
    (seeded(["quotient", "lax.iff", "--of", "Lax", "--identify-relation", "R", "S",
             "--identify-variable", "x", "y", "-o", "out.iff"], {"lax.iff": LAX_RESPECT}),
     "invariant not respected: {'x': 'b', 'y': 'b'} distinguishes 'R' and 'S'"),
    (seeded(["quotient", "demo.iff", "--of", "L", "--identify-relation", "Foo", "Bar",
             "--identify-relation", "Baz", "Qux", "--identify-relation", "Zed", "Cat",
             "-o", "out.iff"], {"demo.iff": CORPUS_FILES["quotient-demo.iff"]}),
     "relation pair ('Baz', 'Qux') mentions unknown element"),
], ids=["model-relations", "entity-types", "model-variables", "language-variables",
        "language-relations", "model-relations-lax", "unknown-relations"])
def test_quotient_error_names_one_witness_under_every_hash_seed(seed_runs, run, message):
    assert seed_runs[run] == Outcome(1, "", f"error: {message}\n", None)


# --- each input check a command reaches ------------------------------------------------

FIXTURE = CORPUS_FILES["fixture.iff"]
UNSOUND_L1 = FIXTURE.replace("(logic L1 (theory TW) (model M1))",
                             "(logic L1 (theory TW) (model M1) (normal-entities acme bob))")
# T's axiom puts every pair in Emp, and neither community's pair is in its image
EMP_AXIOM = FIXTURE.replace("(theory T (language T-lang) (axioms))",
                            "(theory T (language T-lang) (axioms (atom Emp)))").replace(
    "(extents (WorksFor ((x bob) (y acme))))", "(extents (WorksFor)) (extra-tuples ((x bob) (y acme)))"
).replace("(extents (EmployedBy ((x bob) (y acme))))",
          "(extents (EmployedBy)) (extra-tuples ((x bob) (y acme)))")
# T's axiom alone: both communities' pairs are in its image, and g1 is still refuted
EMP_IN_T = FIXTURE.replace("(theory T (language T-lang) (axioms))",
                           "(theory T (language T-lang) (axioms (atom Emp)))")
EMP_REFUTED = "edge left alignment link is not a valid morphism: axiom (atom Emp)"


# the fibers of t differ in arity, whose variables are named in token order
ARITY = """\
(language W (variables x y) (entity-types T) (reference (x T) (y T)) (relations))
(theory TW (language W) (axioms))
(model M1 (language W) (entities a b) (incidence (a T) (b T))
  (tuples (t (arity x y) (valuation (x a) (y b)))) (relation-incidence))
(model M2 (language W) (entities a b) (incidence (a T) (b T))
  (tuples (t (arity y) (valuation (y b)))) (relation-incidence))
(logic L1 (theory TW) (model M1))
(logic L2 (theory TW) (model M2))
(theory-morphism g (source TW) (target TW) (variables (x x) (y y)) (entity-types (T T))
  (relations))
(alignment A (universe a b) (mediating-theory TW) (left-link g) (right-link g))
"""


def fixture_run(text: str, command: str, *options: str):
    """``ontofuse <command> doc.iff <options> -o out.iff``, doc.iff holding text."""
    return seeded([command, "doc.iff", *options, "-o", "out.iff"], {"doc.iff": text})

# identifying a and b names their class (tuple a b), the name of a type left alone
COLLIDING = """\
(language L (variables x) (entity-types a b (tuple a b)) (reference (x a)) (relations))
(theory T (language L) (axioms))
(model M (language L) (entities e f) (incidence (e a) (e b) (e (tuple a b))))
(logic G (theory T) (model M))
"""


@pytest.mark.parametrize("run, message", [
    (fixture_run(FIXTURE, "quotient", "--of", "L1", "--identify-relation", "WorksFor X",
                 "WorksFor"), "expected one token, got 'WorksFor X'"),
    (seeded(["entails", "doc.iff", "--theory", "TW", "--query", "(atom WorksFor) (atom WorksFor)"],
            {"doc.iff": FIXTURE}), "--query must be a single expression"),
    (fixture_run(FIXTURE, "sum", "--left", "L1", "--right", "TW"),
     "sum requires two logics or two theories"),
    (fixture_run(FIXTURE, "quotient", "--of", "M1"), "quotient requires a logic or a theory"),
    (fixture_run(FIXTURE, "quotient", "--of", "L1", "--keep-entities", "ghost"),
     "invariant subsets exceed the model's instances"),
    (fixture_run(FIXTURE, "restrict", "--logic", "L1", "--to", "ghost"),
     "restriction set is not a subset of the universe"),
    (fixture_run(FIXTURE, "fiber", "--morphism", "g1", "--logic", "L2"),
     "g's target theory must be the logic's theory"),
    (fixture_run(UNSOUND_L1, "fiber", "--morphism", "g1", "--logic", "L1"),
     "reclassification along g requires a sound logic"),
    (fixture_run(FIXTURE, "integrate", "--left", "L2", "--right", "L1", "--alignment", "A"),
     "edge left alignment link: endpoints do not match the diagram"),
    (fixture_run(UNSOUND_L1, "integrate", "--left", "L1", "--right", "L2", "--alignment", "A"),
     "edge left community: not sound"),
    (fixture_run(FIXTURE, "integrate", "--left", "L2", "--right", "L1", "--alignment", "A",
                 "--practical"), "edge left alignment link: endpoints do not match the diagram"),
    (fixture_run(EMP_AXIOM, "integrate", "--left", "L1", "--right", "L2", "--alignment", "A",
                 "--practical"), EMP_REFUTED),
    (fixture_run(EMP_AXIOM, "integrate", "--left", "L1", "--right", "L2", "--alignment", "A"),
     EMP_REFUTED),
    # zoe, L1's abnormal entity, lies outside C, and the community is still checked
    (fixture_run(UNSOUND_L1, "integrate", "--left", "L1", "--right", "L2", "--alignment", "A",
                 "--practical"), "edge left community: not sound"),
    (fixture_run(EMP_IN_T, "integrate", "--left", "L1", "--right", "L2", "--alignment", "A"),
     EMP_REFUTED),
    (fixture_run(EMP_IN_T, "integrate", "--left", "L1", "--right", "L2", "--alignment", "A",
                 "--practical"), EMP_REFUTED),
    (fixture_run(ARITY, "integrate", "--left", "L1", "--right", "L2", "--alignment", "A",
                 "--practical"),
     "community interpretations disagree: tuple arity differ at ('t', ('x', 'y'))"),
    (fixture_run(COLLIDING, "quotient", "--of", "G", "--identify-entity", "a", "b"),
     "quotient class of ['a', 'b'] collides with ('a', 'b')"),
    # e is not in (tuple a b), which a merge of the two classes would not respect
    (fixture_run(COLLIDING.replace(" (e (tuple a b))", ""), "quotient", "--of", "G",
                 "--identify-entity", "a", "b"),
     "quotient class of ['a', 'b'] collides with ('a', 'b')"),
], ids=["cli-token", "query", "sum", "quotient", "keep-entities", "restrict", "fiber-target",
        "fiber-unsound", "edge-endpoints", "edge-unsound", "practical-targets", "counit",
        "emp-axiom-unify", "practical-unsound", "emp-in-t-unify", "emp-in-t-practical",
        "agreement-arity", "class-collision", "class-collision-unrespected"])
def test_a_command_refusing_its_input_says_why_under_every_hash_seed(seed_runs, run, message):
    assert seed_runs[run] == Outcome(1, "", f"error: {message}\n", None)


ONE_LOGIC = """\
(language W (variables x y) (entity-types T) (reference (x T) (y T))
  (relations (R (x y)) (S (x))))
(theory TW (language W) (axioms))
(model M (language W) (entities a b) (incidence (a T) (b T)) (extents (R ((x a) (y b)))))
"""
ENDO = "(theory-morphism g (source TW) (target TW) (variables (x x) (y y)) (entity-types (T T))"
FORMS_OK = "".join(f"doc.iff: ok: {form}\n" for form in ("language W", "theory TW", "model M"))


def check_doc(text: str):
    return seeded(["check", "doc.iff"], {"doc.iff": text})


@pytest.mark.parametrize("run, out", [
    (check_doc(ONE_LOGIC + "(language V (variables x) (entity-types T) (reference (x T)) "
               "(relations))\n(theory TV (language V) (axioms))\n(logic L (theory TV) (model M))\n"),
     "doc.iff: fail: logic L: theory and model do not share a language\n"),
    (check_doc(ONE_LOGIC + "(logic L (theory TW) (model M) (normal-entities a ghost))\n"),
     "doc.iff: fail: logic L: normal entities exceed the universe\n"),
    (check_doc(ONE_LOGIC + "(logic L (theory TW) (model M) (normal-tuples ghost))\n"),
     "doc.iff: fail: logic L: normal tuples exceed the tuples\n"),
    (check_doc(ONE_LOGIC + "(model N (language W) (entities a) (incidence (a T)) "
               "(tuples (t (arity x) (valuation (x a)))) (relation-incidence (t R)))\n"),
     "doc.iff: fail: model N: 't' classified by 'R' of larger arity\n"),
    (check_doc(ONE_LOGIC + ENDO + " (relations (R R)))\n"),
     FORMS_OK + "doc.iff: fail: theory-morphism g: relation map not total on source relation "
     "types\n"),
    (check_doc(ONE_LOGIC + ENDO + " (relations (R R) (S (expr (atom S)))))\n"),
     FORMS_OK + "doc.iff: fail: theory-morphism g: relation 'S' maps to an expression without "
     "the refinement flag\n"),
    (check_doc(ONE_LOGIC + ENDO + " (relations (R R) (S (expr (atom Nope)))) (refinement))\n"),
     FORMS_OK + "doc.iff: fail: theory-morphism g: image of 'S' is not well-formed over the "
     "target\n"),
    (check_doc(ONE_LOGIC + ENDO + " (relations (R R) (S Nope)))\n"),
     FORMS_OK + "doc.iff: fail: theory-morphism g: relation map leaves target relation types "
     "at 'S'\n"),
    # both images leave the target's relation types: R, first in token order, is named
    (check_doc(ONE_LOGIC + ENDO + " (relations (S Nope) (R Nope)))\n"),
     FORMS_OK + "doc.iff: fail: theory-morphism g: relation map leaves target relation types "
     "at 'R'\n"),
    # y and x both go to x, so x is captured by the binder of y
    (check_doc(ONE_LOGIC.replace("(axioms)", "(axioms (exists y (atom R)))") +
               "(theory TS (language W) (axioms))\n(theory-morphism g (source TW) (target TS) "
               "(variables (x x) (y x)) (entity-types (T T)) (relations (R S) (S S)))\n"),
     FORMS_OK + "doc.iff: ok: theory TS\n"
     "doc.iff: fail: theory-morphism g: binder 'y' captures ['x'] under translation\n"),
    # the substitution's slots x and y both go to x, and their values z and y do not
    (check_doc("(language Z (variables x y z) (entity-types T) (reference (x T) (y T) (z T)) "
               "(relations (R (x))))\n(theory TZ (language Z) (axioms))\n"
               "(theory TS (language Z) (axioms (subst ((x z) (y y)) (atom R))))\n"
               "(theory-morphism g (source TS) (target TZ) (variables (x x) (y x) (z z)) "
               "(entity-types (T T)) (relations (R R)))\n"),
     "doc.iff: ok: language Z\ndoc.iff: ok: theory TZ\ndoc.iff: ok: theory TS\n"
     "doc.iff: fail: theory-morphism g: substitution slots collide at 'x'\n"),
    # slots c and d collide at c, a and b at a: the slots are read in token order
    (check_doc("(language Z (variables a b c d e f) (entity-types T) (reference (a T) (b T) "
               "(c T) (d T) (e T) (f T)) (relations (R (a))))\n(theory TZ (language Z) (axioms))\n"
               "(theory TS (language Z) (axioms (subst ((c e) (d f) (a e) (b f)) (atom R))))\n"
               "(theory-morphism g (source TS) (target TZ) (variables (a a) (b a) (c c) (d c) "
               "(e e) (f f)) (entity-types (T T)) (relations (R R)))\n"),
     "doc.iff: ok: language Z\ndoc.iff: ok: theory TZ\ndoc.iff: ok: theory TS\n"
     "doc.iff: fail: theory-morphism g: substitution slots collide at 'a'\n"),
    # the image of fN's t has arity {x, y}, the source t {x}; the image of
    # fP's t, in R, has the source t of the same arity in no relation
    (check_doc(ONE_LOGIC + """\
(logic L (theory TW) (model M))
(model N (language W) (entities a b) (incidence (a T) (b T))
  (tuples (t (arity x) (valuation (x a)))) (relation-incidence))
(logic LN (theory TW) (model N))
(logic-morphism fN (source L) (target LN) (variables (x x) (y y)) (entity-types (T T))
  (relations (R R) (S S)) (entity-map (a a) (b b)) (tuple-map (t (map (x a) (y b)))))
(model P (language W) (entities a b) (incidence (a T) (b T))
  (tuples (t (arity x y) (valuation (x a) (y b)))) (relation-incidence))
(logic LP (theory TW) (model P))
(logic-morphism fP (source LP) (target L) (variables (x x) (y y)) (entity-types (T T))
  (relations (R R) (S S)) (entity-map (a a) (b b)) (tuple-map ((map (x a) (y b)) t)))
"""),
     FORMS_OK + "doc.iff: ok: logic L\ndoc.iff: ok: model N\ndoc.iff: ok: logic LN\n"
     "doc.iff: fail: logic-morphism fN: model: arity-preimage t\n"
     "doc.iff: ok: model P\ndoc.iff: ok: logic LP\n"
     "doc.iff: fail: logic-morphism fP: model: relation (map (x a) (y b)) R\n"),
], ids=["logic-language", "normal-entities", "normal-tuples", "larger-arity",
        "relation-map-partial", "expression-unflagged", "expression-ill-formed",
        "relation-outside", "relation-outside-token-order", "binder-capture", "subst-slots",
        "subst-slots-token-order", "logic-morphism-model"])
def test_check_says_why_a_form_is_refused_under_every_hash_seed(seed_runs, run, out):
    assert seed_runs[run] == Outcome(1, out, "", None)


def test_a_bound_that_is_no_integer_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", str(CORPUS / "fixture.iff"), "--bound", "two"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "ontofuse check: error: argument --bound: not an integer: 'two'\n")


MUTATION_RNG = random.Random(20)
MUTATED_CHECKS = [seeded(["check", "mutated.iff"], {"mutated.iff": mutate(
    MUTATION_RNG, MUTATION_RNG.choice(list(CORPUS_FILES.values())))}) for _ in range(30)]


def test_mutated_documents_check_alike_under_every_hash_seed(seed_runs):
    outcomes = [seed_runs[run] for run in MUTATED_CHECKS]
    assert all(o.err == "" and o.written is None for o in outcomes)
    assert all(re.fullmatch(r"mutated\.iff: no forms\n|(mutated\.iff: (ok|fail): [^\n]*\n)+", o.out)
               for o in outcomes)
    assert sorted({o.code for o in outcomes}) == [0, 1]  # failing texts are in the sample


# --- hostile nesting ------------------------------------------------------------------

NEST_LANGUAGE = ("(language L (variables x) (entity-types T) (reference (x T)) "
                 "(relations (R (x))))\n")


def nested_nots(k):
    return "(not " * k + "(atom R)" + ")" * k


def check_and_entails(text: str):
    return (seeded(["check", "deep.iff"], {"deep.iff": text}),
            seeded(["entails", "deep.iff", "--theory", "T", "--query", "(atom R)"],
                   {"deep.iff": text}))


@pytest.mark.parametrize("runs", [
    check_and_entails(NEST_LANGUAGE + f"(theory T (language L) (axioms {nested_nots(3000)}))\n"),
    check_and_entails("(" * 5000 + ")" * 5000 + "\n"),
], ids=["3000-nots", "5000-parentheses"])
def test_deep_nesting_is_one_error_line(seed_runs, runs):
    for run, stream, head in zip(runs, ("out", "err"), ("fail", "error")):
        outcome = seed_runs[run]
        assert outcome.code == 1
        assert "Traceback" not in outcome.out + outcome.err
        lines = (outcome.out + outcome.err).splitlines()
        assert len(lines) == 1
        assert lines[0] in getattr(outcome, stream)
        assert re.search(head + r": \d+:\d+: lists nested deeper than", lines[0])


def test_document_at_the_nesting_limit_checks(tmp_path, capsys):
    # the axiom's innermost list sits MAX_DEPTH lists deep
    text = NEST_LANGUAGE + \
        f"(theory T (language L) (axioms {nested_nots(MAX_DEPTH - 3)}))\n"
    path = tmp_path / "deep.iff"
    path.write_text(text)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.splitlines() == [f"{path}: ok: language L", f"{path}: ok: theory T"]
    code, out, _ = run(capsys, "entails", str(path), "--theory", "T",
                       "--query", nested_nots(MAX_DEPTH - 1), "--bound", "2")
    assert code == 0 and out == "no counterexample up to 2 entities\n"
    doc = parse_document(text)
    assert serialize_document(parse_document(serialize_document(doc))) == \
        serialize_document(doc)
    path.with_name("deeper.iff").write_text(text.replace("(atom R)", "(not (atom R))"))
    code, out, _ = run(capsys, "check", str(path.with_name("deeper.iff")))
    assert code == 1 and "nested deeper than" in out


def test_console_script_runs():
    import subprocess
    import sys
    r = subprocess.run([sys.executable, "-m", "ontofuse.cli", "check",
                        str(CORPUS / "fixture.iff")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "ok: logic L1" in r.stdout


def _spawning_names(node) -> list:
    """The modules a node imports, or the os function it reads."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "os":
        return [f"os.{node.attr}"]
    return []


def test_only_the_hash_seed_harness_and_the_console_script_start_interpreters():
    """Every other test runs main in this process: one interpreter per
    hash seed and case is what made the hash-seed checks slow."""
    spawners = ("subprocess", "multiprocessing", "os.system", "os.popen", "os.fork",
                "os.spawn", "os.exec", "os.posix_spawn")
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        if path.name == "hashseed.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                   and f.name == "test_console_script_runs" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) not in allowed:
                assert not [n for n in _spawning_names(node) if n.startswith(spawners)], \
                    f"{path.name}:{node.lineno} starts an interpreter"


# --- the forms each command writes ------------------------------------------------

LOGIC_FORMS = [("language", "{}-language"), ("theory", "{}-theory"),
               ("model", "{}-model"), ("logic", "{}")]
THEORY_FORMS = [("language", "{}-language"), ("theory", "{}")]


@pytest.mark.parametrize("run, name, forms", [
    (corpus_run("free-logic", "fixture.iff", "--theory", "TW", "--name", "F"), "F", LOGIC_FORMS),
    (corpus_run("sum", "fixture.iff", "--left", "L1", "--right", "L2"), "sum", LOGIC_FORMS),
    (corpus_run("sum", "fixture.iff", "--left", "TW", "--right", "TWp"), "sum", THEORY_FORMS),
    (corpus_run("quotient", "quotient-demo.iff", "--of", "L", "--identify-relation", "Cat",
                "Feline"), "quotient", LOGIC_FORMS),
    (corpus_run("quotient", "quotient-demo.iff", "--of", "TPets", "--identify-relation", "Cat",
                "Feline"), "quotient", THEORY_FORMS),
    (corpus_run("fuse", "span.iff", "--left-link", "m1", "--right-link", "m2"), "fused",
     LOGIC_FORMS),
    (corpus_run("restrict", "fixture.iff", "--logic", "L1", "--to", "bob", "acme"),
     "restricted", LOGIC_FORMS),
    (corpus_run("fiber", "fixture.iff", "--morphism", "g1", "--logic", "L1"), "fiber",
     LOGIC_FORMS),
    (corpus_run("sound-part", "fixture.iff", "--logic", "L1"), "sound", LOGIC_FORMS),
    (corpus_run("integrate", "fixture.iff", "--left", "L1", "--right", "L2", "--alignment", "A"),
     "fused", LOGIC_FORMS),
    (corpus_run("integrate", "fixture.iff", "--left", "L1", "--right", "L2", "--alignment", "A",
                "--practical"), "fused", LOGIC_FORMS),
    (corpus_run("entails", "employment.iff", "--theory", "TW", "--query", "(atom Employed)",
                "--bound", "1"), "countermodel", [("language", "{}-language"), ("model", "{}")]),
    (corpus_run("entails", "employment.iff", "--theory", "TW", "--query", "(atom Employed)",
                "--bound", "1", "--name", "X"), "X", [("language", "{}-language"), ("model", "{}")]),
], ids=["free-logic", "sum-logics", "sum-theories", "quotient-logic", "quotient-theory",
        "fuse", "restrict", "fiber", "sound-part", "integrate", "integrate-practical",
        "entails", "entails-named"])
def test_each_writing_command_writes_its_forms_in_order(seed_runs, run, name, forms):
    code, out, _, written = seed_runs[run]
    assert code == (1 if run.argv[0] == "entails" else 0)
    assert out.endswith("wrote out.iff\n")
    assert parse_document(written.decode()).order == \
        [(kind, pattern.format(name)) for kind, pattern in forms]
