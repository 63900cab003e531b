"""Command-line interface: exit codes, reports, determinism."""
import pathlib
import subprocess
import sys

import pytest

from ontofuse.cli import main
from ontofuse.document import Document, parse_document, serialize_document
from ontofuse.language import LanguageMorphism
from ontofuse.logic import LogicMorphism

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ----------------------------------------------------------------------

def test_check_corpus_all_ok(capsys):
    files = sorted(str(p) for p in CORPUS.glob("*.iff"))
    code, out, _ = run(capsys, "check", *files)
    assert code == 0
    assert "fail" not in out


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
    assert "fail: logic-morphism broken" in out
    assert "acme" in out  # witness names the offending instance


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


def test_check_syntax_error_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.iff"
    path.write_text("(language L (variables")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "fail" in out


# --- entails -------------------------------------------------------------------

def test_entails_axiom_consequence_exit_zero(capsys):
    code, out, _ = run(capsys, "entails", str(CORPUS / "employment.iff"),
                       "--theory", "TW", "--query",
                       "(implies (atom WorksFor) (atom Employed))",
                       "--bound", "1")
    assert code == 0
    assert "no counterexample up to 1" in out


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


# --- pipeline commands -----------------------------------------------------------

def test_free_logic_command(tmp_path, capsys):
    out_file = tmp_path / "free.iff"
    code, out, _ = run(capsys, "free-logic", str(CORPUS / "fixture.iff"),
                       "--theory", "TW", "-o", str(out_file), "--name", "F")
    assert code == 0
    assert "sound: yes" in out
    doc = parse_document(out_file.read_text())
    assert doc.get("F", "logic") is not None


def test_sum_command(tmp_path, capsys):
    out_file = tmp_path / "sum.iff"
    code, out, _ = run(capsys, "sum", str(CORPUS / "fixture.iff"),
                       "--left", "L1", "--right", "L2", "-o", str(out_file))
    assert code == 0
    assert "logic sum" in out


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


def test_integrate_practical_matches_golden(tmp_path, capsys):
    out_file = tmp_path / "fused.iff"
    code, out, _ = run(capsys, "integrate", str(CORPUS / "fixture.iff"),
                       "--left", "L1", "--right", "L2", "--alignment", "A",
                       "--practical", "--name", "fused", "-o", str(out_file))
    assert code == 0
    assert "universe: acme bob" in out
    assert out_file.read_text() == (CORPUS / "fused.golden.iff").read_text()


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


def test_console_script_runs():
    r = subprocess.run([sys.executable, "-m", "ontofuse.cli", "check",
                        str(CORPUS / "fixture.iff")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "ok: logic L1" in r.stdout
