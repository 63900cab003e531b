"""Command-line surface: validation, entailment, and the pipeline operations.

Every command reads one document file (check accepts several), writes
any resulting forms to the -o file, and prints a deterministic report.
Exit status: 0 success, 1 validation or verdict failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

from .document import (Document, _shown, document_of, parse_document, parse_expression,
                       parse_token, serialize_document)
from .errors import EdgeInvalid, OntofuseError
from .integration import align, practical_integrate, unify
from .language import LanguageEndorelation
from .logic import (Logic, LogicDualInvariant, free_logic, fusion, is_sound,
                    logic_dual_quotient, logic_morphism_valid, logic_sum,
                    restrict_logic, sound_part)
from .logic import fiber as fiber_op
from .sexpr import parse_all
from .theory import (DEFAULT_BUDGET, Refuted, Theory, entails,
                     theory_morphism_valid, theory_quotient, theory_sum)
from .tokens import sorted_tokens


def _write(doc: Document, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_document(doc))
    print(f"wrote {path}")


def _load(path: str) -> Document:
    with open(path, encoding="utf-8") as f:
        return parse_document(f.read())


def _parse_cli_token(text: str):
    values = parse_all(text)
    if len(values) != 1:
        raise OntofuseError(f"expected one token, got {text!r}")
    return parse_token(values[0])


def _summary(obj) -> str:
    """One-line sizes of a logic or a theory."""
    ne = len(obj.language.entity_types)
    nr = len(obj.language.relation_types)
    if isinstance(obj, Theory):
        return f"{ne + nr} type classes, {len(obj.axioms)} axioms"
    return (f"{ne + nr} type classes ({ne} entity, {nr} relation); "
            f"{len(obj.model.entities)} entities, {len(obj.model.tuples)} tuples; "
            f"sound: {'yes' if is_sound(obj) else 'no'}")


def _emit(args, label: str, obj, *notes: str) -> None:
    """Print obj's summary and any notes, then write it as the form args.name."""
    print(f"{label}: {_summary(obj)}", *notes, sep="\n")
    kind = "theory" if isinstance(obj, Theory) else "logic"
    _write(document_of(kind, args.name, obj), args.output)


# --- commands -----------------------------------------------------------------

def _witness(detail) -> str:
    """A morphism verdict's detail in document syntax: its label, then the
    nested detail of the aspect it names, or else its axioms and tokens."""
    label, *values = detail
    if label in ("theory", "model", "language"):
        return f"{label}: {_witness(values[0])}"
    return " ".join([label, *map(_shown, values)])


def _form_failure(kind: str, obj, bound: int, budget: int):
    """Why a form fails its check, or None; a map error raises."""
    if kind == "theory-morphism":
        v = theory_morphism_valid(obj, bound, budget)
    elif kind == "logic-morphism":
        v = logic_morphism_valid(obj, bound, budget)
    elif kind == "alignment":
        for g, edge in ((obj.left_link, "left-link"), (obj.right_link, "right-link")):
            v = theory_morphism_valid(g, bound, budget)
            if not v:
                return f"{edge}: {_witness(v.detail)}"
        return None
    else:
        return None
    return None if v else _witness(v.detail)


def cmd_check(args) -> int:
    status = 0
    for path in args.files:
        try:
            doc = _load(path)
        except OntofuseError as e:
            print(f"{path}: fail: {e}")
            status = 1
            continue
        if not doc.order:
            print(f"{path}: no forms")
        for kind, name in doc.order:
            try:
                failure = _form_failure(kind, doc.objects[name], args.bound, args.budget)
            except OntofuseError as e:
                failure = str(e)
            if failure is None:
                print(f"{path}: ok: {kind} {name}")
            else:
                print(f"{path}: fail: {kind} {name}: {failure}")
                status = 1
    return status


def cmd_entails(args) -> int:
    doc = _load(args.doc)
    t = doc.get(args.theory, "theory")
    values = parse_all(args.query)
    if len(values) != 1:
        raise OntofuseError("--query must be a single expression")
    e = parse_expression(values[0])
    verdict = entails(t, e, args.bound, args.budget)
    if isinstance(verdict, Refuted):
        print(f"refuted: countermodel with {len(verdict.counter_model.entities)} entities")
        if args.output:
            _write(document_of("model", args.name, verdict.counter_model), args.output)
        return 1
    print(f"no counterexample up to {verdict.bound} entities")
    return 0


def cmd_free_logic(args) -> int:
    doc = _load(args.doc)
    t = doc.get(args.theory, "theory")
    _emit(args, "free logic", free_logic(t, args.budget))
    return 0


def cmd_sum(args) -> int:
    doc = _load(args.doc)
    left, right = doc.get(args.left), doc.get(args.right)
    if isinstance(left, Logic) and isinstance(right, Logic):
        _emit(args, "logic sum", logic_sum(left, right)[0])
    elif isinstance(left, Theory) and isinstance(right, Theory):
        _emit(args, "theory sum", theory_sum(left, right)[0])
    else:
        raise OntofuseError("sum requires two logics or two theories")
    return 0


def cmd_quotient(args) -> int:
    doc = _load(args.doc)
    obj = doc.get(args.name_in)
    rel = LanguageEndorelation.make(
        entity_pairs=[tuple(map(_parse_cli_token, p)) for p in args.identify_entity],
        relation_pairs=[tuple(map(_parse_cli_token, p)) for p in args.identify_relation],
        variable_pairs=[tuple(map(_parse_cli_token, p)) for p in args.identify_variable])
    if isinstance(obj, Logic):
        keep_e = obj.model.entities if args.keep_entities is None \
            else frozenset(_parse_cli_token(e) for e in args.keep_entities)
        j = LogicDualInvariant(keep_e, obj.model.tuples, rel)
        _emit(args, "logic quotient", logic_dual_quotient(obj, j)[0])
    elif isinstance(obj, Theory):
        _emit(args, "theory quotient", theory_quotient(obj, rel)[0])
    else:
        raise OntofuseError("quotient requires a logic or a theory")
    return 0


def cmd_fuse(args) -> int:
    doc = _load(args.doc)
    f0 = doc.get(args.left_link, "logic-morphism")
    f1 = doc.get(args.right_link, "logic-morphism")
    _emit(args, "fused", fusion(f0, f1)[0])
    return 0


def cmd_restrict(args) -> int:
    doc = _load(args.doc)
    l = doc.get(args.logic, "logic")
    c = frozenset(_parse_cli_token(e) for e in args.to)
    _emit(args, "restricted", restrict_logic(l, c)[0])
    return 0


def cmd_fiber(args) -> int:
    doc = _load(args.doc)
    g = doc.get(args.morphism, "theory-morphism")
    p = doc.get(args.logic, "logic")
    _emit(args, "fiber", fiber_op(g, p)[0])
    return 0


def cmd_sound_part(args) -> int:
    doc = _load(args.doc)
    l = doc.get(args.logic, "logic")
    _emit(args, "sound part", sound_part(l))
    return 0


def cmd_integrate(args) -> int:
    doc = _load(args.doc)
    l1 = doc.get(args.left, "logic")
    l2 = doc.get(args.right, "logic")
    a = doc.get(args.alignment, "alignment")
    inputs = (l1, l2, a.universe, a.mediating_theory, a.left_link, a.right_link,
              args.bound, args.budget)
    if args.practical:
        result, report = practical_integrate(*inputs)
        _emit(args, "practical integration", result.fused,
              f"universe: {' '.join(str(e) for e in sorted_tokens(report.universe))}",
              f"fusion theory axioms: {len(report.fusion_theory.axioms)}")
    else:
        _emit(args, "integration", unify(align(*inputs)).fused)
    return 0


# --- argument plumbing ---------------------------------------------------------

def _count(text: str) -> int:
    """Type of --bound and --budget: a count, so a negative value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _form_name(text: str) -> str:
    """Type of --name: text the reader reads back as exactly this one symbol."""
    try:
        values = parse_all(text)
    except OntofuseError:
        values = []
    if values != [text]:
        raise argparse.ArgumentTypeError(f"not a form name: {text!r}")
    return text


def _limits(p: argparse.ArgumentParser, bound: bool = True) -> None:
    """The caps of the commands that search or enumerate: --bound, if it
    searches for countermodels, and --budget."""
    if bound:
        p.add_argument("--bound", type=_count, default=2,
                       help="entity cap of the countermodel search")
    p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                   help="candidate cap for combinatorial enumerations")


def _command(sub, command: str, func, help: str, default_name: str,
             output_required: bool = True) -> argparse.ArgumentParser:
    """A subcommand reading one document, with the options every such command takes."""
    p = sub.add_parser(command, help=help)
    p.set_defaults(func=func)
    p.add_argument("doc", help="input document file")
    p.add_argument("-o", "--output", required=output_required,
                   help="output document file")
    p.add_argument("--name", type=_form_name, default=default_name,
                   help="name of the resulting form")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ontofuse",
                                     description="ontology integration pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every form in each document")
    p.add_argument("files", nargs="+")
    _limits(p)
    p.set_defaults(func=cmd_check)

    p = _command(sub, "entails", cmd_entails, "bounded countermodel search", "countermodel",
                 output_required=False)
    _limits(p)
    p.add_argument("--theory", required=True)
    p.add_argument("--query", required=True)

    p = _command(sub, "free-logic", cmd_free_logic, "logic freely generated over a theory", "free")
    _limits(p, bound=False)
    p.add_argument("--theory", required=True)

    p = _command(sub, "sum", cmd_sum, "binary sum of logics or theories", "sum")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = _command(sub, "quotient", cmd_quotient, "quotient by identified types", "quotient")
    p.add_argument("--of", dest="name_in", required=True,
                   help="name of the logic or theory to quotient")
    p.add_argument("--identify-entity", nargs=2, action="append", default=[],
                   metavar=("A", "B"))
    p.add_argument("--identify-relation", nargs=2, action="append", default=[],
                   metavar=("R", "S"))
    p.add_argument("--identify-variable", nargs=2, action="append", default=[],
                   metavar=("X", "Y"))
    p.add_argument("--keep-entities", nargs="*", default=None)

    p = _command(sub, "fuse", cmd_fuse, "pushout of a span of logic morphisms", "fused")
    p.add_argument("--left-link", required=True)
    p.add_argument("--right-link", required=True)

    p = _command(sub, "restrict", cmd_restrict, "restrict a logic to a sub-universe", "restricted")
    p.add_argument("--logic", required=True)
    p.add_argument("--to", nargs="+", required=True, metavar="ENTITY")

    p = _command(sub, "fiber", cmd_fiber, "reclassify a logic along a theory morphism", "fiber")
    p.add_argument("--morphism", required=True)
    p.add_argument("--logic", required=True)

    p = _command(sub, "sound-part", cmd_sound_part, "drop abnormal instances", "sound")
    p.add_argument("--logic", required=True)

    p = _command(sub, "integrate", cmd_integrate, "two-step alignment and unification", "fused")
    _limits(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--practical", action="store_true",
                   help="fuse over the common fiber instead of the free logics")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OntofuseError, OSError) as e:
        message = str(e)
        if isinstance(e, EdgeInvalid) and isinstance(e.witness, tuple):
            message = f"edge {e.edge} is not a valid morphism: {_witness(e.witness)}"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
