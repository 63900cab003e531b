"""Command-line surface: validation, entailment, and the pipeline operations.

Every command reads one document file (check accepts several), writes
any resulting forms to the -o file, and prints a deterministic report.
Exit status: 0 success, 1 validation or verdict failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

from .document import (Document, parse_document, parse_expression,
                       parse_token, serialize_document)
from .errors import OntofuseError
from .integration import (build_alignment, practical_integrate, unify)
from .language import LanguageEndorelation
from .logic import (Logic, LogicDualInvariant, free_logic, fusion, is_sound,
                    logic_dual_quotient, logic_morphism_valid, logic_sum,
                    restrict_logic, sound_part)
from .logic import fiber as fiber_op
from .sexpr import parse_all
from .theory import (DEFAULT_BUDGET, Refuted, Theory, entails,
                     theory_morphism_valid, theory_quotient, theory_sum)
from .tokens import sorted_tokens


def _logic_document(l: Logic, name: str) -> Document:
    doc = Document()
    doc.add("language", f"{name}-language", l.language)
    doc.add("theory", f"{name}-theory", l.theory)
    doc.add("model", f"{name}-model", l.model)
    doc.add("logic", name, l)
    return doc


def _theory_document(t: Theory, name: str) -> Document:
    doc = Document()
    doc.add("language", f"{name}-language", t.language)
    doc.add("theory", name, t)
    return doc


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


def _logic_summary(l: Logic) -> str:
    ne = len(l.language.entity_types)
    nr = len(l.language.relation_types)
    return (f"{ne + nr} type classes ({ne} entity, {nr} relation); "
            f"{len(l.model.entities)} entities, {len(l.model.tuples)} tuples; "
            f"sound: {'yes' if is_sound(l) else 'no'}")


# --- commands -----------------------------------------------------------------

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
                return repr((edge, v.detail))
        return None
    else:
        return None
    return None if v else repr(v.detail)


def cmd_check(args) -> int:
    status = 0
    for path in args.files:
        try:
            doc = _load(path)
        except OntofuseError as e:
            print(f"{path}: fail: {e}")
            status = 1
            continue
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
            out = Document()
            out.add("language", "countermodel-language", verdict.counter_model.language)
            out.add("model", "countermodel", verdict.counter_model)
            _write(out, args.output)
        return 1
    print(f"no counterexample up to {verdict.bound} entities")
    return 0


def cmd_free_logic(args) -> int:
    doc = _load(args.doc)
    t = doc.get(args.theory, "theory")
    l = free_logic(t, args.budget, strict=args.strict_free_logic)
    print(f"free logic: {_logic_summary(l)}")
    _write(_logic_document(l, args.name), args.output)
    return 0


def cmd_sum(args) -> int:
    doc = _load(args.doc)
    left, right = doc.get(args.left), doc.get(args.right)
    if isinstance(left, Logic) and isinstance(right, Logic):
        s, _, _ = logic_sum(left, right)
        print(f"logic sum: {_logic_summary(s)}")
        _write(_logic_document(s, args.name), args.output)
    elif isinstance(left, Theory) and isinstance(right, Theory):
        s, _, _ = theory_sum(left, right)
        print(f"theory sum: {len(s.language.entity_types) + len(s.language.relation_types)}"
              f" type classes, {len(s.axioms)} axioms")
        _write(_theory_document(s, args.name), args.output)
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
        q, _ = logic_dual_quotient(obj, j)
        print(f"logic quotient: {_logic_summary(q)}")
        _write(_logic_document(q, args.name), args.output)
    elif isinstance(obj, Theory):
        q, _ = theory_quotient(obj, rel)
        print(f"theory quotient: {len(q.language.entity_types) + len(q.language.relation_types)}"
              f" type classes, {len(q.axioms)} axioms")
        _write(_theory_document(q, args.name), args.output)
    else:
        raise OntofuseError("quotient requires a logic or a theory")
    return 0


def cmd_fuse(args) -> int:
    doc = _load(args.doc)
    f0 = doc.get(args.left_link, "logic-morphism")
    f1 = doc.get(args.right_link, "logic-morphism")
    fused, _, _ = fusion(f0, f1)
    print(f"fused: {_logic_summary(fused)}")
    _write(_logic_document(fused, args.name), args.output)
    return 0


def cmd_restrict(args) -> int:
    doc = _load(args.doc)
    l = doc.get(args.logic, "logic")
    c = frozenset(_parse_cli_token(e) for e in args.to)
    out, _ = restrict_logic(l, c)
    print(f"restricted: {_logic_summary(out)}")
    _write(_logic_document(out, args.name), args.output)
    return 0


def cmd_fiber(args) -> int:
    doc = _load(args.doc)
    g = doc.get(args.morphism, "theory-morphism")
    p = doc.get(args.logic, "logic")
    out, _ = fiber_op(g, p)
    print(f"fiber: {_logic_summary(out)}")
    _write(_logic_document(out, args.name), args.output)
    return 0


def cmd_sound_part(args) -> int:
    doc = _load(args.doc)
    l = doc.get(args.logic, "logic")
    out = sound_part(l)
    print(f"sound part: {_logic_summary(out)}")
    _write(_logic_document(out, args.name), args.output)
    return 0


def cmd_integrate(args) -> int:
    doc = _load(args.doc)
    l1 = doc.get(args.left, "logic")
    l2 = doc.get(args.right, "logic")
    a = doc.get(args.alignment, "alignment")
    if args.practical:
        result, report = practical_integrate(l1, l2, a.universe, a.mediating_theory,
                                             a.left_link, a.right_link,
                                             args.bound, args.budget)
        print(f"practical integration: {_logic_summary(result.fused)}")
        print(f"universe: {' '.join(str(e) for e in sorted_tokens(report.universe))}")
        print(f"fusion theory axioms: {len(report.fusion_theory.axioms)}")
    else:
        p1, link1 = restrict_logic(l1, a.universe)
        p2, link2 = restrict_logic(l2, a.universe)
        diagram = build_alignment(l1, l2, p1, p2, link1, link2,
                                  a.mediating_theory, a.left_link, a.right_link,
                                  args.bound, args.budget)
        result = unify(diagram)
        print(f"integration: {_logic_summary(result.fused)}")
    _write(_logic_document(result.fused, args.name), args.output)
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


def _common(p, output_required: bool = True, default_name: str = "result") -> None:
    p.add_argument("doc", help="input document file")
    p.add_argument("--bound", type=_count, default=2,
                   help="entity cap for entailment and model enumeration")
    p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                   help="candidate cap for combinatorial enumerations")
    p.add_argument("-o", "--output", required=output_required,
                   help="output document file")
    p.add_argument("--name", default=default_name,
                   help="name of the resulting form")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ontofuse",
                                     description="ontology integration pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every form in each document")
    p.add_argument("files", nargs="+")
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("entails", help="bounded countermodel search")
    _common(p, output_required=False)
    p.add_argument("--theory", required=True)
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_entails)

    p = sub.add_parser("free-logic", help="logic freely generated over a theory")
    _common(p, default_name="free")
    p.add_argument("--theory", required=True)
    p.add_argument("--strict-free-logic", action="store_true",
                   help="require a unary relation type per sort")
    p.set_defaults(func=cmd_free_logic)

    p = sub.add_parser("sum", help="binary sum of logics or theories")
    _common(p, default_name="sum")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("quotient", help="quotient by identified types")
    _common(p, default_name="quotient")
    p.add_argument("--of", dest="name_in", required=True,
                   help="name of the logic or theory to quotient")
    p.add_argument("--identify-entity", nargs=2, action="append", default=[],
                   metavar=("A", "B"))
    p.add_argument("--identify-relation", nargs=2, action="append", default=[],
                   metavar=("R", "S"))
    p.add_argument("--identify-variable", nargs=2, action="append", default=[],
                   metavar=("X", "Y"))
    p.add_argument("--keep-entities", nargs="*", default=None)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("fuse", help="pushout of a span of logic morphisms")
    _common(p, default_name="fused")
    p.add_argument("--left-link", required=True)
    p.add_argument("--right-link", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("restrict", help="restrict a logic to a sub-universe")
    _common(p, default_name="restricted")
    p.add_argument("--logic", required=True)
    p.add_argument("--to", nargs="+", required=True, metavar="ENTITY")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("fiber", help="reclassify a logic along a theory morphism")
    _common(p, default_name="fiber")
    p.add_argument("--morphism", required=True)
    p.add_argument("--logic", required=True)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("sound-part", help="drop abnormal instances")
    _common(p, default_name="sound")
    p.add_argument("--logic", required=True)
    p.set_defaults(func=cmd_sound_part)

    p = sub.add_parser("integrate", help="two-step alignment and unification")
    _common(p, default_name="fused")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--practical", action="store_true",
                   help="fuse over the common fiber instead of the free logics")
    p.set_defaults(func=cmd_integrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OntofuseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
