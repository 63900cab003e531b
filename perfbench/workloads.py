"""One job per case: what the matching ``ontofuse`` command does.

A job parses the document text, makes the command's library call, and
serializes the result where the command writes one.  Library functions
are looked up on their modules at call time, so the traced run's
wrappers see every call.
"""
from __future__ import annotations

import ontofuse
from ontofuse import document, sexpr, theory

import checks

BOUND = 2  # the CLI's default --bound, used by integrate


def integrate_job(case):
    """``ontofuse integrate --practical``: fuse over C and write the result."""
    doc = ontofuse.parse_document(case.text)
    l1, l2 = doc.get("L1", "logic"), doc.get("L2", "logic")
    a = doc.get("A", "alignment")
    result, report = ontofuse.practical_integrate(
        l1, l2, a.universe, a.mediating_theory, a.left_link, a.right_link,
        BOUND, theory.DEFAULT_BUDGET)
    fused = result.fused
    out = ontofuse.Document()
    out.add("language", "fused-language", fused.language)
    out.add("theory", "fused-theory", fused.theory)
    out.add("model", "fused-model", fused.model)
    out.add("logic", "fused", fused)
    return result, report, ontofuse.serialize_document(out)


def entails_job(case):
    """``ontofuse entails --theory T --query Q --bound N``."""
    doc = ontofuse.parse_document(case.text)
    t = doc.get("T", "theory")
    (value,) = sexpr.parse_all(case.query_text)
    return ontofuse.entails(t, document.parse_expression(value), case.bound,
                            theory.DEFAULT_BUDGET)


def roundtrip_job(case):
    """Read a document and write it back in canonical form."""
    doc = ontofuse.parse_document(case.text)
    return doc, ontofuse.serialize_document(doc)


def _entails_digest(verdict):
    m = getattr(verdict, "counter_model", None)
    if m is None:
        return (type(verdict).__name__, verdict.bound)
    return ("Refuted", sorted(m.entities), sorted(m.entity_incidence),
            sorted((sorted(t.items()), r) for t, r in m.relation_incidence))


def check_first(workload: str, case, out) -> list:
    """Every check of one output against the generator's answer."""
    if workload == "integrate":
        return checks.check_integrate(case, out)
    if workload == "entails":
        return checks.check_entails(case, out)
    doc, text = out
    problems = checks.check_roundtrip_planted(case, doc)
    again = ontofuse.parse_document(text)
    if again.order != doc.order or again.objects != doc.objects:
        problems.append("parsing the serialized text does not give back an equal document")
    if ontofuse.serialize_document(again) != text:
        problems.append("serializing the re-parsed document changes the text")
    return problems


def digest(workload: str, out):
    """What every later output of the slot must reproduce exactly, in a
    form that does not depend on the process's hash seed."""
    if workload == "integrate":
        return out[2]
    if workload == "entails":
        return _entails_digest(out)
    return out[1]


JOBS = {"integrate": integrate_job, "entails": entails_job, "roundtrip": roundtrip_job}
