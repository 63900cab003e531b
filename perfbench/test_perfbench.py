"""Self-tests of the benchmark: inputs, checkers, tracer and a smoke run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import run

of = run.import_library()
import checks  # noqa: E402  (needs the library on the path)
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SMALL = 0.3  # slot sizes for the quick tests


def round_digest(workload, seed):
    texts = [c.text + getattr(c, "query_text", "") for c in gen.make_round(workload, seed)]
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_in_any_process(workload):
    code = ("import sys; sys.path.insert(0, 'perfbench'); import test_perfbench as t; "
            f"print(t.round_digest({workload!r}, 7))")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, check=True)
        digests.add(p.stdout.split()[-1])
    assert digests == {round_digest(workload, 7)}
    assert round_digest(workload, 8) != round_digest(workload, 7)


def test_entails_cases_stay_within_the_budget():
    for kind, shape, extra, bound in gen.entails_schedule():
        assert gen.candidates(shape, extra, bound) <= of.theory.DEFAULT_BUDGET


def first_output(workload, seed=3, slot=0):
    case = gen.make_round(workload, seed, SMALL)[slot]
    return case, workloads.JOBS[workload](case)


def test_integrate_checker_rejects_a_dropped_entity():
    case, out = first_output("integrate")
    assert checks.check_integrate(case, out) == []
    result, report, text = out
    m = result.fused.model
    dropped = dataclasses.replace(m, entities=m.entities - {sorted(m.entities)[0]})
    bad = dataclasses.replace(result, fused=dataclasses.replace(result.fused, model=dropped))
    assert any("universe" in p for p in checks.check_integrate(case, (bad, report, text)))


def test_integrate_checker_rejects_a_wrong_free_fusion():
    case, out = first_output("integrate")
    wrong = dataclasses.replace(case, free_tuples=case.free_tuples + 1)
    assert any("free fusion" in p for p in checks.check_integrate(wrong, out))


@pytest.mark.parametrize("kind", ["full", "refuted"])
def test_entails_checker_rejects_a_flipped_verdict(kind):
    cases = gen.make_round("entails", 3, SMALL)
    case = next(c for c in cases if c.consequence == (kind == "full"))
    verdict = workloads.entails_job(case)
    assert checks.check_entails(case, verdict) == []
    if kind == "full":
        some_model = of.Model.empty(of.parse_document(case.text).get("T").language)
        flipped = of.theory.Refuted(some_model)
    else:
        flipped = of.theory.NoCounterexampleUpTo(case.bound)
    assert checks.check_entails(case, flipped) != []


def test_entails_checker_rejects_a_countermodel_that_satisfies_the_query():
    case = next(c for c in gen.make_round("entails", 3, SMALL) if not c.consequence)
    verdict = workloads.entails_job(case)
    weaker = dataclasses.replace(case, query=("or", case.query, ("not", case.query)))
    assert any("satisfies the query" in p for p in checks.check_entails(weaker, verdict))


def test_roundtrip_checker_rejects_a_changed_extent_row():
    case = next(c for c in gen.make_round("roundtrip", 3, SMALL) if c.form == "extents")
    doc, text = workloads.roundtrip_job(case)
    assert checks.check_roundtrip_planted(case, doc) == []
    # move the first Knows row to another organisation
    old = dict(sorted(case.extents["Knows"], key=sorted)[0])
    other = sorted({dict(r)["y"] for r in case.extents["WorksFor"]} - {old["y"]})[0]
    row = f"((x {old['x']}) (y {old['y']}))"
    at = text.index(row, text.index("(Knows"))
    changed = text[:at] + f"((x {old['x']}) (y {other}))" + text[at + len(row):]
    problems = checks.check_roundtrip_planted(case, of.parse_document(changed))
    assert any("extents" in p for p in problems)


def test_roundtrip_checker_rejects_a_changed_relation_incidence():
    case = next(c for c in gen.make_round("roundtrip", 3, SMALL) if c.form == "tuples")
    doc, _ = workloads.roundtrip_job(case)
    assert checks.check_roundtrip_planted(case, doc) == []
    m = doc.get("SM", "model")
    fewer = dataclasses.replace(m, relation_incidence=m.relation_incidence - {
        sorted(m.relation_incidence, key=repr)[0]})
    bad = of.Document()
    bad.add("model", "SM", fewer)
    assert any("relation incidence" in p for p in checks.check_roundtrip_planted(case, bad))


def traced_counts(workload):
    cases = gen.make_round(workload, 5, SMALL)
    tracer = layers.Tracer(of)
    outcome = run.Outcome(workload)
    with tracer.installed():
        run.run_round(workloads.JOBS[workload], cases, outcome)
    with tracer.counting_hashes():
        run.run_round(workloads.JOBS[workload], cases, outcome)
    assert outcome.failed == 0 and outcome.wrong == []
    metrics = tracer.metrics(len(cases), len(cases))
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}, metrics


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_round_is_correct_and_traced_counts_repeat(workload):
    t0 = time.perf_counter()
    counts, metrics = traced_counts(workload)
    again, _ = traced_counts(workload)
    assert counts == again
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_ms"} == {m["name"] for m in spec["per_layer"]}
    assert time.perf_counter() - t0 < 60


def test_tracer_restores_every_function():
    def bindings():
        out = {(m.__name__, k): v for m in layers.Tracer(of)._modules()
               for k, v in vars(m).items() if callable(v)}
        out["Model.from_extents"] = vars(of.model.Model)["from_extents"]
        return out
    before = bindings()
    tracer = layers.Tracer(of)
    with tracer.installed():
        assert of.integration.fusion is not before[("ontofuse.logic", "fusion")]
        assert of.integration.fusion is of.logic.fusion is of.fusion
        assert of.theory.satisfies is of.model.satisfies
    assert before == bindings()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "entails",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
