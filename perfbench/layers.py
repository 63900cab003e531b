"""Per-layer self time and counts, from wrappers around the library's functions.

The tracer wraps every public function of each ontofuse module, and the
``Model.from_extents`` constructor, under every name it is reached by
(``ontofuse.integration.fusion`` and ``ontofuse.logic.fusion`` are one
function).  A wrapper records the function's self time: its wall time
minus the time of the wrapped calls it makes.  Time spent in functions
that are not wrapped (private helpers, methods, and the leaf helpers
named in UNWRAPPED) counts toward the nearest wrapped caller.

Counts are taken at the same boundaries.  ``FrozenDict.__hash__`` is
counted in a pass of its own, because counting it costs more than the
hashing does.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("tokens", "classification", "hypergraph", "language", "model",
           "theory", "logic", "integration", "sexpr", "document")

# Leaf helpers called so often that a wrapper would cost more than they do.
UNWRAPPED = {
    "tokens": {"token_key", "ltag", "rtag", "fdict"},
    "model": {"restrict", "holds", "assignment"},
    "language": {"free_vars"},
    "sexpr": {"is_symbol"},
    "document": {"render_token", "parse_token"},
}


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Tracer:
    def __init__(self, of):
        self.of = of
        self.names = {}  # original function -> "module.function"
        for modname in MODULES:
            mod = getattr(of, modname)
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not name.startswith("_") \
                        and name not in UNWRAPPED.get(modname, ()):
                    self.names[fn] = f"{modname}.{name}"
        self.from_extents = vars(of.model.Model)["from_extents"]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack = [["job", 0.0]]  # [name, time of wrapped children]
        self.hashes = 0

    # -- timing ---------------------------------------------------------------

    def _leave(self, t0):
        elapsed = time.perf_counter() - t0
        name, child = self.stack.pop()
        self.self_s[name] += elapsed - child
        self.stack[-1][1] += elapsed

    def _wrap(self, fn, name):
        stack, leave, calls = self.stack, self._leave, self.calls
        after = self._after.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def resume_timed(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls[name] += 1
                while True:
                    stack.append([name, 0.0])
                    t0 = time.perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        leave(t0)
                        return
                    except BaseException:
                        leave(t0)
                        raise
                    leave(t0)
                    after(self, name, args, value)
                    yield value
            return resume_timed

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[name] += 1
            caller = stack[-1][0]
            stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(t0)
            if after is not None:
                after(self, caller, args, out)
            return out
        return timed

    # -- counts at layer boundaries ---------------------------------------------

    # Each runs after a call returns, given the wrapped caller's name, the
    # positional arguments and the result (for a generator, the value).

    def _model_sum(self, caller, args, out):
        self.counts["sum_entity_pairs"] += len(out[0].entities)
        self.counts["sum_tuple_pairs"] += len(out[0].tuples)

    def _fusion_invariant(self, caller, args, out):
        s = args[2]
        self.counts["fusion_built"] += len(s.model.entities) + len(s.model.tuples)
        self.counts["fusion_retained"] += len(out.entity_subset) + len(out.tuple_subset)

    def _enumerate_models(self, caller, args, model):
        self.counts["models_enumerated"] += 1

    def _from_extents(self, caller, args, out):
        # A candidate of the enumeration: built by enumerate_models itself
        # with an extent for every relation type (a skeleton has none).
        if caller == "theory.enumerate_models" and len(args) > 3 and args[3]:
            self.counts["candidates"] += 1

    def _parse_all(self, caller, args, out):
        self.counts["read_chars"] += len(args[0])

    def _write_all(self, caller, args, out):
        self.counts["write_chars"] += len(out)

    _after = {"model.model_sum": _model_sum,
              "logic.fusion_invariant": _fusion_invariant,
              "theory.enumerate_models": _enumerate_models,
              "model.Model.from_extents": _from_extents,
              "sexpr.parse_all": _parse_all,
              "sexpr.write_all": _write_all}

    # -- installing and removing the wrappers -----------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if n == "ontofuse" or n.startswith("ontofuse.")]

    @contextlib.contextmanager
    def installed(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.names.items()}
        model_cls = self.of.model.Model
        replaced = []
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    replaced.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        model_cls.from_extents = staticmethod(
            self._wrap(self.from_extents.__func__, "model.Model.from_extents"))
        try:
            yield self
        finally:
            model_cls.from_extents = self.from_extents
            for mod, attr, value in replaced:
                setattr(mod, attr, value)

    @contextlib.contextmanager
    def counting_hashes(self):
        cls = self.of.tokens.FrozenDict
        original = vars(cls)["__hash__"]

        def counted(fd):
            self.hashes += 1
            return original(fd)
        cls.__hash__ = counted
        try:
            yield self
        finally:
            cls.__hash__ = original

    # -- metrics -----------------------------------------------------------------

    def metrics(self, jobs: int, hash_jobs: int) -> dict:
        """Per-job figures over ``jobs`` traced jobs (hashes over ``hash_jobs``)."""
        def ms(*names):
            return _metric(sum(self.self_s[n] for n in names) / jobs * 1e3, "ms")

        def layer_ms(prefix):
            return ms(*[n for n in self.self_s if n.startswith(prefix + ".")])

        def count(key):
            return _metric(self.counts[key] / jobs, "count")

        def ratio(num, den):
            return _metric(self.counts[num] / self.counts[den] if self.counts[den] else 0.0,
                           "ratio")

        def rate(chars, *names):
            s = sum(self.self_s[n] for n in names)
            return _metric(self.counts[chars] / 1e6 / s if s else 0.0, "MB/s")

        render = [n for n in self.self_s
                  if n.startswith("document.render_") or n == "document.serialize_document"]
        return {
            "model.dual_quotient_ms": ms("model.model_dual_quotient"),
            "model.sum_ms": ms("model.model_sum"),
            "model.sum_entity_pairs": count("sum_entity_pairs"),
            "model.sum_tuple_pairs": count("sum_tuple_pairs"),
            "tokens.frozendict_hashes": _metric(self.hashes / hash_jobs, "count"),
            "logic.fusion_ms": ms("logic.fusion"),
            "logic.fusion_invariant_ms": ms("logic.fusion_invariant"),
            "logic.fusion_yield": ratio("fusion_retained", "fusion_built"),
            "logic.fusion_pairs_built": count("fusion_built"),
            "logic.restrict_ms": ms("logic.restrict_logic"),
            "logic.fiber_ms": ms("logic.fiber"),
            "logic.compose_ms": ms("logic.compose_logic_morphisms"),
            "logic.free_logic_ms": ms("logic.free_logic"),
            "logic.transpose_ms": ms("logic.transpose"),
            "logic.morphism_valid_ms": ms("logic.logic_morphism_valid"),
            "model.morphism_valid_ms": ms("model.model_morphism_valid"),
            "integration.practical_self_ms": ms("integration.practical_integrate"),
            "language.ms": layer_ms("language"),
            "theory.entails_ms": ms("theory.entails", "theory.enumerate_models"),
            "theory.models_enumerated": count("models_enumerated"),
            "theory.candidates": count("candidates"),
            "theory.candidate_yield": ratio("models_enumerated", "candidates"),
            "model.from_extents_calls": _metric(
                self.calls["model.Model.from_extents"] / jobs, "count"),
            "model.from_extents_ms": ms("model.Model.from_extents"),
            "model.satisfies_calls": _metric(self.calls["model.satisfies"] / jobs, "count"),
            "model.satisfies_ms": ms("model.satisfies"),
            "document.render_self_ms": ms(*render),
            "document.parse_self_ms": ms("document.parse_document",
                                         "document.parse_expression"),
            "sexpr.write_ms": ms("sexpr.write_all", "sexpr.write_value"),
            "sexpr.write_mb_per_s": rate("write_chars", "sexpr.write_all", "sexpr.write_value"),
            "sexpr.read_ms": ms("sexpr.parse_all"),
            "sexpr.read_mb_per_s": rate("read_chars", "sexpr.parse_all"),
            "tokens.sort_ms": ms("tokens.sorted_tokens"),
            "classification.ms": layer_ms("classification"),
            "hypergraph.ms": layer_ms("hypergraph"),
        }
