"""Seeded inputs for the benchmark workloads, with their expected answers.

Nothing here imports the library.  Every input is document text written
by this module, and every expected answer is computed from the
generator's own plain data, so a checker that compares the program's
output with these answers does not trust the program.

Plain values used in the answers:

* an assignment is a ``frozenset`` of ``(variable, entity)`` pairs;
* a ``(tuple a b)`` token is the Python tuple ``(a, b)``;
* a ``(map (k v) ...)`` token is ``("map", frozenset({(k, v), ...}))``.

Each workload has a fixed *schedule*: the list of job slots in one
round, with the size of every slot fixed.  Slot sizes form a fine
ladder, so job costs spread smoothly.  A slot's structure (which
entities, tuples and axioms there are) is drawn from the slot alone;
the seed names the entities, or the sorts and relations of a theory,
and orders the text (see ``make_round``).
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import string
from dataclasses import dataclass, field


def slot_rng(workload: str, seed: int, slot: int) -> random.Random:
    # String seeds are hashed with SHA-512 by random.Random, so this is
    # stable across processes whatever PYTHONHASHSEED is.
    return random.Random(f"{workload}/{seed}/{slot}")


def names(rng: random.Random, k: int, taken: set) -> list:
    """k fresh lower-case symbols, none in ``taken`` (which is updated)."""
    out = []
    while len(out) < k:
        s = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if s not in taken:
            taken.add(s)
            out.append(s)
    return out


def sx(*items) -> str:
    return "(" + " ".join(items) + ")"


def assignment_text(a: dict, rng: random.Random) -> str:
    keys = sorted(a)
    rng.shuffle(keys)
    return sx(*(sx(k, a[k]) for k in keys))


def plain(a: dict) -> frozenset:
    return frozenset(a.items())


# --- integrate ----------------------------------------------------------------

# Mediating theory shared by every pair: agents work for organisations.
MEDIATING = """\
(language T-lang
  (variables x y)
  (entity-types Agent Org Key)
  (reference (x Agent) (y Org))
  (relations (Emp (x y)) (Act (x)) (Big (y))))

(theory T (language T-lang)
  (axioms (implies (atom Emp) (atom Act))
          (implies (and (atom Emp) (atom Big)) (atom Act))))
"""

# Each community names the mediating types its own way and has one
# entity type and one relation type of its own.
SIDES = {
    "left": dict(lang="W", theory="TW", model="M1", logic="L1", link="g1",
                 Agent="Person", Org="Company", Key="Vip", own_type="Local",
                 Emp="WorksFor", Act="Active", Big="Large", own_rel="Knows"),
    "right": dict(lang="Wp", theory="TWp", model="M2", logic="L2", link="g2",
                  Agent="Human", Org="Firm", Key="Star", own_type="Listed",
                  Emp="EmployedBy", Act="Busy", Big="Huge", own_rel="Trusts"),
}


@dataclass
class IntegrateCase:
    text: str
    n_common: int
    universe: frozenset  # C
    fused_tuples: frozenset  # assignments planted inside C
    free_entities: int  # sum over mediating intents of left x right counts
    free_tuples: int


def integrate_schedule() -> list:
    """|C| per slot: one slot per size from 20 to 40 entities."""
    return list(range(20, 41))


def integrate_case(structure: random.Random, naming: random.Random,
                   n_common: int) -> IntegrateCase:
    """A pair of communities sharing C, with the answers.

    ``structure`` makes every choice of which entities and tuples there
    are, by position; ``naming`` names the entities and orders the text.
    Drawing the structure from the slot alone keeps a slot's cost the
    same for every seed (see ``make_round``).
    """
    taken: set = set()
    n_agents = round(0.6 * n_common)
    n_orgs = n_common - n_agents
    agents = names(naming, n_agents, taken)
    orgs = names(naming, n_orgs, taken)
    common = agents + orgs
    key = set(structure.sample(agents, round(0.25 * n_agents)))
    key |= set(structure.sample(orgs, round(0.25 * n_orgs)))
    active = structure.sample(agents, n_agents // 2)
    large = structure.sample(orgs, n_orgs // 3)
    emp_pool = [(a, o) for a in active for o in orgs]
    emp = structure.sample(emp_pool, n_agents // 2)

    def intent(e):
        return ("Agent" if e in agents else "Org", e in key)

    shared = {"Emp": [{"x": a, "y": o} for a, o in emp],
              "Act": [{"x": a} for a in sorted(active)],
              "Big": [{"y": o} for o in sorted(large)]}
    fused_tuples = frozenset(plain(t) for rows in shared.values() for t in rows)

    groups: dict = {}
    for e in common:
        groups[intent(e)] = groups.get(intent(e), 0) + 1
    free_entities = sum(c * c for c in groups.values())
    tgroups: dict = {}
    for a, o in emp:
        k = ("xy", o in large, intent(a), intent(o))
        tgroups[k] = tgroups.get(k, 0) + 1
    for a in active:
        tgroups[("x", intent(a))] = tgroups.get(("x", intent(a)), 0) + 1
    for o in large:
        tgroups[("y", intent(o))] = tgroups.get(("y", intent(o)), 0) + 1
    free_tuples = sum(c * c for c in tgroups.values())

    forms = [MEDIATING]
    n_extra = max(2, n_common // 4)
    for side, v in SIDES.items():
        x_agents = names(naming, round(0.6 * n_extra), taken)
        x_orgs = names(naming, n_extra - len(x_agents), taken)
        incidence = [(e, v["Agent"]) for e in agents + x_agents]
        incidence += [(e, v["Org"]) for e in orgs + x_orgs]
        incidence += [(e, v["Key"]) for e in sorted(key)]
        incidence += [(e, v["Key"]) for e in structure.sample(x_agents + x_orgs, n_extra // 3)]
        incidence += [(e, v["own_type"]) for e in
                      structure.sample(common + x_agents + x_orgs, (n_common + n_extra) // 2)]
        ext = {k: list(rows) for k, rows in shared.items()}
        own = []
        x_active = set()
        for a in x_agents:  # every extra agent works for one or two organisations
            for o in structure.sample(orgs + x_orgs, structure.randint(1, 2)):
                ext["Emp"].append({"x": a, "y": o})
                x_active.add(a)
            own.append({"x": a, "y": structure.choice(orgs)})
        for o in x_orgs:  # every extra organisation employs an active agent
            ext["Emp"].append({"x": structure.choice(active), "y": o})
            own.append({"x": structure.choice(agents), "y": o})
            if structure.random() < 0.5:
                ext["Big"].append({"y": o})
        ext["Act"] += [{"x": a} for a in sorted(x_active)]
        entities = common + x_agents + x_orgs
        naming.shuffle(entities)
        naming.shuffle(incidence)
        extent_forms = []
        for m, rows in (("Emp", ext["Emp"]), ("Act", ext["Act"]),
                        ("Big", ext["Big"]), ("own_rel", own)):
            rows = list(rows)
            naming.shuffle(rows)
            extent_forms.append(sx(v[m], *(assignment_text(r, naming) for r in rows)))
        forms.append(f"""\
(language {v['lang']}
  (variables x y)
  (entity-types {v['Agent']} {v['Org']} {v['Key']} {v['own_type']})
  (reference (x {v['Agent']}) (y {v['Org']}))
  (relations ({v['Emp']} (x y)) ({v['Act']} (x)) ({v['Big']} (y)) ({v['own_rel']} (x y))))

(theory {v['theory']} (language {v['lang']})
  (axioms (implies (atom {v['Emp']}) (atom {v['Act']}))
          (implies (and (atom {v['Emp']}) (atom {v['Big']})) (atom {v['Act']}))))

(model {v['model']} (language {v['lang']})
  (entities {' '.join(entities)})
  (incidence {' '.join(sx(e, a) for e, a in incidence)})
  (extents {' '.join(extent_forms)}))

(logic {v['logic']} (theory {v['theory']}) (model {v['model']}))

(theory-morphism {v['link']} (source T) (target {v['theory']})
  (variables (x x) (y y))
  (entity-types (Agent {v['Agent']}) (Org {v['Org']}) (Key {v['Key']}))
  (relations (Emp {v['Emp']}) (Act {v['Act']}) (Big {v['Big']})))
""")
    universe = list(common)
    naming.shuffle(universe)
    forms.append(f"(alignment A (universe {' '.join(universe)}) (mediating-theory T)"
                 " (left-link g1) (right-link g2))\n")
    return IntegrateCase("\n".join(forms), n_common, frozenset(common), fused_tuples,
                         free_entities, free_tuples)


# --- entails -----------------------------------------------------------------

# Signature shapes: (sorts, reference, relation arities).  With one sort
# both variables range over it; with two, x ranges over A and y over B.
SHAPES = {
    "1s_Px_Rxy": (("A",), {"x": "A", "y": "A"}, {"P": ("x",), "R": ("x", "y")}),
    "1s_Px_Qy_Rxy": (("A",), {"x": "A", "y": "A"},
                     {"P": ("x",), "Q": ("y",), "R": ("x", "y")}),
    "1s_Px_Qx": (("A",), {"x": "A", "y": "A"}, {"P": ("x",), "Q": ("x",)}),
    "1s_Px_Qx_Sy": (("A",), {"x": "A", "y": "A"},
                    {"P": ("x",), "Q": ("x",), "S": ("y",)}),
    "1s_Rxy": (("A",), {"x": "A", "y": "A"}, {"R": ("x", "y")}),
    "2s_Px_Rxy": (("A", "B"), {"x": "A", "y": "B"}, {"P": ("x",), "R": ("x", "y")}),
    "2s_Px_Qy_Rxy": (("A", "B"), {"x": "A", "y": "B"},
                     {"P": ("x",), "Q": ("y",), "R": ("x", "y")}),
    "2s_Px_Qy": (("A", "B"), {"x": "A", "y": "B"}, {"P": ("x",), "Q": ("y",)}),
    "2s_Px_Qy_Sx": (("A", "B"), {"x": "A", "y": "B"},
                    {"P": ("x",), "Q": ("y",), "S": ("x",)}),
    "2s_Rxy": (("A", "B"), {"x": "A", "y": "B"}, {"R": ("x", "y")}),
}

# (shape, extra entity types, bound) of every full-search slot, chosen so
# that the candidate counts spread from about 150 to about 1800.
ENTAILS_FULL = [
    ("2s_Px_Rxy", 0, 2), ("1s_Px_Qx", 0, 3), ("2s_Rxy", 1, 2),
    ("2s_Px_Qy_Sx", 0, 2), ("1s_Px_Qy_Rxy", 0, 2), ("1s_Px_Rxy", 1, 2),
    ("2s_Px_Qy", 1, 2), ("1s_Px_Qx_Sy", 1, 2), ("2s_Px_Qy_Rxy", 0, 2),
    ("2s_Px_Rxy", 1, 2), ("1s_Rxy", 0, 3), ("1s_Px_Qx_Sy", 0, 3),
    ("2s_Px_Qy", 0, 3), ("2s_Px_Qy_Sx", 1, 2), ("1s_Px_Qx", 1, 3),
    ("1s_Px_Qy_Rxy", 1, 2), ("2s_Rxy", 0, 3), ("2s_Px_Qy_Rxy", 1, 2),
]
EXTRA_TYPE = "Z"  # an entity type no variable references


def candidates(shape: str, extra: int, bound: int) -> int:
    """How many candidate models the enumeration visits up to ``bound``.

    For n entities, each entity-type membership is one bit, and each
    relation contributes one bit per well-sorted assignment of its arity.
    """
    sorts, ref, arity = SHAPES[shape]
    total = 0
    for n in range(bound + 1):
        for ks in itertools.product(range(n + 1), repeat=len(sorts)):
            k = dict(zip(sorts, ks))
            ways = math.prod(math.comb(n, k[s]) for s in sorts)
            bits = sum(math.prod(k[ref[x]] for x in ar) for ar in arity.values())
            total += ways * 2 ** (bits + n * extra)
    return total


@dataclass
class EntailsCase:
    text: str  # the theory document
    query_text: str
    bound: int
    shape: str
    extra: int
    axioms: list  # expressions as nested tuples
    query: tuple
    consequence: bool  # expected verdict: True = NoCounterexampleUpTo
    sorts: tuple = ()
    reference: dict = field(default_factory=dict)
    arity: dict = field(default_factory=dict)


def expr_text(e) -> str:
    head = e[0]
    if head == "atom":
        return sx("atom", e[1])
    if head == "not":
        return sx("not", expr_text(e[1]))
    if head in ("forall", "exists"):
        return sx(head, e[1], expr_text(e[2]))
    return sx(head, expr_text(e[1]), expr_text(e[2]))


def expr_free(e, arity: dict) -> set:
    if e[0] == "atom":
        return set(arity[e[1]])
    if e[0] in ("forall", "exists"):
        return expr_free(e[2], arity) - {e[1]}
    return set().union(*(expr_free(s, arity) for s in e[1:]))


def prop_value(e, row: dict) -> bool:
    """Truth at one point, every atom read from ``row``; quantifiers read
    their body, which is exact when every sort holds one entity."""
    head = e[0]
    if head == "atom":
        return row[e[1]]
    if head == "not":
        return not prop_value(e[1], row)
    if head in ("forall", "exists"):
        return prop_value(e[2], row)
    a, b = prop_value(e[1], row), prop_value(e[2], row)
    return {"and": a and b, "or": a or b, "implies": (not a) or b}[head]


def _quantifier_free(e) -> bool:
    return e[0] not in ("forall", "exists") and \
        all(_quantifier_free(s) for s in e[1:] if isinstance(s, tuple))


def classify_query(axioms: list, query, arity: dict):
    """True if the query follows, False if a one-point countermodel exists.

    Follows: every truth row of the atoms that satisfies the
    quantifier-free axioms whose free variables lie inside the query's
    also satisfies the query.  At a fixed assignment the atoms are
    independent, so this is exact.  Countermodel: a row satisfying every
    axiom and falsifying the query gives a model with one entity of every
    type and each relation holding exactly where the row says.  None when
    neither test decides.
    """
    atoms = sorted(arity)
    fv = expr_free(query, arity)
    usable = [a for a in axioms if _quantifier_free(a) and expr_free(a, arity) <= fv]
    follows, refuted_by = True, None
    for bits in itertools.product((False, True), repeat=len(atoms)):
        row = dict(zip(atoms, bits))
        if prop_value(query, row):
            continue
        if all(prop_value(a, row) for a in usable):
            follows = False
        if refuted_by is None and all(prop_value(a, row) for a in axioms):
            refuted_by = row
    if follows:
        return True
    if refuted_by is not None:
        return False
    return None


def _random_expr(rng: random.Random, rels: list, depth: int):
    if depth <= 1 or rng.random() < 0.3:
        return ("atom", rng.choice(rels))
    k = rng.randrange(4)
    if k == 0:
        return ("not", _random_expr(rng, rels, depth - 1))
    return (("and", "or", "implies")[k - 1], _random_expr(rng, rels, depth - 1),
            _random_expr(rng, rels, depth - 1))


def _axiom(rng: random.Random, rels: list, ref: dict, arity: dict):
    """An implication between small formulas; now and then quantified."""
    ax = ("implies", _random_expr(rng, rels, 2), _random_expr(rng, rels, 2))
    fv = sorted(expr_free(ax, arity))
    if fv and rng.random() < 0.25:
        ax = (rng.choice(("forall", "exists")), rng.choice(fv), ax)
    return ax


def _consequence_query(rng: random.Random, axioms: list, rels: list, arity: dict):
    """A weakening of a quantifier-free axiom, so it follows by construction."""
    qf = [a for a in axioms if _quantifier_free(a)]
    ax = rng.choice(qf)
    _, p, c = ax
    extra = ("atom", rng.choice(rels))
    k = rng.randrange(4)
    if k == 0:
        return ("implies", ("and", p, extra), c)
    if k == 1:
        return ("implies", ("not", c), ("not", p))
    if k == 2:
        return ("or", ("not", p), ("or", c, extra))
    return ("implies", p, ("or", extra, c))


def entails_schedule() -> list:
    """Full-search slots, three per ladder entry of at most 900 candidates
    and one per larger entry, then one refutation slot for every two
    ladder entries.  The many small slots keep the run's median inside a
    dense run of job costs; with two slots per entry it sat in a gap
    between 53 and 72 ms and moved by 20% from run to run."""
    full = [("full", s, x, b) for s, x, b in ENTAILS_FULL
            for _ in range(3 if candidates(s, x, b) <= 900 else 1)]
    refuted = [("refuted", s, x, b) for s, x, b in ENTAILS_FULL[::2]]
    return full + refuted


def _rename(e, names: dict):
    if isinstance(e, tuple):
        return tuple(_rename(x, names) for x in e)
    return names.get(e, e)


def entails_case(structure: random.Random, naming: random.Random, kind: str,
                 shape: str, extra: int, bound: int) -> EntailsCase:
    """A theory and a query of the slot's shape.

    ``structure`` draws the axioms and the query; ``naming`` renames the
    sorts and relations and orders the text.  The axioms are joined into
    one conjunction: the library tries a theory's axioms in set order,
    which follows string hashes, and with separate axioms one slot's time
    differed by up to 3x between processes.  Variables keep the names x
    and y, because the order of an assignment's variables decides which
    assignment fails first.
    """
    sorts, ref, arity = SHAPES[shape]
    rels = sorted(arity)
    n_parts = 2 if len(rels) < 3 else 3
    while True:
        parts = [_axiom(structure, rels, ref, arity) for _ in range(n_parts)]
        if not any(_quantifier_free(a) for a in parts):
            continue
        if kind == "full":
            query = _consequence_query(structure, parts, rels, arity)
        else:
            query = ("implies", _random_expr(structure, rels, 2),
                     _random_expr(structure, rels, 2))
        if not expr_free(query, arity):
            continue
        axioms = [functools.reduce(lambda a, b: ("and", a, b), parts)]
        verdict = classify_query(axioms, query, arity)
        if verdict is (kind == "full"):
            break
    symbols = list(sorts) + [EXTRA_TYPE] + rels
    rename = {old: new.capitalize()
              for old, new in zip(symbols, names(naming, len(symbols), set()))}
    rename.update((x, x) for x in ref)
    axioms = [_rename(a, rename) for a in axioms]
    naming.shuffle(axioms)
    query = _rename(query, rename)
    ref = {rename[x]: rename[t] for x, t in ref.items()}
    arity = {rename[r]: tuple(rename[x] for x in ar) for r, ar in arity.items()}
    sorts = tuple(rename[t] for t in sorts)
    types = list(sorts) + [rename[EXTRA_TYPE]] * extra
    variables, rel_names = list(ref), list(arity)
    naming.shuffle(types)
    naming.shuffle(variables)
    naming.shuffle(rel_names)
    text = f"""\
(language L
  (variables {' '.join(variables)})
  (entity-types {' '.join(types)})
  (reference {' '.join(sx(x, ref[x]) for x in variables)})
  (relations {' '.join(sx(r, sx(*arity[r])) for r in rel_names)}))

(theory T (language L)
  (axioms {' '.join(expr_text(a) for a in axioms)}))
"""
    return EntailsCase(text, expr_text(query), bound, shape, extra, axioms, query,
                       kind == "full", sorts, ref, arity)


# --- roundtrip ----------------------------------------------------------------

@dataclass
class RoundtripCase:
    text: str
    form: str  # "extents" or "tuples"
    entities: frozenset
    incidence: frozenset  # (entity, type)
    tuples: frozenset  # plain tokens
    extents: dict = field(default_factory=dict)  # extent form: relation -> assignments
    arity: dict = field(default_factory=dict)  # tuples form: token -> variables
    valuation: dict = field(default_factory=dict)  # tuples form: token -> plain map
    relation_incidence: frozenset = frozenset()  # tuples form


def roundtrip_schedule() -> list:
    """Extent-form communities of 50 to 125 entities and tuples-form sums
    of 5x5 to 8x9 entities, interleaved, so that the two shapes cover the
    same range of job cost."""
    ext = [("extents", n) for n in range(50, 130, 5)]
    tup = [("tuples", (5 + i // 2, 5 + (i + 1) // 2)) for i in range(8)]
    out = []
    for a, b in itertools.zip_longest(ext, tup):
        out += [s for s in (a, b) if s is not None]
    return out


def _community(structure: random.Random, naming: random.Random, n: int, taken: set):
    """Plain community data: agents, organisations, incidence, extents.

    As in ``integrate_case``, ``structure`` chooses by position and
    ``naming`` only names."""
    agents = names(naming, round(0.6 * n), taken)
    orgs = names(naming, n - len(agents), taken)
    incidence = {(a, "Person") for a in agents} | {(o, "Company") for o in orgs}
    incidence |= {(e, "Vip") for e in structure.sample(agents + orgs, n // 4)}
    incidence |= {(e, "Local") for e in structure.sample(agents + orgs, n // 2)}
    works = {(a, structure.choice(orgs)) for a in agents}
    pairs = [(a, o) for a in agents for o in orgs]
    rest = [p for p in pairs if p not in works]
    works |= set(structure.sample(rest, min(n // 3, len(rest))))
    rest = [p for p in pairs if p not in works]
    knows = structure.sample(rest, min(n // 2, len(rest)))
    extents = {
        "WorksFor": {plain({"x": a, "y": o}) for a, o in works},
        "Active": {plain({"x": a}) for a in agents},
        "Large": {plain({"y": o}) for o in structure.sample(orgs, len(orgs) // 3)},
        "Knows": {plain({"x": a, "y": o}) for a, o in knows},
    }
    return agents, orgs, incidence, extents


COMMUNITY_LANGUAGE = """\
(language W
  (variables x y)
  (entity-types Person Company Vip Local)
  (reference (x Person) (y Company))
  (relations (WorksFor (x y)) (Active (x)) (Large (y)) (Knows (x y))))

(theory TW (language W) (axioms (implies (atom WorksFor) (atom Active))))
"""
ARITY = {"WorksFor": ("x", "y"), "Active": ("x",), "Large": ("y",), "Knows": ("x", "y")}


def _row_text(row: frozenset, rng: random.Random) -> str:
    return assignment_text(dict(row), rng)


def roundtrip_extents(structure: random.Random, naming: random.Random,
                      n: int) -> RoundtripCase:
    """A community ontology of n entities in extent form, with a few
    well-sorted extra tuples that lie in no extent."""
    agents, orgs, incidence, extents = _community(structure, naming, n, set())
    classified = set().union(*extents.values())
    extra = set()
    while len(extra) < n // 10:
        t = plain({"x": structure.choice(agents), "y": structure.choice(orgs)})
        if t not in classified:
            extra.add(t)
    entities = agents + orgs
    naming.shuffle(entities)
    inc = sorted(incidence)
    naming.shuffle(inc)
    ext_forms = []
    for rel in naming.sample(sorted(extents), len(extents)):
        rows = sorted(extents[rel], key=sorted)
        naming.shuffle(rows)
        ext_forms.append(sx(rel, *(_row_text(r, naming) for r in rows)))
    extra_rows = sorted(extra, key=sorted)
    naming.shuffle(extra_rows)
    text = COMMUNITY_LANGUAGE + f"""
(model M (language W)
  (entities {' '.join(entities)})
  (incidence {' '.join(sx(e, a) for e, a in inc)})
  (extents {' '.join(ext_forms)})
  (extra-tuples {' '.join(_row_text(r, naming) for r in extra_rows)}))

(logic L (theory TW) (model M))
"""
    return RoundtripCase(text, "extents", frozenset(entities), frozenset(incidence),
                         frozenset(classified | extra),
                         extents={r: frozenset(rows) for r, rows in extents.items()})


def _tag(side: str, x: str) -> tuple:
    return (side, x)


def _tag_text(t: tuple) -> str:
    return sx("tuple", t[0], t[1])


def _map_text(row: frozenset, rng: random.Random) -> str:
    items = sorted(row)
    rng.shuffle(items)
    return sx("map", *(sx(k, v) for k, v in items))


def roundtrip_tuples(structure: random.Random, naming: random.Random,
                     sizes: tuple) -> RoundtripCase:
    """The sum of two communities of the given sizes, in tuples form:
    entities are (tuple a b) pairs and tuples pair two map tokens of
    equal arity."""
    taken: set = set()
    sides = {}
    for side, n in zip(("left", "right"), sizes):
        agents, orgs, inc, ext = _community(structure, naming, n, taken)
        rows = set().union(*ext.values())
        sides[side] = (agents + orgs, inc, ext, rows)
    (ents_l, inc_l, ext_l, rows_l), (ents_r, inc_r, ext_r, rows_r) = \
        sides["left"], sides["right"]
    entities = {(a, b) for a in ents_l for b in ents_r}
    incidence = set()
    for (a, b) in entities:
        incidence |= {((a, b), _tag("left", t)) for (e, t) in inc_l if e == a}
        incidence |= {((a, b), _tag("right", t)) for (e, t) in inc_r if e == b}

    def classifying(ext, row):
        # lax incidence: a relation classifies a row holding its restriction
        d = dict(row)
        return [rel for rel, ar in ARITY.items()
                if set(ar) <= set(d) and plain({x: d[x] for x in ar}) in ext[rel]]

    tuples, arity, valuation, rel_inc = set(), {}, {}, set()
    for r1 in rows_l:
        for r2 in rows_r:
            d1, d2 = dict(r1), dict(r2)
            if set(d1) != set(d2):
                continue
            tok = (("map", r1), ("map", r2))
            tuples.add(tok)
            arity[tok] = frozenset(_tag(s, x) for s in ("left", "right") for x in d1)
            valuation[tok] = frozenset((_tag(s, x), (d1[x], d2[x]))
                                       for s in ("left", "right") for x in d1)
            rel_inc |= {(tok, _tag("left", rel)) for rel in classifying(ext_l, r1)}
            rel_inc |= {(tok, _tag("right", rel)) for rel in classifying(ext_r, r2)}
    # the sum language, written by hand
    tv = {(s, x): _tag_text((s, x)) for s in ("left", "right") for x in ("x", "y")}
    types = ("Person", "Company", "Vip", "Local")
    lang = f"""\
(language S
  (variables {' '.join(tv.values())})
  (entity-types {' '.join(_tag_text((s, t)) for s in ("left", "right") for t in types)})
  (reference {' '.join(sx(tv[(s, x)], _tag_text((s, "Person" if x == "x" else "Company")))
                       for s in ("left", "right") for x in ("x", "y"))})
  (relations {' '.join(sx(_tag_text((s, r)), sx(*(tv[(s, x)] for x in ARITY[r])))
                       for s in ("left", "right") for r in ARITY)}))

(theory ST (language S) (axioms))
"""
    ent_list = sorted(entities)
    naming.shuffle(ent_list)
    inc_list = sorted(incidence)
    naming.shuffle(inc_list)
    tok_list = sorted(tuples, key=lambda t: (sorted(t[0][1]), sorted(t[1][1])))
    naming.shuffle(tok_list)
    tok_text = {t: sx("tuple", _map_text(t[0][1], naming), _map_text(t[1][1], naming))
                for t in tok_list}
    tuple_forms = []
    for t in tok_list:
        val = sorted(valuation[t])
        naming.shuffle(val)
        tuple_forms.append(sx(tok_text[t],
                              sx("arity", *(_tag_text(x) for x in sorted(arity[t]))),
                              sx("valuation", *(sx(_tag_text(x), sx("tuple", *v))
                                                for x, v in val))))
    ri_list = sorted(rel_inc, key=lambda p: (sorted(p[0][0][1]), sorted(p[0][1][1]), p[1]))
    naming.shuffle(ri_list)
    text = lang + f"""
(model SM (language S)
  (entities {' '.join(sx('tuple', a, b) for a, b in ent_list)})
  (incidence {' '.join(sx(sx('tuple', *e), _tag_text(t)) for e, t in inc_list)})
  (tuples {' '.join(tuple_forms)})
  (relation-incidence {' '.join(sx(tok_text[t], _tag_text(r)) for t, r in ri_list)}))

(logic SL (theory ST) (model SM))
"""
    return RoundtripCase(text, "tuples", frozenset(entities), frozenset(incidence),
                         frozenset(tuples), arity=arity, valuation=valuation,
                         relation_incidence=frozenset(rel_inc))


# --- rounds -------------------------------------------------------------------

def make_round(workload: str, seed: int, scale: float = 1.0) -> list:
    """The cases of one round.

    Each slot draws its structure from a generator seeded by the slot
    alone and its names and text order from one seeded by ``seed`` too.
    When the structure followed the seed as well, one slot's time varied
    by 20-50% between seeds, which moved the median of a whole run by
    20-40%.  ``scale`` < 1 shrinks every slot, for the self-tests; the
    benchmark always runs at scale 1.
    """
    def rngs(i):
        return random.Random(f"{workload}/structure/{i}"), slot_rng(workload, seed, i)

    if workload == "integrate":
        return [integrate_case(*rngs(i), max(4, round(n * scale)))
                for i, n in enumerate(integrate_schedule())]
    if workload == "entails":
        sched = entails_schedule()
        if scale < 1:
            small = [s for s in sched if candidates(*s[1:]) <= 300]
            sched = [s for s in small if s[0] == "full"][:4] + \
                [s for s in small if s[0] == "refuted"][:2]
        return [entails_case(*rngs(i), *s) for i, s in enumerate(sched)]
    if workload == "roundtrip":
        out = []
        for i, (form, n) in enumerate(roundtrip_schedule()):
            if form == "extents":
                out.append(roundtrip_extents(*rngs(i), max(8, round(n * scale))))
            else:
                out.append(roundtrip_tuples(*rngs(i), tuple(max(3, round(k * scale)) for k in n)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("integrate", "entails", "roundtrip")
