"""Exception types shared across the library."""
from __future__ import annotations

from typing import Collection, Iterable, Mapping

from .tokens import token_key


class OntofuseError(Exception):
    """Base class for all library errors."""


class DomainMismatch(OntofuseError):
    """A map is not total on its stated domain (or leaves its codomain)."""


def raise_first_fault(faults: Iterable[tuple]) -> None:
    """Raise DomainMismatch for the token-order-first of (witness, message)
    faults, if there are any, so the message does not depend on the order
    in which a check scans.  These input checks name their offender so:
    :func:`check_total`, ``TypeLanguage.check``, ``Theory.make``,
    ``Logic.check``, ``equivalence_closure``, ``Hypergraph.check``,
    ``Model.from_extents``, ``Model.check`` and the tuples-form reader."""
    faults = list(faults)
    if faults:
        raise DomainMismatch(min(faults, key=lambda f: token_key(f[0]))[1])


def check_total(m: Mapping, domain: Collection, codomain: Collection, what: str) -> None:
    """Raise DomainMismatch unless m is total on domain and lands in codomain.

    The message names the token-order-first missing key, else extra key,
    else value outside the codomain.
    """
    keys, domain = set(m), set(domain)
    for kind, witnesses in (("missing", domain - keys), ("extra", keys - domain)):
        raise_first_fault((k, f"{what} is not total on its domain: {kind} {k!r}")
                          for k in witnesses)
    raise_first_fault((v, f"{what} leaves its codomain: {v!r}")
                      for v in m.values() if v not in codomain)


class RespectViolation(OntofuseError):
    """A quotient invariant fails the respect condition.

    Carries a witnessing (instance, type, related type) triple.
    """

    def __init__(self, instance, type_a, type_b):
        super().__init__(f"invariant not respected: {instance!r} distinguishes {type_a!r} and {type_b!r}")
        self.witness = (instance, type_a, type_b)


class IncompatibleQuotient(OntofuseError):
    """A type endorelation relates arity- or reference-incompatible types."""

    def __init__(self, a, b, reason):
        super().__init__(f"cannot identify {a!r} with {b!r}: {reason}")
        self.witness = (a, b)


class NameSetMismatch(OntofuseError):
    """Hypergraph product requires equal name sets."""


class LaxViolation(OntofuseError):
    """An expression's free variables exceed the assignment's arity."""


class CaptureError(OntofuseError):
    """Translation would identify a bound variable with a free one."""


class BudgetExceeded(OntofuseError):
    """A combinatorial enumeration exceeded its configured candidate cap."""


class SoundnessViolation(OntofuseError):
    """An operation that requires a sound logic received or produced an unsound one."""


class EdgeInvalid(OntofuseError):
    """A named edge of an alignment diagram failed its validity check."""

    def __init__(self, edge, witness):
        super().__init__(f"edge {edge} is not a valid morphism: {witness!r}")
        self.edge = edge
        self.witness = witness


class AgreementFailure(OntofuseError):
    """The two fiber logics of a practical integration differ.

    Carries the first differing item.
    """

    def __init__(self, detail):
        super().__init__(f"community interpretations disagree: {detail}")
        self.detail = detail
