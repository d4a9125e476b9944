"""Domain errors shared by all modules.

Every error carries a machine-readable ``kind`` used by the CLI to build
``{"error": {"kind": ..., "detail": ...}}`` documents (exit code 2).
"""


class DomainError(Exception):
    kind = "DomainError"

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail


class RankMismatch(DomainError):
    kind = "RankMismatch"


class NotStable(DomainError):
    """Lift target is not stable under the twist by zeta."""

    kind = "NotStable"


class BlocksDiffer(DomainError):
    """Base-change fiber requested for a parameter whose blocks differ."""

    kind = "BlocksDiffer"


class BudgetExceeded(DomainError):
    """Fiber enumeration past the hard rank cap, or a cyclotomic conductor
    past ``arith.MAX_CONDUCTOR``."""

    kind = "BudgetExceeded"


class DegreeBudget(DomainError):
    """A Hecke transfer past the degree budget: for ``ai_transfer`` the degree
    converted to power sums, for ``bc_transfer`` the degree of the product."""

    kind = "DegreeBudget"


class BadOrbit(DomainError):
    """Orbit cardinality does not divide the extension degree."""

    kind = "BadOrbit"


class NoProvenance(DomainError):
    """Fiber requested for a product that did not come from a lift."""

    kind = "NoProvenance"


class NotUnramified(DomainError):
    """Specialization requested for an atom without an unramified payload."""

    kind = "NotUnramified"


class LocalMismatch(DomainError):
    """Synthetic global data inconsistent at a stored place."""

    kind = "LocalMismatch"

    def __init__(self, place, detail=""):
        super().__init__(detail or f"inconsistent local data at place {place!r}")
        self.place = place


class PlaceSetMismatch(DomainError):
    kind = "PlaceSetMismatch"


class HypothesisViolated(DomainError):
    """Precondition multiset equality of the local factor identity fails."""

    kind = "HypothesisViolated"


class ShapeError(DomainError):
    """Input is not of the required induced shape."""

    kind = "ShapeError"
