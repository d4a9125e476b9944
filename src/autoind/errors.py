"""Domain errors shared by all modules, and the one parts budget ``MAX_PARTS``.

Every error carries a machine-readable ``kind``, its class name, used by the
CLI to build ``{"error": {"kind": ..., "detail": ...}}`` documents (exit
code 2).
"""


class DomainError(Exception):
    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail

    @property
    def kind(self) -> str:
        return type(self).__name__


class RankMismatch(DomainError):
    """Ranks or variable counts that do not fit together."""


class NotStable(DomainError):
    """Lift target is not stable under the twist by zeta."""


class BlocksDiffer(DomainError):
    """Base-change fiber requested for a parameter whose blocks differ."""


class BudgetExceeded(DomainError):
    """A fiber past ``satake.MAX_FIBER_SIZE`` members, a cyclotomic conductor
    past ``arith.MAX_CONDUCTOR``, an orbit past ``hecke.MAX_ORBIT``, or more
    coordinates, blocks or factors than :data:`MAX_PARTS`."""


# Most coordinates, blocks or factors one call may build, checked before it
# builds them.  It lies above 4000, the largest count the seeded suites, the
# benchmark streams and the tests reach.
MAX_PARTS = 5_000


def check_parts(count: int, what: str) -> None:
    """Refuse a call that would build more than ``MAX_PARTS`` parts."""
    if count > MAX_PARTS:
        raise BudgetExceeded(f"more than {MAX_PARTS} {what}")


class DegreeBudget(DomainError):
    """A Hecke transfer past ``hecke.DEGREE_BUDGET``: for ``ai_transfer`` the
    degree of the input, for ``bc_transfer`` the degree of the product."""


class BadOrbit(DomainError):
    """Orbit cardinality does not divide the extension degree."""


class NoProvenance(DomainError):
    """Fiber requested for a product that did not come from a lift."""


class NotUnramified(DomainError):
    """Specialization requested for an atom without an unramified payload."""


class LocalMismatch(DomainError):
    """Synthetic global data inconsistent at a stored place."""

    def __init__(self, place, detail):
        super().__init__(f"place {place!r}: {detail}")
        self.place = place


class PlaceSetMismatch(DomainError):
    """Global data over different place sets, or missing a place."""


class HypothesisViolated(DomainError):
    """Precondition multiset equality of the local factor identity fails."""


class ShapeError(DomainError):
    """Input is not of the required induced shape."""
