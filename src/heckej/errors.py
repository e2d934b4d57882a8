"""Exception types shared across the package."""


class HeckejError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedType(HeckejError):
    """Requested affine type is not one of the supported labels."""


class GroupMismatch(HeckejError):
    """Operands belong to different group handles."""


class RadiusExceeded(HeckejError):
    """A computation would need data beyond the available table radius."""


class NotInAPlus(HeckejError):
    """A shifted Laurent polynomial still has negative-exponent terms."""


class DivergentTail(HeckejError):
    """A geometric tail whose ratio does not vanish as q grows."""


class NotLaurentPolynomial(HeckejError):
    """A convergent tail sum that is not a Laurent polynomial in q."""


class DepthTooSmall(HeckejError):
    """Valuation thresholds are not decidable at the given p-adic depth."""


class BudgetExceeded(HeckejError):
    """A request would exceed a size budget (a brute-force enumeration,
    a summation window, a report length)."""
