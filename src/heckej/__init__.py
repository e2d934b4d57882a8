"""Exact computation in the asymptotic ring J of an extended affine Weyl
group of rank at most 2, together with the SL(2) convolution picture that
realizes J inside the Iwahori Hecke algebra of SL(2, F).

The core pipeline: Kazhdan-Lusztig polynomials and canonical bases
(:mod:`heckej.hecke`), structure constants and the a-function with a
certified truncation radius (:mod:`heckej.asymptotic`), and an
independent finite-quotient counting oracle for the SL(2) volumes and
convolutions (:mod:`heckej.sl2`).  All arithmetic is exact: Laurent
polynomials over Z (in v, and in q = v^2 for SL(2)) and rationals.
The functions that make a rational import fractions (which loads
decimal) themselves, so importing the package loads neither.
"""

from .errors import (
    BudgetExceeded,
    DepthTooSmall,
    DivergentTail,
    GroupMismatch,
    HeckejError,
    NotInAPlus,
    NotLaurentPolynomial,
    RadiusExceeded,
    UnsupportedType,
)
from .laurent import ONE, V, VINV, ZERO, Laurent
from .weyl import GroupDescriptor, GroupElement, WeylGroup, make_group
from .hecke import (
    BASES,
    HeckeAlgebra,
    HeckeElement,
    KLTable,
    StructureConstants,
    hecke_algebra,
)
from .asymptotic import (
    AValue,
    JElement,
    JRing,
    JTensorAElement,
    certification_bound,
    phi_reach,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HeckejError",
    "UnsupportedType",
    "GroupMismatch",
    "RadiusExceeded",
    "NotInAPlus",
    "DivergentTail",
    "NotLaurentPolynomial",
    "DepthTooSmall",
    "BudgetExceeded",
    "Laurent",
    "ZERO",
    "ONE",
    "V",
    "VINV",
    "GroupDescriptor",
    "GroupElement",
    "WeylGroup",
    "make_group",
    "BASES",
    "HeckeElement",
    "HeckeAlgebra",
    "hecke_algebra",
    "KLTable",
    "StructureConstants",
    "AValue",
    "JElement",
    "JTensorAElement",
    "JRing",
    "certification_bound",
    "phi_reach",
]
