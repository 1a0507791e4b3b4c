"""Exact-arithmetic engine for rank jumps on rational elliptic surfaces.

Classifies twist and quadratic-coefficient families over Q(t), builds the
conic fibres of the bundle x = x0, and manufactures certified fibres whose
Mordell-Weil rank exceeds the generic-rank bound, together with
quadratic-extension censuses and quadratic-cover avoidance.
"""

__version__ = "0.1.0"

from .arith import Rat, is_square, rational_sqrt, squarefree_part
from .conics import (
    GENUS_0,
    GENUS_1,
    REDUCIBLE,
    BranchLocus,
    ConicFibre,
    QuadExtClass,
    conic_fibre,
    conic_solvable,
    fibre_product_genus,
    parametrize,
)
from .curves import (
    IDENTITY,
    EllipticCurveQ,
    HeightData,
    PointQ,
    RegulatorResult,
    canonical_height,
    neron_tate_pairing,
    point,
    regulator,
    specialize,
)
from .polynomial import PLACE_AT_INFINITY, Place, RatPoly, poly_discriminant
from .surfaces import (
    ChateletModel,
    FibreClassification,
    KMFamily,
    TwistFamily,
    WeierstrassQt,
    classify_fibres,
    is_twist_case,
    shioda_tate_bound,
    to_chatelet,
    to_weierstrass,
)
