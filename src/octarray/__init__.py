"""Exact-arithmetic calculus of non-negative mass arrays.

Condensation of arrays to tight ones, three-dimensional propagation by the
octahedron recurrence, hives and tableau bijections, and
Littlewood-Richardson counting built on top of them.
"""

from .arrays import (
    Array,
    CornerFunction,
    central_reverse,
    col_sums,
    concat,
    diag,
    integrate,
    is_d_tight,
    is_l_tight,
    is_r_tight,
    is_u_tight,
    mixed_derivative,
    row_sums,
    split,
    transpose,
)
from .bijections import (
    SSYT,
    LRSkewTableau,
    associate,
    associate_functional,
    associate_inverse,
    com_prime,
    commute,
    commute_sp,
    dtight_to_ssyt,
    hk_wall_h,
    is_yamanouchi,
    pair_to_lr_tableau,
    lr_tableau_to_pair,
    reading_word_rows,
    render_skew,
    render_ssyt,
    rho1,
    rho2_prime,
    ssyt_to_dtight,
    to_antistandard,
    to_standard,
)
from .checks import CheckReport, verify_associativity, verify_commutativity
from .condense import (
    condense_down,
    condense_left,
    condense_pair,
    condense_right,
    condense_up,
    schutzenberger,
    shape,
)
from .errors import ValidationError
from .hives import (
    AntiStandardPair,
    HiveType,
    StandardPair,
    TriangleFunction,
    hive_to_pair,
    increments,
    is_discrete_concave,
    is_hs_concave,
    is_supermodular,
    is_vs_concave,
    pair_to_hive,
    rhombus_violations,
    triangle_from_points,
)
from .lr import enumerate_hives, enumerate_standard_pairs, lr_coefficient, lr_oracle
from .octahedron import (
    PRISM_FRAME,
    TETRA_FRAME,
    OctahedronFrame,
    PrismFunction,
    Solid,
    TetraFunction,
    is_flat_concave,
    is_polarized,
    is_polarized_dc,
    prism_propagate,
    prism_top,
    prism_wall,
    propagate_prism_faces,
    rsk,
    rsk_inverse,
    tetra_propagate,
    tetra_shadow_wall,
    tetra_slope_wall,
)
from .scalars import Scalar, parse_scalar, scalar_to_json
