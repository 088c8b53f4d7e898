"""Exact-arithmetic toolkit for the seven-vertex model, its fused descendants,
the matching height (SOS) models, and the eleven-vertex family."""

from .exactcore import (
    DegeneratePointError,
    ExactMatrix,
    ExactPolynomial,
    InconsistentSystemError,
    ShapeMismatchError,
    SingularMatrixError,
    kron,
    mat_mul,
    poly_shift,
    rat,
    rat_to_str,
    solve_exact,
    trace_product,
)
from .vertex import (
    ModelParams,
    check_degeneracy,
    check_ybe_vertex,
    embed_two_site,
    permutation_op,
    r7v,
)
from .fusion import (
    SymBasis,
    check_fused_ybe,
    fuse_nm,
    sym_basis,
    symmetrizer,
)
from .polyrep import (
    UnsupportedEvaluationPoint,
    gamma_poly,
    intertwiner_poly,
    o_m_gamma_form,
    o_m_identity_check,
    o_m_product_form,
    r_n1_matrix,
    star_triangle_check,
)
from .sos import (
    DegenerateParameterPoint,
    PoleError,
    WeightQuery,
    check_ybe_sos,
    gauge_weights,
    path_function_bruteforce,
    path_function_closed,
    w11,
    w_n1,
    w_nm_hypergeometric,
    w_nm_sum,
)
from .correspondence import (
    IntertwinerSet,
    check_shifted_correspondence,
    check_vertex_sos_matrix,
    fused_intertwiner_tensor,
    independence_determinant,
    intertwiner_set,
    solve_weights_from_relation,
)
from .elevenvertex import r11v, shift_op, similarity_fused
from .lattice import (
    LatticeSpec,
    partition_sos,
    partition_sos_transfer,
    partition_vertex_bruteforce,
    partition_vertex_transfer,
    transfer_matrix_sos,
    transfer_matrix_vertex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
