"""Bilinear forms of time-ordered exponentials via tensor Lanczos.

The pipeline: describe ``A(t)`` as a :class:`~toelanczos.problems.Problem`,
discretize it on an equispaced mesh into a 4-mode tensor, run the
non-Hermitian Lanczos process to a block-tridiagonal coefficient tensor,
and evaluate its resolvent's (1, 1) block as a continued fraction to get
the sampled approximation of ``w^H U(t) v``.
"""

from .diagnostics import (
    ErrorReport,
    convergence_slope,
    err_biorth,
    err_moments,
    err_recurrences,
    err_solution,
)
from .discretize import Mesh, build_mesh, discretize_problem, theta_matrix
from .lanczos import (
    LanczosResult,
    LanczosStatus,
    TriTensor,
    assemble_tridiag,
    classify_breakdown,
    split_unit_vectors,
    tensor_lanczos,
)
from .problems import (
    Problem,
    Reference,
    Term,
    analytic_const3,
    analytic_nmr1,
    builtin,
    builtin_ids,
    nmr_coefficients,
    nmr_generate,
    problem_from_json,
    problem_to_json,
    rk45_reference,
)
from .resolvent import (
    ResolventSingularError,
    SolutionVec,
    approx_solution,
    neumann_resolvent,
    solution_via_series,
    solution_to_csv,
    star_resolvent_11,
)
from .tensor_core import (
    BlockStructure,
    HyperVec,
    OrientationError,
    ProfileTensor,
    ShapeError,
    Tensor4,
    frobenius,
    from_block_matrix,
    lift,
    lift_dual,
    read_t4f,
    scale_t,
    scale_v,
    star_identity,
    star_inner,
    star_mul_tt,
    star_mul_tv,
    star_mul_vt,
    to_block_matrix,
    write_t4f,
)
from .tt import TTTensor, compression_factor, parameter_count, read_ttf, tt_reconstruct, tt_svd, write_ttf

__version__ = "0.1.0"
