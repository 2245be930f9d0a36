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
from .discretize import Mesh, build_mesh, discretize_problem
from .lanczos import (
    LanczosResult,
    LanczosStatus,
    TriTensor,
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
    analytic_reference,
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
    lift,
    lift_dual,
    star_inner,
    star_mul_tt,
    star_mul_tv,
    star_mul_vt,
)
from .tt import TTTensor, compression_factor, parameter_count, tt_svd

__version__ = "0.1.0"
