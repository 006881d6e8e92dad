"""Solvers for separable nonlinear inverse problems with lp regularization.

The package pairs an inner majorize-minimize subspace solver (with GCV-based
regularization-parameter selection) with an outer variable-projection
Gauss-Newton loop over the forward-operator parameters, and ships 1D and 2D
Gaussian-blur test problems to drive them. The names below are the user
workflow: a regularizer is passed as a factory result or a raw matrix, or as
None for the identity. The building blocks, the regularizer classes among
them, stay importable from their modules.
"""

from .gcv import RankDeficiencyError
from .mmgks import MmgksConfig, mmgks_solve
from .operators import (ConvBoundary, GaussianBlur1D, GaussianPsfBlur2D,
                        MatrixOperator, PsfParams)
from .problems import (ProblemInstance, make_1d_problem,
                       make_blind_deconv_problem)
from .regularizers import (derivative_2d, first_derivative_1d,
                           framelet_analysis_2d, second_derivative_1d)
from .varpro import (JacobianVariant, SolverError, VarproConfig,
                     lp_varpro_solve, rre)

__version__ = "0.1.0"
