"""Solvers for separable nonlinear inverse problems with lp regularization.

The package pairs an inner majorize-minimize subspace solver (with GCV-based
regularization-parameter selection) with an outer variable-projection
Gauss-Newton loop over the forward-operator parameters, and ships 1D and 2D
Gaussian-blur test problems to drive them.
"""

from .gcv import (GcvConfig, RankDeficiencyError, StackGsvd, gcv_value,
                  select_eta, thin_gsvd)
from .metrics import ConvergenceRow, rre
from .mmgks import (GksState, MmgksConfig, MmgksResult, expand_subspace,
                    golub_kahan, init_gks, majorant_weights, mmgks_solve,
                    objective_value, project_and_solve)
from .operators import (ConvBoundary, GaussianBlur1D, GaussianPsfBlur2D,
                        MatrixOperator, ParamOperator, PsfParams,
                        gaussian_kernel_1d, psf_gaussian_2d,
                        psf_param_gradients)
from .problems import (ProblemInstance, add_noise, builtin_image,
                       make_1d_problem, make_blind_deconv_problem,
                       piecewise_signal)
from .regularizers import (FrameletRegularizer, IdentityRegularizer,
                           KroneckerSumRegularizer, MatrixRegularizer,
                           Regularizer, derivative_2d, first_derivative_1d,
                           framelet_analysis_2d, second_derivative_1d)
from .varpro import (JacobianVariant, RunRecord, SolverError, VarproConfig,
                     jacobian_full, jacobian_half, jacobian_reduced,
                     lp_varpro_solve, tik_solve)

__version__ = "0.1.0"
