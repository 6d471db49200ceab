"""Simulation and numerical verification toolkit for singular integrals of
subordinators and for SPDEs driven by subordinated Brownian noise."""

__version__ = "0.1.0"

from .bernstein import (BernsteinFunction, Catalog, DoublingIndices,
                        LevyTriplet, doubling_indices, drift_only,
                        gamma_exponent, inverse, parse_phi, ratio,
                        regvar_upper_check, stable, stable_log,
                        stable_log_inv, tempered_stable)
from .integrate import (Integrand, ZeroOne, constant, exponential,
                        finiteness_criterion, parse_integrand, power_singular,
                        stieltjes, tabulated, time_reversed, zero_one_verdict)
from .mc import MCEstimate, wilson_interval
from .moments import (BoundReport, CorollaryCase, bound_scan,
                      char_functional_exact, char_functional_mc,
                      corollary_case_moment, exact_stable_moment,
                      exp_moment_equivalence, gamma_fn, mc_moment)
from .spde import (ControllerResult, DiagonalQ, GalerkinSystem, SolutionPath,
                   advance, conditional_maximal_check, constant_diagonal_q,
                   convolution_moment_scan, galerkin_error, longrun_moment_scan,
                   maximal_inequality_scan, simulate, small_ball,
                   synthesize_null_controller, truncate_system,
                   validate_system, zero_drift, zero_q)
from .subordinator import (SubordinatorPath, evaluate, geometric_grid,
                           inverse_time, simulate_general, time_grid)
