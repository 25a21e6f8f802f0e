"""Desk-scale numerical laboratory for Schatten-norm anticommutator
inequalities: functional calculus, Loewner-kernel Schur multipliers, Mazur
maps, unit-strip boundary measures, and reproducible adversarial search.
"""

__version__ = "0.1.0"

from .matcore import (ComplexMatrix, DomainError, HermitianMatrix,
                      NumericalError, PositiveDefiniteMatrix,
                      SpectralDecomposition, ValidationError, herm_eig,
                      imaginary_power, matrix_function, polar_decompose,
                      positive_power)
from .schatten import ExponentConfig, schatten_norm, singular_values
from .kernels import (TMapParams, divided_difference_kernel, group_spectrum,
                      loewner_min_eig, mixed_kernel_map, rx_kernel, t_map,
                      unital_cp_map)
from .mazur import (decomposition_residual, eq1_ratio, interp_corollary_ratio,
                    main_ratio, mazur_lipschitz_ratio, mazur_map,
                    powers_diff_ratio, tmap_ratio)
from .strip import (AnalyticFamily, BoundaryGridCache, BoundarySet,
                    boundary_measure, boundary_norm_profile, convexity_defect,
                    cosh_measure, dilate, doubling_bound, doubling_ratio,
                    family_eval, poisson_density)
from .estimator import (InstanceSpec, RatioReport, maximize, replay_witness,
                        review_flagged, run_searches)

__all__ = [name for name in dir() if not name.startswith("_")]
