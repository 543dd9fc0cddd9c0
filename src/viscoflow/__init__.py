"""viscoflow: a pseudospectral laboratory for near-equilibrium compressible
viscoelastic flow on a periodic domain.

The package provides the frequency-block analysis toolbox (dyadic blocks,
homogeneous and hybrid block norms, paraproducts), the Helmholtz-split
reformulation of the flow system with its constraint structure, an
auxiliary linear system with per-block energy functionals and an eigenvalue
oracle for its decay rates, IMEX time evolution, a frozen-coefficient
iteration with contraction monitoring, and constraint-propagation checks.
"""

__version__ = "0.1.0"

from .grid import Grid, SpectralField, dealiased_product, scale_dyadic, random_field, cosine_mode
from .dyadic import (DyadicFamily, besov_norm, hybrid_norm,
                     paraproduct, remainder, bony_defect)
from .operators import (Viscosity, SplitViscosity, fractional_power, helmholtz_split,
                        helmholtz_reconstruct, lame_operator,
                        double_divergence, symmetric_scalar)
from .model import (PressureLaw, ModelParams, PrimitiveState, HelmholtzState,
                    ReformState, assemble_sources, primitive_rhs, reformulated_rhs,
                    deformation_identity_gap, dual_path_gap, split_state)
from .linear import (EnergyConstants, linear_rhs, block_energy, equivalence_ratio,
                     constant_coeff_spectrum, oracle_decay_rate,
                     run_pair_decay, measure_block_decay, evolve_pair_exact)
from .evolve import (RunConfig, NormSeries, direct_solve, picard_solve,
                     uniform_bound_monitor, initial_bnorm, mollify)
from .constraints import (FlowMap, shear_map, generate_admissible, constraint_residuals,
                          transport_simulate, check_trajectory, convection_gauge)
from .snapshots import save_field, load_field
