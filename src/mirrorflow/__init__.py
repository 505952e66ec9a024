"""Accelerated primal-dual mirror dynamics for constrained convex problems.

The package integrates a family of continuous-time primal-dual flows whose
mirror maps keep the primal trajectory inside the feasible set, verifies
the t^-2 convergence certificates numerically, and reproduces a catalogue
of centralized and distributed experiments at desk scale.
"""

from .diagnostics import BoundCheck, RunReport, evaluate_run, rate_fit
from .dynamics import SYSTEMS, SystemParams, VectorField, apdmd_second_order_field, build_field
from .graph import LiftedLaplacian, UndirectedGraph, consensus_residual, laplacian, lift, ring
from .integrator import IntegratorConfig, Trajectory, geometric_grid, integrate
from .mirror_maps import (
    EuclideanMap,
    ItakuraSaitoMap,
    MirrorMap,
    NegEntropyMap,
    ProjectionMap,
    SimplexEntropyMap,
)
from .numerics import SeededRng, kron, pseudoinverse
from .problems import (
    PROBLEMS,
    ConsensusProblem,
    ConstrainedProblem,
    MonotropicProblem,
    ReferenceSolution,
    SmoothObjective,
    build_dbp_col,
    build_dbp_row,
    build_dis_logistic,
    build_dist_qp,
    build_logistic_centralized,
    build_nbp,
    build_scalar,
    reference_solution,
)
from .projections import AffineSet, Box, HalfSpace, PositiveOrthant, Projector, Simplex, Sphere
from .smoothing import L1Objective, smooth_abs, smooth_max_zero

__version__ = "0.1.0"
