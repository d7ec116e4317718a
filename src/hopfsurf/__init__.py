"""Geometry of linear-contraction quotients of C^2 minus the origin.

Submodules:

    invariants  multiplier invariants rho/tau and the rationality case split
    quotient    fundamental-shell reduction and the level-set coordinate
    flows       linear flows, fiber enumeration, orbit-closure classes
    domains     invariant domains, translation, classification table
    levi        Levi curvature, boundary graphs, positivity search
    robin       walk-on-spheres Robin constants and boundary experiments
    cli         command-line front end (see `hopfsurf --help`)
"""

from .invariants import (Declared, HopfParams, InvariantSet, Numeric,
                         RationalityResult, derive_invariants, detect_rational,
                         roots_of_unity)
from .quotient import (HopfPoint, LevelResidual, equivalent, leaf_equivalent,
                       level_membership, reduce_point, reduce_points, u_value)
from .flows import (ClosureClass, FiberSet, VectorField,
                    classify_orbit_closure, fiber_set, flow_point,
                    is_unit_proportional, orbit_reduce_samples,
                    star_discrepancy, unit_field)
from .domains import (ClassificationResult, ImplicitDomain, LeafFamily,
                      LevelBand, Nemirovskii, SubLevel, SuperLevel,
                      classify_domain, evaluate_domain, tangency_check,
                      translate_domain, distance_to_identity,
                      verify_nemirovskii_quotient)
from .levi import (BoundaryModel, Jet2, diamond_search, levi2_residual,
                   levi_form, numeric_jet, pseudoconvexity_scan,
                   sweep_cover_check)
from .poly import RealPoly2, from_complex_term
from .robin import (Ball, ExperimentBudget, HalfSpace, RobinEstimate,
                    WosConfig, ball_oracle, boundary_behavior_experiment,
                    half_space_from_theta, half_space_oracle, kernel,
                    product_half_plane_oracle, psh_spot_check, robin_constant)

__version__ = "0.1.0"
