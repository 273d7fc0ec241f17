"""Exact n-cylinder volume contributions for minimal strata.

The package computes the normalized contributions a_{g,n} and the volumes
they scale to, entirely in exact arithmetic, and cross-validates them with
two independent combinatorial enumerations: metric ribbon graphs / plane
trees, and square-tiled surfaces given by permutation pairs.
"""

from .pnum import p_bw_value, p_value, pgvn_polynomial
from .ribbon import (
    PerimeterPair,
    RibbonGraph,
    Wall,
    count_positive_trees,
    counting_function,
    enumerate_graphs,
    fit_ray_polynomial,
    p0_oracle,
    wall_sample_point,
)
from .scalars import PiScaled, bernoulli
from .series import TruncatedSeries, UPoly, lagrange_invert, series_exp, series_pow_u, sine_quotient
from .sts import SquareTiledSurface, census, enumerate_sts, verify_cylinder_formula, zero_profile
from .volumes import (
    a_gn,
    asymptotic_prediction,
    c_series,
    c_series_inverse_route,
    cylinder_partial_sum,
    total_volume,
    verify_bivariate_relation,
    vol_n,
)

__version__ = "0.1.0"
