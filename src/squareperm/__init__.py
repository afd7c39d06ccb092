"""Square permutations: encoding, sampling, and limit statistics.

A square permutation is one whose every point is a record.  This package
implements the bijective encoding of square permutations by anchored label
sequences, exactly uniform rejection sampling built on that encoding, the
permuton limit with its grid-distance diagnostics, Brownian fluctuation
statistics of the side paths, and Benjamini-Schramm local limits around a
uniform root.
"""

from __future__ import annotations

from .core import (
    RecordSets,
    coc_proportion,
    count_good_pairs,
    count_square_formula,
    enumerate_square,
    inverse,
    is_square,
    occ_proportion,
    pattern_at,
    records,
)
from .encoding import (
    AnchoredPair,
    LabelStats,
    MatchingFailure,
    PetrovReport,
    anchors,
    build_lambdas,
    is_regular,
    label_stats,
    margin_ok,
    offsets,
    petrov_check,
    project,
    reconstruct,
)
from .fluctuations import (
    EndpointStats,
    component_families,
    endpoint_stats,
    extract_families,
    path_F,
    rotate_families,
)
from .local_limits import (
    RootedPattern,
    build_psi,
    classify_phi,
    e_counts,
    empirical_window_distribution,
    limit_p,
    local_distance,
    map_J,
    quenched_gamma,
    restrict,
    sample_limit_window,
    separating_line_exists,
)
from .permuton import (
    GridCdf,
    box_distance_grid,
    grid_cdf,
    lambda_estimate,
    mu_sigma_rect,
    mu_z_rect,
    sample_pattern_mu_z,
    sample_point_mu_z,
)
from .sampler import (
    SamplerStats,
    sample_conditioned,
    sample_good,
    sample_regular,
    sample_square_approx,
)

__all__ = [
    "AnchoredPair",
    "EndpointStats",
    "GridCdf",
    "LabelStats",
    "MatchingFailure",
    "PetrovReport",
    "RecordSets",
    "RootedPattern",
    "SamplerStats",
    "anchors",
    "box_distance_grid",
    "build_lambdas",
    "build_psi",
    "classify_phi",
    "coc_proportion",
    "component_families",
    "count_good_pairs",
    "count_square_formula",
    "e_counts",
    "empirical_window_distribution",
    "endpoint_stats",
    "enumerate_square",
    "extract_families",
    "grid_cdf",
    "inverse",
    "is_regular",
    "is_square",
    "label_stats",
    "margin_ok",
    "lambda_estimate",
    "limit_p",
    "local_distance",
    "map_J",
    "mu_sigma_rect",
    "mu_z_rect",
    "occ_proportion",
    "offsets",
    "path_F",
    "pattern_at",
    "petrov_check",
    "project",
    "quenched_gamma",
    "reconstruct",
    "records",
    "restrict",
    "rotate_families",
    "sample_conditioned",
    "sample_good",
    "sample_limit_window",
    "sample_pattern_mu_z",
    "sample_point_mu_z",
    "sample_regular",
    "sample_square_approx",
    "separating_line_exists",
]

__version__ = "0.1.0"
