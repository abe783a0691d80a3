"""Desk-scale numerics for weighted minimal hypersurfaces in Gauss space x R.

Weighted mean curvature H_F = H + <grad F, N> for parametric surfaces and
graphs, the benchmark surface catalog, hyperplane minimality classification,
Gaussian measure and volume-growth estimates, a pointwise calibration check,
and a weighted mean-curvature flow whose Lyapunov functional is the weighted
area.
"""

from .density import Density, DomainError, Profile, horizontal_gaussian
from .graph import (
    GraphFunction,
    bernstein_functional,
    graph_mean_curvature,
    graph_slope,
    graph_weighted_mean_curvature,
    horizontal_plane_roots,
    hyperplane_minimality,
)
from .measure import (
    QuadratureSpec,
    VolumeBoundReport,
    gaussian_ball_volume,
    graph_cap_weighted_area,
    unit_ball_volume,
    volume_bound_report,
    weighted_sphere_area,
)
from .surface import (
    CurvatureReport,
    ParametricSurface,
    RankDeficiencyError,
    mean_curvature,
    tangent_plane_distance,
    unit_normal,
    weighted_mean_curvature,
)

__all__ = [
    "CurvatureReport",
    "Density",
    "DomainError",
    "GraphFunction",
    "ParametricSurface",
    "Profile",
    "QuadratureSpec",
    "RankDeficiencyError",
    "VolumeBoundReport",
    "bernstein_functional",
    "gaussian_ball_volume",
    "graph_cap_weighted_area",
    "graph_mean_curvature",
    "graph_slope",
    "graph_weighted_mean_curvature",
    "horizontal_gaussian",
    "horizontal_plane_roots",
    "hyperplane_minimality",
    "mean_curvature",
    "tangent_plane_distance",
    "unit_ball_volume",
    "unit_normal",
    "volume_bound_report",
    "weighted_mean_curvature",
]

__version__ = "0.1.0"
