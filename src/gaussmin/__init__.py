"""Desk-scale numerics for weighted minimal hypersurfaces in Gauss space x R.

Weighted mean curvature H_F = H + <grad F, N> for parametric surfaces and
graphs, the benchmark surface catalog, hyperplane minimality classification,
Gaussian measure and volume-growth estimates, a pointwise calibration check,
and a weighted mean-curvature flow whose Lyapunov functional is the weighted
area.  Import the submodules: ``gaussmin.cli`` is the command line, and
``graph``, ``surface``, ``catalog``, ``calibration``, ``measure`` and
``flow`` are the library it calls.
"""

__version__ = "0.1.0"
