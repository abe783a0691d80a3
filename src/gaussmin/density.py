"""Log-densities e^{-F} on R^n and on products R^n x R.

A density is the positive weight e^{-F}; we store the log-weight F and its
gradient. The Gaussian preset is kept normalized,
F(x) = |x|^2/2 + (n/2) ln(2 pi), so the total weighted volume of R^n is
exactly 1.

All evaluation callables are vectorized over leading axes: points have
shape (..., dimension).

Column-order contract: a short last axis (a squared norm, a sum over bumps,
a product over coordinates) is reduced by Python's ``sum`` or ``math.prod``
over its columns.  numpy reduces an axis shorter than 8 in that same order,
from 0 (or 1), so the bits are ``np.sum``'s while whole columns run at array
speed; from 8 columns on numpy sums pairwise, and ``sq_norm`` calls ``np.sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """Evaluation outside the domain of a profile or density."""


# --------------------------------------------------------------------------- profiles

@dataclass(frozen=True)
class Profile:
    """Vertical profile h: R -> R with derivative h'.

    Used as the last factor of a product density e^{-(f+h)}. ``domain_min``
    is an open lower bound: evaluation at z <= domain_min raises DomainError.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    domain_min: float = -math.inf

    def _check(self, z) -> None:
        if self.domain_min > -math.inf and np.any(np.asarray(z) <= self.domain_min):
            raise DomainError(
                f"profile '{self.name}' is undefined for z <= {self.domain_min}"
            )

    def __call__(self, z):
        self._check(z)
        return self.value(np.asarray(z, dtype=float))

    def slope(self, z):
        self._check(z)
        return self.derivative(np.asarray(z, dtype=float))

    def contains(self, z) -> bool:
        return bool(np.all(np.asarray(z) > self.domain_min))

    @staticmethod
    def constant(level: float = 0.0) -> "Profile":
        return Profile(
            name="constant",
            value=lambda z: np.full_like(z, float(level)),
            derivative=lambda z: np.zeros_like(z),
        )

    @staticmethod
    def linear(slope: float = 1.0, intercept: float = 0.0) -> "Profile":
        """h(z) = slope*z + intercept; monotone for slope != 0."""
        return Profile(
            name="linear",
            value=lambda z: slope * z + intercept,
            derivative=lambda z: np.full_like(z, float(slope)),
        )

    @staticmethod
    def quadratic(c: float = 0.0, b: float = 0.0) -> "Profile":
        """h(z) = z^2/2 + c z + b.

        The unique profile shape (up to the constants c, b) for which tilted
        hyperplanes can be weighted minimal.
        """
        return Profile(
            name="quadratic",
            value=lambda z: 0.5 * z * z + c * z + b,
            derivative=lambda z: z + c,
        )

    @staticmethod
    def quad_log() -> "Profile":
        """h(z) = z^2 - ln sqrt(1+4z) on z > -1/4.

        Companion profile of the parabola graph z = x^2: under the product
        density e^{-(f+h)} that graph is weighted minimal.
        """
        return Profile(
            name="quad_log",
            value=lambda z: z * z - 0.5 * np.log1p(4.0 * z),
            derivative=lambda z: 2.0 * z - 2.0 / (1.0 + 4.0 * z),
            domain_min=-0.25,
        )


_PROFILE_FACTORIES = {
    "constant": Profile.constant,
    "linear": Profile.linear,
    "quadratic": Profile.quadratic,
    "quad_log": Profile.quad_log,
}


def profile_from_name(spec: str) -> Profile:
    """Build a profile from a preset string like ``quadratic`` or ``quadratic:0.5,1``."""
    name, _, argstr = spec.partition(":")
    try:
        factory = _PROFILE_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown profile preset '{name}'") from None
    args = [float(a) for a in argstr.split(",")] if argstr else []  # float's own ValueError for text
    if not all(map(math.isfinite, args)):
        raise ValueError(f"profile arguments must be finite numbers, got '{argstr}'")
    try:
        return factory(*args)
    except TypeError:
        raise ValueError(f"too many arguments for profile preset '{name}'") from None


# --------------------------------------------------------------------------- densities

def sq_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, bit for bit ``np.sum(x * x, axis=-1)``."""
    if x.shape[-1] >= 8:  # numpy sums pairwise here; only np.sum matches it
        return np.sum(x * x, axis=-1)
    return sum(x[..., i] * x[..., i] for i in range(x.shape[-1]))


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, by columns like ``sq_norm``: a stack gets
    each point's bits in any memory layout.  np.vecdot (BLAS) does not: on
    strided operands of four or more columns it sums in another order."""
    return sum(a[..., i] * b[..., i] for i in range(a.shape[-1]))


def as_points(x, dimension: int) -> np.ndarray:
    """x as a float array of points of shape (..., dimension)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dimension,):
        raise ValueError(f"expected points of dimension {dimension}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class Density:
    """Weight e^{-F} on R^dimension, given by log-weight F and its gradient.

    Every constructor's weight is invariant under rotations of the first
    dimension - 1 coordinates; ``measure.sphere_quadrature`` relies on this.
    """

    dimension: int
    _log_weight: Callable[[np.ndarray], np.ndarray]
    _grad: Callable[[np.ndarray], np.ndarray]

    def log_weight(self, x):
        """F(x); the weight itself is e^{-F(x)}."""
        return self._log_weight(as_points(x, self.dimension))

    def weight(self, x):
        return np.exp(-self.log_weight(x))

    def grad_log_weight(self, x):
        """The ambient gradient of F at x."""
        return self._grad(as_points(x, self.dimension))

    # ------------------------------------------------------------------ constructors

    @staticmethod
    def gaussian(n: int) -> "Density":
        """Normalized Gaussian on R^n: F(x) = |x|^2/2 + (n/2) ln(2 pi)."""
        if n < 1:
            raise ValueError("dimension must be positive")
        log_norm = 0.5 * n * math.log(2.0 * math.pi)
        return Density(
            dimension=n,
            _log_weight=lambda x: 0.5 * sq_norm(x) + log_norm,
            _grad=lambda x: x.copy(),
        )

    @staticmethod
    def radial(profile: Profile, n: int) -> "Density":
        """F(x) = h(|x|) for a radial profile h; gradient h'(|x|) x/|x|.

        At x = 0 the gradient is reported as 0 (well defined only when
        h'(0) = 0).
        """
        if n < 1:
            raise ValueError("dimension must be positive")

        def grad(x):
            r = np.sqrt(sq_norm(x))[..., None]
            safe = np.where(r > 0.0, r, 1.0)
            return np.where(r > 0.0, profile.slope(r) * x / safe, 0.0)

        return Density(
            dimension=n,
            _log_weight=lambda x: profile(np.sqrt(sq_norm(x))),
            _grad=grad,
        )

    @staticmethod
    def product(horizontal: "Density", vertical: Profile) -> "Density":
        """F(x, z) = F_h(x) + h(z) on R^{n+1}; gradient (grad F_h, h')."""
        n = horizontal.dimension

        def log_weight(x):
            return horizontal.log_weight(x[..., :n]) + vertical(x[..., n])

        def grad(x):
            return np.concatenate(
                [
                    horizontal.grad_log_weight(x[..., :n]),
                    vertical.slope(x[..., n])[..., None],
                ],
                axis=-1,
            )

        return Density(
            dimension=n + 1,
            _log_weight=log_weight,
            _grad=grad,
        )


def horizontal_gaussian(n: int) -> Density:
    """The density of Gauss space x R: Gaussian in the first n coordinates,
    independent of the last. Ambient dimension n + 1."""
    return Density.product(Density.gaussian(n), Profile.constant(0.0))


def density_from_name(spec: str, dimension: int) -> Density:
    """Resolve a CLI density preset.

    Accepted forms: ``gaussian``, ``radial:<profile>``,
    ``product:gaussian+<profile>``. ``dimension`` is the ambient dimension.
    """
    if spec == "gaussian":
        return Density.gaussian(dimension)
    head, _, rest = spec.partition(":")
    if head == "radial" and rest:
        return Density.radial(profile_from_name(rest), dimension)
    if head == "product" and rest:
        horiz, _, prof = rest.partition("+")
        if horiz != "gaussian" or not prof:
            raise ValueError(f"unsupported product density '{spec}'")
        return Density.product(
            Density.gaussian(dimension - 1), profile_from_name(prof)
        )
    raise ValueError(f"unknown density preset '{spec}'")

