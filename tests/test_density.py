import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gaussmin.density import (
    Density,
    DomainError,
    Profile,
    density_from_name,
    horizontal_gaussian,
    profile_from_name,
    sq_norm,
)
from gaussmin.rng import substream
from oracles import central_difference, same_bits

LOG_2PI = math.log(2.0 * math.pi)


def test_gaussian_log_weight_at_origin():
    d = Density.gaussian(2)
    assert d.log_weight([0.0, 0.0]) == pytest.approx(LOG_2PI, abs=1e-15)
    assert d.weight([0.0, 0.0]) == pytest.approx(0.15915494309189535, abs=1e-15)
    assert Density.gaussian(1).log_weight([0.0]) == pytest.approx(0.5 * LOG_2PI)


def test_gaussian_gradient_is_identity():
    d = Density.gaussian(3)
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(d.grad_log_weight(x), x)
    assert np.allclose(d.grad_log_weight(np.zeros(3)), 0.0)


def test_horizontal_gaussian_gradient_kills_last_coordinate():
    hg = horizontal_gaussian(2)
    assert np.allclose(hg.grad_log_weight([1.0, 2.0, 5.0]), [1.0, 2.0, 0.0])
    # vertical translations do not change the weight
    assert hg.log_weight([1.0, 2.0, 5.0]) == hg.log_weight([1.0, 2.0, -7.0])


def test_product_with_quad_log_profile():
    d = Density.product(Density.gaussian(2), Profile.quad_log())
    expected = LOG_2PI + 1.0 - math.log(math.sqrt(5.0))
    assert d.log_weight([0.0, 0.0, 1.0]) == pytest.approx(expected, abs=1e-14)
    d1 = Density.product(Density.gaussian(1), Profile.quad_log())
    assert np.allclose(d1.grad_log_weight([0.0, 0.0]), [0.0, -2.0])


def test_quad_log_domain_error():
    prof = Profile.quad_log()
    with pytest.raises(DomainError):
        prof(-0.3)
    with pytest.raises(DomainError):
        prof.slope(-0.25)
    d = Density.product(Density.gaussian(1), prof)
    with pytest.raises(DomainError):
        d.log_weight([0.0, -0.3])


def test_dimension_mismatch_rejected():
    d = Density.gaussian(2)
    with pytest.raises(ValueError):
        d.log_weight([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "dens,low",
    [
        (Density.gaussian(2), None),
        (Density.gaussian(3), None),
        (Density.product(Density.gaussian(2), Profile.quad_log()), 0.1),
        (Density.product(Density.gaussian(1), Profile.quadratic(c=0.3, b=1.0)), None),
        (Density.radial(Profile.quadratic(c=0.5), 2), None),
        (horizontal_gaussian(2), None),
    ],
)
def test_gradient_matches_finite_differences(dens, low):
    rng = substream(7, 1)
    pts = rng.uniform(-2.0, 2.0, size=(200, dens.dimension))
    if low is not None:
        pts[:, -1] = np.abs(pts[:, -1]) + low  # stay inside the profile domain
    for x in pts:
        fd = central_difference(dens.log_weight, x, 1e-5)
        assert np.max(np.abs(dens.grad_log_weight(x) - fd)) <= 1e-6


@given(st.floats(min_value=-0.24, max_value=5.0))
@example(-0.234375)  # near the pole at -1/4 a plain step-1e-5 difference is off by 4e-6
def test_profile_slope_matches_finite_differences(z):
    prof = Profile.quad_log()
    if z - 1e-5 <= -0.25:
        return

    def central(h):
        return (prof(z + h) - prof(z - h)) / (2.0 * h)

    # one Richardson step cancels the h^2 term: error O(h^4)
    fd = (4.0 * central(0.5e-5) - central(1e-5)) / 3.0
    assert prof.slope(z) == pytest.approx(fd, abs=1e-6)


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=2).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    )
)
def test_radial_gradient_parallel_to_position(v):
    d = Density.radial(Profile.quadratic(c=0.7), 2)
    x = np.asarray(v)
    g = d.grad_log_weight(x)
    xhat = x / np.linalg.norm(x)
    perp = g - (g @ xhat) * xhat
    assert np.linalg.norm(perp) <= 1e-12 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gaussian_total_mass_monte_carlo(n):
    # uniform box sampling; the mass outside [-6, 6]^n is below 1e-8
    rng = substream(11, n)
    half = 6.0
    pts = rng.uniform(-half, half, size=(400_000, n))
    d = Density.gaussian(n)
    vals = d.weight(pts) * (2.0 * half) ** n
    est = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    assert abs(est - 1.0) <= 3.0 * se


def test_profile_presets_by_name():
    assert profile_from_name("quad_log").name == "quad_log"
    assert profile_from_name("quadratic:0.5,1.0").slope(0.0) == pytest.approx(0.5)
    assert profile_from_name("linear:2.0")(1.0) == pytest.approx(2.0)
    assert profile_from_name("constant:3.0")(0.4) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        profile_from_name("unknown")


def test_profile_arguments_are_finite_numbers_one_per_slot():
    # a bare name or an empty argument list keeps the preset's defaults
    assert profile_from_name("quadratic:").slope(1.0) == profile_from_name("quadratic").slope(1.0)
    for spec in ("quadratic:nan", "linear:inf", "quadratic:1,-inf", "quadratic:1,,2", "quadratic:0.5,"):
        with pytest.raises(ValueError):
            profile_from_name(spec)
    with pytest.raises(ValueError, match="could not convert string to float: 'abc'"):
        profile_from_name("quadratic:abc")


def test_density_presets_by_name():
    x = np.array([[0.3, -1.2, 0.7], [1.5, 0.4, -0.2]])
    gaussian = density_from_name("gaussian", 2)
    assert np.allclose(gaussian.log_weight(x[:, :2]), 0.5 * np.sum(x[:, :2] ** 2, axis=-1) + LOG_2PI)
    product = density_from_name("product:gaussian+quad_log", 3)
    assert product.dimension == 3
    assert np.allclose(product.log_weight(x), gaussian.log_weight(x[:, :2]) + Profile.quad_log()(x[:, 2]))
    radial = density_from_name("radial:quadratic", 2)
    assert np.allclose(radial.log_weight(x[:, :2]), profile_from_name("quadratic")(np.hypot(*x[:, :2].T)))
    with pytest.raises(ValueError):
        density_from_name("product:lorentz+quad_log", 3)
    with pytest.raises(ValueError):
        density_from_name("nope", 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_sq_norm_is_np_sum_and_linalg_norm_bit_for_bit(n):
    # columns one by one below 8, np.sum's pairwise sum from 8 on
    rng = substream(41, n)
    for shape in [(n,), (1000, n), (6, 7, n)]:
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-6.0, 6.0, shape))
        assert np.array_equal(sq_norm(x), np.sum(x * x, axis=-1))
        assert np.array_equal(np.sqrt(sq_norm(x)), np.linalg.norm(x, axis=-1))


PROFILES = ["constant:0.3", "linear:0.7,-0.2", "quadratic:0.5,1", "quad_log"]
STACK_DENSITIES = (
    [(f"gaussian_n{n}", Density.gaussian(n)) for n in (1, 2, 3)]
    + [(f"radial_{p}_n{n}", Density.radial(profile_from_name(p), n)) for p in PROFILES for n in (1, 2, 3)]
    + [(f"product_{p}_n{n}", Density.product(Density.gaussian(n), profile_from_name(p)))
       for p in PROFILES for n in (1, 2, 3)]
)


def point_stacks(dim: int):
    """Points of leading shapes (), (k,) and (a, b), near and far out, with
    the last coordinate inside quad_log's domain, each as a C- and an
    F-ordered copy."""
    rng = substream(45, dim)
    stacks = [rng.uniform(-2.0, 2.0, shape) for shape in [(dim,), (40, dim), (5, 6, dim)]]
    stacks.append(rng.uniform(-30.0, 30.0, (3, 4, dim)))
    for x in stacks:
        x[..., -1] = np.abs(x[..., -1])
    return [layout(x) for x in stacks for layout in (np.ascontiguousarray, np.asfortranarray)]


@pytest.mark.parametrize("dens", [d for _, d in STACK_DENSITIES], ids=[name for name, _ in STACK_DENSITIES])
def test_stacked_weights_and_gradients_match_each_points_bit_for_bit(dens):
    for x in point_stacks(dens.dimension):
        stacked = (dens.log_weight(x), dens.weight(x), dens.grad_log_weight(x))
        for idx in np.ndindex(x.shape[:-1]):
            p = x[idx].copy()
            alone = (dens.log_weight(p), dens.weight(p), dens.grad_log_weight(p))
            assert all(same_bits(s[idx], a) for s, a in zip(stacked, alone)), idx
