"""Rotated-coordinate state algebra: exact values, duals, sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triphoton.entropy import binary_entropy, gaussian_differential_entropy
from triphoton.states import (
    _DRAW_CHUNK,
    _E3F_ASYMPTOTIC_RATIO,
    ROTATION_UVW,
    SampleSet,
    TripleGaussianState,
    UnsupportedStateError,
    _draw,
    exact_e3f,
    exact_e3f_array,
    mancini_bound,
    pair_statistics,
    rotate_from_uvw,
    rotate_to_uvw,
    sample_momenta,
    sample_positions,
    to_momentum,
)


def sym(r):
    return TripleGaussianState(r, 1.0, 1.0)


def test_rotation_is_orthogonal():
    assert np.max(np.abs(ROTATION_UVW @ ROTATION_UVW.T - np.eye(3))) < 1e-12


def test_rotation_maps_reference_vectors():
    assert np.allclose(rotate_to_uvw([1.0, 1.0, 1.0]), [np.sqrt(3.0), 0.0, 0.0], atol=1e-12)
    assert np.allclose(rotate_to_uvw([-2.0, 1.0, 1.0]), [0.0, np.sqrt(6.0), 0.0], atol=1e-12)
    assert np.allclose(rotate_to_uvw([0.0, 1.0, -1.0]), [0.0, 0.0, np.sqrt(2.0)], atol=1e-12)


def test_rotation_round_trip():
    rng = np.random.default_rng(2)
    xyz = rng.standard_normal((50, 3))
    assert np.max(np.abs(rotate_from_uvw(rotate_to_uvw(xyz)) - xyz)) < 1e-12


def test_exact_e3f_reference_values():
    assert exact_e3f(sym(10.0)) == pytest.approx(2.68684569692, abs=1e-9)
    assert exact_e3f(sym(100.0)) == pytest.approx(6.00166086181, abs=1e-9)
    assert exact_e3f(sym(1e6)) == pytest.approx(19.2893011095, abs=1e-8)
    assert exact_e3f(sym(1.0)) == 0.0


@pytest.mark.parametrize("width", [1e-300, 1.0, 1e300])
def test_exact_e3f_is_positive_zero_at_equal_widths(width):
    # no special case: at r = 1 the formula gives lambda0 = 1 and h2(1) = 0
    got = exact_e3f(TripleGaussianState(width, width, width))
    assert got == 0.0 and np.copysign(1.0, got) == 1.0


def _assert_e3f_array_bits(sigma_u, sigma_v):
    got = exact_e3f_array(sigma_u, sigma_v)
    want = np.array([exact_e3f(TripleGaussianState(u, sigma_v, sigma_v)) for u in sigma_u.tolist()])
    # bit patterns: equal values, and the sign of every zero
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(
    log10_ratios=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40),
    log10_sigma_v=st.floats(-100.0, 100.0),
)
@example(log10_ratios=[0.0, 1e-10, -1e-10, 4e-9], log10_sigma_v=0.0)  # lambda0 rounds to 1
def test_exact_e3f_array_equals_exact_e3f_bit_for_bit(log10_ratios, log10_sigma_v):
    sigma_v = 10.0**log10_sigma_v
    _assert_e3f_array_bits(10.0 ** np.array(log10_ratios) * sigma_v, sigma_v)


def test_exact_e3f_array_at_equal_widths_and_at_the_asymptotic_switch():
    edges = [
        np.nextafter(edge, toward)
        for edge in (_E3F_ASYMPTOTIC_RATIO, 1.0 / _E3F_ASYMPTOTIC_RATIO)
        for toward in (0.0, edge, np.inf)
    ]
    ratios = np.array([1.0, *edges])
    got = exact_e3f_array(ratios, 1.0)
    assert got[0] == 0.0 and np.copysign(1.0, got[0]) == 1.0
    _assert_e3f_array_bits(ratios, 1.0)


def test_exact_e3f_largest_weight_consistency():
    # largest decomposition weight at ratio 10, then h2(w)/w
    lam0 = 0.346449938064
    assert exact_e3f(sym(10.0)) == pytest.approx(binary_entropy(lam0) / lam0, abs=1e-9)


def test_exact_e3f_ratio_inversion_and_scale():
    for r in (1.7, 5.0, 42.0, 9e3):
        a = exact_e3f(sym(r))
        assert abs(a - exact_e3f(TripleGaussianState(1.0, r, r))) < 1e-12
        assert abs(a - exact_e3f(TripleGaussianState(r * 0.37, 0.37, 0.37))) < 1e-12


def test_exact_e3f_monotone_in_ratio():
    vals = [exact_e3f(sym(r)) for r in np.geomspace(1.0, 1e6, 40)]
    assert all(b > a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_exact_e3f_asymptotic_branch_is_continuous():
    # straddle the branch switch closely enough that the genuine slope
    # (log2(e) per unit log ratio) contributes well under the tolerance
    lo = exact_e3f(sym(1e8 * (1.0 - 5e-11)))
    hi = exact_e3f(sym(1e8 * (1.0 + 5e-11)))
    assert abs(hi - lo) < 1e-9


@pytest.mark.parametrize(
    "sigma_u, sigma_v",
    [(1e200, 1.0), (1e300, 1.0), (1e300, 1e-300), (1e-300, 1e300), (np.float64(1e300), np.float64(1e-300))],
)
def test_exact_e3f_is_finite_at_extreme_ratios(sigma_u, sigma_v):
    # every ratio squared overflows a double; the last three over- or underflow unsquared
    got = exact_e3f(TripleGaussianState(sigma_u, sigma_v, sigma_v))
    log_rho = abs(np.log2(sigma_u) - np.log2(sigma_v))
    assert np.isfinite(got)
    assert abs(got - (log_rho - np.log2(3.0 * np.sqrt(2.0)) + 1.0 / np.log(2.0))) <= 1e-9


def _numpy_scalar_binary_entropy(lam):
    if lam == 0.0 or lam == 1.0:
        return 0.0
    return float(-lam * np.log2(lam) - (1.0 - lam) * np.log1p(-lam) / np.log(2.0))


def _numpy_scalar_exact_e3f(sigma_u, sigma_v):
    if sigma_u == sigma_v:
        return 0.0
    ln2 = np.log(2.0)
    r = float(sigma_u) / float(sigma_v)
    if r > _E3F_ASYMPTOTIC_RATIO or r < 1.0 / _E3F_ASYMPTOTIC_RATIO:
        log_rho = abs(np.log2(sigma_u) - np.log2(sigma_v))
        t = np.exp2(-log_rho)
        q = t + np.sqrt(2.0 + 5.0 * t * t + 2.0 * t**4) / 3.0
        return float(log_rho + np.log2(q / 2.0) + 1.0 / ln2 - t / (q * ln2))
    rr = r * r
    lam0 = 2.0 / (1.0 + np.sqrt(5.0 + 2.0 * (rr + 1.0 / rr)) / 3.0)
    return float(_numpy_scalar_binary_entropy(lam0) / lam0)


def _numpy_scalar_gaussian_entropy(sigma):
    scaled_variance = 2.0 * np.pi * np.e * sigma * sigma
    if np.finfo(float).tiny <= scaled_variance < np.inf:
        return float(0.5 * np.log2(scaled_variance))
    return float(0.5 * np.log2(2.0 * np.pi * np.e) + np.log2(sigma))


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(5e-324, 1.0),
    log10_ratio=st.floats(-12.0, 12.0),
    log10_sigma_v=st.floats(-50.0, 50.0),
    sigma=st.floats(5e-324, 1.7976931348623157e308),
)
@example(lam=5e-324, log10_ratio=8.0, log10_sigma_v=0.0, sigma=5e-324)
@example(lam=1.0, log10_ratio=-8.0, log10_sigma_v=0.0, sigma=1.7976931348623157e308)
@example(lam=0.5, log10_ratio=0.0, log10_sigma_v=0.0, sigma=1.0)
def test_scalar_kernels_equal_their_numpy_scalar_formulas(lam, log10_ratio, log10_sigma_v, sigma):
    # the kernels do float arithmetic around numpy's logs; each result must
    # be the very float that all-numpy-scalar arithmetic gives, on both sides
    # of the asymptotic ratio and of the Gaussian entropy's normal-float range
    sigma_v = 10.0**log10_sigma_v
    sigma_u = sigma_v * 10.0**log10_ratio
    pairs = [
        (binary_entropy(lam), _numpy_scalar_binary_entropy(lam)),
        (exact_e3f(TripleGaussianState(sigma_u, sigma_v, sigma_v)), _numpy_scalar_exact_e3f(sigma_u, sigma_v)),
        (gaussian_differential_entropy(sigma), _numpy_scalar_gaussian_entropy(sigma)),
    ]
    for got, want in pairs:
        assert type(got) is float
        assert got == want


def test_exact_e3f_rejects_asymmetric_width():
    with pytest.raises(UnsupportedStateError):
        exact_e3f(TripleGaussianState(3.0, 1.0, 1.2))
    with pytest.raises(UnsupportedStateError):
        pair_statistics(TripleGaussianState(3.0, 1.0, 1.2))
    with pytest.raises(UnsupportedStateError):
        mancini_bound(TripleGaussianState(3.0, 1.0, 1.2))


def test_state_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TripleGaussianState(bad, 1.0, 1.0)


def test_state_width_error_types():
    # an int too large for a float is an ArithmeticError, which the CLI maps to exit 1
    with pytest.raises(OverflowError):
        TripleGaussianState(10**400, 1, 1)
    with pytest.raises(TypeError):
        TripleGaussianState("1.0", 1.0, 1.0)


def test_pair_statistics_formulas():
    rng = np.random.default_rng(5)
    for _ in range(10):
        su, sv = rng.uniform(0.2, 8.0, size=2)
        st = pair_statistics(TripleGaussianState(su, sv, sv))
        assert st.sd_x_sum == pytest.approx(np.sqrt((4 * su**2 + 2 * sv**2) / 3), rel=1e-12)
        assert st.sd_x_diff == pytest.approx(sv * np.sqrt(2.0), rel=1e-12)
        # conjugate difference widths saturate the uncertainty product
        assert st.sd_x_diff * st.sd_k_diff == pytest.approx(1.0, abs=1e-15)


def test_pair_statistics_reference_value():
    st = pair_statistics(TripleGaussianState(1.0, 0.1, 0.1))
    assert st.sd_x_diff == pytest.approx(0.1414213562, abs=1e-9)


def test_pair_statistics_match_sampled_moments():
    s = TripleGaussianState(2.0, 1.0, 1.0)
    st = pair_statistics(s)
    x = sample_positions(s, 1_000_000, 12).values
    assert np.std(x[:, 1] + x[:, 2]) == pytest.approx(st.sd_x_sum, rel=0.01)
    assert np.std(x[:, 1] - x[:, 2]) == pytest.approx(st.sd_x_diff, rel=0.01)
    k = sample_momenta(s, 1_000_000, 13).values
    assert np.std(k[:, 1] + k[:, 2]) == pytest.approx(st.sd_k_sum, rel=0.01)
    assert np.std(k[:, 1] - k[:, 2]) == pytest.approx(st.sd_k_diff, rel=0.01)


def test_mancini_reference_and_cap():
    assert mancini_bound(sym(1e3)) == pytest.approx(0.792479807667, abs=1e-9)
    assert mancini_bound(sym(1.0)) == 0.0
    cap = 0.5 * np.log2(3.0)
    vals = [mancini_bound(sym(r)) for r in np.geomspace(1e-3, 1e3, 500)]
    assert max(vals) <= cap + 1e-12
    assert mancini_bound(sym(123.0)) == pytest.approx(mancini_bound(sym(1 / 123.0)), abs=1e-12)


def test_momentum_dual_and_involution():
    s = TripleGaussianState(3.0, 0.5, 0.8)
    d = to_momentum(s)
    assert d.sigma_u == pytest.approx(1 / 6.0, rel=1e-15)
    assert d.sigma_v == 1.0
    assert d.sigma_w == pytest.approx(0.625, rel=1e-15)
    dd = to_momentum(d)
    for got, want in ((dd.sigma_u, 3.0), (dd.sigma_v, 0.5), (dd.sigma_w, 0.8)):
        assert got == pytest.approx(want, rel=1e-12)


def test_sampling_is_deterministic_per_seed():
    s = sym(2.0)
    a = sample_positions(s, 1000, 7).values
    b = sample_positions(s, 1000, 7).values
    c = sample_positions(s, 1000, 8).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 3 * _DRAW_CHUNK + 5])
def test_chunked_sampling_equals_one_shot_draw(n):
    s = TripleGaussianState(5.0, 0.7, 0.7)
    x = sample_positions(s, n, 21).values
    k = sample_momenta(s, n, 22).values
    assert np.array_equal(x, _draw(s, n, np.random.default_rng(21)))
    assert np.array_equal(k, _draw(to_momentum(s), n, np.random.default_rng(22)))


def test_sampled_rotated_widths_match_state():
    s = TripleGaussianState(5.0, 0.7, 0.7)
    x = sample_positions(s, 1_000_000, 9)
    assert x.kind == "position"
    uvw = rotate_to_uvw(x.values)
    for col, want in zip(uvw.T, (5.0, 0.7, 0.7)):
        assert np.std(col) == pytest.approx(want, rel=0.01)


def test_momentum_samples_use_dual_widths():
    s = TripleGaussianState(5.0, 0.7, 0.7)
    k = sample_momenta(s, 400_000, 10)
    assert k.kind == "momentum"
    d = to_momentum(s)
    uvw = rotate_to_uvw(k.values)
    for col, want in zip(uvw.T, (d.sigma_u, d.sigma_v, d.sigma_w)):
        assert np.std(col) == pytest.approx(want, rel=0.01)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_positions(sym(1.0), 0, 1)
    with pytest.raises(ValueError):
        sample_momenta(sym(1.0), -5, 1)
    with pytest.raises(ValueError):
        SampleSet(values=np.zeros((4, 2)), kind="position")
    with pytest.raises(ValueError):
        SampleSet(values=np.zeros((4, 3)), kind="frequency")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_set_rejects_non_finite_values(bad):
    values = np.zeros((4, 3))
    values[2, 1] = bad
    with pytest.raises(ValueError, match="sample values must be finite"):
        SampleSet(values=values, kind="position")


def test_sample_set_rejects_zero_rows():
    with pytest.raises(ValueError, match="sample sets must be non-empty"):
        SampleSet(values=np.zeros((0, 3)), kind="momentum")
