"""Entropy kernels checked against closed forms and quadrature oracles."""

import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from triphoton.entropy import (
    DiscretePMF,
    Histogram1D,
    binary_entropy,
    conditional_entropy,
    differential_entropy_from_histogram,
    gaussian_differential_entropy,
    mutual_information,
    shannon_entropy,
    stacked_mutual_information,
)


def test_binary_entropy_reference_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.34645) - 0.930857581996) < 1e-9


def test_binary_entropy_symmetry():
    for lam in np.linspace(0.01, 0.99, 23):
        assert abs(binary_entropy(lam) - binary_entropy(1.0 - lam)) < 1e-12


def test_binary_entropy_domain():
    for bad in (-0.1, 1.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_shannon_entropy_uniform_and_deterministic():
    for k in (1, 2, 3, 4):
        pmf = DiscretePMF(np.full(2**k, 2.0**-k), (2**k,))
        assert abs(shannon_entropy(pmf) - k) < 1e-12
    point = DiscretePMF([1.0, 0.0, 0.0], (3,))
    assert shannon_entropy(point) == 0.0


def test_mutual_information_reference_value():
    # correlated bit pair, equal outcomes three times likelier than unequal
    pmf = DiscretePMF([3 / 8, 1 / 8, 1 / 8, 3 / 8], (2, 2))
    assert abs(mutual_information(pmf) - 0.188721875541) < 1e-9


def test_conditional_entropy_matches_weighted_sum():
    rng = np.random.default_rng(4)
    for _ in range(10):
        shape = tuple(int(n) for n in rng.integers(2, 5, size=3))
        p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        pmf = DiscretePMF(p.ravel(), shape)
        for axis in range(3):
            # independent oracle: probability-weighted per-outcome entropies
            rest = p.sum(axis=axis)
            moved = np.moveaxis(p, axis, -1)
            acc = 0.0
            for idx in np.ndindex(*rest.shape):
                w = rest[idx]
                if w == 0.0:
                    continue
                cond = moved[idx] / w
                nz = cond[cond > 0]
                acc += w * float(-(nz * np.log2(nz)).sum())
            assert abs(conditional_entropy(pmf, axis) - acc) < 1e-12


def test_chain_rule():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = rng.dirichlet(np.ones(12)).reshape(3, 4)
        pmf = DiscretePMF(p.ravel(), (3, 4))
        lhs = shannon_entropy(pmf)
        rhs = shannon_entropy(pmf.marginal((1,))) + conditional_entropy(pmf, 0)
        assert abs(lhs - rhs) < 1e-12


def test_mutual_information_nonnegative_and_zero_for_products():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = rng.dirichlet(np.ones(20)).reshape(4, 5)
        assert mutual_information(DiscretePMF(p.ravel(), (4, 5))) > -1e-12
        prod = np.outer(p.sum(axis=1), p.sum(axis=0))
        assert abs(mutual_information(DiscretePMF(prod.ravel(), (4, 5)))) < 1e-12


def test_mutual_information_symmetric_under_swap():
    rng = np.random.default_rng(23)
    p = rng.dirichlet(np.ones(12)).reshape(3, 4)
    a = mutual_information(DiscretePMF(p.ravel(), (3, 4)))
    b = mutual_information(DiscretePMF(p.T.ravel(), (4, 3)))
    assert abs(a - b) < 1e-12


def test_stacked_mutual_information_checks_each_pmf():
    rng = np.random.default_rng(29)
    stack = rng.dirichlet(np.ones(12), size=5).reshape(5, 3, 4)
    got = stacked_mutual_information(stack)
    pmfs = [DiscretePMF(p.ravel(), (3, 4)) for p in stack]
    want = [
        shannon_entropy(pmf.marginal((0,)))
        + shannon_entropy(pmf.marginal((1,)))
        - shannon_entropy(pmf)
        for pmf in pmfs
    ]
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)
    for bad in (np.nan, -0.1, 0.5):
        broken = stack.copy()
        broken[3, 0, 0] = bad
        with pytest.raises(ValueError):
            stacked_mutual_information(broken)


def test_gaussian_entropy_reference_and_scaling():
    assert abs(gaussian_differential_entropy(1.0) - 2.0470955851806) < 1e-9
    for c in (0.1, 2.0, 37.5):
        got = gaussian_differential_entropy(c)
        assert abs(got - gaussian_differential_entropy(1.0) - np.log2(c)) < 1e-12
    for bad in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            gaussian_differential_entropy(bad)


def test_gaussian_entropy_against_quadrature():
    sigma = 0.7

    def neg_plogp(x):
        p = np.exp(-x * x / (2 * sigma * sigma)) / (sigma * np.sqrt(2 * np.pi))
        return -p * np.log2(p)

    val, err = integrate.quad(neg_plogp, -12 * sigma, 12 * sigma)
    assert err < 1e-9
    assert abs(gaussian_differential_entropy(sigma) - val) < 1e-8


def test_histogram_entropy_near_analytic_for_fine_bins():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200_000) * 2.5
    w = 2.5 / 20
    origin = x.min() - 0.5 * w
    counts = np.bincount(np.floor((x - origin) / w).astype(int))
    est = differential_entropy_from_histogram(Histogram1D(w, counts, support_bins=counts.size))
    assert abs(est - gaussian_differential_entropy(2.5)) < 0.02


def test_histogram_entropy_single_bin_is_log_width():
    h = Histogram1D(0.37, np.array([1234]), support_bins=1)
    assert abs(differential_entropy_from_histogram(h) - np.log2(0.37)) < 1e-12


def test_histogram_entropy_overestimates_density_entropy():
    # exact discretized Gaussian: flattening within bins can only add entropy
    for w in (0.25, 1.0, 3.0):
        edges = np.arange(-40, 41) * w
        counts = np.round(np.diff(norm.cdf(edges)) * 1e12).astype(np.int64)
        est = differential_entropy_from_histogram(Histogram1D(w, counts, support_bins=counts.size))
        assert est >= gaussian_differential_entropy(1.0) - 1e-6


def test_histogram_entropy_pair_merge_never_lowers_estimate():
    rng = np.random.default_rng(8)
    for _ in range(20):
        counts = rng.integers(0, 1000, size=64)
        counts[0] += 1
        fine = Histogram1D(0.5, counts, support_bins=64)
        merged = Histogram1D(1.0, counts.reshape(32, 2).sum(axis=1), support_bins=32)
        assert (
            differential_entropy_from_histogram(merged)
            >= differential_entropy_from_histogram(fine) - 1e-12
        )


def test_pmf_validation():
    with pytest.raises(ValueError):
        DiscretePMF([0.5, 0.6], (2,))
    with pytest.raises(ValueError):
        DiscretePMF([1.5, -0.5], (2,))
    with pytest.raises(ValueError):
        DiscretePMF([1.0], (1, 1, 1, 1))
    with pytest.raises(ValueError):
        DiscretePMF([0.5, 0.5], (3,))
    with pytest.raises(ValueError):
        DiscretePMF([np.nan, 1.0], (2,))
    with pytest.raises(ValueError, match=r"axis cardinalities must be >= 1, got \(2, 0\)"):
        DiscretePMF([], (2, 0))
    # an axis with a single outcome is allowed
    assert DiscretePMF(np.full(4, 0.25), (2, 1, 2)).shape == (2, 1, 2)


def test_marginal_validation():
    pmf = DiscretePMF(np.full(4, 0.25), (2, 2))
    with pytest.raises(ValueError):
        pmf.marginal((0, 0))
    with pytest.raises(ValueError):
        pmf.marginal((2,))


def test_entropy_argument_validation():
    single = DiscretePMF([0.5, 0.5], (2,))
    with pytest.raises(ValueError):
        conditional_entropy(single, 0)
    pmf3 = DiscretePMF(np.full(8, 0.125), (2, 2, 2))
    with pytest.raises(ValueError):
        mutual_information(pmf3)
    with pytest.raises(ValueError):
        conditional_entropy(pmf3, 5)


def test_weighted_histogram_equals_repeated_values():
    rng = np.random.default_rng(4)
    values = rng.normal(size=200)
    weights = rng.integers(1, 5, size=200)
    weighted = Histogram1D.of(values, 0.3, weights=weights)
    repeated = Histogram1D.of(np.repeat(values, weights), 0.3)
    assert weighted.bin_width == repeated.bin_width == 0.3
    # the span from the smallest value's bin to the largest's
    span = int((values.max() - values.min()) / 0.3 + 0.5) + 1
    assert weighted.support_bins == repeated.support_bins == weighted.counts.size == span
    np.testing.assert_array_equal(weighted.counts, repeated.counts)


def test_histogram_of_fine_bins_counts_occupied_bins_over_the_span():
    # 0, 0 and 1000 at width 1: bins 0 and 1000 of a 1001-bin span
    hist = Histogram1D.of(np.array([0.0, 1000.0, 0.0]), 1.0)
    np.testing.assert_array_equal(hist.counts, [2, 1])
    assert hist.support_bins == 1001
    dense = np.zeros(1001, dtype=np.int64)
    dense[0], dense[1000] = 2, 1
    assert differential_entropy_from_histogram(hist) == pytest.approx(
        differential_entropy_from_histogram(Histogram1D(1.0, dense, support_bins=1001)), abs=1e-12
    )
    # a caller that chose the grid sets m; up to 4 bins per value stay dense
    values = np.arange(4.0)
    narrow = Histogram1D.of(values, 1.0, support_bins=9)
    np.testing.assert_array_equal(narrow.counts, [1, 1, 1, 1])
    assert narrow.support_bins == 9
    np.testing.assert_array_equal(Histogram1D.of(values, 0.25).counts[::4], [1, 1, 1, 1])
    assert Histogram1D.of(values, 0.25).counts.size == 13


def test_histogram_of_refuses_spans_past_int64():
    # the int64 bin index would wrap: 2**-63 gave m = 2**62 + 1, 1e-19 gave 5e18 + 1, 1e-300 a
    # bincount error
    values = np.array([0.0, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Histogram1D.of(values, 2.0**-62).support_bins == 2**62 + 1
        for width in (2.0**-63, 1e-19, 1e-300):
            with pytest.raises(ValueError, match=f"bin width {width!r} gives"):
                Histogram1D.of(values, width)


@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_histogram_of_refuses_non_finite_values(bad):
    # checked before the span: a -inf origin would make the subtraction warn, and an inf or
    # NaN span would raise the width's error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"values span \[.*\]; a histogram needs finite values"):
            Histogram1D.of(np.array([0.0, bad, 1.0]), 0.5)


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_histogram_of_checks_its_width_before_binning(width):
    with pytest.raises(ValueError, match="bin width must be positive"):
        Histogram1D.of(np.array([0.0, 1.0]), width)


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram1D(0.0, np.array([1]), support_bins=1)
    with pytest.raises(ValueError):
        Histogram1D(1.0, np.array([-1]), support_bins=1)
    with pytest.raises(ValueError):
        Histogram1D(1.0, np.array([], dtype=int), support_bins=1)
    # counts that sum to zero are refused at construction, before any entropy
    with pytest.raises(ValueError, match="histogram has no counts"):
        Histogram1D(1.0, np.array([0, 0]), support_bins=2)
    with pytest.raises(ValueError, match="histogram has no counts"):
        Histogram1D(1.0, np.array([0.0, 0.0]), support_bins=9)
    # m counts every bin the values could fall in, so never fewer than counts
    with pytest.raises(ValueError, match="support_bins must be an integer >= 2"):
        Histogram1D(1.0, np.array([1, 2]), support_bins=1)
    with pytest.raises(ValueError, match="support_bins"):
        Histogram1D(1.0, np.array([1, 2]), support_bins=2.5)
    # keyword-only: a third positional argument is not read as m
    with pytest.raises(TypeError, match="positional"):
        Histogram1D(1.0, np.array([1, 2]), 5)
    # required: m is set where the bins are chosen, never taken from counts.size
    with pytest.raises(TypeError, match="support_bins"):
        Histogram1D(1.0, np.array([1, 2]))
    assert Histogram1D(1.0, np.array([1, 2]), support_bins=np.int64(7)).support_bins == 7


@pytest.mark.parametrize("counts", [[0.5, 1.7, 2.0], [np.nan, 1.0], [np.inf, 1.0]])
def test_histogram_refuses_counts_that_are_not_integers(counts):
    # once truncated silently ([0.5, 1.7, 2.0] stored as [0, 1, 2]), or cast from NaN
    with pytest.raises(ValueError, match="^counts must be non-negative integers$"):
        Histogram1D(1.0, np.array(counts), support_bins=len(counts))


def test_histogram_keeps_integer_valued_float_counts():
    # bincount with weights, as the scan collapse calls it, returns floats
    h = Histogram1D(1.0, np.array([1.0, 2.0]), support_bins=2)
    assert h.counts.dtype == np.int64 and h.counts.tolist() == [1, 2]
