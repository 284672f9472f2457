"""Shannon and differential entropy kernels, all in bits (log base 2).

Conventions used throughout:

* 0 * log(0) = 0, so zero-probability outcomes never contribute.  The rule
  lives in entropy_bits, the one -sum p log2 p of the package.
* A Gaussian of standard deviation sigma has differential entropy
  (1/2) log2(2 pi e sigma^2); it vanishes at sigma = 1/sqrt(2 pi e).
* A histogram with normalized counts p_j and bin width w estimates the
  differential entropy of the underlying density as H(p) + log2(w).
  Flattening a density within bins can only raise its continuous entropy,
  so the binned entropy over-estimates the true one.  But the plug-in H(p)
  of N samples over m possible bins is biased low, by at most
  plugin_bias_bits(m, N) = log2(1 + (m-1)/N) in expectation, when m counts
  every bin of positive probability.  Witness formulas subtract the histogram
  entropy plus that finite-sample term.  With m a scan's box span that keeps
  the bounds conservative in expectation; with m the observed span of the
  samples (witness_from_samples) it does not at small N (ROADMAP item 14a).
  No confidence term covers one draw's spread about that expectation.
* m is set where the bins are chosen, as Histogram1D.support_bins, so it
  does not depend on whether the counts list empty bins.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

_SUM_TOL = 1e-12
# The scalar kernels below do Python-float arithmetic around numpy's logs: the
# logs are kept, as math.log2 and math.log1p differ from them in the last bit
# on some inputs, and each numpy scalar operation costs several times a float's.
_LN2 = float(np.log(2.0))
_LOG2_2PIE = float(np.log2(2.0 * np.pi * np.e))


def _check_width(bin_width: float) -> None:
    if not np.isfinite(bin_width) or bin_width <= 0.0:
        raise ValueError(f"bin width must be positive, got {bin_width!r}")


def entropy_bits(p: np.ndarray, axis=None) -> np.ndarray:
    """-sum p log2 p over axis (all axes by default), for p >= 0; p == 0 adds 0."""
    return -(p * np.log2(p, out=np.zeros_like(p, dtype=float), where=p > 0.0)).sum(axis=axis)


def _renormalized(p: np.ndarray, axis) -> np.ndarray:
    """p divided by its sums over axis, after checking that every PMF summed
    there is finite, non-negative and sums to 1 within 1e-12."""
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0.0):
        raise ValueError("probabilities must be non-negative")
    total = p.sum(axis=axis, keepdims=True)
    off = np.abs(total - 1.0) > _SUM_TOL
    if np.any(off):
        raise ValueError(
            f"probabilities sum to {total[off][0]!r}, not 1 within {_SUM_TOL}"
        )
    return p / total


@dataclass(frozen=True)
class DiscretePMF:
    """Joint probability mass function over 1 to 3 outcome axes.

    probabilities: flat, non-negative, sums to 1 within 1e-12 (renormalized
    on construction so downstream arithmetic sees an exact unit sum).
    shape: per-axis outcome cardinalities.
    """

    probabilities: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).ravel()
        shape = tuple(int(n) for n in self.shape)
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"PMF must have 1 to 3 axes, got shape {shape}")
        if any(n < 1 for n in shape):
            raise ValueError(f"axis cardinalities must be >= 1, got {shape}")
        if p.size != int(np.prod(shape)):
            raise ValueError(f"{p.size} probabilities do not fill shape {shape}")
        object.__setattr__(self, "probabilities", _renormalized(p, axis=None))
        object.__setattr__(self, "shape", shape)

    @property
    def n_axes(self) -> int:
        return len(self.shape)

    def as_array(self) -> np.ndarray:
        return self.probabilities.reshape(self.shape)

    def marginal(self, axes: tuple[int, ...]) -> "DiscretePMF":
        """Marginal PMF over the listed axes (summing out the rest)."""
        axes = tuple(axes)
        for ax in axes:
            if not 0 <= ax < self.n_axes:
                raise ValueError(f"axis {ax} out of range for {self.n_axes}-axis PMF")
        if len(set(axes)) != len(axes):
            raise ValueError("duplicate axes in marginal request")
        keep = sorted(axes)
        drop = tuple(ax for ax in range(self.n_axes) if ax not in keep)
        arr = self.as_array().sum(axis=drop) if drop else self.as_array()
        return DiscretePMF(arr.ravel(), arr.shape)


@dataclass(frozen=True)
class Histogram1D:
    """Count histogram with uniform bin width.

    bin_width: > 0, same units as the binned variable.
    counts: non-negative integers per bin, not all zero; empty bins may be left out.
    support_bins: m of the plug-in bias term, the bins the values could fall
    in; keyword-only, an integer >= counts.size, counts.size by default.
    """

    bin_width: float
    counts: np.ndarray
    support_bins: int | None = field(default=None, kw_only=True)

    def __post_init__(self):
        _check_width(self.bin_width)
        c = np.asarray(self.counts)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if not np.all(np.isfinite(c) & (c >= 0) & (np.floor(c) == c)):
            raise ValueError("counts must be non-negative integers")
        m = c.size if self.support_bins is None else self.support_bins
        if not isinstance(m, (int, np.integer)) or m < c.size:
            raise ValueError(f"support_bins must be an integer >= {c.size}, got {m!r}")
        object.__setattr__(self, "counts", c.astype(np.int64))
        object.__setattr__(self, "support_bins", int(m))
        if self.total == 0:
            raise ValueError("histogram has no counts")

    @classmethod
    def of(cls, values: np.ndarray, bin_width: float, weights=None, support_bins=None) -> "Histogram1D":
        """Histogram of values at bin_width, with bin 0 centred on the smallest.

        weights, when given, are integer counts per value.  m is support_bins, by
        default the span from the smallest value's bin to the largest's.  O(N) at any width.
        """
        _check_width(bin_width)
        origin = float(values.min()) - 0.5 * bin_width
        scaled = np.subtract(values, origin, dtype=np.float64)
        scaled /= bin_width
        # values - origin >= 0, so the truncating cast is the floor; in place, to save an array
        idx = scaled.view(np.int64)
        np.copyto(idx, scaled, casting="unsafe")
        span = int(idx.max()) + 1
        if span > 4 * idx.size:
            # occupied bins only: dense ones can't be allocated at fine widths (1000 rows, 1e-8: 16 GB)
            idx = np.unique(idx, return_inverse=True)[1]
        counts = np.bincount(idx, weights=weights)
        return cls(bin_width, counts, support_bins=span if support_bins is None else support_bins)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def shannon_entropy(pmf: DiscretePMF) -> float:
    """H = -sum p log2 p over all joint outcomes, in bits."""
    return float(entropy_bits(pmf.probabilities))


def conditional_entropy(pmf: DiscretePMF, target_axis: int) -> float:
    """H(target | rest) = H(joint) - H(rest), in bits.

    Requires at least two axes; 'rest' is every axis except target_axis.
    """
    if pmf.n_axes < 2:
        raise ValueError("conditional entropy needs a joint PMF with >= 2 axes")
    if not 0 <= target_axis < pmf.n_axes:
        raise ValueError(f"target axis {target_axis} out of range for {pmf.n_axes}-axis PMF")
    return shannon_entropy(pmf) - float(entropy_bits(pmf.as_array().sum(axis=target_axis)))


def mutual_information(pmf: DiscretePMF) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) for a two-axis PMF, in bits."""
    if pmf.n_axes != 2:
        raise ValueError("mutual information is defined here for exactly 2 axes")
    return float(stacked_mutual_information(pmf.as_array()))


def stacked_mutual_information(p: np.ndarray) -> np.ndarray:
    """I(A:B) in bits of each two-axis PMF p[..., a, b] in a stack.

    Each PMF is checked as DiscretePMF checks one (finite, non-negative,
    sums to 1 within 1e-12; ValueError otherwise) and renormalised; its two
    marginals are plain sums of the renormalised PMF.
    """
    p = _renormalized(np.asarray(p, dtype=float), axis=(-2, -1))
    h_a = entropy_bits(p.sum(axis=-1), axis=-1)
    h_b = entropy_bits(p.sum(axis=-2), axis=-1)
    return h_a + h_b - entropy_bits(p, axis=(-2, -1))


def binary_entropy(lam: float) -> float:
    """h2(lam) = -lam log2 lam - (1-lam) log2(1-lam), for lam in [0, 1]."""
    if not math.isfinite(lam) or not 0.0 <= lam <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {lam!r}")
    if lam == 0.0 or lam == 1.0:
        return 0.0
    lam = float(lam)
    # log1p keeps the (1-lam) term accurate for very small lam
    return -lam * float(np.log2(lam)) - (1.0 - lam) * float(np.log1p(-lam)) / _LN2


def gaussian_differential_entropy(sigma: float) -> float:
    """Differential entropy (bits) of a Gaussian with standard deviation sigma.

    0.5 log2(2 pi e sigma^2), or 0.5 log2(2 pi e) + log2(sigma) where
    2 pi e sigma^2 is not a normal float (sigma outside about [4e-155, 3e153]).
    """
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    sigma = float(sigma)  # Python floats: no warning on over- or underflow
    scaled_variance = 2.0 * np.pi * np.e * sigma * sigma
    if sys.float_info.min <= scaled_variance < math.inf:
        return 0.5 * float(np.log2(scaled_variance))
    return 0.5 * _LOG2_2PIE + float(np.log2(sigma))


def differential_entropy_from_histogram(hist: Histogram1D) -> float:
    """Plug-in H(normalized counts) + log2(bin width), in bits.

    N > 0 for every Histogram1D.  Biased low by at most plugin_bias_bits(m, N)
    in expectation, which a conservative witness adds (see the module docstring).
    """
    p = hist.counts / hist.total
    return float(entropy_bits(p) + np.log2(hist.bin_width))


def plugin_bias_bits(support_bins: int, n: int) -> float:
    """log2(1 + (m-1)/N), bits: the plug-in entropy of N samples over m bins is
    at most this far below the binned density's (Paninski, Neural Comput. 15,
    1191 (2003))."""
    return float(np.log1p((support_bins - 1) / n) / np.log(2.0))
