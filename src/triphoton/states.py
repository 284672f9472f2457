"""Triple-Gaussian photon-triplet states and their exact entanglement content.

A triplet wavefunction that factorizes into independent Gaussians along the
rotated coordinates

    x_u = (x1 + x2 + x3)/sqrt(3)
    x_v = (2/sqrt(6)) * (-x1 + (x2 + x3)/2)
    x_w = (x2 - x3)/sqrt(2)

is fully described by the three widths (sigma_u, sigma_v, sigma_w).  The
rotation is orthogonal, so the same transform maps momenta, and the Fourier
dual of a width sigma is 1/(2*sigma).

For the symmetric case sigma_v == sigma_w the tripartite entanglement of
formation (in gebits, GHZ-state units) has a closed form through the largest
Schmidt-like weight

    lambda0 = 2 / (1 + (1/3)*sqrt(5 + 2*(r^2 + 1/r^2))),   r = sigma_u/sigma_v
    E3F     = h2(lambda0) / lambda0

which vanishes exactly at r = 1 (product state) and grows without bound as
the widths separate.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy

_LN2 = np.log(2.0)

# Orthogonal map from photon coordinates (x1,x2,x3) to (x_u,x_v,x_w).
ROTATION_UVW = np.array(
    [
        [1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)],
        [-2.0 / np.sqrt(6.0), 1.0 / np.sqrt(6.0), 1.0 / np.sqrt(6.0)],
        [0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)],
    ]
)

# Rows or leaves per block of every blocked pass, all through chunk_bounds: the
# draw, the covariance (witness._covariance) and the octree's collapse and export.
# Each wants float temporaries that stay in the L2 cache, O(block) beside its
# arrays; the draw's (k, 3) @ (3, 3) rotation (m*n*k = 147k) also stays below the
# size at which OpenBLAS starts threads, up to 0.4 s per 1M-row call on a busy
# host.  The generator fills rows in order, so a chunked draw is one draw's stream.
_DRAW_CHUNK = 16384

# Width ratio beyond which exact_e3f switches to its asymptotic expansion;
# the two branches agree to ~1e-15 gebits there.
_E3F_ASYMPTOTIC_RATIO = 1e8


class UnsupportedStateError(ValueError):
    """State outside the closed form's domain (sigma_v != sigma_w)."""


@dataclass(frozen=True)
class TripleGaussianState:
    """Widths (standard deviations) along the rotated u, v, w axes.

    Units are meters for position-representation states and rad/m for their
    momentum duals; the formulas only ever use ratios or explicit pairings,
    so the representation is carried by context.
    """

    sigma_u: float
    sigma_v: float
    sigma_w: float

    def __post_init__(self):
        for name in ("sigma_u", "sigma_v", "sigma_w"):
            val = getattr(self, name)
            # math.isfinite: a twentieth of np.isfinite's cost on a float; an int
            # too large for a float raises OverflowError
            if not math.isfinite(val) or val <= 0.0:
                raise ValueError(f"{name} must be a positive finite width, got {val!r}")

    @property
    def is_symmetric(self) -> bool:
        return self.sigma_v == self.sigma_w


@dataclass(frozen=True)
class PairStatistics:
    """Standard deviations of two-photon sums/differences for a symmetric state.

    sd_x_sum  : sd of x2 + x3 given the triple-Gaussian correlations
    sd_x_diff : sd of x2 - x3
    sd_k_sum  : sd of k2 + k3
    sd_k_diff : sd of k2 - k3
    """

    sd_x_sum: float
    sd_x_diff: float
    sd_k_sum: float
    sd_k_diff: float


@dataclass(frozen=True)
class SampleSet:
    """Monte Carlo triplet coordinates, one finite (x1, x2, x3) row per event, at least one row."""

    values: np.ndarray
    kind: str  # "position" or "momentum"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"samples must be (n, 3), got {v.shape}")
        if v.shape[0] == 0:
            raise ValueError("sample sets must be non-empty")
        if not np.isfinite(v).all():
            raise ValueError("sample values must be finite")
        if self.kind not in ("position", "momentum"):
            raise ValueError(f"kind must be 'position' or 'momentum', got {self.kind!r}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def rotate_to_uvw(xyz: np.ndarray) -> np.ndarray:
    """Apply the orthogonal (x1,x2,x3) -> (u,v,w) map to rows of xyz."""
    arr = np.asarray(xyz, dtype=float)
    return arr @ ROTATION_UVW.T


def rotate_from_uvw(uvw: np.ndarray) -> np.ndarray:
    """Inverse rotation, (u,v,w) -> (x1,x2,x3); transpose of the forward map."""
    arr = np.asarray(uvw, dtype=float)
    return arr @ ROTATION_UVW


def _require_symmetric(s: TripleGaussianState, op: str) -> None:
    if not s.is_symmetric:
        raise UnsupportedStateError(
            f"{op} requires sigma_v == sigma_w (got {s.sigma_v!r} and {s.sigma_w!r})"
        )


def exact_e3f(s: TripleGaussianState) -> float:
    """Tripartite entanglement of formation in gebits, symmetric states only.

    Symmetric under r -> 1/r and +0.0 at sigma_u == sigma_v (lambda0 = 1).  For width
    ratios beyond 1e8 the direct h2(lambda0)/lambda0 evaluation is replaced by
    its expansion log2(1/lambda0) + 1/ln2 - lambda0/(2 ln2) to dodge the
    (1 - lambda0) underflow.  That branch writes lambda0 = 2t/q, t = 1/max(r, 1/r),
    q = t + sqrt(2 + 5t^2 + 2t^4)/3, with log2 t from the widths' logs, so no
    ratio is squared and it is finite at any ratio.
    """
    _require_symmetric(s, "exact_e3f")
    r = float(s.sigma_u) / float(s.sigma_v)  # Python floats: no warning on over- or underflow
    if r > _E3F_ASYMPTOTIC_RATIO or r < 1.0 / _E3F_ASYMPTOTIC_RATIO:
        log_rho = abs(np.log2(s.sigma_u) - np.log2(s.sigma_v))
        t = np.exp2(-log_rho)
        q = t + np.sqrt(2.0 + 5.0 * t * t + 2.0 * t**4) / 3.0
        return float(log_rho + np.log2(q / 2.0) + 1.0 / _LN2 - t / (q * _LN2))
    rr = r * r
    lam0 = 2.0 / (1.0 + math.sqrt(5.0 + 2.0 * (rr + 1.0 / rr)) / 3.0)  # sqrt is correctly rounded
    return binary_entropy(lam0) / lam0


def exact_e3f_array(sigma_u, sigma_v: float) -> np.ndarray:
    """exact_e3f of each state (sigma_u[i], sigma_v, sigma_v), bit for bit; sigma_u is 1-D."""
    su = np.asarray(sigma_u, dtype=float)
    # rows at lambda0 = 1 or past the ratio give inf or nan here; both are replaced below
    with np.errstate(all="ignore"):
        r = su / sigma_v
        rr = r * r
        lam0 = 2.0 / (1.0 + np.sqrt(5.0 + 2.0 * (rr + 1.0 / rr)) / 3.0)
        # binary_entropy(lam0) / lam0, in its operation order
        e3f = (-lam0 * np.log2(lam0) - (1.0 - lam0) * np.log1p(-lam0) / _LN2) / lam0
    e3f[lam0 == 1.0] = 0.0
    for i in np.flatnonzero((r > _E3F_ASYMPTOTIC_RATIO) | (r < 1.0 / _E3F_ASYMPTOTIC_RATIO)):
        e3f[i] = exact_e3f(TripleGaussianState(su[i], sigma_v, sigma_v))
    return e3f


def pair_statistics(s: TripleGaussianState) -> PairStatistics:
    """Two-photon sum/difference widths implied by the rotated-axis widths.

    Position:  var(x2+x3) = (4 sigma_u^2 + 2 sigma_v^2)/3,  sd(x2-x3) = sigma_v*sqrt(2).
    Momentum follows by the sigma -> 1/(2 sigma) duality; the product
    sd_x_diff * sd_k_diff is exactly 1.
    """
    _require_symmetric(s, "pair_statistics")
    su2, sv2 = s.sigma_u**2, s.sigma_v**2
    return PairStatistics(
        sd_x_sum=float(np.sqrt((4.0 * su2 + 2.0 * sv2) / 3.0)),
        sd_x_diff=float(s.sigma_v * np.sqrt(2.0)),
        sd_k_sum=float(np.sqrt(1.0 / (3.0 * su2) + 1.0 / (6.0 * sv2))),
        sd_k_diff=float(1.0 / (s.sigma_v * np.sqrt(2.0))),
    )


def mancini_bound(s: TripleGaussianState) -> float:
    """Entanglement certified by the Mancini-style sum-variance criterion, gebits.

    max of -log2 sqrt(2 sigma_v^2/(3 sigma_u^2) + 1/3) and the same with
    u and v swapped; never exceeds -(1/2) log2(1/3) = 0.79248 gebits no matter
    how entangled the state is, which is what the entropic witness is for.
    """
    _require_symmetric(s, "mancini_bound")
    # only the larger term is computed, so the other cannot overflow or divide
    # by 0; above a ratio of 1e100, 2/(3 rr) is below the last bit of 1/3
    r = min(s.sigma_u / s.sigma_v, 1e100)
    if r < 1.0:
        return float(-0.5 * np.log2(2.0 * r**2 / 3.0 + 1.0 / 3.0))
    return float(-0.5 * np.log2(2.0 / (3.0 * r**2) + 1.0 / 3.0))


def to_momentum(s: TripleGaussianState) -> TripleGaussianState:
    """Fourier-dual state: each width maps to 1/(2*width).  Involutive."""
    duals = {name: 0.5 / width for name, width in vars(s).items()}
    for name, dual in duals.items():
        if dual == math.inf:  # a subnormal width
            raise ValueError(f"{name} = {getattr(s, name)!r}: its dual 0.5 / {name} leaves the float range")
    return TripleGaussianState(**duals)


def sample_positions(s: TripleGaussianState, n: int, seed: int) -> SampleSet:
    """Draw n triplet coordinate rows from the state, deterministically per seed.

    Draws independent Gaussians along (u, v, w) and rotates back to photon
    coordinates.
    """
    return SampleSet(values=_draw_rows(s, n, seed), kind="position")


def sample_momenta(s: TripleGaussianState, n: int, seed: int) -> SampleSet:
    """Draw n transverse-wavenumber triplets from the Fourier dual of s."""
    return SampleSet(values=_draw_rows(to_momentum(s), n, seed), kind="momentum")


def chunk_bounds(n: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each _DRAW_CHUNK block of n rows or leaves, in order.  The draw,
    covariance, collapse and export all use it, as each wants cache-sized blocks."""
    return ((start, min(start + _DRAW_CHUNK, n)) for start in range(0, n, _DRAW_CHUNK))


def _draw_rows(s: TripleGaussianState, n: int, seed: int) -> np.ndarray:
    """n rows drawn from s chunk by chunk into one array: the rows of one draw."""
    if n < 1:
        raise ValueError(f"need at least 1 sample, got {n}")
    rng = np.random.default_rng(seed)
    values = np.empty((n, 3))
    for start, stop in chunk_bounds(n):
        values[start:stop] = draw(s, stop - start, rng)
    return values


def draw(s: TripleGaussianState, n: int, rng: np.random.Generator) -> np.ndarray:
    """n photon-coordinate rows of s from rng's next 3n normals."""
    uvw = rng.standard_normal((n, 3))
    # column by column in place: a broadcast multiply by a (3,) array gives
    # the same products at about three times the cost per chunk
    for j, sigma in enumerate((s.sigma_u, s.sigma_v, s.sigma_w)):
        uvw[:, j] *= sigma
    return rotate_from_uvw(uvw)
