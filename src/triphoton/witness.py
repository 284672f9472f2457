"""Entropic entanglement witnesses for triplet statistics.

Continuous form, for linear combinations of the three photon positions
(coefficients eta) and momenta (coefficients beta):

    E3F >= log2(2 pi |eta-bar||beta-bar|) - h(eta.x) - h(beta.k)   [gebits]

with |eta-bar||beta-bar| = min_i |eta_i|*|beta_i| over the three parties.
histogram_report adds the plug-in bias term (entropy.py) to each histogram
entropy: conservative in expectation for a scan, whose m is the box's span,
but not for witness_from_samples at small N, whose m is the observed span and
can certify a product state (ROADMAP item 14a).

Discrete form, for three-party outcome tables Q (one basis) and R (a second
basis per party, inverse overlap Omega_i):

    E3F >= sum_i [log2 Omega_i - H(Q_i|Q_rest) - H(R_i|R_rest)] - 2 log2 Dmax

which evaluates to exactly 1 gebit for GHZ statistics in the Z/X bases.

optimize_coefficients ranks candidate coefficients on each basis's 3x3 sample
covariance, summed chunk by chunk as six dot products of contiguous centred
rows, and scores each candidate on plain floats.  Only when the search moved
off its initial guess does it check its result on sampled_witness_objective,
the witness at sd/8 histogram bins.  Both run on the calling thread.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entropy import (
    DiscretePMF,
    Histogram1D,
    conditional_entropy,
    differential_entropy_from_histogram,
    entropy_bits,
    gaussian_differential_entropy,
    plugin_bias_bits,
    stacked_mutual_information,
)
from .report import EntanglementReport
from .states import SampleSet, TripleGaussianState, chunk_bounds, exact_e3f, to_momentum


@dataclass(frozen=True)
class WitnessCoefficients:
    """Linear-combination coefficients: eta for positions, beta for momenta.

    All six components must be nonzero (the witness log term pairs them per
    party).  An overall rescaling of either vector leaves the witness value
    unchanged, so only relative magnitudes and sign patterns matter.
    """

    eta: tuple[float, float, float]
    beta: tuple[float, float, float]

    def __post_init__(self):
        for name in ("eta", "beta"):
            vec = tuple(float(v) for v in getattr(self, name))
            if len(vec) != 3:
                raise ValueError(f"{name} must have 3 components")
            if not all(math.isfinite(v) and v != 0.0 for v in vec):
                raise ValueError(f"{name} components must be finite and nonzero, got {vec}")
            object.__setattr__(self, name, vec)

    @property
    def min_pair_product(self) -> float:
        return min(abs(e) * abs(b) for e, b in zip(self.eta, self.beta))


# Coefficients matched to the triple-Gaussian correlation structure:
# eta.x = x1 - (x2+x3)/2 picks the narrow position combination, beta.k the
# conserved total transverse momentum.
SPDC_COEFFICIENTS = WitnessCoefficients(eta=(1.0, -0.5, -0.5), beta=(1.0, 1.0, 1.0))


def continuous_witness(coeffs: WitnessCoefficients, h_x_bits: float, h_k_bits: float) -> float:
    """Witness (gebits) from the two combination entropies (bits)."""
    for name, val in (("h_x_bits", h_x_bits), ("h_k_bits", h_k_bits)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val!r}")
    return float(math.log2(2.0 * math.pi * coeffs.min_pair_product) - h_x_bits - h_k_bits)


def analytic_report(s: TripleGaussianState) -> EntanglementReport:
    """Exact E3F plus the witness evaluated with exact Gaussian entropies.

    With exact entropies witness <= exact is a theorem; ValueError if not.
    """
    coeffs = SPDC_COEFFICIENTS
    dual = to_momentum(s)
    h_x = gaussian_differential_entropy(math.sqrt(1.5) * s.sigma_v)
    h_k = gaussian_differential_entropy(math.sqrt(3.0) * dual.sigma_u)
    witness, exact = continuous_witness(coeffs, h_x, h_k), exact_e3f(s)
    if witness > exact + 1e-9:
        raise ValueError(f"witness {witness!r} exceeds exact E3F {exact!r}")
    return EntanglementReport(
        inputs={
            "sigma_u": s.sigma_u,
            "sigma_v": s.sigma_v,
            "sigma_w": s.sigma_w,
            "eta": list(coeffs.eta),
            "beta": list(coeffs.beta),
        },
        witness_gebits=witness,
        entropy_x_bits=h_x,
        entropy_k_bits=h_k,
        exact_e3f_gebits=exact,
    )


def histogram_report(
    hist_x: Histogram1D,
    hist_k: Histogram1D,
    coeffs: WitnessCoefficients,
    inputs: dict,
    exact_e3f_gebits: float | None = None,
) -> EntanglementReport:
    """Witness report from the position and momentum combination histograms.

    Each entropy is the plug-in value plus plugin_bias_bits(m, N), m being
    the histogram's support_bins, and the two m are echoed as the last keys
    of the report's inputs.
    """
    m_x, m_k = hist_x.support_bins, hist_k.support_bins
    h_x = differential_entropy_from_histogram(hist_x) + plugin_bias_bits(m_x, hist_x.total)
    h_k = differential_entropy_from_histogram(hist_k) + plugin_bias_bits(m_k, hist_k.total)
    return EntanglementReport(
        inputs={**inputs, "support_bins_x": m_x, "support_bins_k": m_k},
        witness_gebits=continuous_witness(coeffs, h_x, h_k),
        entropy_x_bits=h_x,
        entropy_k_bits=h_k,
        exact_e3f_gebits=exact_e3f_gebits,
    )


def _check_sample_sets(samples_x: SampleSet, samples_k: SampleSet) -> None:
    """Raise ValueError unless samples_x holds positions and samples_k momenta."""
    if samples_x.kind != "position":
        raise ValueError(f"samples_x must be position samples, got {samples_x.kind!r}")
    if samples_k.kind != "momentum":
        raise ValueError(f"samples_k must be momentum samples, got {samples_k.kind!r}")


def witness_from_samples(
    samples_x: SampleSet,
    samples_k: SampleSet,
    coeffs: WitnessCoefficients,
    bin_width_x: float,
    bin_width_k: float,
) -> EntanglementReport:
    """Estimate the witness from position and momentum sample sets.

    Histograms the two linear combinations at the given widths with
    Histogram1D.of (O(N) at any width) and applies the continuous witness to
    the bias-corrected histogram entropies (histogram_report).  With no box,
    each m is the observed span, empty bins included, so m depends on the data.
    So it can over-certify at small N: a product state certifies > 0 at
    N = 5 or 10 (ROADMAP item 14a).
    """
    _check_sample_sets(samples_x, samples_k)
    hist_x = Histogram1D.of(samples_x.values @ np.asarray(coeffs.eta), bin_width_x)
    hist_k = Histogram1D.of(samples_k.values @ np.asarray(coeffs.beta), bin_width_k)
    return histogram_report(
        hist_x,
        hist_k,
        coeffs,
        {
            "eta": list(coeffs.eta),
            "beta": list(coeffs.beta),
            "n_samples_x": len(samples_x),
            "n_samples_k": len(samples_k),
            "bin_width_x": float(bin_width_x),
            "bin_width_k": float(bin_width_k),
        },
    )


# --- coefficient search -----------------------------------------------------

_MAG_LO, _MAG_HI = 1.0 / 8.0, 8.0  # magnitude ratio search range per coordinate
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_BINS_PER_SIGMA = 8  # self-scaling histogram resolution for the objective


def _sd_binned_entropy(values: np.ndarray) -> float:
    """Histogram entropy (bits) at bins of sd/8; -inf for a point mass, whose std may not be 0."""
    sd = float(values.std())
    if sd == 0.0 or values.min() == values.max():
        return -math.inf
    return differential_entropy_from_histogram(Histogram1D.of(values, sd / _BINS_PER_SIGMA))


def sampled_witness_objective(
    samples_x: SampleSet, samples_k: SampleSet, coeffs: WitnessCoefficients
) -> float:
    """Witness value with self-scaling bins (sd/8 of each combination).

    optimize_coefficients never returns coefficients that score below its
    initial guess here; -inf marks a degenerate (zero-variance) combination.
    """
    _check_sample_sets(samples_x, samples_k)
    h_x = _sd_binned_entropy(samples_x.values @ np.asarray(coeffs.eta))
    h_k = _sd_binned_entropy(samples_k.values @ np.asarray(coeffs.beta))
    return -math.inf if -math.inf in (h_x, h_k) else continuous_witness(coeffs, h_x, h_k)


def _covariance(samples: SampleSet) -> np.ndarray:
    """3x3 sample covariance (ddof 0) in two passes over the chunks; no n-row array is made.

    Column sums go by gemv (ones @ chunk), at a tenth of values.mean(axis=0)'s
    cost.  Each chunk is then centred, transposed, into one reused (3, chunk)
    buffer, and the six distinct sums of products are dot products of its
    contiguous rows, at a third of the cost of centred.T @ centred (a 3 x
    chunk by chunk x 3 product, BLAS's worst shape).
    """
    values = samples.values
    bounds = list(chunk_bounds(len(values)))
    block = np.empty((3, bounds[0][1]))  # the first chunk is the largest
    block[0] = 1.0  # row 0 holds ones until the second pass
    total = np.zeros(3)
    for start, stop in bounds:
        total += block[0, : stop - start] @ values[start:stop]
    mean = total / len(values)
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    sums = np.zeros(len(pairs))
    for start, stop in bounds:
        centred = block[:, : stop - start]
        np.subtract(values[start:stop].T, mean[:, None], out=centred)
        sums += [centred[i] @ centred[j] for i, j in pairs]
    return sums[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]] / len(values)  # (i, j) takes the pair (i, j) or (j, i)


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi] to a bracket of 1e-3; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > 1e-3:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _gaussian_score(cov_x: list, cov_k: list, eta: tuple, beta: tuple) -> float:
    """continuous_witness at entropies 1/2 log2(2 pi e v), v = c.S.c, on plain floats; -inf unless both v > 0.

    That is log2(p/e) - (log2 v_x + log2 v_k)/2, p the min pair product; each S is a nested list.
    """
    (x00, x01, x02), (_, x11, x12), (_, _, x22) = cov_x
    (k00, k01, k02), (_, k11, k12), (_, _, k22) = cov_k
    e0, e1, e2 = eta
    b0, b1, b2 = beta
    var_x = e0 * e0 * x00 + e1 * e1 * x11 + e2 * e2 * x22 + 2.0 * (e0 * e1 * x01 + e0 * e2 * x02 + e1 * e2 * x12)
    var_k = b0 * b0 * k00 + b1 * b1 * k11 + b2 * b2 * k22 + 2.0 * (b0 * b1 * k01 + b0 * b2 * k02 + b1 * b2 * k12)
    if not (var_x > 0.0 and var_k > 0.0):
        return -math.inf
    pair = min(abs(e0 * b0), abs(e1 * b1), abs(e2 * b2))
    return math.log2(pair / math.e) - 0.5 * (math.log2(var_x) + math.log2(var_k))


def optimize_coefficients(
    samples_x: SampleSet,
    samples_k: SampleSet,
    init: WitnessCoefficients = SPDC_COEFFICIENTS,
) -> WitnessCoefficients:
    """Search coefficients maximizing the sampled witness.

    Each candidate is scored by the continuous witness with each combination
    entropy replaced by 1/2 log2(2 pi e c.S.c), the entropy of the Gaussian
    of the combination's variance, S being the basis's 3x3 sample covariance
    (_covariance, one O(N) pass per basis; then O(1) per candidate, a plain
    float triple scored by _gaussian_score, and only the result is built as
    WitnessCoefficients).  Of all densities of one variance the Gaussian has
    the most entropy (Cover & Thomas, Thm 8.6.5), so at the true covariance
    the score is a lower bound on the witness with exact entropies, and the
    search maximizes that bound as the samples estimate it.  Variance is a
    poor proxy for heavy-tailed data, such as a sinc**2 phase-matching
    profile; every state in this package is triple-Gaussian.

    Exhausts the 4 sign patterns per vector (modulo the irrelevant global
    sign), then refines the four free magnitude ratios (second and third
    components relative to the first) by coordinate-wise golden section on
    log-magnitude within [1/8, 8].  The returned coefficients never score
    below the initial guess on sampled_witness_objective: if the search moved
    off the guess, its result is checked against the guess there, and the
    guess is returned if it scores higher (the objective is never NaN, so the
    guess never fails against itself).  The check is needed, as a nearly
    singular S can rank high a vector whose projection has sd 0.

    The coefficients, and with them the sd/8 bins, are chosen on the very
    samples the objective is evaluated on, so the in-sample objective of
    the result is not a certificate: it is biased high, most at small n
    (ROADMAP item 3).  Certify on samples the search did not see.
    """
    _check_sample_sets(samples_x, samples_k)
    cov_x, cov_k = _covariance(samples_x).tolist(), _covariance(samples_k).tolist()
    eta0, beta0 = abs(init.eta[0]), abs(init.beta[0])

    def candidate(signs, mags) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        (se2, se3), (sb2, sb3) = signs
        e2, e3, b2, b3 = mags
        return (eta0, se2 * eta0 * e2, se3 * eta0 * e3), (beta0, sb2 * beta0 * b2, sb3 * beta0 * b3)

    warned = False

    def score(eta, beta) -> float:
        nonlocal warned
        val = _gaussian_score(cov_x, cov_k, eta, beta)
        if val == -math.inf and not warned:
            warnings.warn(
                "degenerate (zero-variance) combination met during coefficient "
                "search; affected axis left at its initial value", RuntimeWarning
            )
            warned = True
        return val

    firsts = (eta0, eta0, beta0, beta0)
    mags = [min(max(abs(v) / f, _MAG_LO), _MAG_HI) for v, f in zip(init.eta[1:] + init.beta[1:], firsts)]
    patterns = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]

    best_signs, best_val = None, -math.inf
    for signs in itertools.product(patterns, repeat=2):
        val = score(*candidate(signs, mags))
        if val > best_val:
            best_val, best_signs = val, signs
    if best_signs is None:  # every combination degenerate; nothing to refine
        return init

    for _sweep in range(2):
        for axis in range(4):
            def along(lm, axis=axis):
                return score(*candidate(best_signs, mags[:axis] + [math.exp(lm)] + mags[axis + 1 :]))

            lm_best, val = _golden_max(along, math.log(_MAG_LO), math.log(_MAG_HI))
            if val > best_val:  # best_val is finite, so this rules out -inf and nan
                mags[axis] = math.exp(lm_best)
                best_val = val
            # degenerate or no improvement: keep the incumbent value

    refined = WitnessCoefficients(*candidate(best_signs, mags))
    if refined == init or sampled_witness_objective(
        samples_x, samples_k, refined
    ) >= sampled_witness_objective(samples_x, samples_k, init):
        return refined
    return init


# --- discrete-outcome witness ----------------------------------------------


@dataclass(frozen=True)
class DiscreteWitnessInput:
    """Outcome statistics for two measurement bases per party.

    pmf_q, pmf_r : three-axis joint PMFs with identical shapes
    omegas       : per-party minimum inverse squared basis overlap, each in
                   [1, D_i] (equals D_i for mutually unbiased bases, 1 when
                   the two bases commute)
    """

    pmf_q: DiscretePMF
    pmf_r: DiscretePMF
    omegas: tuple[float, float, float]

    def __post_init__(self):
        if self.pmf_q.n_axes != 3 or self.pmf_r.n_axes != 3:
            raise ValueError("discrete witness needs three-axis PMFs")
        if self.pmf_q.shape != self.pmf_r.shape:
            raise ValueError(
                f"basis PMF shapes differ: {self.pmf_q.shape} vs {self.pmf_r.shape}"
            )
        omegas = tuple(float(o) for o in self.omegas)
        if len(omegas) != 3:
            raise ValueError("need one omega per party")
        for o, dim in zip(omegas, self.pmf_q.shape):
            if not np.isfinite(o) or o < 1.0 or o > dim + 1e-9:
                raise ValueError(f"omega {o!r} outside [1, {dim}]")
        object.__setattr__(self, "omegas", omegas)


def discrete_witness(inp: DiscreteWitnessInput) -> float:
    """Discrete entropic witness, gebits.

    sum_i [log2 Omega_i - H(Q_i|Q_rest) - H(R_i|R_rest)] - 2 log2 Dmax,
    Dmax the largest axis size.
    """
    total = 0.0
    for i in range(3):
        total += math.log2(inp.omegas[i])
        total -= conditional_entropy(inp.pmf_q, i)
        total -= conditional_entropy(inp.pmf_r, i)
    return float(total - 2.0 * math.log2(max(inp.pmf_q.shape)))


# --- correlation relation check --------------------------------------------


@dataclass(frozen=True)
class CorrelationCheckReport:
    """Result of the measured-correlation vs entanglement-entropy check."""

    dim: int
    trials: int
    seed: int
    max_violation: float
    max_mutual_information_bits: float


# Trials per stacked block. One block at dim 8 peaks at about 4.9 MB of
# arrays (tracemalloc), and at dim 4, with its stacks of minors, at 2.6 MB;
# memory stays at that however many trials are asked for.
_TRIAL_BLOCK = 1024


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|**2 elementwise, with no square root taken."""
    return z.real * z.real + z.imag * z.imag


def _quadratic_roots(s: np.ndarray, prod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(small, large) roots of x**2 - s x + prod, for prod >= 0; the small one is 0 where s <= 0.

    prod is clamped to s**2/4, so that both roots stay real, and equal to
    s/2, where rounding puts it above: at a double root, or where s and
    prod come from separate roundings, as in the pair quadratics of the
    d = 4 spectra.
    """
    prod = np.minimum(prod, 0.25 * s * s)
    den = s + np.sqrt(s * s - 4.0 * prod)
    small = np.divide(2.0 * prod, den, out=np.zeros_like(den), where=den > 0.0)
    return small, s - small


def _largest_trig_root(p: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Largest root of w**3 - 3 p**2 w - det, whose roots are real: 2p cos(arccos(det/(2 p**3))/3).

    Smith's formula (Comm. ACM 4, 168 (1961)), with the arccos argument 0
    where p**3 is 0: p = 0 only where the three roots agree to rounding,
    and there the root is O(p) whatever the argument.
    """
    p3 = p * p * p
    cos3 = np.divide(0.5 * det, p3, out=np.zeros_like(p3), where=p3 > 0.0)
    return 2.0 * p * np.cos(np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0)


# The pairs and triples of row or column indices of a 4x4 matrix m, ascending.
_PAIRS_4 = tuple(itertools.combinations(range(4), 2))
_TRIPLES_4 = tuple(itertools.combinations(range(4), 3))
# Indices into the row-major flat entries of m: the 2x2 minor 6p + c, of
# rows _PAIRS_4[p] and columns _PAIRS_4[c], is m[i0] m[i1] - m[i2] m[i3].
_MINORS_2 = np.array([[4 * r + c, 4 * s + d, 4 * r + d, 4 * s + c] for r, s in _PAIRS_4 for c, d in _PAIRS_4]).T
# The 3x3 minor 4r + c, of rows _TRIPLES_4[r] and every column but c,
# expanded along its first row f: with the other columns a1 < a2 < a3 and M
# the 2x2 minors of its other two rows, m[f, a1] M(a2, a3) - m[f, a2]
# M(a1, a3) + m[f, a3] M(a1, a2).  The index rows hold each term's entry
# of m, then its index into the 2x2 minors.
_MINORS_3 = np.array(
    [
        [
            index
            for a, others in ((a1, (a2, a3)), (a2, (a1, a3)), (a3, (a1, a2)))
            for index in (4 * rows[0] + a, 6 * _PAIRS_4.index(rows[1:]) + _PAIRS_4.index(others))
        ]
        for rows in _TRIPLES_4
        for a1, a2, a3 in _TRIPLES_4[::-1]
    ]
).T


def _spectra_4(entries: np.ndarray) -> np.ndarray:
    """Eigenvalues of m m† from the (16, n) trials-last entries of an (n, 4, 4) stack m; shape (n, 4)."""
    t = _abs2(entries).sum(axis=0)
    w, x, y, z = _MINORS_2
    minors_2 = entries[w] * entries[x] - entries[y] * entries[z]
    a, a_minor, b, b_minor, c, c_minor = _MINORS_3
    minors_3 = entries[a] * minors_2[a_minor] - entries[b] * minors_2[b_minor] + entries[c] * minors_2[c_minor]
    x, cofactor = entries[0:4], minors_3[12:16]  # the first row, and the minors of rows (1, 2, 3)
    det_m = x[0] * cofactor[0] - x[1] * cofactor[1] + x[2] * cofactor[2] - x[3] * cofactor[3]
    e2, e3, e4 = _abs2(minors_2).sum(axis=0), _abs2(minors_3).sum(axis=0), _abs2(det_m)
    # z1 = l1 l2 + l3 l4 is the largest root of the resolvent cubic, of
    # spread P = e2**2 - 3 t e3 + 12 e4 (the sum over the three pairings of
    # ((la - lb)(lc - ld))**2 / 2) and depressed constant term Q
    spread = e2 * e2 - 3.0 * t * e3 + 12.0 * e4
    depressed = -2.0 / 27.0 * e2**3 + e2 * (t * e3 - 4.0 * e4) / 3.0 - t * t * e4 + 4.0 * e2 * e4 - e3 * e3
    z1 = e2 / 3.0 + _largest_trig_root(np.sqrt(np.maximum(spread, 0.0)) / 3.0, -depressed)
    prod_lo, prod_hi = _quadratic_roots(z1, e4)  # l3 l4 and l1 l2
    sum_lo, sum_hi = _quadratic_roots(t, e2 - z1)  # l3 + l4 and l1 + l2
    evals = np.stack([*_quadratic_roots(sum_lo, prod_lo), *_quadratic_roots(sum_hi, prod_hi)], axis=-1)
    near_uniform = 0.75 * t * t - 2.0 * e2 < t * t / 16.0  # tr((m m† - t I/4)**2) < t**2/16
    if near_uniform.any():
        evals[near_uniform] = _eigvalsh_spectra(entries[:, near_uniform].T.reshape(-1, 4, 4))
    return evals


def _eigvalsh_spectra(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of m m†, ascending, for an (n, d, d) stack, by LAPACK's eigvalsh; shape (n, d)."""
    return np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2))


def _closed_form_spectra(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of m m†, ascending, for an (n, d, d) stack at d = 2, 3 or 4; shape (n, d)."""
    dim = m.shape[-1]
    entries = np.ascontiguousarray(m.reshape(len(m), dim * dim).T)  # trials last
    if dim == 2:
        det_m = entries[0] * entries[3] - entries[1] * entries[2]
        return np.stack(_quadratic_roots(_abs2(entries).sum(axis=0), _abs2(det_m)), axis=-1)
    if dim == 4:
        return _spectra_4(entries)
    a, b, c = entries[0:3], entries[3:6], entries[6:9]  # the rows of m
    r00, r11, r22 = _abs2(a).sum(axis=0), _abs2(b).sum(axis=0), _abs2(c).sum(axis=0)
    r01, r02, r12 = ((x * y.conj()).sum(axis=0) for x, y in ((a, b), (a, c), (b, c)))
    t = r00 + r11 + r22
    q = t / 3.0
    s00, s11, s22 = r00 - q, r11 - q, r22 - q  # the diagonal of rho - q I
    off = (_abs2(r01), _abs2(r02), _abs2(r12))
    p = np.sqrt((s00 * s00 + s11 * s11 + s22 * s22 + 2.0 * sum(off)) / 6.0)
    det_shifted = (
        s00 * s11 * s22 + 2.0 * (r01 * r12 * r02.conj()).real
        - s00 * off[2] - s11 * off[1] - s22 * off[0]
    )
    largest = q + _largest_trig_root(p, det_shifted)
    det_m = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    small, middle = _quadratic_roots(t - largest, _abs2(det_m) / largest)
    return np.stack([small, middle, largest], axis=-1)


def _vn_entropies_bits(m: np.ndarray) -> np.ndarray:
    """Entanglement entropy S(m m†) in bits of each pure state of an (n, d, d) coefficient stack.

    Each m is a nonzero matrix, here of trace t = |psi|**2 = 1.  At d = 2
    the spectrum is the two roots of x**2 - t x + D with D = det(m m†) =
    |det m|**2: the small root is 2D/(t + sqrt(t**2 - 4D)) and the large one
    t minus it.  At d = 3 the largest eigenvalue comes from Smith's
    trigonometric formula (Comm. ACM 4, 168 (1961)): with q = t/3,
    p = sqrt(tr((rho - qI)**2)/6) and r = det(rho - qI)/(2 p**3), it is
    q + 2p cos(arccos(r)/3), with r = 0 where p**3 is 0.  The other two
    are the roots of x**2 - (t - largest) x + |det m|**2/largest, by the
    same formula.  det m is written out in cofactors, so no LAPACK call is
    made.

    A small root taken as t minus the large one would carry the large one's
    rounding, an ulp of t absolute, and so keep few digits of an eigenvalue
    near 0 (1e-4 relative at 1e-12); from the product it keeps the relative
    precision of |det m|**2 (3e-10 there).
    Smith's formula alone puts all three roots through arccos, whose slope is
    infinite at r = -1 and r = 1; on product states, with a double zero
    eigenvalue, it was off by 2e-7 bits.  Where the formulas lose digits,
    the eigenvalues cluster (the discriminant near 0, or r near -1), and
    there the entropy is stationary: moving delta of weight between two
    eigenvalues lambda and lambda' changes it by about
    delta log2(lambda/lambda'), which is of order delta**2/lambda when they
    are delta apart, so an eigenvalue error of the square root of the
    rounding costs about the rounding in bits.  Against eigvalsh both forms
    stay within 3e-14 bits on random, product, I/d, rank-2, near-rank-1 and
    doubled-eigenvalue stacks.

    At d = 4 (_spectra_4) the coefficients e1 = t, e2, e3, e4 of the
    characteristic polynomial come from the minors of m by Cauchy-Binet:
    e_k is the sum of |k x k minors of m|**2.  Each is a sum of non-negative
    terms, so a rank-deficient m gives tiny e_k, not rounding noise, and
    small eigenvalues stay small.  z1 = l1 l2 + l3 l4, the largest root of
    the resolvent cubic, comes from Smith's formula; the roots of
    x**2 - z1 x + e4 are the pair products l3 l4 and l1 l2, those of
    x**2 - t x + (e2 - z1) the pair sums, and each pair is the roots of its
    own sum and product.  These pair quadratics need _quadratic_roots'
    clamp: without it, product states came out 0.3 bits off.  Near I/4 all
    four quadratics have near-double roots, and an error of the square root
    of the rounding grows to its fourth root (2.5e-8 bits at I/4).  The
    minors form first errs by 1e-12 bits where tr((rho - tI/4)**2) falls
    below about 1e-4 t**2, so trials below t**2/16 (0.03% of random states)
    go to eigvalsh, as every trial at d >= 5 does.  Against eigvalsh the
    d = 4 form stays within 3e-14 bits on random states and on product,
    rank-2, rank-3, equal-pair, triple-tie, near-rank-1 and 1e-12-tail
    spectra.
    """
    evals = _closed_form_spectra(m) if m.shape[-1] <= 4 else _eigvalsh_spectra(m)
    return entropy_bits(np.clip(evals, 0.0, 1.0), axis=-1)


def verify_correlation_relation(dim: int, trials: int, seed: int) -> CorrelationCheckReport:
    """Check H(Q_A:Q_B) <= E_F + min(S(AB), S(A), S(B)) on random pure states.

    Random bipartite pure states psi of local dimension dim (normalized
    complex Gaussian vectors) measured in the computational basis.  For pure
    states E_F equals the reduced von Neumann entropy and S(AB) = 0, so the
    bound reads: measured mutual information never exceeds the entanglement
    entropy.  Returns the maximum violation over trials (<= 0 up to float
    round-off when the relation holds).

    The computational basis loses nothing against random product bases.
    psi is Haar-uniform on the unit sphere of C^(dim*dim).  Measuring it in
    a product basis U_A (x) U_B gives the outcome PMF of (U_A (x) U_B)† psi
    in the computational basis, and for any fixed U_A and U_B that state is
    again Haar-uniform and has the same E_F, since a local unitary keeps the
    Schmidt spectrum.  So the pair (E_F, I) has the same distribution here
    as in product bases drawn at random, independently of psi.

    With m the state's dim x dim coefficient matrix, E_F is the entropy of
    the spectrum of m m† (_vn_entropies_bits) and the measured PMF is |m|**2.

    Trials run as stacked blocks of at most _TRIAL_BLOCK.  Each trial takes
    2*dim*dim normals from one generator seeded with seed (real then
    imaginary parts of psi), so the blocks draw the same stream as one trial
    at a time would, and the results do not depend on the block size.
    """
    if dim < 2:
        raise ValueError(f"local dimension must be >= 2, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    max_violation = -math.inf
    max_mi = 0.0
    for start in range(0, trials, _TRIAL_BLOCK):
        z = rng.standard_normal((min(_TRIAL_BLOCK, trials - start), 2, dim * dim))
        psi = z[:, 0] + 1j * z[:, 1]
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        m = psi.reshape(-1, dim, dim)
        ent_formation = _vn_entropies_bits(m)  # = S(A) = S(B), S(AB) = 0
        mi = stacked_mutual_information(_abs2(m))  # each PMF sums to |psi|**2 = 1 up to rounding
        max_mi = max(max_mi, float(mi.max()))
        max_violation = max(max_violation, float((mi - ent_formation).max()))
    return CorrelationCheckReport(
        dim=dim,
        trials=trials,
        seed=seed,
        max_violation=float(max_violation),
        max_mutual_information_bits=float(max_mi),
    )


# --- sample file ingestion --------------------------------------------------


def _load_samples(path: str | Path, header: tuple[str, str, str], kind: str) -> SampleSet:
    """SampleSet of a CSV's rows under header; each ValueError names the file."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty sample file") from None
        if tuple(col.strip() for col in first) != header:
            raise ValueError(
                f"{path}: expected header {','.join(header)!r}, got {first!r}"
            )
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected 3 columns, got {len(row)}: {row!r}"
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{reader.line_num}: non-numeric sample value ({exc})"
                ) from exc
    try:
        return SampleSet(values=np.array(rows).reshape(-1, 3), kind=kind)
    except ValueError as exc:  # no rows, or a non-finite value
        raise ValueError(f"{path}: {exc}") from exc


def load_position_samples(path: str | Path) -> SampleSet:
    """Read a position sample CSV with header x1,x2,x3 (meters)."""
    return _load_samples(path, ("x1", "x2", "x3"), "position")


def load_momentum_samples(path: str | Path) -> SampleSet:
    """Read a momentum sample CSV with header k1,k2,k3 (rad/m)."""
    return _load_samples(path, ("k1", "k2", "k3"), "momentum")
