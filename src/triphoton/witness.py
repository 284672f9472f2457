"""Entropic entanglement witnesses for triplet statistics.

Continuous form, for linear combinations of the three photon positions
(coefficients eta) and momenta (coefficients beta):

    E3F >= log2(2 pi |eta-bar||beta-bar|) - h(eta.x) - h(beta.k)   [gebits]

with |eta-bar||beta-bar| = min_i |eta_i|*|beta_i| over the three parties.
histogram_report adds the plug-in bias term (entropy.py) to each histogram
entropy, so a witness from measured or simulated samples under-estimates the
entanglement in expectation at any sample count.

Discrete form, for three-party outcome tables Q (one basis) and R (a second
basis per party, inverse overlap Omega_i):

    E3F >= sum_i [log2 Omega_i - H(Q_i|Q_rest) - H(R_i|R_rest)] - 2 log2 Dmax

which evaluates to exactly 1 gebit for GHZ statistics in the Z/X bases.

optimize_coefficients and sampled_witness_objective share one objective, set
up per call by _search_objective, whose with worker_thread block owns the worker
on which one _Workspace splits the larger sd/8 histograms (threads.py).
"""

from __future__ import annotations

import contextlib
import csv
import functools
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
    gaussian_differential_entropy,
    plugin_bias_bits,
    stacked_mutual_information,
)
from .report import EntanglementReport
from .states import SampleSet, TripleGaussianState, exact_e3f, to_momentum
from .threads import worker_thread


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
            if not all(np.isfinite(v) and v != 0.0 for v in vec):
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
        if not np.isfinite(val):
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


_BINS_PER_SIGMA = 8  # self-scaling histogram resolution for the objective

# Rows from which a histogram is split in two row ranges, the second run on
# the workspace's worker thread; it must exceed 128 (see _split).
# optimize_coefficients, median ms per call on one thread -> two (2-vCPU
# VM, one BLAS thread; BENCH_search.json): 35 -> 94 at 20k rows,
# 88 -> 88 at 75k, 183 -> 159 at 100k, 320 -> 234 at 200k.  Below this the
# three handoffs per histogram, about 50 us each, cost more than the halved
# passes save.
_THREADED_ROWS = 100_000


def _split(n: int) -> int:
    """Where a histogram of n rows is split into two row ranges: numpy's pairwise-sum midpoint.

    np.add.reduce over n > 128 contiguous values adds the sums of [0, h) and
    [h, n) last, so the two ranges' partial sums add up to it bit for bit.
    """
    return n // 2 - (n // 2) % 8


def _added(counts: list[np.ndarray]) -> np.ndarray:
    """Bin counts summed over row ranges; each array is as long as its range's last bin."""
    total = max(counts, key=len)
    for c in counts:
        if c is not total:
            total[: c.size] += c
    return total


class _Workspace:
    """Projection and scratch arrays for the larger of some sample sets.

    Every combination histogram taken through one workspace reuses these
    two arrays, so none allocates an array the size of its sample set.

    Each histogram runs in three phases: project and take a sum and a min,
    square the deviations and sum them, then bin and count.  A histogram of
    at least _THREADED_ROWS rows runs each phase over the rows [0, h) on the
    calling thread and [h, n), h = _split(n), on the worker (threads.py),
    and the caller adds the two sums and the two count arrays, so every
    value equals that of one pass over all rows.  A smaller one makes that
    one pass on the calling thread.  The worker is lent: both comes from the
    caller's with worker_thread block (_search_objective).
    """

    def __init__(self, both, *sample_sets: SampleSet):
        self._both = both
        n = max(len(s) for s in sample_sets)
        self._projection = np.empty(n)
        self._scratch = np.empty(n)

    def _per_range(self, phase, n: int, *args) -> list:
        """[phase(rows, *args)] for each row range of n rows, in order."""
        if n < _THREADED_ROWS:
            return [phase(slice(0, n), *args)]
        h = _split(n)
        theirs, mine = self._both(phase, (slice(h, n), *args), (slice(0, h), *args))
        return [mine, theirs]

    def _project(self, rows: slice, values: np.ndarray, coeffs: np.ndarray) -> tuple:
        out = np.matmul(values[rows], coeffs, out=self._projection[rows])
        return np.add.reduce(out), out.min()

    def _square_deviations(self, rows: slice, mean: float):
        dev = np.subtract(self._projection[rows], mean, out=self._scratch[rows])
        np.square(dev, out=dev)
        return np.add.reduce(dev)

    def _bin_counts(self, rows: slice, origin: float, bin_width: float) -> np.ndarray:
        scaled = np.subtract(self._projection[rows], origin, out=self._scratch[rows])
        scaled /= bin_width
        # values - origin >= 0, so the truncating cast is the floor; in place, as in Histogram1D.of
        idx = scaled.view(np.int64)
        np.copyto(idx, scaled, casting="unsafe")
        return np.bincount(idx)

    def histogram(self, samples: SampleSet, coeffs: tuple[float, float, float]) -> Histogram1D | None:
        """Histogram of samples @ coeffs at bins of sd/8, bin 0 centred on the smallest.

        None at zero variance, else the width, m and nonzero counts of Histogram1D.of(values,
        values.std() / 8) bit for bit.  Its dense counts span at most 8 sqrt(2n) + 2 bins (5061
        at 200k rows): n sd**2 sums the squared deviations, so no two lie over sd sqrt(2n) apart.
        """
        n = len(samples)
        sums, mins = zip(*self._per_range(self._project, n, samples.values, np.asarray(coeffs)))
        # sum() adds the ranges' sums in np.add.reduce's order
        squares = self._per_range(self._square_deviations, n, sum(sums) / n)
        sd = math.sqrt(sum(squares) / n)
        if sd == 0.0:
            return None
        bin_width = sd / _BINS_PER_SIGMA
        origin = float(np.min(mins)) - 0.5 * bin_width
        counts = self._per_range(self._bin_counts, n, origin, bin_width)
        return Histogram1D(bin_width, _added(counts))

    def entropy(self, samples: SampleSet, coeffs: tuple[float, float, float]) -> float:
        """Histogram entropy (bits) of samples @ coeffs at bins of sd/8.

        A zero-variance combination is a point mass: its entropy is -inf.
        """
        hist = self.histogram(samples, coeffs)
        return -math.inf if hist is None else differential_entropy_from_histogram(hist)


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


@contextlib.contextmanager
def _search_objective(samples_x: SampleSet, samples_k: SampleSet):
    """Yields objective(coeffs), the sd/8 witness of these samples, for the with block.

    The block owns the call's worker thread, which starts when a histogram is
    first split, and one workspace.  Each entropy term is computed once per
    distinct eta or beta; a degenerate combination scores -inf.
    """
    _check_sample_sets(samples_x, samples_k)
    with worker_thread("triphoton-search-worker") as both:
        work = _Workspace(both, samples_x, samples_k)
        h_x = functools.cache(lambda eta: work.entropy(samples_x, eta))
        h_k = functools.cache(lambda beta: work.entropy(samples_k, beta))

        def objective(coeffs: WitnessCoefficients) -> float:
            hx, hk = h_x(coeffs.eta), h_k(coeffs.beta)
            return -math.inf if -math.inf in (hx, hk) else continuous_witness(coeffs, hx, hk)

        yield objective


def sampled_witness_objective(
    samples_x: SampleSet, samples_k: SampleSet, coeffs: WitnessCoefficients
) -> float:
    """Witness value with self-scaling bins (sd/8 of each combination).

    This is the objective optimize_coefficients maximizes; -inf marks a
    degenerate (zero-variance) combination.
    """
    with _search_objective(samples_x, samples_k) as objective:
        return objective(coeffs)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-3) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def optimize_coefficients(
    samples_x: SampleSet,
    samples_k: SampleSet,
    init: WitnessCoefficients = SPDC_COEFFICIENTS,
) -> WitnessCoefficients:
    """Search coefficients maximizing the sampled witness.

    Exhausts the 4 sign patterns per vector (modulo the irrelevant global
    sign), then refines the four free magnitude ratios (second and third
    components relative to the first) by coordinate-wise golden section on
    log-magnitude within [1/8, 8].  The returned coefficients never score
    below the initial guess.

    The objective is sampled_witness_objective's, set up once for the whole
    search (_search_objective): each entropy term is computed once per
    distinct vector, the larger histograms on two threads (threads.py).

    The coefficients, and with them the sd/8 bins, are chosen on the very
    samples the objective is evaluated on, so the in-sample objective of
    the result is not a certificate: it is biased high, most at small n
    (ROADMAP item 3).  Certify on samples the search did not see.
    """
    eta0 = np.abs(np.asarray(init.eta))
    beta0 = np.abs(np.asarray(init.beta))

    def build(signs_e, signs_b, mags) -> WitnessCoefficients:
        e2, e3, b2, b3 = mags
        return WitnessCoefficients(
            eta=(eta0[0], signs_e[0] * eta0[0] * e2, signs_e[1] * eta0[0] * e3),
            beta=(beta0[0], signs_b[0] * beta0[0] * b2, signs_b[1] * beta0[0] * b3),
        )

    with _search_objective(samples_x, samples_k) as objective:
        # a local, not an attribute of score: score referring to itself would be a
        # reference cycle, and the workspace would live on until the collector ran
        warned = False

        def score(c: WitnessCoefficients) -> float:
            nonlocal warned
            val = objective(c)
            if val == -math.inf and not warned:
                warnings.warn(
                    "degenerate (zero-variance) combination met during coefficient "
                    "search; affected axis left at its initial value",
                    RuntimeWarning,
                )
                warned = True
            return val

        init_mags = np.array(
            [eta0[1] / eta0[0], eta0[2] / eta0[0], beta0[1] / beta0[0], beta0[2] / beta0[0]]
        )
        init_mags = np.clip(init_mags, _MAG_LO, _MAG_HI)
        patterns = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]

        best, best_val = None, -math.inf
        for se in patterns:
            for sb in patterns:
                cand = build(se, sb, init_mags)
                val = score(cand)
                if val > best_val:
                    best, best_val, best_signs = cand, val, (se, sb)
        if best is None:  # every combination degenerate; nothing to refine
            return init

        mags = init_mags.copy()
        log_lo, log_hi = math.log(_MAG_LO), math.log(_MAG_HI)
        for _sweep in range(2):
            for axis in range(4):
                def along(lm, axis=axis):
                    trial = mags.copy()
                    trial[axis] = math.exp(lm)
                    return score(build(*best_signs, trial))

                lm_best, val = _golden_max(along, log_lo, log_hi)
                if val > best_val:  # best_val is finite, so this rules out -inf and nan
                    mags[axis] = math.exp(lm_best)
                    best_val = val
                # degenerate or no improvement: keep the incumbent value

        refined = build(*best_signs, mags)
        if score(refined) >= score(init):
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

    @property
    def d_max(self) -> int:
        """Maximum axis cardinality."""
        return max(self.pmf_q.shape)


def discrete_witness(inp: DiscreteWitnessInput) -> float:
    """Discrete entropic witness, gebits.

    sum_i [log2 Omega_i - H(Q_i|Q_rest) - H(R_i|R_rest)] - 2 log2 d_max.
    """
    total = 0.0
    for i in range(3):
        total += math.log2(inp.omegas[i])
        total -= conditional_entropy(inp.pmf_q, i)
        total -= conditional_entropy(inp.pmf_r, i)
    return float(total - 2.0 * math.log2(inp.d_max))


# --- correlation relation check --------------------------------------------


@dataclass(frozen=True)
class CorrelationCheckReport:
    """Result of the measured-correlation vs entanglement-entropy check."""

    dim: int
    trials: int
    seed: int
    max_violation: float
    max_mutual_information_bits: float


# Trials per stacked block. One block at dim 8 peaks at about 13 MB of
# arrays, and memory stays at that however many trials are asked for.
_TRIAL_BLOCK = 1024


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a stack of complex Ginibre matrices g."""
    q, r = np.linalg.qr(g)
    # fix phases so the distribution is uniform over the unitary group
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _vn_entropies_bits(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropy (bits) of each density matrix in a stack."""
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nz = evals > 1e-16
    log2 = np.log2(evals, out=np.zeros_like(evals), where=nz)
    return -(evals * log2).sum(axis=-1)


def _correlation_block(z: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(E_F, I(Q_A:Q_B)) per trial, bits, from normals z of shape (n, 6, dim*dim)."""
    psi = z[:, 0] + 1j * z[:, 1]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    m = psi.reshape(-1, dim, dim)
    ent_formation = _vn_entropies_bits(m @ m.conj().swapaxes(-1, -2))  # = S(A) = S(B), S(AB) = 0
    u = _haar_unitaries((z[:, 2::2] + 1j * z[:, 3::2]).reshape(-1, 2, dim, dim))
    u_a, u_b = u[:, 0], u[:, 1]
    amps = u_a.conj().swapaxes(-1, -2) @ m @ u_b.conj()
    p = np.abs(amps) ** 2
    p /= p.sum(axis=(-2, -1), keepdims=True)
    return ent_formation, stacked_mutual_information(p)


def verify_correlation_relation(dim: int, trials: int, seed: int) -> CorrelationCheckReport:
    """Check H(Q_A:Q_B) <= E_F + min(S(AB), S(A), S(B)) on random pure states.

    Random bipartite pure states of local dimension dim (normalized complex
    Gaussian vectors) measured in independent random product bases.  For pure
    states E_F equals the reduced von Neumann entropy and S(AB) = 0, so the
    bound reads: measured mutual information never exceeds the entanglement
    entropy.  Returns the maximum violation over trials (<= 0 up to float
    round-off when the relation holds).

    Trials run as stacked blocks of at most _TRIAL_BLOCK.  Each trial takes
    6*dim*dim normals from one generator seeded with seed (real then
    imaginary parts of the state, of U_A and of U_B), so the blocks draw the
    same stream as one trial at a time would, and the results do not depend
    on the block size.
    """
    if dim < 2:
        raise ValueError(f"local dimension must be >= 2, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    max_violation = -math.inf
    max_mi = 0.0
    for start in range(0, trials, _TRIAL_BLOCK):
        n = min(_TRIAL_BLOCK, trials - start)
        ent_formation, mi = _correlation_block(rng.standard_normal((n, 6, dim * dim)), dim)
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
