"""Entropic witness evaluation, coefficient search, discrete variant."""

import gc
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from triphoton import witness
from triphoton.entropy import (
    DiscretePMF,
    Histogram1D,
    differential_entropy_from_histogram,
    gaussian_differential_entropy,
    shannon_entropy,
    stacked_mutual_information,
)
from triphoton.states import (
    _DRAW_CHUNK,
    SampleSet,
    TripleGaussianState,
    exact_e3f,
    sample_momenta,
    sample_positions,
)
from triphoton.witness import (
    SPDC_COEFFICIENTS,
    DiscreteWitnessInput,
    WitnessCoefficients,
    analytic_report,
    continuous_witness,
    discrete_witness,
    load_momentum_samples,
    load_position_samples,
    optimize_coefficients,
    sampled_witness_objective,
    verify_correlation_relation,
    witness_from_samples,
)

_LOG2_3SQRT2E = math.log2(3.0 * math.sqrt(2.0) * math.e)


def test_continuous_witness_reference_value():
    # unit widths for both linear combinations collapse to the bare constant
    h_x = gaussian_differential_entropy(math.sqrt(1.5))
    h_k = gaussian_differential_entropy(math.sqrt(3.0))
    got = continuous_witness(SPDC_COEFFICIENTS, h_x, h_k)
    assert got == pytest.approx(-3.52765754161, abs=1e-9)
    assert got == pytest.approx(-_LOG2_3SQRT2E, abs=1e-12)


def test_min_pair_product():
    assert SPDC_COEFFICIENTS.min_pair_product == 0.5
    c = WitnessCoefficients(eta=(2.0, -0.5, 4.0), beta=(0.25, 8.0, 1.0))
    assert c.min_pair_product == 0.5


def test_coefficient_validation():
    with pytest.raises(ValueError):
        WitnessCoefficients(eta=(1.0, 0.0, 1.0), beta=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        WitnessCoefficients(eta=(1.0, 1.0), beta=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        WitnessCoefficients(eta=(1.0, 1.0, np.inf), beta=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        continuous_witness(SPDC_COEFFICIENTS, np.nan, 0.0)


def test_analytic_witness_never_exceeds_exact_value():
    for r in np.geomspace(1.0, 1e6, 100):
        s = TripleGaussianState(r, 1.0, 1.0)
        h_x = gaussian_differential_entropy(math.sqrt(1.5) * s.sigma_v)
        h_k = gaussian_differential_entropy(math.sqrt(3.0) / (2.0 * s.sigma_u))
        wit = continuous_witness(SPDC_COEFFICIENTS, h_x, h_k)
        assert wit <= exact_e3f(s) + 1e-9
        assert analytic_report(s).witness_gebits == pytest.approx(wit, abs=1e-12)


def test_witness_invariant_under_coefficient_rescale():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs = sample_positions(s, 50_000, 1)
    ks = sample_momenta(s, 50_000, 2)
    base = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 0.05, 0.02)
    scaled = WitnessCoefficients(
        eta=tuple(3.0 * e for e in SPDC_COEFFICIENTS.eta),
        beta=SPDC_COEFFICIENTS.beta,
    )
    other = witness_from_samples(xs, ks, scaled, 3.0 * 0.05, 0.02)
    assert other.witness_gebits == pytest.approx(base.witness_gebits, abs=1e-9)


def test_sampled_witness_matches_analytic_at_fine_bins():
    s = TripleGaussianState(50.0, 1.0, 1.0)
    xs = sample_positions(s, 1_000_000, 7)
    ks = sample_momenta(s, 1_000_000, 8)
    wx = 0.05 * float(np.std(xs.values @ np.array(SPDC_COEFFICIENTS.eta)))
    wk = 0.05 * float(np.std(ks.values @ np.array(SPDC_COEFFICIENTS.beta)))
    rep = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, wx, wk)
    analytic = 1.0 + math.log2(50.0) - _LOG2_3SQRT2E
    assert rep.witness_gebits == pytest.approx(analytic, abs=0.1)
    assert rep.inputs["n_samples_x"] == 1_000_000
    # coarser bins may only lose sensitivity, never overstate entanglement
    coarse = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 4 * wx, 4 * wk)
    assert coarse.witness_gebits <= rep.witness_gebits


def test_separable_state_certifies_zero():
    s = TripleGaussianState(1.0, 1.0, 1.0)
    xs = sample_positions(s, 200_000, 3)
    ks = sample_momenta(s, 200_000, 4)
    rep = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 0.06, 0.03)
    assert rep.witness_gebits < 0.0
    assert rep.certified_gebits == 0.0


def test_few_samples_in_fine_bins_do_not_over_certify():
    # one sample per occupied bin biases both plug-in entropies low; without
    # the bias term the witness certified 21.58 gebits of a product state
    s = TripleGaussianState(1.0, 1.0, 1.0)
    xs, ks = sample_positions(s, 1000, 0), sample_momenta(s, 1000, 1)
    rep = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 1e-6, 1e-6)
    assert rep.certified_gebits <= exact_e3f(s) + 1e-9


# n starts at 100 because the sample path is not conservative below it: m is
# the observed span, not every bin of positive probability, and a product
# state certifies > 0 at n = 5 or 10 (the xfail below, ROADMAP item 14a).
@settings(max_examples=100, deadline=None)
@given(
    ratio=st.floats(1.0, 30.0),
    n=st.integers(100, 100_000),
    width=st.sampled_from(["sd/8", "sd/64", 1e-3, 1e-5]),
    seed=st.integers(0, 2**31 - 2),
)
@example(ratio=1.0, n=1000, width=1e-3, seed=0)
def test_sampled_witness_never_exceeds_exact(ratio, n, width, seed):
    s = TripleGaussianState(ratio, 1.0, 1.0)
    xs, ks = sample_positions(s, n, seed), sample_momenta(s, n, seed + 1)
    widths = [
        float(np.std(samples.values @ np.asarray(c))) / int(width[3:])
        if isinstance(width, str) else width
        for samples, c in ((xs, SPDC_COEFFICIENTS.eta), (ks, SPDC_COEFFICIENTS.beta))
    ]
    rep = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, *widths)
    assert rep.witness_gebits <= exact_e3f(s) + 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14a")
@pytest.mark.parametrize("n, seed_x, seed_k", [(5, 0, 1), (10, 32, 33)])
def test_sampled_witness_certifies_nothing_on_a_product_state_at_small_n(n, seed_x, seed_k):
    # widths fixed in advance at the true combination sd/64; while m is the
    # observed span these certify 0.0442 and 0.1499
    s = TripleGaussianState(1.0, 1.0, 1.0)
    xs, ks = sample_positions(s, n, seed_x), sample_momenta(s, n, seed_k)
    widths = (math.sqrt(1.5) / 64, math.sqrt(3.0) * 0.5 / 64)
    rep = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, *widths)
    assert rep.certified_gebits == 0.0


# Photon 1 ~ N(0, 1) beside an EPR pair: (x2 + x3)/sqrt2 and (x2 - x3)/sqrt2
# have sd 1000 and 0.1, and the momenta are conjugate (sd 0.5, 5e-4 and 5).
# The state is biseparable across 1|23, so its true-entropy witness is at
# most log2(2/e) = -0.443, and these coefficients reach it. Why: the cut makes
# photon 1 independent of the pair, and a sum of independent terms has at
# least the entropy of each, so h(eta.x) >= h(eta_1 x_1) = h(x_1) + log2|eta_1|
# and h(beta.k) >= h(k_1) + log2|beta_1|. By Bialynicki-Birula-Mycielski
# h(x_1) + h(k_1) >= log2(pi e), so the witness
# log2(2 pi min_i |eta_i beta_i|) - h(eta.x) - h(beta.k) is at most
# log2(2 pi) - log2(pi e) = log2(2/e). The same holds for any party on any
# pure biseparable state, and by concavity of h on every mixture of them.
_PAIR_COEFFICIENTS = WitnessCoefficients(eta=(1.0, 0.1, -0.1), beta=(1.0, 10.0, 10.0))
_PAIR_SDS = {"position": (1.0, 1000.0, 0.1), "momentum": (0.5, 5e-4, 5.0)}
_PAIR_COMBINATION_SD = (math.sqrt(1.0 + 2e-4), math.sqrt(0.25 + 5e-5))


def _biseparable_pair_witness(n, divisor, seed):
    """Witness of n pair-state rows per basis at widths of the true combination sd / divisor."""
    rng = np.random.default_rng(seed)
    sets = []
    for kind, sds in _PAIR_SDS.items():
        lone, total, diff = (rng.standard_normal((n, 3)) * sds).T
        rows = np.column_stack([lone, (total + diff) / math.sqrt(2.0), (total - diff) / math.sqrt(2.0)])
        sets.append(SampleSet(rows, kind))
    widths = (sd / divisor for sd in _PAIR_COMBINATION_SD)
    return witness_from_samples(*sets, _PAIR_COEFFICIENTS, *widths)


@pytest.mark.parametrize("divisor", [8, 64])
def test_sampled_witness_never_certifies_a_biseparable_pair_state(divisor):
    # the slack is 0.443 gebits, against 1.885 or more on triple-Gaussian states
    h_x, h_k = (gaussian_differential_entropy(sd) for sd in _PAIR_COMBINATION_SD)
    assert continuous_witness(_PAIR_COEFFICIENTS, h_x, h_k) == pytest.approx(math.log2(2.0 / math.e), abs=1e-3)
    # From 300 rows on, no draw certifies.  At 100 rows only the mean stays
    # below 0: seed 109 certifies 0.026 at sd/8 here.  That is the sample path's
    # small-N fault (m is the observed span), left for ROADMAP item 14a.
    for n in (300, 1000):
        for seed in range(200):
            rep = _biseparable_pair_witness(n, divisor, seed)
            assert rep.certified_gebits == 0.0 and rep.witness_gebits < 0.0, (n, seed)
    assert np.mean([_biseparable_pair_witness(100, divisor, seed).witness_gebits for seed in range(200)]) < 0.0


def test_witness_from_samples_validation():
    s = TripleGaussianState(2.0, 1.0, 1.0)
    xs = sample_positions(s, 100, 0)
    ks = sample_momenta(s, 100, 1)
    with pytest.raises(ValueError):
        witness_from_samples(ks, ks, SPDC_COEFFICIENTS, 0.1, 0.1)
    with pytest.raises(ValueError):
        witness_from_samples(xs, xs, SPDC_COEFFICIENTS, 0.1, 0.1)
    with pytest.raises(ValueError):
        witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 0.0, 0.1)
    # an empty set cannot reach the entry point: SampleSet refuses it
    with pytest.raises(ValueError, match="sample sets must be non-empty"):
        SampleSet(values=np.zeros((0, 3)), kind="position")


def test_objective_degenerate_is_minus_infinity():
    flat = SampleSet(values=np.zeros((10, 3)), kind="position")
    ks = sample_momenta(TripleGaussianState(2.0, 1.0, 1.0), 10, 0)
    assert sampled_witness_objective(flat, ks, SPDC_COEFFICIENTS) == -math.inf


@pytest.mark.parametrize("seed", range(5))
def test_repeated_row_is_a_point_mass(seed):
    # one drawn row repeated: where the column means round, the projection's
    # std is rounding error (about 1e-16), not 0, and sd/8 bins of it score
    # above 100 gebits (seeds 3 and 4)
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs = SampleSet(values=np.tile(sample_positions(s, 1, seed).values, (1000, 1)), kind="position")
    ks = SampleSet(values=np.tile(sample_momenta(s, 1, seed).values, (1000, 1)), kind="momentum")
    assert sampled_witness_objective(xs, ks, SPDC_COEFFICIENTS) == -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimize_coefficients(xs, ks)


def _reference_entropy(samples, coeffs):
    """The self-scaling objective entropy written out: project, sd, floor-bin."""
    values = samples.values @ np.asarray(coeffs)
    sd = float(values.std())
    if sd == 0.0:
        return -math.inf
    width = sd / 8
    origin = float(values.min()) - 0.5 * width
    idx = np.floor((values - origin) / width).astype(np.int64)
    hist = Histogram1D(width, np.bincount(idx), support_bins=int(idx.max()) + 1)
    return differential_entropy_from_histogram(hist)


def test_workspace_entropy_equals_reference_path():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    big = sample_positions(s, 30_000, 5)
    small = sample_momenta(s, 7_001, 6)
    rng = np.random.default_rng(12)
    for _ in range(40):
        coeffs = tuple(rng.uniform(0.1, 3.0, 3) * rng.choice([-1.0, 1.0], 3))
        both = WitnessCoefficients(eta=coeffs, beta=coeffs)
        want = continuous_witness(
            both, _reference_entropy(big, coeffs), _reference_entropy(small, coeffs)
        )
        assert sampled_witness_objective(big, small, both) == want
    flat = SampleSet(values=np.tile([1.0, 2.0, 4.0], (64, 1)), kind="position")
    for coeffs in ((1.0, 1.0, 1.0), (1.0, -0.5, -0.5), (-2.0, 1.0, 0.25)):
        assert _reference_entropy(flat, coeffs) == -math.inf
        both = WitnessCoefficients(eta=coeffs, beta=coeffs)
        assert sampled_witness_objective(flat, small, both) == -math.inf


@pytest.mark.parametrize(
    "sample, widths, n, offset",
    [  # ids of the positions: ratio-n-offset
        pytest.param(sample_positions, (10.0, 1.0, 1.0), 1, 0.0, id="10.0-1-0.0"),
        pytest.param(sample_positions, (10.0, 1.0, 1.0), 64, 0.0, id="10.0-64-0.0"),
        pytest.param(sample_positions, (10.0, 1.0, 1.0), 40_000, 0.0, id="10.0-40000-0.0"),
        pytest.param(sample_positions, (1.0, 1.0, 1.0), 40_000, 1e6, id="1.0-40000-1000000.0"),
        pytest.param(sample_positions, (10.0, 1.0, 1.0), _DRAW_CHUNK + 1, 0.0, id="10.0-16385-0.0"),
        pytest.param(sample_momenta, (1000.0, 500.0, 500.0), 40_000, 10.0, id="momenta-40000-10.0"),
    ],
)
def test_covariance_matches_numpy(sample, widths, n, offset):
    # 40,000 rows span three chunks, and _DRAW_CHUNK + 1 leaves a last chunk
    # of one row; at an offset of 1e6 and sd 1, the raw moments
    # E[xx] - E[x]E[x] would lose all but about 4 digits.  The momenta have
    # sd of about 1e-3, so the covariance's entries are about 1e-6
    values = sample(TripleGaussianState(*widths), n, 3).values + offset
    got = witness._covariance(SampleSet(values=values, kind="position"))
    want = np.cov(values.T, ddof=0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _search_candidate(rng) -> tuple[float, float, float]:
    """A first component, then two of it times a sign and a magnitude in [1/8, 8]."""
    first = 10.0 ** rng.uniform(-2.0, 2.0)
    return (first, *(first * rng.choice([-1.0, 1.0], 2) * 2.0 ** rng.uniform(-3.0, 3.0, 2)).tolist())


def test_search_score_equals_the_witness_of_gaussian_entropies():
    # the search scores plain float candidates; the reference builds each as
    # WitnessCoefficients and takes the Gaussian entropy of c.S.c.  The two
    # sum c.S.c in other orders, so they differ by its rounding, which grows
    # with the cancellation kappa = |c|.|S|.|c| / c.S.c: 1e-12 up to kappa
    # 10, 1e-13 kappa beyond (at most 1.3e-14 kappa over 5000 draws)
    rng = np.random.default_rng(29)
    for _ in range(500):
        cov_x, cov_k = (a @ a.T for a in rng.standard_normal((2, 3, 3)) * 10.0 ** rng.uniform(-4.0, 4.0, (2, 1, 3)))
        eta, beta = _search_candidate(rng), _search_candidate(rng)
        want = continuous_witness(
            WitnessCoefficients(eta=eta, beta=beta),
            gaussian_differential_entropy(math.sqrt(eta @ cov_x @ eta)),
            gaussian_differential_entropy(math.sqrt(beta @ cov_k @ beta)),
        )
        got = witness._gaussian_score(cov_x.tolist(), cov_k.tolist(), eta, beta)
        kappa = max(np.abs(c) @ np.abs(cov) @ np.abs(c) / (c @ cov @ c) for c, cov in ((eta, cov_x), (beta, cov_k)))
        assert abs(got - want) <= 1e-12 * max(1.0, kappa / 10.0)
    zero = np.zeros((3, 3)).tolist()
    assert witness._gaussian_score(zero, cov_k.tolist(), eta, beta) == -math.inf
    assert witness._gaussian_score(cov_x.tolist(), zero, eta, beta) == -math.inf


def test_optimizer_returns_pinned_coefficients():
    # recorded when the search first ranked candidates on sample covariances
    pins = {
        (10.0, 20_000, 3, 4): SPDC_COEFFICIENTS,
        (100.0, 20_000, 5, 6): WitnessCoefficients(
            eta=(1.0, -0.5000458239535829, -0.5000458239535829), beta=(1.0, 1.0, 1.0)
        ),
        (100.0, 200_000, 5, 6): SPDC_COEFFICIENTS,
        (30.0, 200_000, 9, 10): SPDC_COEFFICIENTS,
    }
    for (ratio, n, seed_x, seed_k), want in pins.items():
        s = TripleGaussianState(ratio, 1.0, 1.0)
        best = optimize_coefficients(sample_positions(s, n, seed_x), sample_momenta(s, n, seed_k))
        assert best == want


def test_guard_runs_only_when_the_search_moves(monkeypatch):
    # the pins of test_optimizer_returns_pinned_coefficients: at ratio 10 the
    # search keeps SPDC_COEFFICIENTS, at ratio 100 it moves eta
    calls = []
    objective = witness.sampled_witness_objective

    def spy(*args):
        calls.append(args[2])
        return objective(*args)

    monkeypatch.setattr(witness, "sampled_witness_objective", spy)
    moved = WitnessCoefficients(
        eta=(1.0, -0.5000458239535829, -0.5000458239535829), beta=(1.0, 1.0, 1.0)
    )
    for ratio, seed_x, seed_k, want, want_calls in (
        (10.0, 3, 4, SPDC_COEFFICIENTS, []),
        (100.0, 5, 6, moved, [moved, SPDC_COEFFICIENTS]),
    ):
        calls.clear()
        s = TripleGaussianState(ratio, 1.0, 1.0)
        xs, ks = sample_positions(s, 20_000, seed_x), sample_momenta(s, 20_000, seed_k)
        assert optimize_coefficients(xs, ks) == want
        assert calls == want_calls


def _traced_memory(fn) -> tuple[int, int]:
    """(current, peak) bytes traced over fn(), with the cyclic collector off."""
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()


def test_coefficient_search_allocates_no_sample_sized_arrays():
    n = 50_000
    column = n * 8  # bytes of one float per sample
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs, ks = sample_positions(s, n, 7), sample_momenta(s, n, 8)
    current, peak = _traced_memory(lambda: optimize_coefficients(xs, ks))
    assert peak < 3 * column
    # nothing the search allocates outlives the call
    assert current < column / 8


def test_covariance_allocates_less_than_one_column():
    # one chunk-sized buffer, no n-row temporary: np.ones(n) @ values alone
    # would take a column
    n = 50_000
    xs = sample_positions(TripleGaussianState(10.0, 1.0, 1.0), n, 7)
    _, peak = _traced_memory(lambda: witness._covariance(xs))
    assert peak < n * 8


def test_sampled_witness_memory_is_linear_in_samples_at_fine_bins():
    # 1000 rows at a width of 1e-6 span millions of bins; dense counts of that
    # span peaked at 245 MB, the occupied bins alone take a few kB
    s = TripleGaussianState(1.0, 1.0, 1.0)
    xs, ks = sample_positions(s, 1000, 0), sample_momenta(s, 1000, 1)
    reports = []
    _, peak = _traced_memory(
        lambda: reports.append(witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 1e-6, 1e-6))
    )
    assert peak < 2_000_000
    # m is still the span of each combination, not its 1000 occupied bins
    assert (reports[0].inputs["support_bins_x"], reports[0].inputs["support_bins_k"]) == (
        8_416_443,
        5_758_072,
    )


def test_sampled_support_is_the_span_not_the_occupied_bins():
    # two clusters 100 bins apart: 4 occupied bins of a 102-bin span
    base = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [25.0, 0.0, 0.0], [25.25, 0.0, 0.0]])
    xs = SampleSet(values=np.repeat(base, 25, axis=0), kind="position")
    ks = SampleSet(values=np.repeat(base, 25, axis=0), kind="momentum")
    rep = witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 0.25, 0.25)
    assert rep.inputs["support_bins_x"] == rep.inputs["support_bins_k"] == 102
    # 2 bits over 4 equal bins, plus log2(width), plus the term for m = 102
    # (m = 4, the occupied bins, would give log2(1 + 3/100) instead)
    want = 2.0 + math.log2(0.25) + math.log2(1.0 + 101 / 100)
    assert rep.entropy_x_bits == pytest.approx(want, abs=1e-12)
    assert rep.entropy_k_bits == pytest.approx(want, abs=1e-12)


_SEARCH_ENTRY_POINTS = {
    "optimize": lambda xs, ks: optimize_coefficients(xs, ks),
    "objective": lambda xs, ks: sampled_witness_objective(xs, ks, SPDC_COEFFICIENTS),
    "from_samples": lambda xs, ks: witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 0.05, 0.01),
}


@pytest.mark.parametrize("entry", _SEARCH_ENTRY_POINTS)
def test_search_starts_no_thread(monkeypatch, entry):
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs, ks = sample_positions(s, 100_000, 21), sample_momenta(s, 100_000, 22)
    started = []
    real_start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    before = threading.active_count()
    _SEARCH_ENTRY_POINTS[entry](xs, ks)
    assert started == []
    assert threading.active_count() == before
    assert not any(t.name.startswith("triphoton-search-worker") for t in threading.enumerate())


@pytest.mark.parametrize("entry", _SEARCH_ENTRY_POINTS)
def test_entry_points_check_their_sample_sets(entry):
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs, ks = sample_positions(s, 1000, 0), sample_momenta(s, 1000, 1)
    call = _SEARCH_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="samples_x must be position samples"):
        call(ks, xs)
    with pytest.raises(ValueError, match="samples_k must be momentum samples"):
        call(xs, xs)
    # no empty set reaches an entry point: SampleSet refuses it
    for kind in ("position", "momentum"):
        with pytest.raises(ValueError, match="sample sets must be non-empty"):
            SampleSet(values=np.zeros((0, 3)), kind=kind)


def test_optimizer_recovers_sign_pattern_from_unsigned_start():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs = sample_positions(s, 40_000, 3)
    ks = sample_momenta(s, 40_000, 4)
    ones = WitnessCoefficients(eta=(1.0, 1.0, 1.0), beta=(1.0, 1.0, 1.0))
    best = optimize_coefficients(xs, ks, init=ones)
    assert best.eta[0] > 0 and best.eta[1] < 0 and best.eta[2] < 0
    assert all(b > 0 for b in best.beta)
    assert sampled_witness_objective(xs, ks, best) >= sampled_witness_objective(xs, ks, ones)


def test_optimizer_keeps_good_start():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs = sample_positions(s, 40_000, 3)
    ks = sample_momenta(s, 40_000, 4)
    best = optimize_coefficients(xs, ks, init=SPDC_COEFFICIENTS)
    assert (
        sampled_witness_objective(xs, ks, best)
        >= sampled_witness_objective(xs, ks, SPDC_COEFFICIENTS) - 1e-12
    )
    # the search's result on this set, recorded before its entropies were memoised
    assert best == WitnessCoefficients(eta=(1.0, -0.5, -0.5), beta=(1.0, 1.0, 1.0))


def test_optimizer_never_returns_worse_than_start():
    rng = np.random.default_rng(11)
    for i in range(20):
        su = float(rng.uniform(0.5, 6.0))
        sv = float(rng.uniform(0.3, 2.0))
        s = TripleGaussianState(su, sv, sv)
        xs = sample_positions(s, 4000, 100 + i)
        ks = sample_momenta(s, 4000, 200 + i)
        best = optimize_coefficients(xs, ks)
        gain = sampled_witness_objective(xs, ks, best) - sampled_witness_objective(
            xs, ks, SPDC_COEFFICIENTS
        )
        assert gain >= -1e-9


def test_optimizer_relabel_invariance():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    xs = sample_positions(s, 40_000, 3)
    ks = sample_momenta(s, 40_000, 4)
    perm = [0, 2, 1]
    xs_p = SampleSet(values=xs.values[:, perm], kind="position")
    ks_p = SampleSet(values=ks.values[:, perm], kind="momentum")
    swapped = WitnessCoefficients(
        eta=(SPDC_COEFFICIENTS.eta[0], SPDC_COEFFICIENTS.eta[2], SPDC_COEFFICIENTS.eta[1]),
        beta=(SPDC_COEFFICIENTS.beta[0], SPDC_COEFFICIENTS.beta[2], SPDC_COEFFICIENTS.beta[1]),
    )
    a = sampled_witness_objective(xs, ks, SPDC_COEFFICIENTS)
    b = sampled_witness_objective(xs_p, ks_p, swapped)
    assert abs(a - b) < 1e-6
    best = optimize_coefficients(xs, ks)
    best_p = optimize_coefficients(xs_p, ks_p, init=swapped)
    assert abs(
        sampled_witness_objective(xs, ks, best)
        - sampled_witness_objective(xs_p, ks_p, best_p)
    ) < 1e-6


def test_optimizer_warns_on_degenerate_samples():
    flat_x = SampleSet(values=np.ones((64, 3)), kind="position")
    flat_k = SampleSet(values=np.ones((64, 3)), kind="momentum")
    with pytest.warns(RuntimeWarning) as record:
        out = optimize_coefficients(flat_x, flat_k)
    assert len(record) == 1
    assert out == SPDC_COEFFICIENTS


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(1.0, 100.0),
    n=st.integers(64, 5000),
    seed=st.integers(0, 2**31 - 2),
    flat=st.sampled_from([None, "exact", "rounded"]),
)
@example(ratio=1.0, n=64, seed=0, flat="exact")
def test_optimizer_result_never_scores_below_init(ratio, n, seed, flat):
    s = TripleGaussianState(ratio, 1.0, 1.0)
    xs, ks = sample_positions(s, n, seed), sample_momenta(s, n, seed + 1)
    # "exact": every combination has sd 0 exactly.  "rounded": one drawn row
    # repeated, whose column means round, leaving a covariance of rounding
    # error alone to rank the candidates
    if flat is not None:
        row = [1.0, 2.0, 4.0] if flat == "exact" else xs.values[0]
        xs = SampleSet(values=np.tile(row, (n, 1)), kind="position")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        best = optimize_coefficients(xs, ks)
    if flat != "rounded":
        assert [w.category for w in record] == [RuntimeWarning] * (flat == "exact")
    if flat == "exact":
        assert best == SPDC_COEFFICIENTS
    init = sampled_witness_objective(xs, ks, SPDC_COEFFICIENTS)
    assert sampled_witness_objective(xs, ks, best) >= init


def _ghz_inputs():
    q = np.zeros((2, 2, 2))
    q[0, 0, 0] = q[1, 1, 1] = 0.5
    r = np.zeros((2, 2, 2))
    for i, j, k in np.ndindex(2, 2, 2):
        if (i + j + k) % 2 == 0:
            r[i, j, k] = 0.25
    return DiscreteWitnessInput(
        pmf_q=DiscretePMF(q.ravel(), (2, 2, 2)),
        pmf_r=DiscretePMF(r.ravel(), (2, 2, 2)),
        omegas=(2.0, 2.0, 2.0),
    )


def test_discrete_witness_ghz_is_one_gebit():
    assert abs(discrete_witness(_ghz_inputs()) - 1.0) < 1e-12


def test_discrete_witness_uniform_statistics():
    u = DiscretePMF(np.full(8, 0.125), (2, 2, 2))
    inp = DiscreteWitnessInput(pmf_q=u, pmf_r=u, omegas=(2.0, 2.0, 2.0))
    assert discrete_witness(inp) == pytest.approx(-5.0, abs=1e-12)


def test_discrete_witness_product_statistics_certify_nothing():
    def ent(p):
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum())

    rng = np.random.default_rng(31)
    for _ in range(10):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        margs_q = [rng.dirichlet(np.ones(d)) for d in dims]
        margs_r = [rng.dirichlet(np.ones(d)) for d in dims]
        q = margs_q[0][:, None, None] * margs_q[1][None, :, None] * margs_q[2][None, None, :]
        r = margs_r[0][:, None, None] * margs_r[1][None, :, None] * margs_r[2][None, None, :]
        # tightest admissible unbiasedness factors for uncorrelated outcomes
        omegas = tuple(
            min(float(d), 2.0 ** (ent(mq) + ent(mr)))
            for d, mq, mr in zip(dims, margs_q, margs_r)
        )
        inp = DiscreteWitnessInput(
            pmf_q=DiscretePMF(q.ravel(), dims),
            pmf_r=DiscretePMF(r.ravel(), dims),
            omegas=omegas,
        )
        assert discrete_witness(inp) <= 1e-12


def test_discrete_witness_input_validation():
    u2 = DiscretePMF(np.full(8, 0.125), (2, 2, 2))
    u3 = DiscretePMF(np.full(12, 1.0 / 12.0), (2, 2, 3))
    two_axis = DiscretePMF(np.full(4, 0.25), (2, 2))
    with pytest.raises(ValueError):
        DiscreteWitnessInput(pmf_q=u2, pmf_r=u3, omegas=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        DiscreteWitnessInput(pmf_q=two_axis, pmf_r=two_axis, omegas=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        DiscreteWitnessInput(pmf_q=u2, pmf_r=u2, omegas=(3.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        DiscreteWitnessInput(pmf_q=u2, pmf_r=u2, omegas=(0.5, 1.0, 1.0))
    with pytest.raises(ValueError, match="need one omega per party"):
        DiscreteWitnessInput(pmf_q=u2, pmf_r=u2, omegas=(1.0, 1.0))
    # each omega in [1, D_i], with 1e-9 of slack at D_i
    u234 = DiscretePMF(np.full(24, 1.0 / 24.0), (2, 3, 4))
    for omegas in ((1.0, 1.2, 4.0), (2.0 + 1e-9, 3.0, 4.0 + 1e-9)):
        assert DiscreteWitnessInput(pmf_q=u234, pmf_r=u234, omegas=omegas).omegas == omegas


def _dft_basis_inputs(states, d, weights=None):
    """Witness input for the mixture of pure three-party states, each a
    (d, d, d) amplitude array, with the given weights (equal by default):
    Q in the computational basis and R in the unitary DFT basis at every
    party (mutually unbiased, so omega = d)."""
    if weights is None:
        weights = [1.0 / len(states)] * len(states)
    k = np.arange(d)
    f = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    q = sum(w * np.abs(psi) ** 2 for w, psi in zip(weights, states))
    r = sum(
        w * np.abs(np.einsum("ai,bj,ck,abc->ijk", f.conj(), f.conj(), f.conj(), psi)) ** 2
        for w, psi in zip(weights, states)
    )
    return DiscreteWitnessInput(
        pmf_q=DiscretePMF(q.ravel(), q.shape),
        pmf_r=DiscretePMF(r.ravel(), r.shape),
        omegas=(float(d),) * 3,
    )


def _bell_pair_times_basis_state(d, lone, state=0, phases=None):
    """sum_a e^{i phases[a]} |aa>/sqrt(d) on the two parties other than lone
    (phases 0 by default), times |state> on lone."""
    psi = np.zeros((d, d, d), dtype=complex)
    for a in range(d):
        index = [a, a, a]
        index[lone] = state
        psi[tuple(index)] = (1.0 if phases is None else np.exp(1j * phases[a])) / np.sqrt(d)
    return psi


@pytest.mark.parametrize("d", [2, 3, 4])
def test_discrete_witness_is_tight_on_biseparable_and_ghz_states(d):
    # a biseparable pure state reaches the bound 0; GHZ_d reaches log2 d
    for lone in range(3):
        inp = _dft_basis_inputs([_bell_pair_times_basis_state(d, lone)], d)
        assert abs(discrete_witness(inp)) <= 1e-12, lone
    ghz = np.zeros((d, d, d), dtype=complex)
    ghz[k := np.arange(d), k, k] = 1.0 / np.sqrt(d)
    assert abs(discrete_witness(_dft_basis_inputs([ghz], d)) - math.log2(d)) <= 1e-12
    cuts = [_bell_pair_times_basis_state(d, lone) for lone in range(3)]
    assert discrete_witness(_dft_basis_inputs(cuts, d)) < 0.0


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    terms=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans(), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_discrete_witness_never_certifies_a_biseparable_mixture(d, terms, seed):
    # each term a Bell pair, with zero or random phases, across a random cut
    # times a random basis state on the lone party; the bound is tight at 0
    rng = np.random.default_rng(seed)
    states = [
        _bell_pair_times_basis_state(d, lone, state % d, rng.uniform(0, 2 * np.pi, d) if phased else None)
        for lone, state, phased, _ in terms
    ]
    weights = np.array([w for *_, w in terms])
    assert discrete_witness(_dft_basis_inputs(states, d, weights / weights.sum())) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_discrete_witness_never_exceeds_a_generalized_ghz_entanglement(d, seed):
    # sum_n sqrt(lambda_n) |nnn> holds H(lambda) gebits, reached at uniform lambda
    lam = np.random.default_rng(seed).dirichlet(np.ones(d))
    ghz = np.zeros((d, d, d), dtype=complex)
    ghz[k := np.arange(d), k, k] = np.sqrt(lam)
    nz = lam[lam > 0]
    entropy = float(-(nz * np.log2(nz)).sum())
    assert discrete_witness(_dft_basis_inputs([ghz], d)) <= entropy + 1e-12


def test_correlation_relation_bell_dimension():
    rep = verify_correlation_relation(2, 300, 5)
    assert rep.max_violation <= 1e-9
    assert rep.max_mutual_information_bits <= 1.0 + 1e-9
    again = verify_correlation_relation(2, 300, 5)
    assert again.max_violation == rep.max_violation


def _correlation_relation_one_trial_at_a_time(dim, trials, seed):
    """Reference: (max violation, max mutual information), one state per step."""
    rng = np.random.default_rng(seed)
    max_violation, max_mi = -math.inf, 0.0
    for _ in range(trials):
        psi = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        psi /= np.linalg.norm(psi)
        m = psi.reshape(dim, dim)
        evals = np.clip(np.linalg.eigvalsh(m @ m.conj().T).real, 0.0, 1.0)
        nz = evals[evals > 1e-16]
        ent_formation = float(-(nz * np.log2(nz)).sum())
        p = np.abs(m) ** 2  # measured in the computational basis
        pmf = DiscretePMF((p / p.sum()).ravel(), (dim, dim))
        mi = (
            shannon_entropy(pmf.marginal((0,)))
            + shannon_entropy(pmf.marginal((1,)))
            - shannon_entropy(pmf)
        )
        max_mi = max(max_mi, mi)
        max_violation = max(max_violation, mi - ent_formation)
    return max_violation, max_mi


def test_correlation_relation_matches_one_trial_at_a_time(monkeypatch):
    small = [(d, trials, 10 * d) for d in range(2, 9) for trials in (1, 37)]
    block = witness._TRIAL_BLOCK
    for dim, trials, seed in small + [(2, block + 1, 3), (8, block + 1, 4)]:
        rep = verify_correlation_relation(dim, trials, seed)
        violation, mi = _correlation_relation_one_trial_at_a_time(dim, trials, seed)
        assert abs(rep.max_violation - violation) <= 1e-12
        assert abs(rep.max_mutual_information_bits - mi) <= 1e-12
    # each trial's numbers depend only on its own draws, not on the blocking
    whole = [verify_correlation_relation(*case) for case in small]
    monkeypatch.setattr(witness, "_TRIAL_BLOCK", 5)
    assert [verify_correlation_relation(*case) for case in small] == whole


def _ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(rng, shape):
    """Haar-random unitaries, a stack of the given (..., d, d) shape: the Q of
    a complex Ginibre matrix with R's diagonal made positive (Mezzadri,
    Notices AMS 54, 592 (2007))."""
    q, r = np.linalg.qr(_ginibre(rng, shape))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _entropy_by_eigvalsh(m):
    evals = np.clip(np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2)), 0.0, 1.0)
    log2 = np.log2(evals, out=np.zeros_like(evals), where=evals > 1e-16)
    return -(evals * log2).sum(axis=-1)


def _schmidt_stack(rng, weights):
    """500 matrices U_A diag(sqrt(w)) U_B^T, Haar U_A and U_B, w the weights normalised:
    the spectrum of each m m† is w."""
    w = np.asarray(weights) / sum(weights)
    u = _haar(rng, (500, 2, len(w), len(w)))
    return u[:, 0] * np.sqrt(w) @ u[:, 1].swapaxes(-1, -2), w


_SCHMIDT_WEIGHTS = {
    "product": (1.0, 0.0, 0.0),
    "identity": (1.0, 1.0, 1.0),
    "rank 2": (1.0, 0.5, 0.0),
    "equal top": (1.0, 1.0, 0.3),
    "equal bottom": (1.0, 0.3, 0.3),
    "near rank 1": (1.0, 1e-7, 1e-9),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("case", list(_SCHMIDT_WEIGHTS))
def test_closed_form_entropies_match_eigvalsh(dim, case):
    # at dim 2 the weights are cut to their first two
    m, w = _schmidt_stack(np.random.default_rng(300 + dim), _SCHMIDT_WEIGHTS[case][:dim])
    # the same spectra with no rounding in m: p = 0 exactly at I/d
    exact = np.diag(np.sqrt(w)).astype(complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack in (m, exact):
            got = witness._vn_entropies_bits(stack)
            assert np.abs(got - _entropy_by_eigvalsh(stack)).max() <= 1e-12, case


def test_closed_form_entropies_match_eigvalsh_on_random_states():
    for dim in (2, 3):
        m = _ginibre(np.random.default_rng(400 + dim), (2000, dim, dim))
        m /= np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1), keepdims=True))
        diff = witness._vn_entropies_bits(m) - _entropy_by_eigvalsh(m)
        assert np.abs(diff).max() <= 1e-12, dim


def test_closed_form_spectra_keep_small_eigenvalues_relative_precision():
    # t minus the large root would give the 1e-12 eigenvalue to about 1e-4
    rng = np.random.default_rng(500)
    for weights in ((1.0, 1e-12), (1.0, 1.0, 1e-12)):
        m, w = _schmidt_stack(rng, weights)
        smallest = witness._closed_form_spectra(m)[:, 0]
        assert np.abs(smallest / w[-1] - 1.0).max() <= 1e-8, weights


def _haar_basis_trials(dim, trials, seed):
    """(E_F, I) per trial of random pure states measured in Haar-random product bases."""
    rng = np.random.default_rng(seed)
    m = _ginibre(rng, (trials, dim, dim))
    m /= np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1), keepdims=True))
    u = _haar(rng, (trials, 2, dim, dim))
    amps = u[:, 0].conj().swapaxes(-1, -2) @ m @ u[:, 1].conj()
    return _entropy_by_eigvalsh(m), stacked_mutual_information(np.abs(amps) ** 2)


def test_correlation_check_matches_haar_bases_in_distribution(monkeypatch):
    # the check measures in the computational basis; (E_F, I) must be
    # distributed as in random product bases (verify_correlation_relation)
    recorded = {}

    def record(name):
        fn = getattr(witness, name)

        def wrapper(arg):
            recorded.setdefault(name, []).append(out := fn(arg))
            return out

        monkeypatch.setattr(witness, name, wrapper)

    record("_vn_entropies_bits")
    record("stacked_mutual_information")
    for dim in (2, 3, 4):
        recorded.clear()
        verify_correlation_relation(dim, 5000, dim)
        ent = np.concatenate(recorded["_vn_entropies_bits"])
        mi = np.concatenate(recorded["stacked_mutual_information"])
        assert ent.shape == mi.shape == (5000,)
        ref_ent, ref_mi = _haar_basis_trials(dim, 5000, 100 + dim)
        assert ks_2samp(mi, ref_mi).pvalue > 0.01, dim
        assert ks_2samp(mi - ent, ref_mi - ref_ent).pvalue > 0.01, dim


def test_correlation_check_memory_is_bounded_by_one_block():
    verify_correlation_relation(8, 1024, 0)  # lazy set-up stays out of the peak
    _, peak = _traced_memory(lambda: verify_correlation_relation(8, 1024, 0))
    assert peak < 6e6


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 12),
)
def test_correlation_relation_holds_on_random_states(dim, seed, trials):
    assert verify_correlation_relation(dim, trials, seed).max_violation <= 1e-9


def test_correlation_relation_higher_dims_and_validation():
    for d in (3, 4):
        assert verify_correlation_relation(d, 100, d).max_violation <= 1e-9
    with pytest.raises(ValueError):
        verify_correlation_relation(1, 10, 0)
    with pytest.raises(ValueError):
        verify_correlation_relation(2, 0, 0)


def test_sample_csv_round_trip(tmp_path):
    s = TripleGaussianState(2.0, 1.0, 1.0)
    xs = sample_positions(s, 500, 0)
    path = tmp_path / "pos.csv"
    lines = ["x1,x2,x3"] + [",".join(format(v, ".17g") for v in row) for row in xs.values]
    path.write_text("\n".join(lines) + "\n")
    back = load_position_samples(path)
    assert back.kind == "position"
    assert np.array_equal(back.values, xs.values)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), min_size=1, max_size=20
    )
)
def test_sample_csv_repr_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("samples") / "samples.csv"
    for header, load in (("x1,x2,x3", load_position_samples), ("k1,k2,k3", load_momentum_samples)):
        path.write_text("\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n")
        assert load(path).values.tobytes() == np.array(rows, dtype=float).tobytes()


def test_sample_csv_error_cases(tmp_path):
    p = tmp_path / "bad.csv"
    # SampleSet's own errors, prefixed with the file that held the rows
    for text, why in (
        ("x1,x2,x3\n", "sample sets must be non-empty"),
        ("x1,x2,x3\n1,2,inf\n", "sample values must be finite"),
    ):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {why}$"):
            load_position_samples(p)
    for text in (
        "",
        "a,b,c\n1,2,3\n",
        "x1,x2,x3\n",
        "x1,x2,x3\n1,2\n",
        "x1,x2,x3\n1,2,zzz\n",
        "x1,x2,x3\n1,2,inf\n",
        "k1,k2,k3\n1,2,3\n",
    ):
        p.write_text(text)
        with pytest.raises(ValueError):
            load_position_samples(p)
    p.write_text("x1,x2,x3\n1,2,3\n4,5\n")
    with pytest.raises(ValueError, match=r":3: expected 3 columns, got 2"):
        load_position_samples(p)
    p.write_text("k1,k2,k3\n1,2,3\n")
    assert load_momentum_samples(p).kind == "momentum"
    # a blank row is skipped, and the rows around it load
    p.write_text("x1,x2,x3\n1,2,3\n\n4,5,6\n")
    assert load_position_samples(p).values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
