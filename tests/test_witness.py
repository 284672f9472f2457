"""Entropic witness evaluation, coefficient search, discrete variant."""

import gc
import math
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triphoton import witness
from triphoton.entropy import (
    DiscretePMF,
    Histogram1D,
    differential_entropy_from_histogram,
    gaussian_differential_entropy,
    shannon_entropy,
)
from triphoton.states import (
    SampleSet,
    TripleGaussianState,
    exact_e3f,
    sample_momenta,
    sample_positions,
)
from triphoton.threads import worker_thread
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


def _reference_entropy(samples, coeffs):
    """The self-scaling objective entropy written out: project, sd, floor-bin."""
    values = samples.values @ np.asarray(coeffs)
    sd = float(values.std())
    if sd == 0.0:
        return -math.inf
    width = sd / 8
    origin = float(values.min()) - 0.5 * width
    idx = np.floor((values - origin) / width).astype(np.int64)
    return differential_entropy_from_histogram(Histogram1D(width, np.bincount(idx)))


def test_workspace_entropy_equals_reference_path():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    big = sample_positions(s, 30_000, 5)
    small = sample_momenta(s, 7_001, 6)
    with worker_thread("triphoton-search-worker") as both:
        work = witness._Workspace(both, big, small)
        rng = np.random.default_rng(12)
        for _ in range(40):
            coeffs = tuple(rng.uniform(0.1, 3.0, 3) * rng.choice([-1.0, 1.0], 3))
            for samples in (big, small):
                assert work.entropy(samples, coeffs) == _reference_entropy(samples, coeffs)
        flat = SampleSet(values=np.tile([1.0, 2.0, 4.0], (64, 1)), kind="position")
        for coeffs in ((1.0, 1.0, 1.0), (1.0, -0.5, -0.5), (-2.0, 1.0, 0.25)):
            assert _reference_entropy(flat, coeffs) == -math.inf
            assert work.entropy(flat, coeffs) == -math.inf


_ROWS = witness._THREADED_ROWS


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(1, 160), st.integers(_ROWS - 40, _ROWS + 40), st.integers(160, 5000)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    coeffs=st.tuples(*[st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)] * 3),
    flat=st.booleans(),
)
@example(n=100, seed=0, scale=1.0, coeffs=(1.0, -0.5, -0.5), flat=False)
@example(n=132, seed=0, scale=1.0, coeffs=(1.0, -0.5, -0.5), flat=False)
@example(n=_ROWS + 1, seed=1, scale=1.0, coeffs=(1.0, 1.0, 1.0), flat=False)
def test_two_range_histogram_equals_one_pass(n, seed, scale, coeffs, flat):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((1 if flat else n, 3)) * scale
    samples = SampleSet(values=np.repeat(rows, n, axis=0) if flat else rows, kind="position")
    v = samples.values @ np.asarray(coeffs)
    width = v.std() / 8
    # the lowest threshold _split allows, so that n from 129 on is split
    with mock.patch.object(witness, "_THREADED_ROWS", 129):
        with worker_thread("triphoton-search-worker") as both:
            hist = witness._Workspace(both, samples).histogram(samples, coeffs)
    if width == 0.0:
        assert hist is None
        return
    want = Histogram1D.of(v, width)
    assert (hist.bin_width, hist.support_bins) == (want.bin_width, want.support_bins)
    # the workspace's counts are dense; Histogram1D.of leaves empty bins out
    # when the span passes 4 bins per value, which sd/8 bins do only below 9 rows
    assert hist.counts.size == hist.support_bins
    assert np.array_equal(hist.counts[hist.counts > 0], want.counts[want.counts > 0])
    if n >= 9:
        assert np.array_equal(hist.counts, want.counts)


def test_optimizer_returns_pinned_coefficients():
    # 20k rows: recorded before the search ran on a preallocated workspace;
    # 200k rows: recorded before it split each histogram's rows over two threads
    pins = {
        (10.0, 20_000, 3, 4): (
            (1.0, -0.5004058760127472, -0.5006285300367548),
            (1.0, 1.000805061302655, 1.0003599542806283),
        ),
        (100.0, 20_000, 5, 6): ((1.0, -0.4999083646903032, -0.5), (1.0, 1.0000849619984356, 1.0)),
        (100.0, 200_000, 5, 6): (
            (1.0, -0.5000458239535829, -0.5000458239535829),
            (1.0, 1.0000849619984356, 1.0),
        ),
        (30.0, 200_000, 9, 10): (
            (1.0, -0.5001833210138877, -0.5001833210138877),
            (1.0, 1.0000849619984356, 1.0000849619984356),
        ),
    }
    for (ratio, n, seed_x, seed_k), (eta, beta) in pins.items():
        s = TripleGaussianState(ratio, 1.0, 1.0)
        best = optimize_coefficients(sample_positions(s, n, seed_x), sample_momenta(s, n, seed_k))
        assert best == WitnessCoefficients(eta=eta, beta=beta)


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
    # the workspace is freed on return, not left in a cycle for the collector
    assert current < column / 8
    # past the workspace's own two arrays, an evaluation allocates only bins
    with worker_thread("triphoton-search-worker") as both:
        work = witness._Workspace(both, xs, ks)
        assert _traced_memory(lambda: work.entropy(xs, (1.0, -0.7, -0.2)))[1] < column / 8
        assert _traced_memory(lambda: work.histogram(ks, (1.0, 1.0, 1.0)))[1] < column / 8


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


@pytest.fixture(scope="module")
def threaded_samples():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    return sample_positions(s, _ROWS, 21), sample_momenta(s, _ROWS, 22)


_SEARCH_ENTRY_POINTS = {
    "optimize": lambda xs, ks: optimize_coefficients(xs, ks),
    "objective": lambda xs, ks: sampled_witness_objective(xs, ks, SPDC_COEFFICIENTS),
    "from_samples": lambda xs, ks: witness_from_samples(xs, ks, SPDC_COEFFICIENTS, 0.05, 0.01),
}


@pytest.mark.parametrize(
    "entry, phase",
    [
        (entry, phase)
        for entry in _SEARCH_ENTRY_POINTS
        for phase in (None, "_project", "_square_deviations", "_bin_counts")
        # witness_from_samples bins on the calling thread, with no workspace
        if entry != "from_samples" or phase is None
    ],
)
def test_search_worker_ends_with_the_call(monkeypatch, threaded_samples, entry, phase):
    if phase is not None:
        real = getattr(witness._Workspace, phase)

        def fail_on_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError(f"worker {phase} failed")
            return real(*args)

        monkeypatch.setattr(witness._Workspace, phase, fail_on_worker)
    before = threading.active_count()
    if phase is None:
        _SEARCH_ENTRY_POINTS[entry](*threaded_samples)
    else:
        with pytest.raises(RuntimeError, match=f"worker {phase} failed"):
            _SEARCH_ENTRY_POINTS[entry](*threaded_samples)
    # the worker was joined before the result or the error reached the caller
    assert threading.active_count() == before


_PHASES = ("_project", "_square_deviations", "_bin_counts")


def _recorded_phases(monkeypatch) -> tuple[list, list]:
    """Two lists, each with one entry per _Workspace phase call from here on.

    The first holds (phase, runs on the search worker, (start, stop) of its
    rows), the second the number of search worker threads alive.
    """
    calls, workers = [], []

    def is_worker(thread):
        return thread.name.startswith("triphoton-search-worker")

    for phase in _PHASES:
        real = getattr(witness._Workspace, phase)

        def record(self, rows, *args, phase=phase, real=real):
            calls.append((phase, is_worker(threading.current_thread()), (rows.start, rows.stop)))
            workers.append(sum(map(is_worker, threading.enumerate())))
            return real(self, rows, *args)

        monkeypatch.setattr(witness._Workspace, phase, record)
    return calls, workers


def test_a_histogram_is_split_only_from_threaded_rows(monkeypatch, threaded_samples):
    xs, ks = threaded_samples
    n = _ROWS
    h = witness._split(n)
    fewer_x = SampleSet(values=xs.values[: n - 1], kind="position")
    fewer_k = SampleSet(values=ks.values[: n - 1], kind="momentum")
    calls, workers = _recorded_phases(monkeypatch)

    # below _THREADED_ROWS every phase makes one pass on the calling thread,
    # and no worker thread starts
    sampled_witness_objective(fewer_x, fewer_k, SPDC_COEFFICIENTS)
    assert calls == [(p, False, (0, n - 1)) for p in _PHASES] * 2
    assert workers == [0] * 6

    # only the position histogram has _THREADED_ROWS rows: its second range
    # runs on the worker, and the momentum histogram stays on the caller
    calls.clear()
    sampled_witness_objective(xs, fewer_k, SPDC_COEFFICIENTS)
    position, momentum = calls[:6], calls[6:]
    assert sorted(position) == sorted(
        [(p, False, (0, h)) for p in _PHASES] + [(p, True, (h, n)) for p in _PHASES]
    )
    assert momentum == [(p, False, (0, n - 1)) for p in _PHASES]


def test_search_worker_keeps_the_callers_errstate(monkeypatch):
    # the worker gets rows [h, n): there the squared deviations from the
    # mean, 0, underflow; on the caller's rows [0, h) they are 1
    n = _ROWS
    h = witness._split(n)
    x = np.zeros((n, 3))
    x[:h:2, 0], x[1:h:2, 0] = 1.0, -1.0
    x[h::2, 0], x[h + 1 :: 2, 0] = 1e-200, -1e-200
    samples = SampleSet(values=x, kind="position")
    calls, _ = _recorded_phases(monkeypatch)
    with np.errstate(under="raise"), worker_thread("triphoton-search-worker") as both:
        with pytest.raises(FloatingPointError, match="underflow"):
            witness._Workspace(both, samples).entropy(samples, (1.0, 1.0, 1.0))
    assert ("_square_deviations", True, (h, n)) in calls


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


def test_correlation_relation_bell_dimension():
    rep = verify_correlation_relation(2, 300, 5)
    assert rep.max_violation <= 1e-9
    assert rep.max_mutual_information_bits <= 1.0 + 1e-9
    again = verify_correlation_relation(2, 300, 5)
    assert again.max_violation == rep.max_violation


def _correlation_relation_one_trial_at_a_time(dim, trials, seed):
    """Reference: (max violation, max mutual information), one state per step."""

    def haar_unitary(rng):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    rng = np.random.default_rng(seed)
    max_violation, max_mi = -math.inf, 0.0
    for _ in range(trials):
        psi = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        psi /= np.linalg.norm(psi)
        m = psi.reshape(dim, dim)
        evals = np.clip(np.linalg.eigvalsh(m @ m.conj().T).real, 0.0, 1.0)
        nz = evals[evals > 1e-16]
        ent_formation = float(-(nz * np.log2(nz)).sum())
        u_a, u_b = haar_unitary(rng), haar_unitary(rng)
        p = np.abs(u_a.conj().T @ m @ u_b.conj()) ** 2
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
