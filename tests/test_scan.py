"""Adaptive octree scan simulation and histogram extraction."""

import ast
import dataclasses
import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triphoton import scan, states
from triphoton.entropy import Histogram1D, differential_entropy_from_histogram
from triphoton.report import EntanglementReport
from triphoton.scan import (
    _BOX_WIDTHS,
    _AXIS_TABLES,
    MAX_TREE_DEPTH,
    PartitionTree,
    _build_tree,
    _cell_codes,
    default_threshold,
    export_pair,
    scan_pair,
    simulate_adaptive_scan,
    tree_to_linear_histograms,
)
from triphoton.states import (
    _DRAW_CHUNK,
    TripleGaussianState,
    _draw,
    exact_e3f,
    pair_statistics,
    sample_momenta,
    sample_positions,
    to_momentum,
)
from triphoton.witness import (
    SPDC_COEFFICIENTS,
    WitnessCoefficients,
    continuous_witness,
    histogram_report,
)

_LOG2_3SQRT2E = math.log2(3.0 * math.sqrt(2.0) * math.e)


def test_default_threshold():
    assert default_threshold(1000) == 16
    assert default_threshold(4096 * 16) == 16
    assert default_threshold(1_000_000) == 244


def test_scan_is_deterministic():
    s = TripleGaussianState(4.0, 1.0, 1.0)
    a = simulate_adaptive_scan(s, "position", 20_000, threshold=16, max_depth=6, seed=4)
    b = simulate_adaptive_scan(s, "position", 20_000, threshold=16, max_depth=6, seed=4)
    assert a.record_lines() == b.record_lines()
    _, _, rep1 = scan_pair(s, n_samples=20_000, threshold=16, max_depth=6, seed=4)
    _, _, rep2 = scan_pair(s, n_samples=20_000, threshold=16, max_depth=6, seed=4)
    assert rep1.to_json() == rep2.to_json()


def test_root_stays_unsplit_below_threshold():
    s = TripleGaussianState(2.0, 1.0, 1.0)
    tree = simulate_adaptive_scan(s, "position", 100, threshold=1000, max_depth=6, seed=0)
    assert tree.n_cells == 1
    assert tree.record_lines() == [f",{tree.total_count}"]
    hist = tree_to_linear_histograms(tree, SPDC_COEFFICIENTS)
    # one occupied cell: linear extent is sum|eta| times the root side
    assert hist.bin_width == pytest.approx(2.0 * tree.cell_side(0), rel=1e-12)
    got = differential_entropy_from_histogram(hist)
    assert got == pytest.approx(math.log2(hist.bin_width), abs=1e-12)


def test_children_partition_parent_counts():
    # the split cells are the leaves' proper ancestors, each holding the sum
    # of the counts below it; every one of them has all 8 children
    s = TripleGaussianState(4.0, 1.0, 1.0)
    tree = simulate_adaptive_scan(s, "position", 20_000, threshold=50, max_depth=6, seed=7)
    leaves = {(int(d), int(c)): int(k) for d, c, k in zip(tree.depths, tree.codes, tree.counts)}
    split = {}
    for (d, c), k in leaves.items():
        for a in range(d):
            ancestor = (a, c >> 3 * (d - a))
            split[ancestor] = split.get(ancestor, 0) + k
    assert split  # something refined at this threshold
    assert split[(0, 0)] == tree.total_count
    assert not split.keys() & leaves.keys()
    for (d, c), k in split.items():
        assert k >= tree.threshold
        kids = [(d + 1, (c << 3) + o) for o in range(8)]
        assert all(kid in leaves or kid in split for kid in kids)
        assert sum(leaves.get(kid, split.get(kid)) for kid in kids) == k
    assert tree.n_cells == len(leaves) + len(split)


def test_leaf_counts_and_drop_accounting():
    s = TripleGaussianState(1.0, 1.0, 1.0)
    for n, seed in ((1000, 0), (100_000, 1)):
        tree = simulate_adaptive_scan(s, "momentum", n, seed=seed)
        _, _, counts = tree.leaf_table()
        assert counts.sum() == n - tree.n_dropped
        assert tree.n_dropped >= 0
    big = simulate_adaptive_scan(s, "position", 1_000_000, seed=2)
    assert big.n_dropped <= 1
    bigk = simulate_adaptive_scan(s, "momentum", 1_000_000, seed=2)
    assert bigk.n_dropped <= 1


def test_cell_side_and_path_round_trip():
    s = TripleGaussianState(2.0, 1.0, 1.0)
    # the second tree splits every occupied cell down to the deepest codes
    for n, threshold, max_depth in ((5000, 100, 4), (100, 1, MAX_TREE_DEPTH)):
        tree = simulate_adaptive_scan(s, "position", n, threshold, max_depth, seed=3)
        assert tree.cell_side(0) == pytest.approx(2.0 * tree.box_halfwidth)
        assert tree.cell_side(3) == pytest.approx(2.0 * tree.box_halfwidth / 8.0)
        assert int(tree.depths.max()) == max_depth
        centers, _, _ = tree.leaf_table()
        for i in range(tree.n_leaves):
            path = tree.path_of(i)
            assert set(path) <= set("01234567")
            assert len(path) == int(tree.depths[i])
            code = 0
            corner = np.zeros(3, dtype=np.int64)  # (x, y, z) cell index at this depth
            for ch in path:
                digit = int(ch)
                code = (code << 3) | digit
                corner = (corner << 1) | [(digit >> 2) & 1, (digit >> 1) & 1, digit & 1]
            assert code == int(tree.codes[i])
            walked = -tree.box_halfwidth + (corner + 0.5) * tree.cell_side(len(path))
            assert centers[i].tolist() == walked.tolist()


def _spread_bits(g):
    """Bit-loop reference encoder: bit b of each integer moves to bit 3b."""
    out = np.zeros_like(g)
    for b in range(MAX_TREE_DEPTH):
        out |= ((g >> b) & 1) << 3 * b
    return out


def _compact_bits(c):
    """Bit-loop reference decoder: bits 0, 3, 6, ... gather into bits 0, 1, 2, ..."""
    out = np.zeros_like(c)
    for b in range(MAX_TREE_DEPTH):
        out |= ((c >> 3 * b) & 1) << b
    return out


def _interleave(g):
    """Morton codes of the (n, 3) integer cells g, x highest in each octal digit."""
    return (_spread_bits(g[:, 0]) << 2) | (_spread_bits(g[:, 1]) << 1) | _spread_bits(g[:, 2])


def test_axis_tables_are_the_bit_loop_spread():
    index = np.arange(4096, dtype=np.int64)
    for axis, table in enumerate(_AXIS_TABLES):
        assert table.dtype == np.int64
        assert np.array_equal(table, _spread_bits(index) << 2 - axis)


@pytest.mark.parametrize("depth", range(1, MAX_TREE_DEPTH + 1))
def test_morton_round_trip_matches_bit_loop(depth):
    # integer cells, every corner of the grid among them, are encoded from
    # their centers and decoded back to the same centers bit for bit
    box, last = 3.0, 2**depth - 1
    g = np.random.default_rng(depth).integers(0, last + 1, size=(1000, 3))
    g[:8] = [[(o >> 2) & 1, (o >> 1) & 1, o & 1] for o in range(8)]
    g[:8] *= last
    sides = np.full(g.shape[0], 2.0 * box / 2**depth)
    centers = (g + 0.5) * sides[:, None] + -box
    codes = _interleave(g)
    assert np.array_equal(_cell_codes(centers, box, depth), codes)
    n = codes.size
    ones = np.ones(n, dtype=np.int64)
    tree = PartitionTree("position", box, depth, 1, n, 0, depth * ones, codes, ones)
    got_centers, got_sides, _ = tree.leaf_table()
    assert got_centers.tobytes() == centers.tobytes()
    assert got_sides.tobytes() == sides.tobytes()


def _one_shot_codes(values, box, max_depth):
    """Box filter, quantise and bit-loop encode of a whole draw at once."""
    inside = np.all(np.abs(values) <= box, axis=1)
    n_grid = 2**max_depth
    g = np.floor((values[inside] + box) / (2.0 * box / n_grid)).astype(np.int64)
    np.clip(g, 0, n_grid - 1, out=g)
    return _interleave(g)


def _assert_same_tree(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize(
    "n, basis, max_depth",
    [
        (1, "position", 8),
        (_DRAW_CHUNK - 1, "momentum", 12),
        (_DRAW_CHUNK, "position", 8),
        (_DRAW_CHUNK + 1, "momentum", MAX_TREE_DEPTH),
        (3 * _DRAW_CHUNK + 5, "position", 12),
        # the deepest int32 codes and the shallowest int64 ones
        (2 * _DRAW_CHUNK + 3, "position", 10),
        (2 * _DRAW_CHUNK + 3, "momentum", 11),
    ],
)
def test_chunked_scan_equals_one_shot_draw(n, basis, max_depth):
    s = TripleGaussianState(5.0, 1.0, 1.0)
    src = s if basis == "position" else to_momentum(s)
    box = _BOX_WIDTHS * max(src.sigma_u, src.sigma_v, src.sigma_w)
    values = _draw(src, n, np.random.default_rng(8))
    codes = _one_shot_codes(values, box, max_depth)
    assert np.array_equal(_cell_codes(values, box, max_depth), codes)
    want = _build_tree(codes, n, basis, box, max_depth, 4)
    _assert_same_tree(simulate_adaptive_scan(s, basis, n, 4, max_depth, seed=8), want)


@pytest.mark.parametrize("max_depth", [10, 11])
def test_corner_cell_at_the_code_dtype_boundary(max_depth):
    # the all-ones corner cell ends at 2**(3 * max_depth), _build_tree's
    # largest search key: 2**30 at depth 10, the last depth with int32 codes
    box = 1.0
    values = np.random.default_rng(3).uniform(-box, box, (500, 3))
    values[-3:] = box  # three rows on the +B corner, in the last cell
    codes = _cell_codes(values, box, max_depth)
    assert codes.dtype == (np.int32 if max_depth == 10 else np.int64)
    assert codes.max() == 2 ** (3 * max_depth) - 1
    want = _one_shot_codes(values, box, max_depth)
    assert np.array_equal(codes, want)
    tree = _build_tree(codes, values.shape[0], "position", box, max_depth, 2)
    _assert_same_tree(tree, _build_tree(want, values.shape[0], "position", box, max_depth, 2))
    leaves, n_cells = _reference_tree(codes, max_depth, 2)
    assert list(zip(tree.depths.tolist(), tree.codes.tolist(), tree.counts.tolist())) == leaves
    assert tree.n_cells == n_cells
    assert (max_depth, 2 ** (3 * max_depth) - 1, 3) in leaves


@pytest.mark.parametrize("spread", [0.2, 1.0])
@pytest.mark.parametrize("max_depth", [8, 10, 11, MAX_TREE_DEPTH])
def test_cell_codes_leave_values_unchanged(spread, max_depth):
    values = np.random.default_rng(4).standard_normal((1000, 3)) * spread
    # both paths: every row in the box B = 1, and rows dropped from it
    assert (np.abs(values) <= 1.0).all() == (spread < 1.0)
    before = values.tobytes()
    _cell_codes(values, 1.0, max_depth)
    _cell_codes(values, 1.0, max_depth, out=np.empty(1000, np.int64))
    assert values.tobytes() == before


def test_scan_peak_memory_per_sample():
    # int32 codes at depth 8: 4 bytes a sample, plus one chunk's temporaries
    n = 1_000_000
    s = TripleGaussianState(100.0, 1.0, 1.0)
    simulate_adaptive_scan(s, "position", 100, max_depth=8)  # lazy imports stay out of the peak
    for basis in ("position", "momentum"):
        gc.disable()
        tracemalloc.start()
        try:
            simulate_adaptive_scan(s, basis, n, max_depth=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 6 * n, basis


def _sequential_pair(s, n, threshold, max_depth, seed):
    """scan_pair as two simulate_adaptive_scan calls in turn, on one thread."""
    ss_x, ss_k = np.random.SeedSequence(seed).spawn(2)
    tree_x = simulate_adaptive_scan(s, "position", n, threshold, max_depth, ss_x)
    tree_k = simulate_adaptive_scan(s, "momentum", n, threshold, max_depth, ss_k)
    hist_x = tree_to_linear_histograms(tree_x, SPDC_COEFFICIENTS)
    hist_k = tree_to_linear_histograms(tree_k, SPDC_COEFFICIENTS)
    inputs = {
        "sigma_u": s.sigma_u,
        "sigma_v": s.sigma_v,
        "sigma_w": s.sigma_w,
        "eta": list(SPDC_COEFFICIENTS.eta),
        "beta": list(SPDC_COEFFICIENTS.beta),
        "n_samples": n,
        "threshold": tree_x.threshold,
        "max_depth": max_depth,
        "seed": seed,
        "bin_width_x": hist_x.bin_width,
        "bin_width_k": hist_k.bin_width,
        "n_dropped_x": tree_x.n_dropped,
        "n_dropped_k": tree_k.n_dropped,
        "box_halfwidth_x": tree_x.box_halfwidth,
        "box_halfwidth_k": tree_k.box_halfwidth,
    }
    report = histogram_report(hist_x, hist_k, SPDC_COEFFICIENTS, inputs, exact_e3f(s))
    return tree_x, tree_k, report


@pytest.mark.parametrize("max_depth", [6, 12])
@pytest.mark.parametrize("n", [1, _DRAW_CHUNK - 1, 3 * _DRAW_CHUNK + 5])
def test_scan_pair_equals_sequential_scans(n, max_depth):
    s = TripleGaussianState(5.0, 1.0, 1.0)
    got = scan_pair(s, n_samples=n, threshold=4, max_depth=max_depth, seed=11)
    want = _sequential_pair(s, n, 4, max_depth, 11)
    _assert_same_tree(got[0], want[0])
    _assert_same_tree(got[1], want[1])
    assert got[2] == want[2]
    assert got[2].to_json() == want[2].to_json()


@pytest.mark.parametrize(
    "failing, stage",
    [
        pytest.param("worker", "_draw", id="worker"),
        pytest.param("caller", "_draw", id="caller"),
        pytest.param("worker", "_build_tree", id="worker-build"),
        pytest.param("caller", "_build_tree", id="caller-build"),
        pytest.param("worker", "tree_to_linear_histograms", id="worker-collapse"),
        pytest.param("caller", "tree_to_linear_histograms", id="caller-collapse"),
    ],
)
def test_scan_pair_raises_either_basis_error_and_joins(monkeypatch, failing, stage):
    real = getattr(scan, stage)

    def fail_on_one_thread(*args, **kwargs):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise RuntimeError(f"{failing} {stage} failed")
        return real(*args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(scan, stage, fail_on_one_thread)
    with pytest.raises(RuntimeError, match=f"{failing} {stage} failed"):
        scan_pair(TripleGaussianState(5.0, 1.0, 1.0), n_samples=200_000, seed=3)
    # the worker was joined before the error reached the caller
    assert threading.active_count() == before


@pytest.mark.parametrize("over", ["ignore", "raise"])
def test_two_threads_keep_the_callers_errstate(over):
    # warnings are errors in this suite, so a worker that ran under numpy's
    # default errstate would raise on "ignore" and only warn on "raise"
    big, one = np.array([1e200]), np.array([1.0])
    names = {}

    def square(who, a):
        names[who] = threading.current_thread().name
        return np.square(a)

    with np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError):
                scan._on_two_threads(square, ("worker", big), ("caller", one))
        else:
            theirs, mine = scan._on_two_threads(square, ("worker", big), ("caller", one))
            assert np.isinf(theirs[0]) and mine[0] == 1.0
    # the absence check of test_scan_pair_checks_its_sizes_before_any_thread
    # looks for this prefix
    assert names["worker"].startswith("triphoton-scan-worker")
    assert names["caller"] == threading.current_thread().name


def test_two_failing_threads_raise_the_callers_error():
    names = []

    def fail(who):
        names.append(threading.current_thread().name)
        raise RuntimeError(f"{who} failed")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="caller failed"):
        scan._on_two_threads(fail, ("worker",), ("caller",))
    # the worker was joined before the error left the call
    assert threading.active_count() == before
    assert any(name.startswith("triphoton-scan-worker") for name in names)


def test_only_scan_starts_threads():
    # _on_two_threads is the one place a thread is started; any other module
    # importing a threading API would be a second place
    apis = {"threading", "concurrent", "multiprocessing", "_thread"}
    importers = set()
    for path in Path(scan.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in apis for m in modules):
                importers.add(path.name)
    assert importers == {"scan.py"}


def test_private_imports_across_modules_are_pinned():
    # every relative `from .mod import _name` in the package, dunders aside.
    # scan imports states._draw because the benchmark's tracer patches
    # scan._draw to time states.sample_s; it stays until the draw is hooked
    # elsewhere in bench/
    imports = set()
    for path in Path(scan.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imports |= {
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                }
    assert imports == {("scan", "states", "_draw")}


def test_concurrent_scan_pairs_under_fast_switching():
    # four scan_pair calls at once start eight threads on fewer cores; a
    # buffer handed to both bases of a call, or state shared between calls,
    # would change their trees
    s = TripleGaussianState(5.0, 1.0, 1.0)
    want = [scan_pair(s, n_samples=3000, threshold=4, max_depth=8, seed=i) for i in range(4)]
    got = [None] * 4

    def run(i):
        got[i] = scan_pair(s, n_samples=3000, threshold=4, max_depth=8, seed=i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (tree_x, tree_k, report), (want_x, want_k, want_report) in zip(got, want):
        _assert_same_tree(tree_x, want_x)
        _assert_same_tree(tree_k, want_k)
        assert report == want_report


def test_export_pair_is_record_bytes_of_each_tree():
    tree_x, tree_k, _ = scan_pair(TripleGaussianState(5.0, 1.0, 1.0), n_samples=20_000, seed=4)
    assert export_pair(tree_x, tree_k) == (tree_x.record_bytes(), tree_k.record_bytes())


def test_collapse_equals_all_leaf_decode():
    # the collapse decodes only occupied leaves; it must equal decoding every
    # leaf through leaf_table() and then dropping the empty ones
    s = TripleGaussianState(20.0, 1.0, 1.0)
    for basis, cvec in (("position", SPDC_COEFFICIENTS.eta), ("momentum", SPDC_COEFFICIENTS.beta)):
        tree = simulate_adaptive_scan(s, basis, 50_000, threshold=16, max_depth=10, seed=2)
        centers, sides, counts = tree.leaf_table()
        occ = counts > 0
        assert not occ.all()
        coarse_first = np.argsort(-sides[occ], kind="stable")
        kept = np.cumsum(counts[occ][coarse_first]) > 0.01 * tree.total_count
        width = float(np.abs(cvec).sum() * sides[occ][coarse_first][kept][0])
        want = Histogram1D.of(centers[occ] @ np.asarray(cvec), width, weights=counts[occ])
        got = tree_to_linear_histograms(tree, SPDC_COEFFICIENTS)
        assert got.bin_width == want.bin_width
        assert np.array_equal(got.counts, want.counts)
        # m is the bins of that width across the box's projection, 2**d + 1
        # at the depth d of the coarsest leaf that sets the width
        depth = int(tree.depths[occ][coarse_first][kept][0])
        assert got.support_bins == 2**depth + 1
        assert got.support_bins > want.support_bins == got.counts.size


def _stack_decode(tree, sel):
    """Cell centers decoded through one np.stack of shifted codes and the
    bit-loop decoder, the reference for the table decode."""
    codes, depths = tree.codes[sel], tree.depths[sel]
    sides = 2.0 * tree.box_halfwidth / np.exp2(depths.astype(float))
    g = _compact_bits(np.stack([codes >> 2, codes >> 1, codes], axis=1))
    return -tree.box_halfwidth + (g + 0.5) * sides[:, None], sides


def _threshold_one_tree(n, basis="position"):
    s = TripleGaussianState(3.0, 1.0, 1.0)
    return simulate_adaptive_scan(s, basis, n, threshold=1, max_depth=MAX_TREE_DEPTH, seed=6)


def test_leaf_table_equals_stack_decode():
    s = TripleGaussianState(20.0, 1.0, 1.0)
    trees = [
        simulate_adaptive_scan(s, "momentum", 50_000, threshold=16, max_depth=10, seed=2),
        _threshold_one_tree(3000),
    ]
    for tree in trees:
        occupied = tree.counts > 0
        for sel in (slice(None), slice(1, None, 3), occupied, np.flatnonzero(occupied)):
            centers, sides, counts = tree.leaf_table(sel)
            want_centers, want_sides = _stack_decode(tree, sel)
            assert centers.tobytes() == want_centers.tobytes()
            assert sides.tobytes() == want_sides.tobytes()
            assert np.array_equal(counts, tree.counts[sel])
            # the table is the caller's, even where `sel` indexes by view
            for got in (centers, sides, counts):
                assert not any(np.shares_memory(got, x) for x in (tree.depths, tree.codes, tree.counts))
        assert tree.leaf_table()[2].size == tree.n_leaves


def _occupied(tree):
    return np.flatnonzero(tree.counts > 0)


# Not dyadic, unlike the SPDC coefficients, so that any change in how a
# center's three products are summed changes the rounded projection
_ROUGH_CVEC = np.array([0.8173, -0.3391, -0.4782])


_ROUGH_COEFFICIENTS = WitnessCoefficients(eta=tuple(_ROUGH_CVEC), beta=tuple(_ROUGH_CVEC))


def test_report_bytes_pin_the_decode_axis_order():
    # the CSVs are written from the codes, and the SPDC coefficients project a
    # y/z-swapped leaf centre to the same value, so no other byte pin sees the
    # decode's axis order; the rough coefficients differ in y and z, and a
    # decode that swapped the y and z fields of _UNZIP moves this digest
    _, _, report = scan_pair(
        TripleGaussianState(20.0, 1.0, 1.0), _ROUGH_COEFFICIENTS, n_samples=20_000, max_depth=10, threshold=8, seed=3
    )
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "17e597541eb81d2c6cb1d8e1d6407707923af48d6e830909a3359ecbcf27fd26"


class _OfSpy:
    """Stands in for scan's Histogram1D and keeps the values each `of` bins."""

    def __init__(self):
        self.values = []

    def of(self, values, *args, **kwargs):
        self.values.append(values.copy())
        return Histogram1D.of(values, *args, **kwargs)


def _assert_collapse_is_whole_array(monkeypatch, tree):
    # the blockwise collapse must bin exactly the projections of a whole-array
    # decode, at the width and m of the shallowest depth d whose leaves, with
    # all shallower ones, hold over 1% of the counts
    occupied = _occupied(tree)
    counts = tree.counts[occupied]
    by_depth = np.argsort(tree.depths[occupied], kind="stable")
    over = np.cumsum(counts[by_depth]) > 0.01 * tree.total_count
    depth = int(tree.depths[occupied][by_depth][over][0])
    spy = _OfSpy()
    monkeypatch.setattr(scan, "Histogram1D", spy)
    for coeffs in (SPDC_COEFFICIENTS, _ROUGH_COEFFICIENTS):
        cvec = np.asarray(coeffs.eta if tree.basis == "position" else coeffs.beta)
        values = _stack_decode(tree, occupied)[0] @ cvec
        width = float(np.abs(cvec).sum() * tree.cell_side(depth))
        want = Histogram1D.of(values, width, weights=counts, support_bins=2**depth + 1)
        got = tree_to_linear_histograms(tree, coeffs)
        assert spy.values.pop().tobytes() == values.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.bin_width.hex() == want.bin_width.hex()
        assert got.support_bins == want.support_bins


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blockwise_projection_equals_whole_array(monkeypatch, offset):
    # m occupied leaves against a block of m - offset: m is B + offset
    tree = simulate_adaptive_scan(TripleGaussianState(8.0, 1.0, 1.0), "position", 30_000, 16, 9, 5)
    monkeypatch.setattr(states, "_DRAW_CHUNK", _occupied(tree).size - offset)
    _assert_collapse_is_whole_array(monkeypatch, tree)


def test_blockwise_projection_on_threshold_one_tree(monkeypatch):
    tree = _threshold_one_tree(3 * _DRAW_CHUNK + 100, "momentum")
    assert _occupied(tree).size > 3 * _DRAW_CHUNK  # every sample has a leaf of its own
    _assert_collapse_is_whole_array(monkeypatch, tree)


def test_collapse_ignores_leaf_storage_order():
    # the bin depth comes from the per-depth masses, so a tree whose leaves are
    # not stored depth by depth collapses the same; so does its export
    tree_x, tree_k, _ = scan_pair(TripleGaussianState(100.0, 1.0, 1.0), n_samples=1_000_000, seed=0)
    for tree in (tree_x, tree_k):
        flipped = dataclasses.replace(
            tree, **{name: getattr(tree, name)[::-1].copy() for name in ("depths", "codes", "counts")}
        )
        want = tree_to_linear_histograms(tree, SPDC_COEFFICIENTS)
        got = tree_to_linear_histograms(flipped, SPDC_COEFFICIENTS)
        assert (got.bin_width, got.support_bins) == (want.bin_width, want.support_bins)
        assert got.counts.tobytes() == want.counts.tobytes()
        assert flipped.record_bytes() == tree.record_bytes()
    # a running sum over the flipped leaves would start at the deepest ones
    assert tree_to_linear_histograms(tree_k, SPDC_COEFFICIENTS).bin_width == 0.5625


def test_cell_codes_box_faces():
    box, depth = 3.0, 4
    last = 2**depth - 1

    def code(gx, gy, gz):
        return int(_interleave(np.array([[gx, gy, gz]]))[0])

    kept = np.array([[box, box, box], [-box, -box, -box], [box, 0.0, -box], [0.0, 0.0, 0.0]])
    want = [code(last, last, last), 0, code(last, 8, 0), code(8, 8, 8)]
    assert _cell_codes(kept, box, depth).tolist() == want
    over = np.nextafter(box, np.inf)
    under = np.nextafter(-box, -np.inf)
    outside = [[over, 0.0, 0.0], [0.0, under, 0.0]]
    planted = np.vstack([kept[:2], outside, kept[2:], [[0.0, 0.0, -over]]])
    assert _cell_codes(planted, box, depth).tolist() == want
    assert _cell_codes(planted[2:4], box, depth).size == 0


@pytest.mark.parametrize("max_depth", [8, 10, 11, MAX_TREE_DEPTH])
def test_rows_that_round_up_to_the_far_face_land_in_the_last_cell(max_depth):
    # just below +B, v + B rounds to 2B, so q == n_grid though |v| <= B: the
    # clamp is needed although no coordinate reaches B
    box, last = 1.0, 2**max_depth - 1
    below = np.nextafter(box, 0.0)
    assert below < box and below + box == 2.0 * box
    values = np.random.default_rng(5).uniform(-box, box, (300, 3))
    values[7] = (below, 0.0, -box)
    values[11] = below
    assert values.max() < box
    codes = _cell_codes(values, box, max_depth)
    assert np.array_equal(codes, _one_shot_codes(values, box, max_depth))
    half = 2 ** (max_depth - 1)
    assert codes[7] == _interleave(np.array([[last, half, 0]]))[0]
    assert codes[11] == 8**max_depth - 1


def _reference_tree(codes, max_depth, threshold):
    """(depth, code, count) of each leaf, in storage order, and the cell
    count of the tree built recursively over the sorted finest codes: a
    prefix's count is the number of codes in its range, and a prefix splits
    iff that count is >= threshold and its depth is below max_depth."""
    finest = sorted(int(c) for c in codes)
    leaves, n_cells = [], 0

    def visit(d, c):
        nonlocal n_cells
        n_cells += 1
        shift = 3 * (max_depth - d)
        k = bisect_left(finest, (c + 1) << shift) - bisect_left(finest, c << shift)
        if k >= threshold and d < max_depth:
            for o in range(8):
                visit(d + 1, (c << 3) + o)
        else:
            leaves.append((d, c, k))

    visit(0, 0)
    return sorted(leaves), n_cells


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3000),
    spread=st.floats(0.05, 2.0),
    max_depth=st.integers(1, 10),
    threshold=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_invariants(n, spread, max_depth, threshold, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 3)) * spread  # box B = 1: wide spreads drop rows
    codes = _cell_codes(values, 1.0, max_depth)
    tree = _build_tree(codes, n, "position", 1.0, max_depth, threshold)
    # drops are the rows with a coordinate outside the box, and nothing else
    assert tree.n_dropped == int((np.abs(values) > 1.0).any(axis=1).sum())
    assert int(tree.counts.sum()) == n - tree.n_dropped
    # leaves tile the box
    assert sum(8 ** (max_depth - int(d)) for d in tree.depths) == 8**max_depth
    # the leaves, their counts and the cell count are the recursive
    # reference's, so split cells are exactly those at or over threshold
    leaves, n_cells = _reference_tree(codes, max_depth, threshold)
    assert list(zip(tree.depths.tolist(), tree.codes.tolist(), tree.counts.tolist())) == leaves
    assert tree.n_cells == n_cells
    # leaves are stored depth by depth, so storage order is coarsest first
    assert (np.diff(tree.depths) >= 0).all()
    # sample order makes no difference
    shuffled = _build_tree(rng.permutation(codes), n, "position", 1.0, max_depth, threshold)
    _assert_same_tree(shuffled, tree)


def test_refinement_follows_the_correlation_diagonal():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    tree = simulate_adaptive_scan(s, "position", 400_000, threshold=16, max_depth=8, seed=21)
    centers, sides, counts = tree.leaf_table()
    deep = np.isclose(sides, tree.cell_side(8))
    assert counts[deep].sum() > 1000
    # deepest cells should hug the x1=x2=x3 line for a strongly correlated state
    along = centers[deep].sum(axis=1) / math.sqrt(3.0)
    perp = np.sqrt(np.maximum((centers[deep] ** 2).sum(axis=1) - along**2, 0.0))
    frac_near = float(((perp <= 3.0) * counts[deep]).sum() / counts[deep].sum())
    assert frac_near >= 0.90


def test_uniform_depth_tree_matches_direct_histogram():
    s = TripleGaussianState(2.0, 1.0, 1.0)
    tree = simulate_adaptive_scan(s, "position", 50_000, threshold=1, max_depth=4, seed=31)
    hist = tree_to_linear_histograms(tree, SPDC_COEFFICIENTS)
    assert hist.bin_width == pytest.approx(2.0 * tree.cell_side(4), rel=1e-12)
    xs = sample_positions(s, 50_000, 31)
    combo = xs.values @ np.array(SPDC_COEFFICIENTS.eta)
    edges = np.arange(combo.min() - hist.bin_width, combo.max() + 2 * hist.bin_width, hist.bin_width)
    direct = Histogram1D(
        bin_width=hist.bin_width,
        counts=np.histogram(combo, bins=edges)[0].astype(float),
        support_bins=edges.size - 1,
    )
    # center quantization displaces each sample by up to half a cell per axis
    assert differential_entropy_from_histogram(hist) == pytest.approx(
        differential_entropy_from_histogram(direct), abs=0.15
    )


def test_witness_improves_with_scan_depth():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    analytic = 1.0 + math.log2(10.0) - _LOG2_3SQRT2E
    prev = None
    last = None
    for depth in range(4, 11):
        _, _, rep = scan_pair(s, n_samples=200_000, threshold=16, max_depth=depth, seed=1)
        w = rep.witness_gebits
        assert w <= analytic
        if prev is not None:
            assert w >= prev - 0.02
        prev = w
        last = w
    assert last == pytest.approx(0.317, abs=0.05)


def test_depth_8_cells_cannot_reach_the_7b_floor():
    # ROADMAP item 6: fill every depth-8 cell that holds a sample uniformly,
    # with no count limit, and the witness of that density is a ceiling for
    # any estimator that reads only a depth-8 tree.  It sits below criterion
    # 7b's floor (3.916), so 7b needs depth.  At these seeds it reads 1.94; the
    # same fill at depth 10 reads 3.82
    s = TripleGaussianState(100.0, 1.0, 1.0)
    floor = 1.0 + math.log2(100.0) - _LOG2_3SQRT2E - 0.2
    rng = np.random.default_rng(2)
    entropies = []
    for samples, src, c in (
        (sample_positions(s, 1_000_000, 0), s, SPDC_COEFFICIENTS.eta),
        (sample_momenta(s, 1_000_000, 1), to_momentum(s), SPDC_COEFFICIENTS.beta),
    ):
        box = _BOX_WIDTHS * max(src.sigma_u, src.sigma_v, src.sigma_w)  # as _scan_tree
        cell = 2.0 * box / 2**8
        kept = samples.values[(np.abs(samples.values) <= box).all(axis=1)]
        index = np.minimum(np.floor((kept + box) / cell), 2**8 - 1)
        proj = ((index + rng.random(index.shape)) * cell - box) @ np.asarray(c)
        hist = Histogram1D.of(proj, float(np.std(proj)) / 64)
        entropies.append(differential_entropy_from_histogram(hist))
    assert continuous_witness(SPDC_COEFFICIENTS, *entropies) < floor


def test_scan_witness_is_conservative():
    rng = np.random.default_rng(17)
    for seed in range(20):
        r = float(rng.uniform(1.5, 40.0))
        s = TripleGaussianState(r, 1.0, 1.0)
        _, _, rep = scan_pair(s, n_samples=100_000, seed=seed)
        e = exact_e3f(s)
        assert rep.witness_gebits <= e + 1e-9
        assert rep.exact_e3f_gebits == pytest.approx(e, rel=1e-12)


def test_threshold_one_scan_does_not_over_certify():
    # a leaf per sample biases both plug-in entropies low; without the bias
    # term the scan certified 12.979 gebits of a product state, with it the
    # witness is -7.09
    s = TripleGaussianState(1.0, 1.0, 1.0)
    _, _, rep = scan_pair(s, n_samples=1000, threshold=1, max_depth=MAX_TREE_DEPTH, seed=0)
    assert rep.certified_gebits <= exact_e3f(s) + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    ratio=st.floats(1.0, 30.0),
    n=st.integers(100, 100_000),
    max_depth=st.integers(1, MAX_TREE_DEPTH),
    threshold=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@example(ratio=1.0, n=1000, max_depth=MAX_TREE_DEPTH, threshold=1, seed=0)
def test_scan_witness_never_exceeds_exact(ratio, n, max_depth, threshold, seed):
    # a threshold-1 tree at depth 20 holds about 100 leaves per sample
    assume(threshold > 1 or n <= 10_000)
    s = TripleGaussianState(ratio, 1.0, 1.0)
    _, _, rep = scan_pair(s, n_samples=n, threshold=threshold, max_depth=max_depth, seed=seed)
    assert rep.witness_gebits <= exact_e3f(s) + 1e-9


def test_moderate_ratio_scan_certifies_entanglement():
    s = TripleGaussianState(10.0, 1.0, 1.0)
    _, _, rep = scan_pair(s, n_samples=1_000_000, threshold=16, max_depth=8, seed=5)
    assert rep.witness_gebits > 0.2
    assert rep.witness_gebits <= exact_e3f(s) + 1e-9
    assert rep.certified_gebits == rep.witness_gebits
    assert rep.witness_gebits == pytest.approx(0.4746, abs=0.01)


def test_leaf_centers_reproduce_pair_moments():
    s = TripleGaussianState(3.0, 0.7, 0.7)
    stats = pair_statistics(s)
    tx = simulate_adaptive_scan(s, "position", 1_000_000, seed=9)
    tk = simulate_adaptive_scan(s, "momentum", 1_000_000, seed=10)
    d = np.array([0.0, 1.0, -1.0])
    for tree, want, tol in ((tx, stats.sd_x_diff, 0.04), (tk, stats.sd_k_diff, 0.04)):
        centers, _, counts = tree.leaf_table()
        vals = centers @ d
        mean = float((vals * counts).sum() / counts.sum())
        sd = math.sqrt(float(((vals - mean) ** 2 * counts).sum() / counts.sum()))
        assert sd == pytest.approx(want, rel=tol)


def test_report_inputs_echo_and_end_to_end():
    s = TripleGaussianState(4.0, 1.0, 1.0)
    _, _, rep = scan_pair(s, n_samples=30_000, threshold=20, max_depth=6, seed=12)
    assert rep.inputs["sigma_u"] == 4.0
    assert rep.inputs["n_samples"] == 30_000
    assert rep.inputs["threshold"] == 20
    assert rep.inputs["max_depth"] == 6
    assert rep.inputs["seed"] == 12
    _, _, rep = scan_pair(s, n_samples=30_000, threshold=None, max_depth=6, seed=12)
    assert rep.inputs["threshold"] == default_threshold(30_000)


def test_asymmetric_state_scan_reports_no_exact_value():
    # sigma_v != sigma_w has no closed-form E3F: the report holds null for it
    _, _, rep = scan_pair(TripleGaussianState(2.0, 1.0, 1.5), n_samples=2000, max_depth=4)
    assert rep.exact_e3f_gebits is None
    text = rep.to_json()
    assert '"exact_e3f_gebits": null' in text
    assert EntanglementReport.from_json(text) == rep


def test_collapse_refuses_a_tree_without_counts():
    # every sample fell outside the box, so no code was kept
    empty = _build_tree(np.empty(0, dtype=np.int64), 10, "position", 1.0, 4, 16)
    assert (empty.total_count, empty.n_dropped) == (0, 10)
    with pytest.raises(ValueError, match="^tree holds no counts$"):
        tree_to_linear_histograms(empty, SPDC_COEFFICIENTS)


def test_record_lines_format():
    s = TripleGaussianState(2.0, 1.0, 1.0)
    tree = simulate_adaptive_scan(s, "position", 5000, threshold=100, max_depth=4, seed=3)
    lines = tree.record_lines()
    assert lines == sorted(lines)
    for line in lines:
        path, count = line.rsplit(",", 1)
        assert set(path) <= set("01234567")
        assert int(count) >= 0


def _joined_records(tree):
    """`path,count` lines built one leaf at a time from path_of."""
    leaves = sorted(range(tree.n_leaves), key=tree.path_of)
    return "".join(f"{tree.path_of(i)},{tree.counts[i]}\n" for i in leaves).encode()


def test_record_bytes_matches_per_leaf_join():
    codes = np.zeros(1_234_567, dtype=np.int64)
    root_only = _build_tree(codes, 1_234_570, "position", 1.0, 5, 2_000_000)
    assert root_only.record_bytes() == b",1234567\n"
    # a leaf with a 7-digit count, and empty leaves at depths 1, 2 and 3
    corner = np.zeros(1_000_003, dtype=np.int64)
    corner[-3:] = (63, 448, 511)
    sparse = _build_tree(corner, corner.size, "momentum", 1.0, 3, 2)
    assert (sparse.counts == 0).any()
    assert b",1000000\n" in sparse.record_bytes()
    s = TripleGaussianState(2.0, 1.0, 1.0)
    trees = [
        root_only,
        sparse,
        simulate_adaptive_scan(s, "position", 5000, 100, 4, seed=3),
        simulate_adaptive_scan(s, "position", 200, 1, MAX_TREE_DEPTH, seed=3),
    ]
    for tree in trees:
        assert tree.record_bytes() == _joined_records(tree)
        assert tree.record_lines() == _joined_records(tree).decode().splitlines()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blockwise_record_bytes_across_block_boundaries(monkeypatch, offset):
    # n_leaves leaves against a block of n_leaves - offset, and against a
    # block that splits them into many parts
    tree = simulate_adaptive_scan(TripleGaussianState(2.0, 1.0, 1.0), "position", 5000, 10, 5, seed=3)
    want = _joined_records(tree)
    for block in (tree.n_leaves - offset, 7):
        monkeypatch.setattr(states, "_DRAW_CHUNK", block)
        assert tree.record_bytes() == want


@settings(max_examples=40, deadline=None)
@given(
    max_depth=st.integers(1, MAX_TREE_DEPTH),
    threshold=st.integers(1, 8),
    centers=st.lists(st.integers(0, 8**MAX_TREE_DEPTH - 1), min_size=1, max_size=4),
    spread=st.integers(0, MAX_TREE_DEPTH),
    n=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
# one code at the origin: the last leaves are the empty depth-1 cells 1-7 of a
# depth-20 tree, whose unmasked digits run into the next lines and past the end
@example(max_depth=MAX_TREE_DEPTH, threshold=1, centers=[0], spread=0, n=1, seed=0)
def test_unmasked_path_digits_are_overwritten_by_their_own_writers(
    max_depth, threshold, centers, spread, n, seed
):
    # clustered codes, so shallow and deep leaves alternate in path order
    rng = np.random.default_rng(seed)
    shift = 3 * (MAX_TREE_DEPTH - max_depth)
    at = np.array(centers, dtype=np.int64)[rng.integers(len(centers), size=n)] >> shift
    codes = np.minimum(at + rng.integers(0, 8 ** min(spread, max_depth), size=n), 8**max_depth - 1)
    tree = _build_tree(codes.astype(scan._code_dtype(max_depth)), n, "position", 1.0, max_depth, threshold)
    want = _joined_records(tree)
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 7, tree.n_leaves):
            mp.setattr(states, "_DRAW_CHUNK", block)
            assert tree.record_bytes() == want


def test_record_bytes_on_more_leaves_than_a_block():
    codes = np.random.default_rng(1).integers(0, 8**5, size=100_000)
    tree = _build_tree(codes, codes.size, "position", 1.0, 5, 1)
    assert tree.n_leaves > _DRAW_CHUNK
    assert tree.record_bytes() == _joined_records(tree)


def test_record_and_parameter_validation():
    s = TripleGaussianState(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        simulate_adaptive_scan(s, "frequency", 1000)
    with pytest.raises(ValueError):
        simulate_adaptive_scan(s, "position", 0)
    with pytest.raises(ValueError):
        simulate_adaptive_scan(s, "position", 1000, threshold=0)
    with pytest.raises(ValueError):
        simulate_adaptive_scan(s, "position", 1000, max_depth=0)
    with pytest.raises(ValueError):
        simulate_adaptive_scan(s, "position", 1000, max_depth=MAX_TREE_DEPTH + 1)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"n_samples": 0}, "n_samples must be >= 1, got 0"),
        ({"threshold": 0}, "threshold must be >= 1, got 0"),
        ({"max_depth": 0}, rf"max_depth must be in \[1, {MAX_TREE_DEPTH}\], got 0"),
        (
            {"max_depth": MAX_TREE_DEPTH + 1},
            rf"max_depth must be in \[1, {MAX_TREE_DEPTH}\], got {MAX_TREE_DEPTH + 1}",
        ),
    ],
)
def test_scan_pair_checks_its_sizes_before_any_thread(sizes, message):
    # the CLI's argparse types stop these before scan_pair; its own checks
    # must hold for API callers, and refuse before the worker starts
    with pytest.raises(ValueError, match=f"^{message}$"):
        scan_pair(TripleGaussianState(2.0, 1.0, 1.0), **{"n_samples": 1000, **sizes})
    assert not [t for t in threading.enumerate() if t.name.startswith("triphoton-scan-worker")]
