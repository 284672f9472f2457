"""Adaptive multiresolution coincidence-scan simulation.

Models a scanning measurement that can only record coincidence counts per
spatial cell: triplets are drawn from a triple-Gaussian source, deposited
into an octree over [-B, B]^3, and any cell collecting at least `threshold`
counts is split into 8 half-size children (up to max_depth).  Fine cells
therefore appear only where the distribution concentrates, which is what
makes the scheme affordable for strongly correlated sources.

Each basis is drawn in chunks of _DRAW_CHUNK rows (states.chunk_bounds), so
the stream is that of a single draw; each chunk is box-filtered, quantised
and Morton-encoded while it is small, straight into one code buffer of the
basis, and only those finest-depth cell codes are kept.  They are int32 up
to depth 10 and int64 above (_code_dtype), so a scan holds 4 or 8 bytes
per triplet and sorts the narrower codes faster.  The codes are sorted
once and the tree is refined from that array, so it equals the tree of a
one-shot draw.  scan_pair runs each basis end to end (draw, encode, sort,
refine, collapse) on its own thread, and export_pair builds the two trees'
CSV bytes the same way (_on_two_threads); the threads share no written
array, so the trees and bytes are those of scanning the bases in turn.
The collapse and the export take the leaves in chunk_bounds blocks, so
that the two bases' peaks, which coincide, stay small.

Leaf-level counts are then collapsed onto the witness's linear combinations
(cell centers only, mimicking what such an apparatus can record) and fed to
the entropic witness.  Every approximation made here widens the effective
bins, and the witness adds the plug-in bias term for the bins that the box's
projection spans, so the estimate errs low in expectation even with few
counts per leaf.
"""

from __future__ import annotations

import contextvars
import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entropy import Histogram1D
from .report import EntanglementReport
from .states import (
    TripleGaussianState,
    UnsupportedStateError,
    chunk_bounds,
    exact_e3f,
    to_momentum,
)
from .states import draw as _draw  # a module global, as bench/tracing.py patches scan._draw
from .witness import SPDC_COEFFICIENTS, WitnessCoefficients, histogram_report

_BASES = ("position", "momentum")
_BOX_WIDTHS = 6.0  # box half-side in units of the largest marginal width
MAX_TREE_DEPTH = 20  # 3 bits per level in a signed 64-bit interleaved code
_COARSE_MASS_EXCLUDED = 0.01  # tail counts allowed coarser than the bin width


# Morton tables over every 12-bit index: _SPREAD moves bit b to bit 3b, and
# _UNZIP splits 4 levels into the axes' indices, in 20-bit fields (x at bit 40,
# y at 20, z at 0).  Encoding takes one _AXIS_TABLES lookup per axis per 12
# levels (x highest in each octal digit), decoding one _UNZIP lookup per 4.
_INDEX = np.arange(4096, dtype=np.int64)
_SPREAD = sum(((_INDEX >> b) & 1) << 3 * b for b in range(12))
_UNZIP = sum(((_INDEX >> 3 * b + 2 - axis) & 1) << b + 20 * (2 - axis) for b in range(4) for axis in range(3))
_AXIS_TABLES = tuple(_SPREAD << 2 - axis for axis in range(3))
# The encode tables for each code dtype: an int32 code has 10 levels, so its
# tables keep the first 2**10 entries, each below 2**30.
_CODE_TABLES = {
    np.dtype(np.int64): _AXIS_TABLES,
    np.dtype(np.int32): tuple(t[: 2**10].astype(np.int32) for t in _AXIS_TABLES),
}


@dataclass(frozen=True)
class PartitionTree:
    """Octree of coincidence counts over the cube [-B, B]^3; only leaves are stored.

    `codes[i]` is leaf i's interleaved (x, y, z) cell index at `depths[i]`
    levels (3 bits per level, x highest), so its octal digits are the octant
    path from the root; `counts[i]` is the number of samples inside.  The
    storage order is _build_tree's (depth by depth); no reader depends on
    it.  A split cell's 8 children, empty ones included, are all leaves or
    split cells, so the leaves tile the box and each split adds 7: there
    are (n_leaves - 1) / 7 split cells, each holding the sum of the counts
    below it.
    """

    basis: str
    box_halfwidth: float
    max_depth: int
    threshold: int
    n_samples: int
    n_dropped: int
    depths: np.ndarray = field(repr=False)
    codes: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return self.n_leaves + (self.n_leaves - 1) // 7

    @property
    def n_leaves(self) -> int:
        return int(self.codes.size)

    @property
    def total_count(self) -> int:
        return self.n_samples - self.n_dropped

    def cell_side(self, depth: int) -> float:
        return 2.0 * self.box_halfwidth / float(2**depth)

    def path_of(self, index: int) -> str:
        """Octant-digit path from the root to leaf `index` (empty for the root)."""
        depth = int(self.depths[index])
        return format(int(self.codes[index]), f"0{depth}o") if depth else ""

    def leaf_table(self, sel: slice | np.ndarray = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers (n,3), sides (n,), counts (n,)) of the leaves `sel` picks, all by default.

        The arrays are the caller's, never views of the tree's.  The three
        axes' cell indices are gathered together, 4 levels per _UNZIP lookup,
        and each 20-bit field goes straight into its column of the centers.
        """
        codes, counts = self.codes[sel], self.counts[sel].copy()
        sides = np.array([self.cell_side(d) for d in range(self.max_depth + 1)]).take(self.depths[sel])
        g = np.zeros_like(codes)
        for low in range(0, self.max_depth, 4):
            g |= _UNZIP.take((codes >> 3 * low) & 0xFFF) << low
        centers = np.empty((codes.size, 3))
        for axis in range(3):
            centers[:, axis] = (g >> 40 - 20 * axis) & 0xFFFFF
        centers += 0.5
        centers *= sides[:, None]
        centers += -self.box_halfwidth
        return centers, sides, counts

    def record_bytes(self) -> bytes:
        """Export form: one ASCII `path,count` line per leaf, in path order.

        Leaves are disjoint, so their codes aligned to max_depth are unique
        and sort in the same order as their paths.  A path is the cell's
        octant digits from the root (empty for the root), so each line is
        depth + 1 + (count digits) + 1 bytes long, newline included.  Per chunk_bounds block
        of leaves, each leaf gets every digit j below the block's depth, deepest first, in a
        padded buffer.  A digit past a leaf's depth lands on its comma, count or newline
        (written after all digits), a later line's digit j' < j (written later) or the pad.
        """
        aligned = self.codes << 3 * (self.max_depth - self.depths)
        order = np.argsort(aligned, kind="stable")  # path order, from any storage order
        aligned = aligned[order]
        depths, counts = self.depths[order], self.counts[order]
        del order
        parts = []
        for lo, hi in chunk_bounds(counts.size):
            a, d, c = (x[lo:hi] for x in (aligned, depths, counts))
            n_digits = np.ones_like(c)
            power, top = 10, int(c.max())
            while power <= top:
                n_digits += c >= power
                power *= 10
            ends = np.cumsum(d + n_digits + 2)
            commas = ends - n_digits - 2
            starts = commas - d
            deepest = int(d.max())
            buf = np.empty(int(ends[-1]) + deepest, dtype=np.uint8)
            a, digit = a >> 3 * (self.max_depth - deepest), np.empty(a.size, dtype=np.uint8)
            for j in range(deepest - 1, -1, -1):  # the j-th octant digit from the root
                buf[j:][starts] = np.bitwise_and(a, 7, out=digit, casting="unsafe") | ord("0")
                a >>= 3
            buf[commas] = ord(",")
            buf[ends - 1] = ord("\n")
            at = ends - 2  # each count's digits, last first, while any are left
            while at.size:
                c, k = np.divmod(c, 10)
                buf[at] = k.astype(np.uint8) | ord("0")
                at, c = at[(left := c > 0)] - 1, c[left]
            parts.append(buf[: ends[-1]].tobytes())
        del aligned, depths, counts, a, d, c  # before the join copies the parts
        return b"".join(parts)

    def record_lines(self) -> list[str]:
        """The lines of record_bytes(), without their newlines."""
        return self.record_bytes().decode().splitlines()


def _code_dtype(max_depth: int) -> np.dtype:
    """dtype of the finest-depth cell codes of a max_depth scan.

    int32 while _build_tree's largest search key, 2**(3 * max_depth) (the
    end of the all-ones corner cell), fits in one, so up to depth 10.
    """
    return np.dtype(np.int32 if 3 * max_depth <= 30 else np.int64)


def _cell_codes(
    values: np.ndarray, box_halfwidth: float, max_depth: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Finest-depth Morton codes of the rows of `values` inside [-B, B]^3.

    A row is kept when every |coordinate| <= B; a coordinate exactly on a +B
    face lands in the last cell.  Rows outside the box are left out, and the
    caller counts them as dropped.  The codes fill the front of `out` (a
    fresh _code_dtype array by default), and that slice is returned;
    `values` is left as it was.  Cell indices are np.intp, which take() uses
    unconverted, and are clamped only if the largest value's q = (v + B) / cell
    reaches n_grid: on a +B face, or where v + B rounds up to 2B.
    """
    n_grid = 2**max_depth
    cell = 2.0 * box_halfwidth / n_grid
    if (top := values.max()) <= box_halfwidth and values.min() >= -box_halfwidth:
        q = values + box_halfwidth
    else:
        q = values[(np.abs(values) <= box_halfwidth).all(axis=1)] + box_halfwidth
    q /= cell
    # q >= 0 since values >= -B, so the cast truncates to the floor
    g = q.T.astype(np.intp, order="C")  # one contiguous row per axis
    if (top + box_halfwidth) / cell >= n_grid:
        np.minimum(g, n_grid - 1, out=g)
    if out is None:
        out = np.empty(g.shape[1], dtype=_code_dtype(max_depth))
    codes = out[: g.shape[1]]
    tables = _CODE_TABLES[codes.dtype]
    if max_depth <= 12:  # one 12-bit window holds every level
        # mode="clip" takes into out= without a buffer; g is in range
        np.take(tables[0], g[0], out=codes, mode="clip")
        part = np.empty_like(codes)
        for table, g_axis in zip(tables[1:], g[1:]):
            codes |= np.take(table, g_axis, out=part, mode="clip")
        return codes
    codes[:] = 0
    for low in range(0, max_depth, 12):
        for table, g_axis in zip(tables, g):
            codes |= table.take((g_axis >> low) & 0xFFF) << 3 * low
    return codes


def _build_tree(
    codes: np.ndarray,
    n_total: int,
    basis: str,
    box_halfwidth: float,
    max_depth: int,
    threshold: int,
) -> PartitionTree:
    """Refine the count tree over the finest-depth codes of the kept samples.

    Sorts `codes` in place.  The search keys are cast to the codes' dtype
    (int32 up to depth 10, where the largest key is 2**30), so searchsorted
    never converts the whole code array; the tree's arrays are int64.
    """
    codes.sort()
    n_kept = codes.size

    # top-down: split any cell at or over threshold into all 8 children, and
    # keep the cells that stay unsplit as that depth's leaves.  Depth-d cell c
    # holds the finest codes in [c << 3(D-d), (c+1) << 3(D-d)).
    level_codes, level_counts = [], []
    cur_codes = np.zeros(1, dtype=np.int64)
    cur_counts = np.array([n_kept], dtype=np.int64)
    for d in range(max_depth + 1):
        refined = (cur_counts >= threshold) & (d < max_depth)
        level_codes.append(cur_codes[~refined])
        level_counts.append(cur_counts[~refined])
        if not refined.any():
            break
        kids = (cur_codes[refined, None] << 3) + np.arange(9)
        keys = (kids << 3 * (max_depth - d - 1)).astype(codes.dtype, copy=False)
        edges = np.searchsorted(codes, keys)
        cur_counts = np.diff(edges).ravel()
        cur_codes = kids[:, :8].ravel()
        del kids, keys, edges

    # joined one field at a time, each level list cleared once joined, so
    # at most one field is held twice
    depths = np.repeat(np.arange(len(level_codes), dtype=np.int64), [c.size for c in level_codes])
    cell_codes = np.concatenate(level_codes)
    level_codes.clear()
    counts = np.concatenate(level_counts)
    level_counts.clear()
    return PartitionTree(
        basis=basis,
        box_halfwidth=float(box_halfwidth),
        max_depth=max_depth,
        threshold=threshold,
        n_samples=n_total,
        n_dropped=n_total - n_kept,
        depths=depths,
        codes=cell_codes,
        counts=counts,
    )


def default_threshold(n_samples: int) -> int:
    """Refinement default: max(16, n/4096) keeps cell-level shot noise < 25%."""
    return max(16, n_samples // 4096)


def _checked_threshold(n_samples: int, threshold: int | None, max_depth: int) -> int:
    """Validate a scan's sizes; returns the refinement threshold to use."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 1 <= max_depth <= MAX_TREE_DEPTH:
        raise ValueError(f"max_depth must be in [1, {MAX_TREE_DEPTH}], got {max_depth}")
    if threshold is None:
        threshold = default_threshold(n_samples)
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    return int(threshold)


def _box_halfwidth(src: TripleGaussianState) -> float:
    return _BOX_WIDTHS * max(src.sigma_u, src.sigma_v, src.sigma_w)


def _scan_tree(
    s: TripleGaussianState,
    basis: str,
    n_samples: int,
    threshold: int,
    max_depth: int,
    seed: int | np.random.SeedSequence,
    out: np.ndarray,
) -> PartitionTree:
    """Draw n_samples triplets in `basis` and build their refined count tree.

    The draw is streamed in chunks of _DRAW_CHUNK rows from one generator;
    the Morton codes of the rows inside the box fill the front of `out`,
    a _code_dtype buffer of n_samples rows, and are sorted there.
    """
    src = s if basis == "position" else to_momentum(s)
    rng = np.random.default_rng(seed)
    box = _box_halfwidth(src)
    n_kept = 0
    for start, stop in chunk_bounds(n_samples):
        n_kept += _cell_codes(_draw(src, stop - start, rng), box, max_depth, out[n_kept:]).size
    return _build_tree(out[:n_kept], n_samples, basis, box, max_depth, threshold)


def simulate_adaptive_scan(
    s: TripleGaussianState,
    basis: str,
    n_samples: int,
    threshold: int | None = None,
    max_depth: int = 8,
    seed: int | np.random.SeedSequence = 0,
) -> PartitionTree:
    """Draw triplets in the given basis and build the refined count tree.

    The box half-side is 6x the largest marginal width of the sampled basis,
    so the per-sample probability of falling outside (dropped, but counted in
    the result) stays below 1e-6.  The draw is streamed in chunks of
    _DRAW_CHUNK rows from one generator, which is the same stream as one
    draw of n_samples rows; the tree depends only on the multiset of cell
    codes, so it equals the tree of that one-shot draw.
    """
    if basis not in _BASES:
        raise ValueError(f"basis must be one of {_BASES}, got {basis!r}")
    threshold = _checked_threshold(n_samples, threshold, max_depth)
    out = np.empty(n_samples, dtype=_code_dtype(max_depth))
    return _scan_tree(s, basis, n_samples, threshold, max_depth, seed, out)


def tree_to_linear_histograms(
    tree: PartitionTree, coeffs: WitnessCoefficients
) -> Histogram1D:
    """Collapse leaf counts onto the matching linear combination.

    Uses eta for a position tree, beta for a momentum one.  Each occupied
    leaf contributes its count at the combination value of its center,
    decoded and projected in chunk_bounds blocks.  The bin depth d is
    the first depth at which the counts in leaves of depth <= d exceed 1% of
    all counts, read off the per-depth mass table, so a handful of
    stragglers in shallow tail cells cannot pin the width at the box scale
    and no leaf storage order is assumed.  The bin width is the
    combination-projected extent (sum of |coefficient| x side) of a depth-d
    cell: at least 99% of the counts sit in cells no wider than the bin,
    which keeps the binned entropy biased high.  Its m, the bins the box's
    projection spans, is 2**d + 1.
    """
    if tree.total_count <= 0:
        raise ValueError("tree holds no counts")
    cvec = np.asarray(coeffs.eta if tree.basis == "position" else coeffs.beta)
    mass_to_depth = np.cumsum(np.bincount(tree.depths, weights=tree.counts))
    depth = int(np.argmax(mass_to_depth > _COARSE_MASS_EXCLUDED * tree.total_count))
    width = float(np.abs(cvec).sum() * tree.cell_side(depth))
    occupied = np.flatnonzero(tree.counts > 0)
    # counts before values: taken after the loop, the heap layout left behind makes a
    # depth-12 `simulate --out` run peak 1-2 MB higher in resident memory
    counts = tree.counts[occupied]
    values = np.empty(occupied.size)
    for lo, hi in chunk_bounds(occupied.size):
        np.matmul(tree.leaf_table(occupied[lo:hi])[0], cvec, out=values[lo:hi])
    del occupied
    return Histogram1D.of(values, width, weights=counts, support_bins=2**depth + 1)


def _on_two_threads(fn: Callable, worker_args: tuple, caller_args: tuple) -> tuple:
    """(fn(*worker_args), fn(*caller_args)), the first on a worker thread.

    The only place triphoton starts a thread.  The two calls must share no
    array that either writes, so the results are those of one thread.  The
    worker call runs in a copy of the caller's context, so numpy's errstate
    holds there too, and the worker is joined before this returns, also
    when a call raises; if both raise, the caller's exception propagates.
    """
    with ThreadPoolExecutor(1, thread_name_prefix="triphoton-scan-worker") as pool:
        # a bare submit would run fn in the worker's own context
        theirs = pool.submit(contextvars.copy_context().run, fn, *worker_args)
        mine = fn(*caller_args)
        return theirs.result(), mine


def scan_pair(
    s: TripleGaussianState,
    coeffs: WitnessCoefficients = SPDC_COEFFICIENTS,
    n_samples: int = 100_000,
    threshold: int | None = None,
    max_depth: int = 8,
    seed: int = 0,
) -> tuple[PartitionTree, PartitionTree, EntanglementReport]:
    """Scan both bases, histogram, witness; returns both trees and the report.

    Splits the seed into independent position and momentum streams, so
    reports are reproducible bit for bit.  The exact entanglement value is
    attached when the state admits one.  Each plug-in bias term counts the
    bins the box's projection spans (tree_to_linear_histograms).

    Each basis runs end to end (draw, encode, sort, refine, collapse to its
    combination histogram) on its own thread: position on a worker thread,
    momentum on the calling one (_on_two_threads).  The two share no
    state but a list of two code buffers allocated here, from which each
    takes one and frees it once its tree is built.  The trees equal those
    of simulate_adaptive_scan on the same streams.
    """
    threshold = _checked_threshold(n_samples, threshold, max_depth)
    # the box's projected span bounds every coordinate, cell side and bin width of the scan
    for basis, src, cvec in zip(_BASES, (s, to_momentum(s)), (coeffs.eta, coeffs.beta)):
        if not math.isfinite(sum(map(abs, cvec)) * 2.0 * _box_halfwidth(src)):
            raise ValueError(f"the {basis} scan box of sigma_u = {s.sigma_u!r}, sigma_v = "
                             f"{s.sigma_v!r}, sigma_w = {s.sigma_w!r} leaves the float range")
    ss_x, ss_k = np.random.SeedSequence(seed).spawn(2)
    # both code buffers come from this thread's heap, where the memory they
    # leave is reused by later work here; a worker thread's heap keeps it
    buffers = [np.empty(n_samples, dtype=_code_dtype(max_depth)) for _ in _BASES]

    def scan_basis(basis: str, stream: np.random.SeedSequence) -> tuple[PartitionTree, Histogram1D]:
        # the popped buffer goes as soon as the tree is built
        tree = _scan_tree(s, basis, n_samples, threshold, max_depth, stream, buffers.pop())
        return tree, tree_to_linear_histograms(tree, coeffs)

    (tree_x, hist_x), (tree_k, hist_k) = _on_two_threads(
        scan_basis, ("position", ss_x), ("momentum", ss_k)
    )
    try:
        exact = exact_e3f(s)
    except UnsupportedStateError:
        exact = None
    report = histogram_report(
        hist_x,
        hist_k,
        coeffs,
        {
            "sigma_u": s.sigma_u,
            "sigma_v": s.sigma_v,
            "sigma_w": s.sigma_w,
            "eta": list(coeffs.eta),
            "beta": list(coeffs.beta),
            "n_samples": n_samples,
            "threshold": threshold,
            "max_depth": max_depth,
            "seed": seed,
            "bin_width_x": hist_x.bin_width,
            "bin_width_k": hist_k.bin_width,
            "n_dropped_x": tree_x.n_dropped,
            "n_dropped_k": tree_k.n_dropped,
            "box_halfwidth_x": tree_x.box_halfwidth,
            "box_halfwidth_k": tree_k.box_halfwidth,
        },
        exact,
    )
    return tree_x, tree_k, report


def export_pair(tree_x: PartitionTree, tree_k: PartitionTree) -> tuple[bytes, bytes]:
    """record_bytes() of both trees, the first on a worker thread."""
    return _on_two_threads(PartitionTree.record_bytes, (tree_x,), (tree_k,))
