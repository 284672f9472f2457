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
CSV bytes the same way; threads.py states the rule both follow, so the
trees and bytes are those of scanning the bases in turn.
The collapse and the export work through the leaves _LEAF_BLOCK at a time,
so that the two bases' peaks, which now overlap, stay small.

Leaf-level counts are then collapsed onto the witness's linear combinations
(cell centers only, mimicking what such an apparatus can record) and fed to
the entropic witness.  Every approximation made here widens the effective
bins, so in the large-sample limit the entanglement estimate errs low.  With
few counts per leaf it can err high: threshold 1 at depth 20 on 1000 samples
of a product state certifies 12.979 gebits (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import Histogram1D
from .report import EntanglementReport
from .states import (
    TripleGaussianState,
    UnsupportedStateError,
    _draw,
    chunk_bounds,
    exact_e3f,
    to_momentum,
)
from .threads import worker_thread
from .witness import SPDC_COEFFICIENTS, WitnessCoefficients, histogram_report

_BASES = ("position", "momentum")
_BOX_WIDTHS = 6.0  # box half-side in units of the largest marginal width
MAX_TREE_DEPTH = 20  # 3 bits per level in a signed 64-bit interleaved code
_COARSE_MASS_EXCLUDED = 0.01  # tail counts allowed coarser than the bin width
# Leaves decoded, projected or written at a time by the collapse and the
# export, so their per-leaf temporaries stay O(block) beside the tree.
_LEAF_BLOCK = 16384


# Morton tables over every 12-bit index: _SPREAD moves bit b to bit 3b and
# _COMPACT gathers bits 0, 3, 6 and 9 into bits 0-3.  Encoding takes one
# _AXIS_TABLES lookup per axis per 12 levels (x highest in each octal digit),
# decoding one _COMPACT lookup per axis per 4 levels.
_INDEX = np.arange(4096, dtype=np.int64)
_SPREAD = sum(((_INDEX >> b) & 1) << 3 * b for b in range(12))
_COMPACT = sum(((_INDEX >> 3 * b) & 1) << b for b in range(4))
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
    path from the root; `counts[i]` is the number of samples inside.  Leaves
    are stored depth by depth.  A split cell's 8 children, empty ones
    included, are all leaves or split cells, so the leaves tile the box and
    each split adds 7: there are (n_leaves - 1) / 7 split cells, each
    holding the sum of the counts below it.
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

        The arrays are the caller's, never views of the tree's.  Each axis's
        cell index is gathered 4 levels per _COMPACT lookup and goes straight
        into its column of the centers.
        """
        codes, counts = self.codes[sel], self.counts[sel].copy()
        sides = 2.0 * self.box_halfwidth / np.exp2(self.depths[sel].astype(float))
        centers = np.empty((codes.size, 3))
        for axis in range(3):
            c = codes >> 2 - axis
            g = np.zeros_like(c)
            for low in range(0, self.max_depth, 4):
                g |= _COMPACT.take((c >> 3 * low) & 0xFFF) << low
            centers[:, axis] = g
        centers += 0.5
        centers *= sides[:, None]
        centers += -self.box_halfwidth
        return centers, sides, counts

    def record_bytes(self) -> bytes:
        """Export form: one ASCII `path,count` line per leaf, in path order.

        Leaves are disjoint, so their codes aligned to max_depth are unique
        and sort in the same order as their paths.  A path is the cell's
        octant digits from the root (empty for the root), so each line is
        depth + 1 + (count digits) + 1 bytes long, newline included.  Lines
        are written _LEAF_BLOCK at a time and joined at the end.
        """
        aligned = self.codes << 3 * (self.max_depth - self.depths)
        order = np.argsort(aligned)  # tree indices in path order
        aligned = aligned[order]
        depths, counts = self.depths[order], self.counts[order]
        del order
        parts = []
        for lo in range(0, counts.size, _LEAF_BLOCK):
            a, d, c = (x[lo : lo + _LEAF_BLOCK] for x in (aligned, depths, counts))
            n_digits = np.ones_like(c)
            power, top = 10, int(c.max())
            while power <= top:
                n_digits += c >= power
                power *= 10
            ends = np.cumsum(d + n_digits + 2)
            commas = ends - n_digits - 2
            starts = commas - d
            buf = np.empty(int(ends[-1]), dtype=np.uint8)
            buf[commas] = ord(",")
            buf[ends - 1] = ord("\n")
            for j in range(int(d.max())):  # the j-th octant digit from the root
                has = d > j
                buf[starts[has] + j] = ord("0") + ((a[has] >> 3 * (self.max_depth - 1 - j)) & 7)
            for k in range(int(n_digits.max())):  # the k-th count digit from the right
                has = n_digits > k
                buf[ends[has] - 2 - k] = ord("0") + c[has] // 10**k % 10
            parts.append(buf.tobytes())
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
    `values` is left as it was.
    """
    n_grid = 2**max_depth
    if values.min() >= -box_halfwidth and values.max() <= box_halfwidth:
        q = values + box_halfwidth
    else:
        q = values[(np.abs(values) <= box_halfwidth).all(axis=1)] + box_halfwidth
    q /= 2.0 * box_halfwidth / n_grid
    # q >= 0 since values >= -B, so the cast truncates to the floor, and
    # only the +B faces need clamping
    g = q.T.astype(np.int32, order="C")  # one contiguous row per axis
    np.minimum(g, n_grid - 1, out=g)
    if out is None:
        out = np.empty(g.shape[1], dtype=_code_dtype(max_depth))
    codes = out[: g.shape[1]]
    tables = _CODE_TABLES[codes.dtype]
    if max_depth <= 12:  # one 12-bit window holds every level
        # mode="clip" writes into codes without a buffer; g is in range
        np.take(tables[0], g[0], out=codes, mode="clip")
        codes |= tables[1].take(g[1])
        codes |= tables[2].take(g[2])
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
    box = _BOX_WIDTHS * max(src.sigma_u, src.sigma_v, src.sigma_w)
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


def _projections(tree: PartitionTree, leaves: np.ndarray, cvec: np.ndarray) -> np.ndarray:
    """cvec . center of each leaf in the index array `leaves`.

    Decodes and projects _LEAF_BLOCK leaves at a time, so the (n, 3) centers
    are never held whole.
    """
    out = np.empty(leaves.size)
    for lo in range(0, leaves.size, _LEAF_BLOCK):
        centers = tree.leaf_table(leaves[lo : lo + _LEAF_BLOCK])[0]
        np.matmul(centers, cvec, out=out[lo : lo + centers.shape[0]])
    return out


def tree_to_linear_histograms(
    tree: PartitionTree, coeffs: WitnessCoefficients
) -> Histogram1D:
    """Collapse leaf counts onto the matching linear combination.

    Uses eta for a position tree, beta for a momentum one.  Each leaf
    contributes its count at the combination value of its center.  The bin
    width is the combination-projected extent (sum of |coefficient| x side)
    of the coarsest leaf carrying the recorded mass: leaves are taken
    coarsest first and skipped while they hold at most 1% of all counts, so
    a handful of stragglers in shallow tail cells cannot pin the width at
    the box scale.  At least 99% of the counts sit in cells no wider than
    the chosen bin, which in the large-sample limit keeps the entropy
    estimate biased high and the witness an under-estimate (not so with few
    counts per leaf; see the module docstring).
    """
    if tree.total_count <= 0:
        raise ValueError("tree holds no counts")
    cvec = np.asarray(coeffs.eta if tree.basis == "position" else coeffs.beta)
    occupied = np.flatnonzero(tree.counts > 0)
    counts = tree.counts[occupied]
    # leaves are stored depth by depth, so storage order is already coarsest first
    first = np.argmax(np.cumsum(counts) > _COARSE_MASS_EXCLUDED * tree.total_count)
    width = float(np.abs(cvec).sum() * tree.cell_side(int(tree.depths[occupied[first]])))
    values = _projections(tree, occupied, cvec)
    del occupied
    return Histogram1D.of(values, width, weights=counts)


def scan_pair(
    s: TripleGaussianState,
    coeffs: WitnessCoefficients = SPDC_COEFFICIENTS,
    n_samples: int = 100_000,
    threshold: int | None = None,
    max_depth: int = 8,
    seed: int = 0,
) -> tuple[PartitionTree, PartitionTree, EntanglementReport]:
    """Scan both bases, histogram, witness; returns both trees and the report.

    Splits the seed into independent position, momentum, and bootstrap
    streams, so reports are reproducible bit for bit.  The exact
    entanglement value is attached when the state admits one.

    Each basis runs end to end (draw, encode, sort, refine, collapse to its
    combination histogram) on its own thread: position on a worker thread,
    momentum on the calling one (threads.py).  The two share no state but
    a list of two code buffers allocated here, from which each takes one
    and frees it once its tree is built.  The trees equal those of
    simulate_adaptive_scan on the same streams.
    """
    threshold = _checked_threshold(n_samples, threshold, max_depth)
    ss_x, ss_k, ss_boot = np.random.SeedSequence(seed).spawn(3)
    # both code buffers come from this thread's heap, where the memory they
    # leave is reused by later work here; a worker thread's heap keeps it
    buffers = [np.empty(n_samples, dtype=_code_dtype(max_depth)) for _ in _BASES]

    def scan_basis(basis: str, stream: np.random.SeedSequence) -> tuple[PartitionTree, Histogram1D]:
        # the popped buffer goes as soon as the tree is built
        tree = _scan_tree(s, basis, n_samples, threshold, max_depth, stream, buffers.pop())
        return tree, tree_to_linear_histograms(tree, coeffs)

    with worker_thread("triphoton-scan-worker") as both:
        (tree_x, hist_x), (tree_k, hist_k) = both(
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
        np.random.default_rng(ss_boot),
        exact,
    )
    return tree_x, tree_k, report


def export_pair(tree_x: PartitionTree, tree_k: PartitionTree) -> tuple[bytes, bytes]:
    """record_bytes() of both trees, the first on a worker thread."""
    with worker_thread("triphoton-scan-worker") as both:
        return both(PartitionTree.record_bytes, (tree_x,), (tree_k,))
