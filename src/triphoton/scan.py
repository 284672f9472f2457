"""Adaptive multiresolution coincidence-scan simulation.

Models a scanning measurement that can only record coincidence counts per
spatial cell: triplets are drawn from a triple-Gaussian source, deposited
into an octree over [-B, B]^3, and any cell collecting at least `threshold`
counts is split into 8 half-size children (up to max_depth).  Fine cells
therefore appear only where the distribution concentrates, which is what
makes the scheme affordable for strongly correlated sources.

Leaf-level counts are then collapsed onto the witness's linear combinations
(cell centers only, mimicking what such an apparatus can record) and fed to
the entropic witness.  Every approximation made here widens the effective
bins, so the resulting entanglement estimate errs low, never high.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import Histogram1D
from .report import EntanglementReport
from .states import TripleGaussianState, UnsupportedStateError, _draw, exact_e3f, to_momentum
from .witness import SPDC_COEFFICIENTS, WitnessCoefficients, histogram_report

_BASES = ("position", "momentum")
_BOX_WIDTHS = 6.0  # box half-side in units of the largest marginal width
MAX_TREE_DEPTH = 20  # 3 bits per level in a signed 64-bit interleaved code
_COARSE_MASS_EXCLUDED = 0.01  # tail counts allowed coarser than the bin width


# Magic-bits Morton masks (libmorton's 64-bit split-by-3): spreading runs
# down the table, compacting runs back up it.  21 bits per axis fit.
_MORTON_MASKS = (
    0x1FFFFF,
    0x1F00000000FFFF,
    0x1F0000FF0000FF,
    0x100F00F00F00F00F,
    0x10C30C30C30C30C3,
    0x1249249249249249,
)
_MORTON_SHIFTS = (32, 16, 8, 4, 2)


def _split_by_3(g: np.ndarray) -> np.ndarray:
    """Spread the bits of each integer so bit b lands on bit 3b."""
    g = g & _MORTON_MASKS[0]
    for shift, mask in zip(_MORTON_SHIFTS, _MORTON_MASKS[1:]):
        g |= g << shift
        g &= mask
    return g


def _compact_by_3(c: np.ndarray) -> np.ndarray:
    """Inverse of _split_by_3: gather bits 0, 3, 6, ... into bits 0, 1, 2, ..."""
    c = c & _MORTON_MASKS[-1]
    for shift, mask in zip(reversed(_MORTON_SHIFTS), reversed(_MORTON_MASKS[:-1])):
        c ^= c >> shift
        c &= mask
    return c


def _octal_path(code: int, depth: int) -> str:
    """Octant-digit path from the root of the depth-`depth` cell `code`."""
    return format(code, f"0{depth}o") if depth else ""


@dataclass(frozen=True)
class PartitionTree:
    """Octree of coincidence counts over the cube [-B, B]^3.

    Cells are stored flat: `codes[i]` is the interleaved (x, y, z) cell index
    at `depths[i]` levels (3 bits per level, x highest), so its octal digits
    are the octant path from the root.  `counts[i]` is the number of samples
    inside and `is_leaf[i]` is False for cells that were split.  Children of
    a split cell are all present, including empty ones, so the leaves tile
    the box exactly wherever refinement occurred.
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
    is_leaf: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return int(self.codes.size)

    @property
    def n_leaves(self) -> int:
        return int(self.is_leaf.sum())

    @property
    def total_count(self) -> int:
        return self.n_samples - self.n_dropped

    def cell_side(self, depth: int) -> float:
        return 2.0 * self.box_halfwidth / float(2**depth)

    def path_of(self, index: int) -> str:
        return _octal_path(int(self.codes[index]), int(self.depths[index]))

    def leaf_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers (n,3), sides (n,), counts (n,)) over all leaf cells."""
        sel = self.is_leaf
        codes, depths, counts = self.codes[sel], self.depths[sel], self.counts[sel]
        sides = 2.0 * self.box_halfwidth / np.exp2(depths.astype(float))
        g = _compact_by_3(np.stack([codes >> 2, codes >> 1, codes], axis=1))
        centers = -self.box_halfwidth + (g + 0.5) * sides[:, None]
        return centers, sides, counts

    def record_lines(self) -> list[str]:
        """Export form: one `path,count` line per leaf, in path order.

        Leaves are disjoint, so their codes aligned to max_depth are unique
        and sort in the same order as their paths.
        """
        sel = self.is_leaf
        codes, depths, counts = self.codes[sel], self.depths[sel], self.counts[sel]
        order = np.argsort(codes << 3 * (self.max_depth - depths))
        return [
            f"{_octal_path(c, d)},{n}"
            for c, d, n in zip(
                codes[order].tolist(), depths[order].tolist(), counts[order].tolist()
            )
        ]


def _build_tree(
    values: np.ndarray, basis: str, box_halfwidth: float, max_depth: int, threshold: int
) -> PartitionTree:
    n_total = values.shape[0]
    inside = np.all(np.abs(values) <= box_halfwidth, axis=1)
    n_grid = 2**max_depth
    side = 2.0 * box_halfwidth / n_grid
    g = np.floor((values[inside] + box_halfwidth) / side).astype(np.int64)
    np.clip(g, 0, n_grid - 1, out=g)  # samples exactly on the +B faces
    n_kept = g.shape[0]
    full = _split_by_3(g[:, 0]) << 2
    full |= _split_by_3(g[:, 1]) << 1
    full |= _split_by_3(g[:, 2])
    full.sort()

    # top-down: split any cell at or over threshold, keeping all 8 children.
    # Depth-d cell c holds the finest codes in [c << 3(D-d), (c+1) << 3(D-d)).
    chunk_depth, chunk_codes, chunk_counts, chunk_leaf = [], [], [], []
    cur_codes = np.zeros(1, dtype=np.int64)
    cur_counts = np.array([n_kept], dtype=np.int64)
    for d in range(max_depth + 1):
        refined = (cur_counts >= threshold) & (d < max_depth)
        chunk_depth.append(np.full(cur_codes.size, d, dtype=np.int64))
        chunk_codes.append(cur_codes)
        chunk_counts.append(cur_counts)
        chunk_leaf.append(~refined)
        if not refined.any():
            break
        kids = (cur_codes[refined, None] << 3) + np.arange(9)
        edges = np.searchsorted(full, kids << 3 * (max_depth - d - 1))
        cur_counts = np.diff(edges).ravel()
        cur_codes = kids[:, :8].ravel()

    return PartitionTree(
        basis=basis,
        box_halfwidth=float(box_halfwidth),
        max_depth=max_depth,
        threshold=threshold,
        n_samples=n_total,
        n_dropped=n_total - n_kept,
        depths=np.concatenate(chunk_depth),
        codes=np.concatenate(chunk_codes),
        counts=np.concatenate(chunk_counts),
        is_leaf=np.concatenate(chunk_leaf),
    )


def default_threshold(n_samples: int) -> int:
    """Refinement default: max(16, n/4096) keeps cell-level shot noise < 25%."""
    return max(16, n_samples // 4096)


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
    the result) stays below 1e-6.  The tree depends only on the multiset of
    samples, not their order.
    """
    if basis not in _BASES:
        raise ValueError(f"basis must be one of {_BASES}, got {basis!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 1 <= max_depth <= MAX_TREE_DEPTH:
        raise ValueError(f"max_depth must be in [1, {MAX_TREE_DEPTH}], got {max_depth}")
    if threshold is None:
        threshold = default_threshold(n_samples)
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")

    src = s if basis == "position" else to_momentum(s)
    rng = np.random.default_rng(seed)
    values = _draw(src, n_samples, rng)
    box = _BOX_WIDTHS * max(src.sigma_u, src.sigma_v, src.sigma_w)
    return _build_tree(values, basis, box, max_depth, int(threshold))


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
    the chosen bin, which keeps the entropy estimate biased high and the
    downstream witness an under-estimate.
    """
    if tree.total_count <= 0:
        raise ValueError("tree holds no counts")
    cvec = np.asarray(coeffs.eta if tree.basis == "position" else coeffs.beta)
    centers, sides, counts = tree.leaf_table()
    occupied = counts > 0
    occ_sides, occ_counts = sides[occupied], counts[occupied]
    coarse_first = np.argsort(-occ_sides, kind="stable")
    running = np.cumsum(occ_counts[coarse_first])
    kept = running > _COARSE_MASS_EXCLUDED * tree.total_count
    width = float(np.abs(cvec).sum() * occ_sides[coarse_first][kept][0])
    return Histogram1D.of(centers[occupied] @ cvec, width, weights=occ_counts)


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
    """
    ss_x, ss_k, ss_boot = np.random.SeedSequence(seed).spawn(3)
    tree_x = simulate_adaptive_scan(s, "position", n_samples, threshold, max_depth, ss_x)
    tree_k = simulate_adaptive_scan(s, "momentum", n_samples, threshold, max_depth, ss_k)
    hist_x = tree_to_linear_histograms(tree_x, coeffs)
    hist_k = tree_to_linear_histograms(tree_k, coeffs)
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
            "threshold": tree_x.threshold,
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

