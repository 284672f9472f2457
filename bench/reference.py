"""Reference work, timed beside the operations of a run.

The benchmark's machine is a share of a host whose speed drifts by tens of
percent over minutes with the other tenants' load; a run of 30 s sees one
point of that drift. A run therefore also times fixed reference work
between its operations, and the declared operation cost is the mean
operation time divided by the mean reference time of the same run, so that
the drift cancels out of it. The raw seconds are reported as well.

Kinds of work slow down by different amounts in a slow spell: a small
pure-Python loop far more than a large array sort. So each workload's
reference is a mix of the kernels below that does the kinds of work its
operation does, in about the same proportions:

- `arrays`: large int64 arrays: bit interleaving, a sort, counting (the
  scan's draw, encode and tree build, and the coefficient search's
  projections of 200k-row sample sets);
- `records`: many small frozen records with validated octant paths,
  sorted by path and formatted as lines (the leaf export);
- `small_matrices`: many small complex matrices: QR, eigenvalues and
  norms (the correlation check).

The kernels do not call the package, so no change to the package can
change them, and their inputs are fixed, so they do the same work in every
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

_ARRAY_ROWS = 100_000
_ARRAY_BLOCKS = 4  # blocks keep the reference well below the ops' peak RSS
_ARRAY_DEPTH = 8
_RECORDS = 25_000
_PATH_DIGITS = 12
_MATRICES = 600


def arrays() -> int:
    total = 0
    for block in range(_ARRAY_BLOCKS):
        rng = np.random.default_rng([12345, block])
        g = rng.integers(0, 1 << _ARRAY_DEPTH, size=(_ARRAY_ROWS, 3), dtype=np.int64)
        code = np.zeros(_ARRAY_ROWS, dtype=np.int64)
        for b in range(_ARRAY_DEPTH):
            for axis in range(3):
                code |= ((g[:, axis] >> b) & 1) << (3 * b + axis)
        code.sort()
        cells, counts = np.unique(code >> 12, return_counts=True)
        total += int(cells.size + counts.max())
    return total


@dataclass(frozen=True)
class _Record:
    path: str
    count: int

    def __post_init__(self):
        if self.count < 0 or not all(c in "01234567" for c in self.path):
            raise ValueError(f"bad record {self.path!r},{self.count}")


def records() -> int:
    mask = (1 << (3 * _PATH_DIGITS)) - 1
    recs = []
    for i in range(_RECORDS):
        code = (i * 2654435761) & mask
        path = "".join(str((code >> (3 * (_PATH_DIGITS - 1 - j))) & 7) for j in range(_PATH_DIGITS))
        recs.append(_Record(path, i % 97))
    recs.sort(key=lambda r: r.path)
    return len("\n".join(f"{r.path},{r.count}" for r in recs))


def small_matrices() -> float:
    rng = np.random.default_rng(54321)
    total = 0.0
    for _ in range(_MATRICES):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        rho = q @ q.conj().T
        p = np.abs(q) ** 2
        total += float(np.linalg.eigvalsh(rho).max() + (p / p.sum()).max())
    return total


def time_once(kernels) -> float:
    """Seconds that one pass over `kernels` takes."""
    t0 = time.perf_counter()
    for kernel in kernels:
        kernel()
    return time.perf_counter() - t0
