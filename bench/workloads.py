"""Workloads of the triphoton benchmark.

Every input is made from the workload seed when the workload is built:
states, per-op seeds, sample sets and grids. The program under test only
ever receives those generated inputs. One `run` is one closed-loop
operation; `reference` is the mix of reference kernels that does the same
kinds of work as an operation; `check` lists the invariants its outputs
break (empty when it is correct); `digest` hashes the outputs for the
determinism record; `counts` gives the per-layer work counts of one
operation.

The checks are invariants, not pinned bytes, so that a change to the
estimator can move witness values without counting as a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from reference import arrays, records, small_matrices

from triphoton import cli, scan, spdc, states, witness
from triphoton.report import EntanglementReport
from triphoton.states import TripleGaussianState

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9  # slack on every "witness <= exact" comparison


def op_seed(seed: int, i: int) -> int:
    """Program seed of operation i, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _report_faults(report: EntanglementReport, exact: float) -> list[str]:
    faults = []
    if not report.witness_gebits <= exact + TOL:
        faults.append(f"witness {report.witness_gebits!r} exceeds exact {exact!r}")
    if EntanglementReport.from_json(report.to_json()) != report:
        faults.append("report does not round-trip through from_json")
    return faults


def _tree_faults(tree: scan.PartitionTree) -> list[str]:
    leaf_counts = tree.leaf_table()[2]
    faults = []
    if int(leaf_counts.sum()) != tree.n_samples - tree.n_dropped:
        faults.append(
            f"{tree.basis} leaf counts sum to {int(leaf_counts.sum())}, "
            f"not n_samples - n_dropped = {tree.n_samples - tree.n_dropped}"
        )
    if leaf_counts.size != tree.n_leaves:
        faults.append(f"{tree.basis} leaf table has {leaf_counts.size} rows, not {tree.n_leaves}")
    return faults


def _tree_counts(trees) -> dict:
    """Per-layer work counts of one op's trees; the basis count is 'bases'."""
    c = Counter(bases=len(trees))
    for tree in trees:
        leaf_counts = tree.leaf_table()[2]
        hist = scan.tree_to_linear_histograms(tree, witness.SPDC_COEFFICIENTS)
        c["n_cells"] += tree.n_cells
        c["n_leaves"] += tree.n_leaves
        c["occupied_leaves"] += int((leaf_counts > 0).sum())
        c["n_samples"] += tree.n_samples
        c["kept"] += tree.n_samples - tree.n_dropped
        c["sample_bytes"] += tree.n_samples * 3 * 8  # computed: float64 (n, 3) draw
        c["hist_bins"] += int(hist.counts.size)
    return c


class ScanD8:
    """scan_pair at 1M triplets per basis, depth 8, default threshold.

    Alternates the ratio-100 state with the separable one (criterion 7).
    """

    cycle = 2
    reference = (arrays,)

    def __init__(self, seed: int, smoke: bool, tracer, work_dir: Path):
        self.seed = seed
        self.n = 20_000 if smoke else 1_000_000
        self.states = (TripleGaussianState(100.0, 1.0, 1.0), TripleGaussianState(1.0, 1.0, 1.0))
        self.exact = tuple(states.exact_e3f(s) for s in self.states)
        self.triplets_per_op = 2 * self.n

    def run(self, i: int, tracer):
        with tracer.span("scan.scan_pair"):
            return scan.scan_pair(
                self.states[i % 2], n_samples=self.n, max_depth=8, seed=op_seed(self.seed, i)
            )

    def check(self, i: int, out) -> list[str]:
        tree_x, tree_k, report = out
        return _report_faults(report, self.exact[i % 2]) + _tree_faults(tree_x) + _tree_faults(tree_k)

    def digest(self, out) -> dict:
        tree_x, tree_k, report = out
        return {
            "report": _sha(report.to_json()),
            "position_lines": _sha("\n".join(tree_x.record_lines())),
            "momentum_lines": _sha("\n".join(tree_k.record_lines())),
        }

    def counts(self, out) -> dict:
        return _tree_counts(out[:2])


class ExportD12:
    """`triphoton simulate --out` at ratio 100, 1M triplets, depth 12, threshold 16."""

    cycle = 1
    reference = (arrays, records)  # the two scans, then the leaf export

    def __init__(self, seed: int, smoke: bool, tracer, work_dir: Path):
        self.seed = seed
        self.n = 20_000 if smoke else 1_000_000
        self.exact = states.exact_e3f(TripleGaussianState(100.0, 1.0, 1.0))
        self.triplets_per_op = 2 * self.n
        self.files = {
            "report": work_dir / "out.json",
            "position": work_dir / "out_position.csv",
            "momentum": work_dir / "out_momentum.csv",
        }
        self.argv = [
            "simulate", "--sigma-u", "100", "--sigma-v", "1", "-n", str(self.n),
            "--depth", "12", "--threshold", "16", "--out", str(work_dir / "out"),
        ]

    def run(self, i: int, tracer):
        # The trees are captured on their way out of scan_pair so that the
        # CSVs can be checked against them; the capture adds one call frame.
        captured = []
        inner = cli.scan_pair

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            captured.append(result)
            return result

        cli.scan_pair = capture
        try:
            with tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(self.argv + ["--seed", str(op_seed(self.seed, i))])
        finally:
            cli.scan_pair = inner
        return rc, captured

    def check(self, i: int, out) -> list[str]:
        rc, captured = out
        if rc != 0:
            return [f"simulate exited {rc}"]
        if len(captured) != 1:
            return [f"simulate made {len(captured)} scan_pair calls, not 1"]
        tree_x, tree_k, _ = captured[0]
        report = EntanglementReport.from_json(self.files["report"].read_text())
        faults = _report_faults(report, self.exact)
        for tree in (tree_x, tree_k):
            lines = self.files[tree.basis].read_text().splitlines()
            paths, _, counts = zip(*(line.rpartition(",") for line in lines))
            total = sum(map(int, counts))
            if len(lines) != tree.n_leaves:
                faults.append(f"{tree.basis} CSV has {len(lines)} lines, not n_leaves {tree.n_leaves}")
            if total != tree.n_samples - tree.n_dropped:
                faults.append(
                    f"{tree.basis} CSV counts sum to {total}, "
                    f"not n_samples - n_dropped = {tree.n_samples - tree.n_dropped}"
                )
            depth = max(map(len, paths))
            volume = sum(k * 8 ** (depth - d) for d, k in Counter(map(len, paths)).items())
            if volume != 8**depth:
                faults.append(f"{tree.basis} CSV leaves do not tile the box")
        return faults

    def digest(self, out) -> dict:
        return {tag: _sha(path.read_bytes()) for tag, path in self.files.items()}

    def counts(self, out) -> dict:
        tree_x, tree_k, _ = out[1][0]
        c = _tree_counts((tree_x, tree_k))
        c["bytes_written"] = sum(path.stat().st_size for path in self.files.values())
        return c


class Certify:
    """The non-scan path: correlation check, pump sweep, coefficient search,
    sampled witness and the closed-form E3F over a grid of ratios."""

    cycle = 2
    # the coefficient search on 200k-row sample sets, then the correlation check
    reference = (arrays, small_matrices)

    def __init__(self, seed: int, smoke: bool, tracer, work_dir: Path):
        self.seed = seed
        self.triplets_per_op = 0
        with tracer.span("spdc.load_config"):
            self.cfg = spdc.load_config(ROOT / "configs" / "fig1_516nm.cfg")
        rng = np.random.default_rng(seed)
        self.trials = 20 if smoke else 1000
        self.pump_widths = np.geomspace(1e-7, 1e-1, 50 if smoke else 1000)
        self.ratio_states = [
            TripleGaussianState(float(r), 1.0, 1.0)
            for r in 10.0 ** rng.uniform(-4.0, 4.0, 100 if smoke else 2000)
        ]
        rows = 5_000 if smoke else 200_000
        eta = np.asarray(witness.SPDC_COEFFICIENTS.eta)
        beta = np.asarray(witness.SPDC_COEFFICIENTS.beta)
        self.sample_sets = []
        for ratio in (10.0, 100.0):
            s = TripleGaussianState(ratio, 1.0, 1.0)
            sx = states.sample_positions(s, rows, int(rng.integers(2**31)))
            sk = states.sample_momenta(s, rows, int(rng.integers(2**31)))
            # bins of sd/8 of each combination
            wx = float((sx.values @ eta).std()) / 8.0
            wk = float((sk.values @ beta).std()) / 8.0
            self.sample_sets.append((states.exact_e3f(s), sx, sk, wx, wk))

    def run(self, i: int, tracer):
        correlation = []
        for dim in (2, 3, 4):
            with tracer.span("witness.verify_correlation_relation"):
                correlation.append(
                    witness.verify_correlation_relation(dim, self.trials, op_seed(self.seed, i) + dim)
                )
        with tracer.span("spdc.witness_sweep"):
            sweep = spdc.witness_sweep(self.cfg, self.pump_widths)
        _, sx, sk, wx, wk = self.sample_sets[i % 2]
        with tracer.span("witness.optimize_coefficients"):
            coeffs = witness.optimize_coefficients(sx, sk)
        with tracer.span("witness.witness_from_samples"):
            report = witness.witness_from_samples(sx, sk, coeffs, wx, wk)
        with tracer.span("states.exact_e3f"):
            e3f = [states.exact_e3f(s) for s in self.ratio_states]
        return correlation, sweep, coeffs, report, e3f

    def check(self, i: int, out) -> list[str]:
        correlation, sweep, coeffs, report, e3f = out
        exact, sx, sk, _, _ = self.sample_sets[i % 2]
        faults = [
            f"dim {rep.dim}: correlation relation violated by {rep.max_violation!r}"
            for rep in correlation
            if not rep.max_violation <= TOL
        ]
        faults += [
            f"sweep sigma_p {sp!r}: witness {w!r} exceeds exact {e!r}"
            for sp, w, e in sweep
            if not w <= e + TOL
        ]
        opt = witness.sampled_witness_objective(sx, sk, coeffs)
        init = witness.sampled_witness_objective(sx, sk, witness.SPDC_COEFFICIENTS)
        if not opt >= init:
            faults.append(f"optimised coefficients score {opt!r} < initial {init!r}")
        faults += _report_faults(report, exact)
        if not all(math.isfinite(v) and v >= 0.0 for v in e3f):
            faults.append("exact_e3f grid holds a negative or non-finite value")
        return faults

    def digest(self, out) -> dict:
        correlation, sweep, coeffs, report, e3f = out
        doc = {
            "correlation": [[r.max_violation, r.max_mutual_information_bits] for r in correlation],
            "sweep": sweep,
            "coefficients": [coeffs.eta, coeffs.beta],
            "e3f": e3f,
        }
        return {"report": _sha(report.to_json()), "values": _sha(json.dumps(doc))}

    def counts(self, out) -> dict:
        return Counter()


WORKLOADS = {"scan-d8": ScanD8, "export-d12": ExportD12, "certify": Certify}
