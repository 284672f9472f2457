"""Batch command-line front end.

Subcommands:

  e3f       exact tripartite entanglement of formation of a triple-Gaussian
  sweep     witness and exact value versus pump width, CSV output
  rate      triplet generation rate for a material/pump configuration
  simulate  adaptive coincidence-scan simulation and witness report
  validate  numerical check of the correlation-entanglement inequality

Exit codes: 0 success, 1 computation/domain error, 2 input or config error.
All RNG-bearing commands are reproducible from --seed; file outputs are
written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .report import json_dumps
from .scan import MAX_TREE_DEPTH, export_pair, scan_pair
from .spdc import (
    ConfigError,
    gaussian_fit_widths,
    load_config,
    qpm_penalty,
    triplet_rate,
    witness_sweep,
)
from .states import TripleGaussianState, exact_e3f, to_momentum
from .witness import SPDC_COEFFICIENTS, analytic_report, verify_correlation_relation


def _positive_float(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(val) or val <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number: {text!r}")
    return val


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if val < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {text!r}")
        return val

    return parse


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _state_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> TripleGaussianState:
    """Triple-Gaussian state from either --config or explicit widths."""
    have_widths = any(w is not None for w in (args.sigma_u, args.sigma_v, args.sigma_w))
    if args.config is not None and have_widths:
        parser.error("give either --config or --sigma-u/--sigma-v/--sigma-w, not both")
    if args.config is not None:
        cfg = load_config(args.config)
        return to_momentum(gaussian_fit_widths(cfg))
    if args.sigma_u is None or args.sigma_v is None:
        parser.error("need --config, or both --sigma-u and --sigma-v")
    sigma_w = args.sigma_w if args.sigma_w is not None else args.sigma_v
    return TripleGaussianState(args.sigma_u, args.sigma_v, sigma_w)


def _cmd_e3f(args, parser) -> int:
    s = _state_from_args(args, parser)
    if args.json:
        print(analytic_report(s).to_json())
    else:
        print(format(exact_e3f(s), ".12g"))
    return 0


def _cmd_sweep(args, parser) -> int:
    cfg = load_config(args.config)
    if args.sigma_p_max < args.sigma_p_min:
        parser.error("--sigma-p-max must be >= --sigma-p-min")
    grid = np.geomspace(args.sigma_p_min, args.sigma_p_max, args.points)
    rows = witness_sweep(cfg, grid)
    lines = ["sigma_p_m,witness_gebits,exact_gebits"]
    for sigma_p, witness, exact in rows:
        lines.append(
            f"{format(sigma_p, '.17g')},{format(witness, '.17g')},{format(exact, '.17g')}"
        )
    out = Path(args.out)
    _atomic_write(out, ("\n".join(lines) + "\n").encode())
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_rate(args, parser) -> int:
    cfg = load_config(args.config)
    if args.qpm_order is not None:
        cfg = dataclasses.replace(cfg, qpm_order=args.qpm_order)
    bare = triplet_rate(cfg)
    penalty = qpm_penalty(cfg.qpm_order) if cfg.qpm_order is not None else 1.0
    rate = bare * penalty
    print(
        json_dumps(
            {
                "inputs": {
                    "config": args.config,
                    **{k: getattr(cfg, k) for k in cfg.__dataclass_fields__},
                },
                "triplets_per_second": rate,
                "triplets_per_minute": rate * 60.0,
                "qpm_penalty": penalty,
                "tool_version": __version__,
            }
        )
    )
    return 0


def _cmd_simulate(args, parser) -> int:
    s = _state_from_args(args, parser)
    tree_x, tree_k, report = scan_pair(
        s,
        SPDC_COEFFICIENTS,
        n_samples=args.samples,
        threshold=args.threshold,
        max_depth=args.depth,
        seed=args.seed,
    )
    if args.out is not None:
        prefix = Path(args.out)
        report_path = prefix.parent / f"{prefix.name}.json"
        # the report goes last, so a report on disk always sits beside the
        # trees it describes; a failed write removes what this call wrote
        outputs = [
            (prefix.parent / f"{prefix.name}_{tag}.csv", data)
            for data, tag in zip(export_pair(tree_x, tree_k), ("position", "momentum"))
        ]
        outputs.append((report_path, (report.to_json() + "\n").encode()))
        written = []
        try:
            for path, data in outputs:
                _atomic_write(path, data)
                written.append(path)
        except BaseException:
            for path in written:
                path.unlink()
            raise
        print(f"wrote {report_path} and two tree files")
        print(
            f"witness {report.witness_gebits:.6f} gebits "
            f"(certified {report.certified_gebits:.6f})"
        )
    else:
        print(report.to_json())
    return 0


def _cmd_validate(args, parser) -> int:
    rep = verify_correlation_relation(args.dim, args.trials, args.seed)
    print(
        json_dumps(
            {
                "inputs": {"dim": rep.dim, "trials": rep.trials, "seed": rep.seed},
                "max_violation": rep.max_violation,
                "max_mutual_information_bits": rep.max_mutual_information_bits,
                "tool_version": __version__,
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triphoton",
        description="Tripartite entanglement of triple-Gaussian photon states: "
        "exact values, conservative entropic witnesses, generation rates, and "
        "scan simulations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e3f", help="exact entanglement of formation (gebits)")
    p.add_argument("--sigma-u", type=_positive_float, required=True, help="width along the symmetric axis, m")
    p.add_argument("--sigma-v", type=_positive_float, required=True, help="width along the first difference axis, m")
    p.add_argument("--sigma-w", type=_positive_float, help="width along the second difference axis (default: same as --sigma-v)")
    p.add_argument("--json", action="store_true", help="emit a full JSON report instead of the bare number")
    p.set_defaults(func=_cmd_e3f, config=None)

    p = sub.add_parser("sweep", help="witness and exact value vs pump width (CSV)")
    p.add_argument("--config", required=True, help="material/pump config file")
    p.add_argument("--sigma-p-min", type=_positive_float, required=True, help="smallest pump width, m")
    p.add_argument("--sigma-p-max", type=_positive_float, required=True, help="largest pump width, m")
    p.add_argument("--points", type=_int_at_least(1), default=200, help="grid size (geometric spacing)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rate", help="triplet generation rate (JSON)")
    p.add_argument("--config", required=True, help="material/pump config file")
    p.add_argument("--qpm-order", type=_int_at_least(1), help="apply the quasi-phase-matching penalty of this order")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("simulate", help="adaptive scan simulation and witness report")
    p.add_argument("--config", help="derive the state from this config's phase-matching fit")
    p.add_argument("--sigma-u", type=_positive_float, help="state width, m (alternative to --config)")
    p.add_argument("--sigma-v", type=_positive_float, help="state width, m")
    p.add_argument("--sigma-w", type=_positive_float, help="state width, m (default: same as --sigma-v)")
    p.add_argument("-n", "--samples", type=_int_at_least(1), default=100_000, help="triplets per basis")
    p.add_argument("--threshold", type=_int_at_least(1), help="cell refinement count (default: max(16, n/4096))")
    p.add_argument(
        "--depth",
        type=int,
        choices=range(1, MAX_TREE_DEPTH + 1),
        default=8,
        metavar="DEPTH",
        help=f"maximum refinement depth, 1 to {MAX_TREE_DEPTH}",
    )
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed")
    p.add_argument("--out", help="output prefix: writes PREFIX.json, PREFIX_position.csv, PREFIX_momentum.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="correlation-entanglement inequality check")
    p.add_argument("--dim", type=int, choices=range(2, 9), default=3, help="local Hilbert dimension")
    p.add_argument("--trials", type=_int_at_least(1), default=1000, help="random states to test")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
