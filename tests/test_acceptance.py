"""Acceptance gate: one test per shipped guarantee, one summary line each.

Every test appends a `[criterion N] PASS/FAIL - detail` line to
CRITERION_LINES; the hook in conftest.py prints the collected lines after
the run so the whole gate is readable at a glance.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from triphoton.entropy import (
    DiscretePMF,
    Histogram1D,
    conditional_entropy,
    differential_entropy_from_histogram,
    mutual_information,
    shannon_entropy,
)
from triphoton.scan import scan_pair
from triphoton.spdc import (
    closed_form_witness,
    gaussian_fit_widths,
    load_config,
    pump_wavenumber,
    triplet_rate,
    witness_sweep,
)
from triphoton.states import (
    ROTATION_UVW,
    TripleGaussianState,
    exact_e3f,
    mancini_bound,
    pair_statistics,
    sample_momenta,
    sample_positions,
    to_momentum,
)
from triphoton.witness import (
    DiscreteWitnessInput,
    discrete_witness,
    verify_correlation_relation,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIG1 = CONFIGS / "fig1_516nm.cfg"
FUSED = CONFIGS / "fused_silica_516nm.cfg"

# triplets per second per watt of pump per meter of waveguide, fused silica
REFERENCE_RATE_CONSTANT = 11.6267

_LOG2_3SQRT2E = math.log2(3.0 * math.sqrt(2.0) * math.e)

CRITERION_LINES: list[str] = []


def _record(tag: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    CRITERION_LINES.append(f"[criterion {tag}] {state} - {detail}")


def test_criterion_1_strong_pump_offset():
    t0 = time.perf_counter()
    cfg = load_config(FIG1)
    k_p = pump_wavenumber(cfg.lambda_p, cfg.n_p)
    target = 1.0 - 2.0 / math.log(2.0)
    worst = 0.0
    for sp in (4e-4, 1.3e-3, 4e-3):
        assert 18.0 * sp**2 * k_p / cfg.L_z >= 1e4  # strong-pump regime only
        c = dataclasses.replace(cfg, sigma_p=sp)
        offset = closed_form_witness(c) - exact_e3f(gaussian_fit_widths(c))
        worst = max(worst, abs(offset - target))
    dt = time.perf_counter() - t0
    ok = worst <= 0.02 and dt < 1.0
    _record(
        "1",
        ok,
        f"witness-minus-exact offset within {worst:.1e} of 1-2/ln2 ({dt:.2f}s)",
    )
    assert ok


def test_criterion_2_conservative_pump_sweep():
    t0 = time.perf_counter()
    cfg = load_config(FIG1)
    rows = witness_sweep(cfg, np.geomspace(1e-7, 1e-1, 1000))
    slack = min(exact - wit for _, wit, exact in rows)
    dt = time.perf_counter() - t0
    ok = slack >= -1e-9 and dt < 1.0
    _record(
        "2",
        ok,
        f"witness <= exact at 1000 pump widths, min slack {slack:.1e} ({dt:.2f}s)",
    )
    assert ok


def test_criterion_3_pairwise_variance_cap():
    t0 = time.perf_counter()
    at_1000 = mancini_bound(TripleGaussianState(1000.0, 1.0, 1.0))
    at_unity = mancini_bound(TripleGaussianState(1.0, 1.0, 1.0))
    grid_max = max(
        mancini_bound(TripleGaussianState(float(r), 1.0, 1.0))
        for r in np.geomspace(1e-4, 1e4, 10000)
    )
    dt = time.perf_counter() - t0
    ok = (
        abs(at_1000 - 0.79248) <= 0.001
        and at_unity == 0.0
        and grid_max <= 0.79249
        and dt < 1.0
    )
    _record(
        "3",
        ok,
        f"pair-variance bound {at_1000:.5f} at ratio 1e3, grid max {grid_max:.5f} ({dt:.2f}s)",
    )
    assert ok


def test_criterion_4_generation_rate():
    t0 = time.perf_counter()
    simplified = REFERENCE_RATE_CONSTANT * 0.143 * 0.1 * 60.0
    cfg = load_config(FUSED)
    emergent = triplet_rate(cfg) / (cfg.pump_power * cfg.L_z)
    rel = abs(emergent - REFERENCE_RATE_CONSTANT) / REFERENCE_RATE_CONSTANT
    dt = time.perf_counter() - t0
    ok = 9.9 <= simplified <= 10.1 and rel <= 0.05 and dt < 1.0
    _record(
        "4",
        ok,
        f"{simplified:.3f} triplets/min; emergent rate constant off by {100 * rel:.2f}% ({dt:.2f}s)",
    )
    assert ok


def test_criterion_5_ghz_discrete_witness():
    t0 = time.perf_counter()
    psi = np.zeros(8)
    psi[0] = psi[7] = 1.0 / math.sqrt(2.0)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    hhh = np.kron(np.kron(h, h), h)
    pq = (psi**2).reshape(2, 2, 2)
    pr = ((hhh @ psi) ** 2).reshape(2, 2, 2)
    omega = 1.0 / float(np.max(np.abs(h)) ** 2)  # 2.0: the bases are unbiased
    inp = DiscreteWitnessInput(
        pmf_q=DiscretePMF(pq.ravel(), (2, 2, 2)),
        pmf_r=DiscretePMF(pr.ravel(), (2, 2, 2)),
        omegas=(omega, omega, omega),
    )
    w = discrete_witness(inp)
    dt = time.perf_counter() - t0
    ok = abs(w - 1.0) <= 1e-12 and dt < 1.0
    _record("5", ok, f"GHZ statistics in two unbiased bases give {w:.15f} gebits ({dt:.2f}s)")
    assert ok


def test_criterion_6_random_state_entropy_relation():
    t0 = time.perf_counter()
    worst = -math.inf
    for dim in (2, 3, 4):
        rep = verify_correlation_relation(dim, 1000, 42 + dim)
        worst = max(worst, rep.max_violation)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    _record("6", ok, f"3000 random pure states, worst relation violation {worst:.1e} ({dt:.1f}s)")
    assert ok


_C7: dict = {}


def _criterion7_runs() -> dict:
    if not _C7:
        s = TripleGaussianState(100.0, 1.0, 1.0)
        t0 = time.perf_counter()
        wits = []
        for seed in range(20):
            _, _, rep = scan_pair(s, n_samples=1_000_000, max_depth=8, seed=seed)
            wits.append(rep.witness_gebits)
        _C7["witnesses"] = wits
        _C7["exact"] = exact_e3f(s)
        _C7["analytic"] = 1.0 + math.log2(100.0) - _LOG2_3SQRT2E
        _C7["dt"] = time.perf_counter() - t0
    return _C7


def test_criterion_7a_scan_never_overestimates():
    runs = _criterion7_runs()
    hi = max(runs["witnesses"])
    ok = hi <= runs["exact"] + 1e-9
    _record(
        "7a",
        ok,
        f"ratio-100 scan witness max {hi:.3f} <= exact {runs['exact']:.3f} for 20/20 seeds",
    )
    assert ok


def test_criterion_7b_scan_reaches_analytic_floor():
    runs = _criterion7_runs()
    floor = runs["analytic"] - 0.2
    lo, hi = min(runs["witnesses"]), max(runs["witnesses"])
    ok = lo >= floor
    _record(
        "7b",
        ok,
        f"ratio-100 scan witness range [{lo:.3f}, {hi:.3f}] vs floor {floor:.3f}",
    )
    assert ok, (
        "depth-8 leaf cells are too coarse for the narrow linear combinations at "
        f"width ratio 100: witness range [{lo:.3f}, {hi:.3f}] sits below the floor "
        f"{floor:.3f}. The estimate stays conservative (criterion 7a) and the same "
        "pipeline certifies ratio-10 states, see "
        "test_scan.py::test_moderate_ratio_scan_certifies_entanglement."
    )


def test_criterion_7c_separable_certifies_zero():
    runs = _criterion7_runs()
    s = TripleGaussianState(1.0, 1.0, 1.0)
    t0 = time.perf_counter()
    certified = []
    for seed in range(20):
        _, _, rep = scan_pair(s, n_samples=1_000_000, max_depth=8, seed=seed)
        certified.append(rep.certified_gebits)
    total = runs["dt"] + (time.perf_counter() - t0)
    ok = all(c == 0.0 for c in certified) and total < 120.0
    _record(
        "7c",
        ok,
        f"separable state certifies 0.0 for 20/20 seeds; scans took {total:.0f}s total",
    )
    assert ok


def _run_group(failed: list, name: str, fn) -> None:
    try:
        if not fn():
            failed.append(name)
    except Exception:
        failed.append(name)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    failed: list[str] = []
    rng = np.random.default_rng(88)

    def chain_rule():
        for _ in range(10):
            p = rng.dirichlet(np.ones(24)).reshape(4, 6)
            pmf = DiscretePMF(p.ravel(), (4, 6))
            split = shannon_entropy(pmf.marginal((1,))) + conditional_entropy(pmf, 0)
            if abs(shannon_entropy(pmf) - split) > 1e-9:
                return False
        return True

    def information_nonnegative():
        for _ in range(10):
            p = rng.dirichlet(np.ones(12)).reshape(3, 4)
            if mutual_information(DiscretePMF(p.ravel(), (3, 4))) < -1e-12:
                return False
        return True

    def coarse_graining():
        for seed in range(10):
            draws = np.random.default_rng(seed).normal(0.0, 1.0, 20_000)
            counts, _ = np.histogram(draws, bins=64, range=(-4.0, 4.0))
            fine = Histogram1D(8.0 / 64, counts.astype(float), support_bins=64)
            merged = Histogram1D(8.0 / 32, counts.reshape(32, 2).sum(axis=1).astype(float), support_bins=32)
            gap = differential_entropy_from_histogram(
                merged
            ) - differential_entropy_from_histogram(fine)
            if gap < -1e-12:
                return False
        return True

    def rotation_orthogonal():
        gram = ROTATION_UVW @ ROTATION_UVW.T
        return float(np.abs(gram - np.eye(3)).max()) < 1e-12

    def duality_involution():
        s = TripleGaussianState(2.0, 0.7, 1.3)
        back = to_momentum(to_momentum(s))
        return all(
            abs(a - b) <= 1e-12 * b
            for a, b in zip(
                (back.sigma_u, back.sigma_v, back.sigma_w),
                (s.sigma_u, s.sigma_v, s.sigma_w),
            )
        )

    def sampling_moments():
        s = TripleGaussianState(2.0, 1.0, 1.0)
        stats = pair_statistics(s)
        xs = sample_positions(s, 1_000_000, 77).values
        ks = sample_momenta(s, 1_000_000, 78).values
        pairs = (
            (np.std(xs[:, 1] + xs[:, 2]), stats.sd_x_sum),
            (np.std(xs[:, 1] - xs[:, 2]), stats.sd_x_diff),
            (np.std(ks[:, 1] + ks[:, 2]), stats.sd_k_sum),
            (np.std(ks[:, 1] - ks[:, 2]), stats.sd_k_diff),
        )
        return all(abs(got - want) <= 0.01 * want for got, want in pairs)

    _run_group(failed, "chain-rule", chain_rule)
    _run_group(failed, "information-nonnegativity", information_nonnegative)
    _run_group(failed, "coarse-graining", coarse_graining)
    _run_group(failed, "rotation-orthogonality", rotation_orthogonal)
    _run_group(failed, "duality-involution", duality_involution)
    _run_group(failed, "sampling-moments", sampling_moments)

    dt = time.perf_counter() - t0
    ok = not failed and dt < 60.0
    detail = (
        f"six property groups green ({dt:.1f}s)"
        if not failed
        else f"failed groups: {', '.join(failed)} ({dt:.1f}s)"
    )
    _record("8", ok, detail)
    assert ok, detail
