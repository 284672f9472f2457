"""Down-conversion modeling: geometry, fitted widths, witness, rates."""

import math
import re
from dataclasses import MISSING, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton.entropy import gaussian_differential_entropy
from triphoton.spdc import (
    ConfigError,
    SpdcConfig,
    closed_form_witness,
    gaussian_fit_widths,
    joint_spectral_amplitude,
    load_config,
    phase_match_geometry,
    pump_wavenumber,
    qpm_penalty,
    triphoton_momentum_amplitude,
    triplet_rate,
    witness_sweep,
)
from triphoton.states import _E3F_ASYMPTOTIC_RATIO, exact_e3f, to_momentum
from triphoton.witness import SPDC_COEFFICIENTS, analytic_report, continuous_witness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FUSED = CONFIGS / "fused_silica_516nm.cfg"
FIG1 = CONFIGS / "fig1_516nm.cfg"

_VALID = """\
lambda_p = 516.67e-9
L_z = 0.003
sigma_p = 1e-5
n_p = 1.0
n_1 = 1.0
n_2 = 1.0
n_3 = 1.0
ng_p = 1.0
ng_1 = 1.0
ng_2 = 1.0
ng_3 = 1.0
chi3_eff = 1.8e-22
kappa0 = 2.79e-26
pump_power = 0.1
"""


def _write_cfg(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    return p


def test_pump_wavenumber_reference():
    assert pump_wavenumber(516.67e-9, 1.0) == pytest.approx(12160925.3628, abs=1e-3)
    with pytest.raises(ValueError):
        pump_wavenumber(-1.0, 1.0)
    with pytest.raises(ValueError):
        pump_wavenumber(516.67e-9, 0.0)


def test_phase_match_geometry_arithmetic():
    cfg = load_config(FIG1)
    geo = phase_match_geometry(cfg)
    k_p = 2.0 * math.pi * cfg.n_p / cfg.lambda_p
    assert geo.k_p == pytest.approx(k_p, rel=1e-15)
    assert geo.a == pytest.approx(3.0 * cfg.L_z / (4.0 * k_p), rel=1e-15)


def test_qpm_penalty_reference():
    assert qpm_penalty(1) == pytest.approx(0.405284734569, abs=1e-12)
    assert qpm_penalty(2) == pytest.approx(0.101321183642, abs=1e-12)
    assert qpm_penalty(3) == pytest.approx(4.0 / (9.0 * math.pi**2), rel=1e-12)
    for bad in (0, -2, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            qpm_penalty(bad)


def test_qpm_order_bound():
    # a float holds every integer up to 2**53; larger orders are refused,
    # compared exactly, so that 10**400 does not overflow on its way in
    cfg = load_config(FUSED)
    assert replace(cfg, qpm_order=2**53).qpm_order == 2**53
    assert qpm_penalty(2**53) == 4.0 / (math.pi**2 * 2.0**106)
    for big in (2**53 + 1, 1e300, 10**400):
        with pytest.raises(ConfigError) as exc:
            replace(cfg, qpm_order=big)
        assert str(exc.value) == f"qpm_order must be at most 2**53, got {big!r}"
        with pytest.raises(ValueError, match=r"^qpm order must be a positive integer up to 2\*\*53"):
            qpm_penalty(big)


def test_witness_small_pump_limit():
    cfg = replace(load_config(FIG1), sigma_p=1e-9)
    assert closed_form_witness(cfg) == pytest.approx(-1.52765754161, abs=1e-6)


def test_witness_closed_form_matches_entropy_assembly():
    cfg = load_config(FIG1)
    for sp in (1e-6, 1e-5, 1e-4, 1e-3):
        ci = replace(cfg, sigma_p=sp)
        fit_k = gaussian_fit_widths(ci)
        pos = to_momentum(fit_k)
        h_x = gaussian_differential_entropy(math.sqrt(1.5) * pos.sigma_v)
        h_k = gaussian_differential_entropy(math.sqrt(3.0) * fit_k.sigma_u)
        assembled = continuous_witness(SPDC_COEFFICIENTS, h_x, h_k)
        assert closed_form_witness(ci) == pytest.approx(assembled, abs=1e-12)
        assert closed_form_witness(ci) == pytest.approx(
            analytic_report(to_momentum(fit_k)).witness_gebits, abs=1e-12
        )


def test_fit_width_arithmetic_and_ratio_relation():
    cfg = load_config(FIG1)
    geo = phase_match_geometry(cfg)
    fit = gaussian_fit_widths(cfg)
    want_u = 1.0 / (2.0 * math.sqrt(32.0 * geo.a / 9.0 + 3.0 * cfg.sigma_p**2))
    assert fit.sigma_u == pytest.approx(want_u, rel=1e-15)
    assert fit.sigma_v == pytest.approx(3.0 / math.sqrt(32.0 * geo.a), rel=1e-15)
    assert fit.sigma_v == fit.sigma_w
    pos = to_momentum(fit)
    ratio_sq = (pos.sigma_u / pos.sigma_v) ** 2
    assert ratio_sq == pytest.approx(4.0 + 4.5 * cfg.sigma_p**2 * geo.k_p / cfg.L_z, rel=1e-12)


def test_momentum_amplitude_shape():
    cfg = load_config(FIG1)
    geo = phase_match_geometry(cfg)
    assert triphoton_momentum_amplitude(cfg, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    kv_zero = math.sqrt(math.pi / geo.a)
    assert abs(triphoton_momentum_amplitude(cfg, 0.0, kv_zero, 0.0)) < 1e-12
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.0, 1.0, size=(20, 3)) * np.array([1e3, 1e4, 1e4])
    a = triphoton_momentum_amplitude(cfg, pts[:, 0], pts[:, 1], pts[:, 2])
    b = triphoton_momentum_amplitude(cfg, pts[:, 0], pts[:, 2], pts[:, 1])
    c = triphoton_momentum_amplitude(cfg, -pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.allclose(a, b, atol=1e-15)
    assert np.allclose(a, c, atol=1e-15)


def test_fitted_momentum_width_matches_amplitude_moment():
    # wide pump: the fitted width should track the amplitude's second moment
    cfg = replace(load_config(FIG1), sigma_p=1.0e-4)
    fit = gaussian_fit_widths(cfg)
    sku, skv = fit.sigma_u, fit.sigma_v
    ku = np.linspace(-6 * sku, 6 * sku, 201)
    kv = np.linspace(-6 * skv, 6 * skv, 241)
    KV, KW = np.meshgrid(kv, kv, indexing="ij")
    marg = np.empty_like(ku)
    for i, q in enumerate(ku):
        amp = triphoton_momentum_amplitude(cfg, np.full_like(KV, q), KV, KW)
        marg[i] = np.trapezoid(np.trapezoid(np.abs(amp) ** 2, kv, axis=1), kv)
    marg /= np.trapezoid(marg, ku)
    m2 = np.trapezoid(marg * ku**2, ku)
    assert m2 / sku**2 == pytest.approx(1.0, abs=0.05)


def test_load_shipped_configs():
    for path in (FUSED, FIG1):
        cfg = load_config(path)
        assert cfg.lambda_p == pytest.approx(516.67e-9)
    fused = load_config(FUSED)
    assert fused.L_z == 0.1
    assert fused.pump_power == 0.143


def test_config_comments_and_blank_lines(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, "# header\n\n" + _VALID + "\n# trailing\n"))
    assert cfg.L_z == 0.003


def test_config_zero_pump_power_allowed(tmp_path):
    text = _VALID.replace("pump_power = 0.1", "pump_power = 0")
    cfg = load_config(_write_cfg(tmp_path, text))
    assert triplet_rate(cfg) == 0.0


def test_config_optional_qpm_keys(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, _VALID + "qpm_order = 3\nqpm_period = 2.97e-5\n"))
    assert cfg.qpm_order == 3
    assert cfg.qpm_period == pytest.approx(2.97e-5)


def _without(*keys):
    return "\n".join(l for l in _VALID.splitlines() if not l.startswith(keys))


def test_config_error_cases(tmp_path):
    # (config text, the whole message; {path} is the config file)
    cases = [
        (_VALID + "mystery = 1\n", "{path}:15: unknown key 'mystery'"),
        (_VALID + "L_z = 0.004\n", "{path}:15: duplicate key 'L_z'"),
        (
            _VALID.replace("pump_power = 0.1", "pump_power = ten"),
            "{path}:14: bad number 'ten' for pump_power",
        ),
        (
            _VALID.replace("kappa0 = 2.79e-26", "kappa0 = 0"),
            "kappa0 must be nonzero and finite, got 0.0",
        ),
        (
            _VALID.replace("sigma_p = 1e-5", "sigma_p = -1e-5"),
            "sigma_p must be positive and finite, got -1e-05",
        ),
        (_VALID + "qpm_order = 1.5\n", "qpm_order must be a positive integer, got 1.5"),
        (_VALID + "qpm_order = inf\n", "qpm_order must be a positive integer, got inf"),
        (_VALID + "qpm_order = nan\n", "qpm_order must be a positive integer, got nan"),
        (_VALID + "qpm_order = 1e300\n", "qpm_order must be at most 2**53, got 1e+300"),
        (
            _VALID.replace("pump_power = 0.1", "pump_power = -0.1"),
            "pump_power must be nonnegative and finite, got -0.1",
        ),
        (_VALID + "qpm_period = 0\n", "qpm_period must be positive, got 0.0"),
        (_VALID + "qpm_period = -2e-5\n", "qpm_period must be positive, got -2e-05"),
        (
            "just a line without equals\n" + _VALID,
            "{path}:1: expected 'key = value', got 'just a line without equals'",
        ),
        (_without("kappa0"), "{path}: missing keys: kappa0"),
        # every missing key is named, in SpdcConfig's field order
        (_without("pump_power", "kappa0"), "{path}: missing keys: kappa0, pump_power"),
        # the first bad field in field order is the one named
        (
            _VALID.replace("sigma_p = 1e-5", "sigma_p = -1e-5").replace("L_z = 0.003", "L_z = 0"),
            "L_z must be positive and finite, got 0.0",
        ),
    ]
    for text, message in cases:
        path = _write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == message.format(path=path)
    with pytest.raises(ConfigError, match="^cannot read config .*absent.cfg"):
        load_config(tmp_path / "absent.cfg")
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"# \xff\n" + _VALID.encode())
    with pytest.raises(ConfigError, match="^cannot read config .*latin1.cfg: .*decode byte 0xff"):
        load_config(undecodable)


_REQUIRED_FIELDS = [f.name for f in fields(SpdcConfig) if f.default is MISSING]
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_COMMENT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20)
# a blank line, a whitespace-only line or a comment line
_FILLER = st.sampled_from(["", "   "]) | _COMMENT.map(lambda t: "# " + t)


@st.composite
def _config_values(draw):
    """A valid SpdcConfig field dict, with or without each QPM key."""
    values = {name: draw(_POSITIVE) for name in _REQUIRED_FIELDS}
    values["kappa0"] = draw(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    values["pump_power"] = draw(st.floats(min_value=0.0, allow_infinity=False))
    if draw(st.booleans()):
        values["qpm_order"] = draw(st.integers(1, 2**53))
    if draw(st.booleans()):
        values["qpm_period"] = draw(_POSITIVE)
    return values


@settings(max_examples=50, deadline=None)
@given(values=_config_values(), data=st.data())
def test_config_parser_properties(tmp_path_factory, values, data):
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"

    def write(entries):
        """Write `key = value!r` lines amid filler; returns their line numbers."""
        lines, where = [], []
        for key, val in entries:
            lines += data.draw(st.lists(_FILLER, max_size=2))
            comment = data.draw(st.none() | _COMMENT)
            lines.append(f"{key} = {val!r}" + ("" if comment is None else f"  # {comment}"))
            where.append(len(lines))
        lines += data.draw(st.lists(_FILLER, max_size=2))
        path.write_text("\n".join(lines) + "\n")
        return where

    entries = [(key, values[key]) for key in data.draw(st.permutations(list(values)))]
    write(entries)
    assert load_config(path) == SpdcConfig(**values)

    dropped = data.draw(st.sampled_from(_REQUIRED_FIELDS))
    write([e for e in entries if e[0] != dropped])
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: missing keys: {dropped}"

    first = data.draw(st.integers(0, len(entries) - 1))
    at = data.draw(st.integers(first + 1, len(entries)))
    where = write(entries[:at] + [entries[first]] + entries[at:])
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}:{where[at]}: duplicate key {entries[first][0]!r}"


def test_rate_reference_window():
    per_min = triplet_rate(load_config(FUSED)) * 60.0
    assert 9.9 <= per_min <= 10.1


def test_rate_scalings():
    cfg = load_config(FUSED)
    base = triplet_rate(cfg)
    assert triplet_rate(replace(cfg, pump_power=2 * cfg.pump_power)) == pytest.approx(2 * base, rel=1e-12)
    assert triplet_rate(replace(cfg, L_z=3 * cfg.L_z)) == pytest.approx(3 * base, rel=1e-12)
    assert triplet_rate(replace(cfg, sigma_p=2 * cfg.sigma_p)) == pytest.approx(base / 16, rel=1e-12)
    assert triplet_rate(replace(cfg, kappa0=-cfg.kappa0)) == pytest.approx(base, rel=1e-15)


def test_rate_keeps_full_precision_where_sigma_p4_is_subnormal():
    # sigma_p**4 is subnormal below about 1.2e-77 and rounds to 0 below
    # about 1.3e-81; the rate scales as sigma_p**-4 from the reference width
    cfg = load_config(FUSED)
    base = triplet_rate(cfg)
    for width in (1e-79, 3e-81):
        want = float(Fraction(base) * (Fraction(cfg.sigma_p) / Fraction(width)) ** 4)
        assert triplet_rate(replace(cfg, sigma_p=width)) == pytest.approx(want, rel=1e-14), width


def test_witness_sweep_monotone_and_conservative():
    cfg = load_config(FIG1)
    rows = witness_sweep(cfg, np.geomspace(1e-6, 1e-2, 50))
    wits = [w for _, w, _ in rows]
    assert all(b >= a for a, b in zip(wits, wits[1:]))
    for _, wit, exact in rows:
        assert wit <= exact + 1e-9
    for bad in ([-1.0], [0.0], [math.nan], [1e-5, 2e-5, -3e-5, math.inf]):
        with pytest.raises(ConfigError) as per_point:
            for sp in bad:
                replace(cfg, sigma_p=sp)
        with pytest.raises(ConfigError) as swept:
            witness_sweep(cfg, bad)
        assert str(swept.value) == str(per_point.value)


def test_witness_sweep_overflow_branch_runs_parallel_to_exact():
    # 18 sigma_p**2 k_p / L_z overflows above about 1e154; the witness keeps
    # its wide-pump offset 1 - 2/ln 2 to the exact value there
    for sp, wit, exact in witness_sweep(load_config(FIG1), [1e200, 1e300]):
        assert abs(wit - exact + (2.0 / math.log(2.0) - 1.0)) <= 1e-9, sp


def test_witness_sweep_rows_equal_per_point_config_rows():
    cfg = load_config(FIG1)
    grid = np.geomspace(1e-7, 1e-1, 1000)
    want = []
    for sp in grid:
        point = replace(cfg, sigma_p=float(sp))
        want.append((float(sp), closed_form_witness(point), exact_e3f(gaussian_fit_widths(point))))
    assert witness_sweep(cfg, grid) == want


def test_witness_sweep_rows_equal_per_point_rows_on_every_branch():
    grid = 10.0 ** np.random.default_rng(31).uniform(-300.0, 300.0, 50_000)
    for path in (FIG1, FUSED):
        cfg = load_config(path)
        points = [replace(cfg, sigma_p=sp) for sp in grid.tolist()]
        fits = [gaussian_fit_widths(point) for point in points]
        want = [(p.sigma_p, closed_form_witness(p), exact_e3f(f)) for p, f in zip(points, fits)]
        assert witness_sweep(cfg, grid) == want
        # each rare branch is reached: sigma_p**2 overflows in the fit,
        # 18 sigma_p**2 k_p / L_z overflows in the witness (at smaller widths
        # too), and the fitted width ratio lies past exact_e3f's asymptotic switch
        with np.errstate(over="ignore"):
            square = grid * grid
            corr = 18.0 * square * pump_wavenumber(cfg.lambda_p, cfg.n_p) / cfg.L_z
        assert 1000 < np.isinf(square).sum() < np.isinf(corr).sum()
        ratios = np.array([fit.sigma_u / fit.sigma_v for fit in fits])
        assert (ratios < 1.0 / _E3F_ASYMPTOTIC_RATIO).sum() > 1000


def test_witness_sweep_takes_a_1d_grid():
    cfg = load_config(FIG1)
    for grid, shape in ((1e-5, "()"), ([[1e-5, 2e-5]], "(1, 2)")):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            witness_sweep(cfg, grid)
    assert witness_sweep(cfg, []) == []


def test_joint_spectral_amplitude_shape():
    cfg = load_config(FUSED)
    r = 2.0e6
    vals = [
        joint_spectral_amplitude(cfg, 1e11, r * math.cos(t), r * math.sin(t))
        for t in np.linspace(0.0, 2.0 * math.pi, 9)
    ]
    assert np.ptp(vals) < 1e-12
    ring = math.sqrt(4.0 * math.pi / (abs(cfg.kappa0) * cfg.L_z))
    assert abs(joint_spectral_amplitude(cfg, 0.0, ring, 0.0)) < 1e-9
    with pytest.raises(ValueError):
        joint_spectral_amplitude(cfg, 0.0, 0.0, 0.0, pump_sigma_omega=0.0)
