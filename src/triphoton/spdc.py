"""Third-order parametric down-conversion: phase matching, fitted widths,
closed-form entanglement witness, and triplet generation rate.

Geometry and conventions:

* Pump wavenumber inside the medium k_p = 2 pi n_p / lambda_p.
* Collinear geometry factor a = 3 L_z / (4 k_p), with L_z the medium length.
* The pump transverse profile has intensity standard deviation sigma_p; the
  1/e^2 beam diameter is 4 sigma_p, and the transverse momentum amplitude is
  exp(-sigma_p^2 q^2).
* The triplet momentum amplitude in rotated coordinates is
      psi ~ exp(-3 sigma_p^2 ku^2) * sinc(a (4 ku^2 + kv^2 + kw^2))
  and its Gaussian surrogate replaces sinc(xi) by exp(-(8/9) xi), giving
  momentum variances sigma_ku^2 = 1/(4 (32a/9 + 3 sigma_p^2)) and
  sigma_kv^2 = sigma_kw^2 = 9/(32 a); the position widths follow by the
  sigma -> 1/(2 sigma) duality, with
      sigma_u^2 / sigma_v^2 = 4 + (9/2) sigma_p^2 k_p / L_z.
* The entropic witness for the fitted state collapses to
      (1/2) log2(16 + 18 sigma_p^2 k_p / L_z) - log2(3 sqrt(2) e)   [gebits]
  which sits below the exact entanglement of formation everywhere and runs
  parallel to it (offset 1 - 2/ln2) once the pump is wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .states import TripleGaussianState, exact_e3f

# CODATA 2018
HBAR = 1.054571817e-34  # J s
EPS0 = 8.8541878128e-12  # F/m
C_LIGHT = 2.99792458e8  # m/s

_LOG2_3SQRT2E = math.log2(3.0 * math.sqrt(2.0) * math.e)


class ConfigError(ValueError):
    """Malformed, incomplete, or unreadable parameter config."""


_REQUIRED_KEYS = (
    "lambda_p",
    "L_z",
    "sigma_p",
    "n_p",
    "n_1",
    "n_2",
    "n_3",
    "ng_p",
    "ng_1",
    "ng_2",
    "ng_3",
    "chi3_eff",
    "kappa0",
    "pump_power",
)
_OPTIONAL_KEYS = ("qpm_order", "qpm_period")


def _check_positive(name: str, val) -> None:
    if not np.isfinite(val) or val <= 0.0:
        raise ConfigError(f"{name} must be positive and finite, got {val!r}")


@dataclass(frozen=True)
class SpdcConfig:
    """Material and pump parameters, SI units throughout.

    lambda_p   : pump vacuum wavelength, m
    L_z        : medium length, m
    sigma_p    : pump intensity-profile standard deviation, m (1/e^2 beam
                 diameter = 4 sigma_p)
    n_*        : refractive indices (pump and the three triplet modes)
    ng_*       : group indices at the same wavelengths
    chi3_eff   : effective third-order susceptibility, m^2/V^2
    kappa0     : group-velocity dispersion at the triplet wavelength, s^2/m
                 (magnitude is what enters the rate; must be nonzero)
    pump_power : average pump power, W
    qpm_order  : optional quasi-phase-matching order (positive integer)
    qpm_period : optional modulation period, m, recorded for provenance only
    """

    lambda_p: float
    L_z: float
    sigma_p: float
    n_p: float
    n_1: float
    n_2: float
    n_3: float
    ng_p: float
    ng_1: float
    ng_2: float
    ng_3: float
    chi3_eff: float
    kappa0: float
    pump_power: float
    qpm_order: int | None = None
    qpm_period: float | None = None

    def __post_init__(self):
        positive = (
            "lambda_p", "L_z", "sigma_p",
            "n_p", "n_1", "n_2", "n_3",
            "ng_p", "ng_1", "ng_2", "ng_3",
            "chi3_eff",
        )
        for name in positive:
            _check_positive(name, getattr(self, name))
        if not np.isfinite(self.pump_power) or self.pump_power < 0.0:
            raise ConfigError(
                f"pump_power must be nonnegative and finite, got {self.pump_power!r}"
            )
        if not np.isfinite(self.kappa0) or self.kappa0 == 0.0:
            raise ConfigError(f"kappa0 must be nonzero and finite, got {self.kappa0!r}")
        if self.qpm_order is not None:
            if not float(self.qpm_order).is_integer() or self.qpm_order < 1:
                raise ConfigError(f"qpm_order must be a positive integer, got {self.qpm_order!r}")
            object.__setattr__(self, "qpm_order", int(self.qpm_order))
        if self.qpm_period is not None and (
            not np.isfinite(self.qpm_period) or self.qpm_period <= 0.0
        ):
            raise ConfigError(f"qpm_period must be positive, got {self.qpm_period!r}")


def load_config(path: str | Path) -> SpdcConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number {val!r} for {key}") from exc
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")
    return SpdcConfig(**values)


@dataclass(frozen=True)
class PhaseMatchGeometry:
    """Collinear phase-matching geometry: k_p (rad/m) and a = 3 L_z/(4 k_p) (m^2)."""

    k_p: float
    a: float


def pump_wavenumber(lambda_p: float, n_p: float) -> float:
    """k_p = 2 pi n_p / lambda_p, rad/m."""
    if not np.isfinite(lambda_p) or lambda_p <= 0.0:
        raise ValueError(f"lambda_p must be positive, got {lambda_p!r}")
    if not np.isfinite(n_p) or n_p <= 0.0:
        raise ValueError(f"n_p must be positive, got {n_p!r}")
    return 2.0 * math.pi * n_p / lambda_p


def phase_match_geometry(c: SpdcConfig) -> PhaseMatchGeometry:
    k_p = pump_wavenumber(c.lambda_p, c.n_p)
    return PhaseMatchGeometry(k_p=k_p, a=3.0 * c.L_z / (4.0 * k_p))


def _sinc(x):
    # sin(x)/x with sinc(0) = 1 (numpy's np.sinc is the normalized variant)
    return np.sinc(np.asarray(x) / np.pi)


def triphoton_momentum_amplitude(c: SpdcConfig, ku, kv, kw):
    """Unnormalized momentum amplitude exp(-3 sigma_p^2 ku^2) sinc(a(4ku^2+kv^2+kw^2)).

    ku, kv, kw are rotated transverse momenta (rad/m); broadcasting applies.
    The first zero along kv (at ku = kw = 0) sits at kv^2 = pi/a.
    """
    geom = phase_match_geometry(c)
    ku = np.asarray(ku, dtype=float)
    kv = np.asarray(kv, dtype=float)
    kw = np.asarray(kw, dtype=float)
    pump = np.exp(-3.0 * c.sigma_p**2 * ku**2)
    return pump * _sinc(geom.a * (4.0 * ku**2 + kv**2 + kw**2))


def _fit_widths(sigma_p: float, a: float) -> TripleGaussianState:
    sigma_ku = 1.0 / (2.0 * math.sqrt(32.0 * a / 9.0 + 3.0 * sigma_p**2))
    sigma_kv = 3.0 / math.sqrt(32.0 * a)
    return TripleGaussianState(sigma_u=sigma_ku, sigma_v=sigma_kv, sigma_w=sigma_kv)


def gaussian_fit_widths(c: SpdcConfig) -> TripleGaussianState:
    """Momentum-representation widths of the Gaussian surrogate state.

    sigma_ku = 1/(2 sqrt(32a/9 + 3 sigma_p^2)), sigma_kv = sigma_kw = 3/sqrt(32a).
    Position widths are the 1/(2 sigma) duals (states.to_momentum).
    """
    return _fit_widths(c.sigma_p, phase_match_geometry(c).a)


def _witness_gebits(sigma_p: float, k_p: float, L_z: float) -> float:
    corr = 18.0 * sigma_p**2 * k_p / L_z
    return float(0.5 * math.log2(16.0 + corr) - _LOG2_3SQRT2E)


def closed_form_witness(c: SpdcConfig) -> float:
    """Entropic witness (gebits) for the fitted state, in closed form.

    (1/2) log2(16 + 18 sigma_p^2 k_p / L_z) - log2(3 sqrt(2) e).  Always a
    lower bound on exact_e3f of the fitted widths; tends to the exact curve
    minus (2/ln2 - 1) as sigma_p grows.
    """
    return _witness_gebits(c.sigma_p, pump_wavenumber(c.lambda_p, c.n_p), c.L_z)


def witness_sweep(c: SpdcConfig, sigma_p_values) -> list[tuple[float, float, float]]:
    """Rows (sigma_p, witness gebits, exact gebits) across pump widths.

    Each row equals closed_form_witness and exact_e3f(gaussian_fit_widths)
    of c with sigma_p replaced; a sigma_p that SpdcConfig would reject
    raises the same ConfigError, before any row is computed.
    """
    sigma_ps = [float(sp) for sp in np.asarray(sigma_p_values, dtype=float)]
    for sp in sigma_ps:
        _check_positive("sigma_p", sp)
    geom = phase_match_geometry(c)
    return [
        (sp, _witness_gebits(sp, geom.k_p, c.L_z), exact_e3f(_fit_widths(sp, geom.a)))
        for sp in sigma_ps
    ]


def triplet_rate(c: SpdcConfig) -> float:
    """Expected triplet generation rate, events per second.

    <R> = hbar/(2592 sqrt(3) pi^2 eps0^2 c^4)
          * (ng_1 ng_2 ng_3 ng_p)/(n_p^2 n_1^2 n_2^2 n_3^2)
          * chi3_eff^2 omega_p0^3 / |kappa0|
          * P L_z / sigma_p^4
    with omega_p0 = 2 pi c / lambda_p.  Quasi-phase-matching penalties are
    not applied here; combine with qpm_penalty / index_modulation_penalty.
    """
    omega_p0 = 2.0 * math.pi * C_LIGHT / c.lambda_p
    prefactor = HBAR / (2592.0 * math.sqrt(3.0) * math.pi**2 * EPS0**2 * C_LIGHT**4)
    index_factor = (c.ng_1 * c.ng_2 * c.ng_3 * c.ng_p) / (
        c.n_p**2 * c.n_1**2 * c.n_2**2 * c.n_3**2
    )
    return float(
        prefactor
        * index_factor
        * c.chi3_eff**2
        * omega_p0**3
        / abs(c.kappa0)
        * c.pump_power
        * c.L_z
        / c.sigma_p**4
    )


def qpm_penalty(order: int) -> float:
    """Rate penalty 4/(pi^2 order^2) for order-m quasi-phase matching."""
    if int(order) != order or order < 1:
        raise ValueError(f"qpm order must be a positive integer, got {order!r}")
    return float(4.0 / (math.pi**2 * order**2))


def index_modulation_penalty(delta_n: float, chi3_sensitivity: float) -> float:
    """Rate penalty for chi3 modulation driven by an index contrast delta_n.

    The fractional chi3 swing is m = chi3_sensitivity * delta_n; keeping only
    the phase-matched Fourier component of a square modulation leaves the
    fraction (m/2)^2 * 4/pi^2 of the unmodulated rate.  For delta_n = 0.01
    and sensitivity 17 (silica-like) this is ~0.0029, i.e. about -25 dB.
    """
    if delta_n < 0.0 or not np.isfinite(delta_n):
        raise ValueError(f"delta_n must be >= 0, got {delta_n!r}")
    if chi3_sensitivity < 0.0 or not np.isfinite(chi3_sensitivity):
        raise ValueError(f"chi3_sensitivity must be >= 0, got {chi3_sensitivity!r}")
    m = chi3_sensitivity * delta_n
    return float((m / 2.0) ** 2 * 4.0 / math.pi**2)


def joint_spectral_amplitude(
    c: SpdcConfig, dwu, dwv, dww, pump_sigma_omega: float = 1.0e12
):
    """Unnormalized spectral amplitude s(sqrt(3) dwu) sinc((kappa0 L_z/4)(dwv^2+dww^2)).

    dwu, dwv, dww are rotated frequency detunings (rad/s); the pump spectral
    amplitude s is Gaussian, exp(-x^2/(4 pump_sigma_omega^2)) with
    pump_sigma_omega the spectral intensity standard deviation (rad/s).
    Rotationally invariant in the (dwv, dww) plane; first zero ring at
    dwv^2 + dww^2 = 4 pi / (|kappa0| L_z).
    """
    if not np.isfinite(pump_sigma_omega) or pump_sigma_omega <= 0.0:
        raise ValueError(f"pump_sigma_omega must be positive, got {pump_sigma_omega!r}")
    dwu = np.asarray(dwu, dtype=float)
    dwv = np.asarray(dwv, dtype=float)
    dww = np.asarray(dww, dtype=float)
    pump = np.exp(-3.0 * dwu**2 / (4.0 * pump_sigma_omega**2))
    return pump * _sinc(abs(c.kappa0) * c.L_z / 4.0 * (dwv**2 + dww**2))
