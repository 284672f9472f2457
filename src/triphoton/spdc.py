"""Third-order parametric down-conversion: phase matching, fitted widths,
closed-form entanglement witness, and triplet generation rate.

Geometry and conventions:

* Pump wavenumber inside the medium k_p = 2 pi n_p / lambda_p (SpdcConfig.k_p).
* Collinear geometry factor a = 3 L_z / (4 k_p), with L_z the medium length
  (SpdcConfig.a).  Reading either raises ValueError if it leaves the float range.
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
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .states import TripleGaussianState, exact_e3f_array

# CODATA 2018
HBAR = 1.054571817e-34  # J s
EPS0 = 8.8541878128e-12  # F/m
C_LIGHT = 2.99792458e8  # m/s

_LOG2_3SQRT2E = math.log2(3.0 * math.sqrt(2.0) * math.e)
_MAX_QPM_ORDER = 2**53  # above this a float no longer holds every integer
_RATE_FIELDS = ("n_p", "n_1", "n_2", "n_3", "ng_1", "ng_2", "ng_3", "ng_p", "chi3_eff", "lambda_p", "kappa0", "pump_power", "L_z")


class ConfigError(ValueError):
    """Malformed, incomplete, or unreadable parameter config."""


def _check_positive(name: str, val) -> None:
    if not math.isfinite(val) or val <= 0.0:
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
        for f in fields(self):
            if f.default is MISSING and f.name not in ("kappa0", "pump_power"):
                _check_positive(f.name, getattr(self, f.name))
        if not np.isfinite(self.pump_power) or self.pump_power < 0.0:
            raise ConfigError(
                f"pump_power must be nonnegative and finite, got {self.pump_power!r}"
            )
        if not np.isfinite(self.kappa0) or self.kappa0 == 0.0:
            raise ConfigError(f"kappa0 must be nonzero and finite, got {self.kappa0!r}")
        if self.qpm_order is not None:
            # % and the comparisons are exact on ints; float(10**400) overflows
            if self.qpm_order % 1 != 0 or self.qpm_order < 1:
                raise ConfigError(f"qpm_order must be a positive integer, got {self.qpm_order!r}")
            if self.qpm_order > _MAX_QPM_ORDER:
                raise ConfigError(f"qpm_order must be at most 2**53, got {self.qpm_order!r}")
            object.__setattr__(self, "qpm_order", int(self.qpm_order))
        if self.qpm_period is not None and (
            not np.isfinite(self.qpm_period) or self.qpm_period <= 0.0
        ):
            raise ConfigError(f"qpm_period must be positive, got {self.qpm_period!r}")

    @property
    def k_p(self) -> float:
        """Pump wavenumber in the medium, 2 pi n_p / lambda_p, rad/m."""
        return self._in_range("k_p = 2 pi n_p / lambda_p", 2.0 * math.pi * self.n_p / self.lambda_p)

    @property
    def a(self) -> float:
        """Collinear geometry factor 3 L_z / (4 k_p), m^2; the fit takes 32 a, so a <= max / 32."""
        a = 3.0 * self.L_z / (4.0 * self.k_p)
        return self._in_range("a = 3 L_z / (4 k_p)", a, "L_z", top=sys.float_info.max / 32.0)

    def _in_range(self, formula: str, val: float, *extra: str, top: float = sys.float_info.max) -> float:
        """val if 0 < val <= top, else a ValueError naming the fields it is made of."""
        if not 0.0 < val <= top:
            at = ", ".join(f"{name} = {getattr(self, name)!r}" for name in ("lambda_p", "n_p", *extra))
            raise ValueError(f"{formula} leaves the float range at {at}")
        return val


def load_config(path: str | Path) -> SpdcConfig:
    """Parse a flat ``key = value`` file of SpdcConfig fields ('#' starts a comment)."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    required = {f.name: f.default is MISSING for f in fields(SpdcConfig)}
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in required:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number {val!r} for {key}") from exc
    missing = [k for k, req in required.items() if req and k not in values]
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")
    return SpdcConfig(**values)


def _sinc(x):
    # sin(x)/x with sinc(0) = 1 (numpy's np.sinc is the normalized variant)
    return np.sinc(np.asarray(x) / np.pi)


def triphoton_momentum_amplitude(c: SpdcConfig, ku, kv, kw):
    """Unnormalized momentum amplitude exp(-3 sigma_p^2 ku^2) sinc(a(4ku^2+kv^2+kw^2)).

    ku, kv, kw are rotated transverse momenta (rad/m); broadcasting applies.
    The first zero along kv (at ku = kw = 0) sits at kv^2 = pi/a.
    """
    ku = np.asarray(ku, dtype=float)
    kv = np.asarray(kv, dtype=float)
    kw = np.asarray(kw, dtype=float)
    pump = np.exp(-3.0 * c.sigma_p**2 * ku**2)
    return pump * _sinc(c.a * (4.0 * ku**2 + kv**2 + kw**2))


def _fit_widths(sigma_p, a: float) -> tuple[np.ndarray, float]:
    """(sigma_ku, sigma_kv) of the fit; sigma_p a float or 1-D array, sigma_ku an array like it."""
    sp = np.asarray(sigma_p, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        root = np.sqrt(32.0 * a / 9.0 + 3.0 * (sp * sp))
    sigma_ku = 1.0 / (2.0 * root)
    wide = np.isinf(root)  # sigma_p taken out of the root, no square overflows
    sigma_ku[wide] = 0.5 / sp[wide] / np.sqrt(3.0 + 32.0 * a / 9.0 / sp[wide] / sp[wide])
    return sigma_ku.reshape(np.shape(sigma_p)), 3.0 / math.sqrt(32.0 * a)


def gaussian_fit_widths(c: SpdcConfig) -> TripleGaussianState:
    """Momentum-representation widths of the Gaussian surrogate state.

    sigma_ku = 1/(2 sqrt(32a/9 + 3 sigma_p^2)), sigma_kv = sigma_kw = 3/sqrt(32a).
    Position widths are the 1/(2 sigma) duals (states.to_momentum).
    """
    sigma_ku, sigma_kv = _fit_widths(c.sigma_p, c.a)
    return TripleGaussianState(sigma_u=float(sigma_ku), sigma_v=sigma_kv, sigma_w=sigma_kv)


def _witness_gebits(sigma_p, k_p: float, L_z: float) -> np.ndarray:
    """The closed-form witness; sigma_p a float or a 1-D array, the result an array like it."""
    sp = np.asarray(sigma_p, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        corr = 18.0 * (sp * sp) * k_p / L_z
    gebits = 0.5 * np.log2(16.0 + corr) - _LOG2_3SQRT2E
    wide = np.isinf(corr)  # the product overflows; its log does not
    log2_corr = np.log2(18.0) + 2.0 * np.log2(sp[wide]) + np.log2(k_p) - np.log2(L_z)
    gebits[wide] = 0.5 * np.logaddexp2(4.0, log2_corr) - _LOG2_3SQRT2E
    return gebits.reshape(np.shape(sigma_p))


def closed_form_witness(c: SpdcConfig) -> float:
    """Entropic witness (gebits) for the fitted state, in closed form.

    (1/2) log2(16 + 18 sigma_p^2 k_p / L_z) - log2(3 sqrt(2) e).  Always a
    lower bound on exact_e3f of the fitted widths; tends to the exact curve
    minus (2/ln2 - 1) as sigma_p grows.
    """
    return float(_witness_gebits(c.sigma_p, c.k_p, c.L_z))


def witness_sweep(c: SpdcConfig, sigma_p_values) -> list[tuple[float, float, float]]:
    """Rows (sigma_p, witness gebits, exact gebits) across a 1-D grid of pump widths.

    Each row equals closed_form_witness and exact_e3f(gaussian_fit_widths)
    of c with sigma_p replaced, by construction: one array pass through the same
    formulas.  A sigma_p that SpdcConfig would reject raises the same
    ConfigError, before any row is computed.
    """
    sigma_ps = np.asarray(sigma_p_values, dtype=float)
    if sigma_ps.ndim != 1:
        raise ValueError(f"sigma_p values must form a 1-D grid, got shape {sigma_ps.shape}")
    valid = np.isfinite(sigma_ps) & (sigma_ps > 0.0)
    if not valid.all():  # SpdcConfig's message for the first bad value
        _check_positive("sigma_p", float(sigma_ps[np.argmin(valid)]))
    exact = exact_e3f_array(*_fit_widths(sigma_ps, c.a))
    gebits = _witness_gebits(sigma_ps, c.k_p, c.L_z)
    return list(zip(sigma_ps.tolist(), gebits.tolist(), exact.tolist()))


def triplet_rate(c: SpdcConfig) -> float:
    """Expected triplet generation rate, events per second.

    <R> = hbar/(2592 sqrt(3) pi^2 eps0^2 c^4)
          * (ng_1 ng_2 ng_3 ng_p)/(n_p^2 n_1^2 n_2^2 n_3^2)
          * chi3_eff^2 omega_p0^3 / |kappa0|
          * P L_z / sigma_p^4
    with omega_p0 = 2 pi c / lambda_p.  Quasi-phase-matching penalties are
    not applied here; combine with qpm_penalty.
    """
    prefactor = HBAR / (2592.0 * math.sqrt(3.0) * math.pi**2 * EPS0**2 * C_LIGHT**4)
    try:  # ** raises where * gives inf, and the index product can underflow to 0
        omega_p0 = 2.0 * math.pi * C_LIGHT / c.lambda_p
        index_squares = c.n_p**2 * c.n_1**2 * c.n_2**2 * c.n_3**2
        index_factor = (c.ng_1 * c.ng_2 * c.ng_3 * c.ng_p) / index_squares
        numerator = (
            prefactor
            * index_factor
            * c.chi3_eff**2
            * omega_p0**3
            / abs(c.kappa0)
            * c.pump_power
            * c.L_z
        )
    except (OverflowError, ZeroDivisionError):
        numerator = math.inf
    if not numerator < math.inf:  # inf or NaN: name every field in it, indices first
        named = ", ".join(f"{n} = {getattr(c, n)!r}" for n in _RATE_FIELDS)
        raise OverflowError(f"triplet rate overflows the float range at {named}")
    try:
        sigma_p4 = c.sigma_p**4
    except OverflowError:
        sigma_p4 = math.inf
    if sys.float_info.min <= sigma_p4 < math.inf:
        rate = numerator / sigma_p4
    else:  # sigma_p**4 is subnormal, 0 or overflows; four divisions by sigma_p keep every digit
        rate = numerator / c.sigma_p / c.sigma_p / c.sigma_p / c.sigma_p
    if math.isinf(rate):
        raise OverflowError(f"triplet rate overflows the float range at sigma_p = {c.sigma_p!r}")
    return float(rate)


def qpm_penalty(order: int) -> float:
    """Rate penalty 4/(pi^2 order^2) for order-m quasi-phase matching."""
    if order % 1 != 0 or not 1 <= order <= _MAX_QPM_ORDER:
        raise ValueError(f"qpm order must be a positive integer up to 2**53, got {order!r}")
    return float(4.0 / (math.pi**2 * order**2))


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
