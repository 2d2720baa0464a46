"""Model parameters for the laser-driven qubit in a structured reservoir.

The driven two-level system is described in its dressed basis, where the
effective Hamiltonian is (omega/2) sigma_z with omega = sqrt(Delta^2 + Omega^2),
Delta = omega_A - omega_L the laser detuning and Omega the Rabi frequency.
The dissipative channels carry the dimensionless weights

    C+ = (Delta + omega) / (2 omega),
    C- = (Delta - omega) / (2 omega),
    C0 = Omega / (2 omega),

which satisfy C+ - C- = 1, C+^2 + C-^2 + 2 C0^2 = 1 and C+ C- = -C0^2.

Two dimensionless numbers classify the dynamical regime of a Lorentzian
reservoir of half-width lambda_width centered at omega_0:

    s = (omega_0 - omega_L) / lambda_width     (reservoir detuning)
    p = omega / lambda_width                   (system vs memory time scale)

p >> 1 is the strong secular regime, p << 1 the nonsecular regime.  All
driven-qubit quantities are evaluated in the dimensionless time T =
lambda_width * t, so a single frequency unit (the user's choice) cancels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum


class Regime(Enum):
    """Three-way classification of the time-scale ratio p."""

    NONSECULAR = "nonsecular"
    INTERMEDIATE = "intermediate"
    SECULAR = "secular"


#: Default decade thresholds for :func:`classify_regime`.
DEFAULT_THRESHOLDS = (0.1, 10.0)

#: Validity margin for the weak-drive conditions Omega << omega_A, |Delta| << omega_A.
_VALIDITY_MARGIN = 0.1


def _require_finite(params):
    """Reject NaN and infinite fields, which pass every ordered comparison."""
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(params, f.name)}")


@dataclass(frozen=True)
class DriveParams:
    """Laser drive: qubit splitting, laser frequency and Rabi frequency.

    The detuning Delta = omega_A - omega_L and the dressed splitting
    omega = sqrt(Delta^2 + Omega^2) are always recomputed from the stored
    fields, so they can never go stale.
    """

    omega_A: float
    omega_L: float
    Omega: float

    def __post_init__(self):
        _require_finite(self)
        if self.Omega < 0:
            raise ValueError(f"Rabi frequency must be nonnegative, got {self.Omega}")

    @property
    def delta(self) -> float:
        return self.omega_A - self.omega_L

    @property
    def omega(self) -> float:
        return math.hypot(self.delta, self.Omega)


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian reservoir: coupling, half-width and center frequency."""

    alpha: float
    lambda_width: float
    omega_0: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.alpha <= 0:
            raise ValueError(f"coupling alpha must be positive, got {self.alpha}")
        if self.lambda_width <= 0:
            raise ValueError(
                f"Lorentzian width must be positive, got {self.lambda_width}"
            )


@dataclass(frozen=True)
class RegimeParams:
    """Dimensionless regime numbers s and p."""

    s: float
    p: float

    def __post_init__(self):
        _require_finite(self)
        if self.p < 0:
            raise ValueError(f"time-scale ratio p must be nonnegative, got {self.p}")


@dataclass(frozen=True)
class Coefficients:
    """Channel weights C+, C-, C0 of the dressed-basis master equation.

    C- is a signed real; it is negative whenever Omega > 0.  Dressed-state
    vectors are never constructed, so no roots of negative numbers arise.
    """

    c_plus: float
    c_minus: float
    c_zero: float

    def identity_defects(self) -> tuple[float, float, float]:
        """Residuals of the three coefficient identities (all should be ~0)."""
        return (
            self.c_plus - self.c_minus - 1.0,
            self.c_plus**2 + self.c_minus**2 + 2.0 * self.c_zero**2 - 1.0,
            self.c_plus * self.c_minus + self.c_zero**2,
        )


def derive(drive: DriveParams, reservoir: ReservoirParams) -> tuple[RegimeParams, Coefficients]:
    """Derive the regime numbers and channel weights from physical parameters.

    Raises ValueError for a degenerate drive (Delta = Omega = 0), where the
    dressed basis is undefined.
    """
    omega = drive.omega
    if omega == 0.0:
        raise ValueError(
            "degenerate drive: Delta = Omega = 0 leaves the dressed basis undefined"
        )
    s = (reservoir.omega_0 - drive.omega_L) / reservoir.lambda_width
    p = omega / reservoir.lambda_width
    delta = drive.delta
    coeffs = Coefficients(
        c_plus=(delta + omega) / (2.0 * omega),
        c_minus=(delta - omega) / (2.0 * omega),
        c_zero=drive.Omega / (2.0 * omega),
    )
    return RegimeParams(s=s, p=p), coeffs


def classify_regime(p: float, thresholds: tuple[float, float] = DEFAULT_THRESHOLDS) -> Regime:
    """Classify p into nonsecular (p <= p_lo), secular (p >= p_hi) or intermediate.

    The underlying theory only speaks of the asymptotic limits p << 1 and
    p >> 1; the default thresholds put one decade on either side of 1.
    """
    p_lo, p_hi = thresholds
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if not 0 < p_lo < p_hi:
        raise ValueError(f"thresholds must satisfy 0 < p_lo < p_hi, got {thresholds}")
    if p <= p_lo:
        return Regime.NONSECULAR
    if p >= p_hi:
        return Regime.SECULAR
    return Regime.INTERMEDIATE


@dataclass(frozen=True)
class ModelParams:
    """Full driven-model parameter bundle: physical inputs plus derived numbers.

    Use :meth:`from_physical` for a self-consistent bundle.  Direct
    construction (or :meth:`from_dimensionless`) is allowed for algebraic-limit
    studies, e.g. probing the generator at p = 0 with finite channel weights,
    which no physical drive realizes.
    """

    drive: DriveParams
    reservoir: ReservoirParams
    regime: RegimeParams
    coeffs: Coefficients

    @classmethod
    def from_physical(cls, drive: DriveParams, reservoir: ReservoirParams) -> "ModelParams":
        regime, coeffs = derive(drive, reservoir)
        if drive.omega_A > 0 and (
            drive.Omega > _VALIDITY_MARGIN * drive.omega_A
            or abs(drive.delta) > _VALIDITY_MARGIN * drive.omega_A
        ):
            warnings.warn(
                "drive outside the weak-drive validity window "
                f"(Omega={drive.Omega}, |Delta|={abs(drive.delta)} vs "
                f"omega_A={drive.omega_A}); results are reported unchanged",
                stacklevel=2,
            )
        return cls(drive=drive, reservoir=reservoir, regime=regime, coeffs=coeffs)

    @classmethod
    def from_dimensionless(
        cls,
        s: float,
        p: float,
        alpha: float,
        Delta: float = 0.0,
        Omega: float = 1.0,
        lambda_width: float = 1.0,
    ) -> "ModelParams":
        """Bundle built directly from (s, p, alpha) and a drive direction.

        (Delta, Omega) only fix the channel weights; p is stored as given and
        is not required to equal sqrt(Delta^2+Omega^2)/lambda_width.
        """
        drive = DriveParams(omega_A=Delta, omega_L=0.0, Omega=Omega)
        if drive.omega == 0.0:
            raise ValueError("drive direction (Delta, Omega) must not be degenerate")
        reservoir = ReservoirParams(
            alpha=alpha, lambda_width=lambda_width, omega_0=s * lambda_width
        )
        _, coeffs = derive(drive, reservoir)
        return cls(
            drive=drive,
            reservoir=reservoir,
            regime=RegimeParams(s=s, p=p),
            coeffs=coeffs,
        )


@dataclass(frozen=True)
class UndrivenParams:
    """Parameters of the undriven resonant qubit (bare basis, physical time).

    alpha carries units of rate here; the Markovian/non-Markovian boundary
    sits at lambda_width = 2 alpha.
    """

    alpha: float
    lambda_width: float

    def __post_init__(self):
        _require_finite(self)
        if self.alpha <= 0 or self.lambda_width <= 0:
            raise ValueError("alpha and lambda_width must be positive")
