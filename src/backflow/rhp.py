"""Divisibility-based non-Markovianity.

The instantaneous divisibility defect g(T) is measured by pushing the
maximally entangled probe |phi> = (|00> + |11>)/sqrt(2) through the extended
map I + eps (L(T) ox id): build the Hermitian 4x4 matrix

    M(eps) = |phi><phi| + eps (L(T) ox id)[|phi><phi|],

take its trace norm (sum of |eigenvalues|), and Richardson-extrapolate the
difference quotient (||M(eps)||_1 - 1)/eps down the epsilon ladder.  The
result is nonnegative (clamped; a pre-clamp value below -1e-7 is an error)
and is strictly positive exactly where the generator momentarily fails to be
completely positive.  Only the dissipative part of L enters the probe: the
commutator part contributes exactly zero to the limit but would pollute the
finite-eps quotient with O(eps ||H||^2) curvature.

The scalar measure is N = I / (I + 1) with I the time integral of g
(trapezoid on the grid), so N = 0 for divisible dynamics and N -> 1 when the
divisibility violation diverges.

Closed forms exist in the secular regime, the single-channel nonsecular
reduction, and the undriven model; all are combinations of the negative
parts P(x) = max(-x, 0) of the decay rates.  Their default normalization is
the one that matches the probe construction above (the literature expressions
carry a global 1/2 that does not; pass literature_form=True for those, which also
uses the uncorrected 2*C0 weight in the nonsecular form).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import GeneratorSpec, TimeGenerator, compile_generator
from .params import Coefficients
from .rates import (
    QTriple,
    RateSample,
    nondriven_envelope,
    nondriven_envelope_derivative,
    rate_table,
)

#: Probe perturbation ladder; each Richardson pair removes the O(eps) term.
DEFAULT_EPSILONS = (1e-4, 5e-5, 2.5e-5)

#: Default measure grid step in dimensionless time.
DEFAULT_STEP = 1e-2

BELL_STATE = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


class ExtrapolationError(ArithmeticError):
    """The epsilon-ladder estimates did not converge."""


def _bell_projector() -> np.ndarray:
    return np.outer(BELL_STATE, BELL_STATE.conj())


@dataclass(frozen=True)
class ChoiProbe:
    """Entangled probe state and the epsilon ladder for the derivative limit."""

    phi: np.ndarray = field(default_factory=_bell_projector)
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        if phi.shape != (4, 4):
            raise ValueError("probe must be a 4x4 matrix")
        if np.abs(phi @ phi - phi).max() > 1e-12 or abs(phi.trace() - 1.0) > 1e-12:
            raise ValueError("probe must be a rank-one projector with unit trace")
        if len(self.epsilons) < 3 or any(
            e2 >= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])
        ) or self.epsilons[-1] <= 0:
            raise ValueError(
                "epsilon ladder must be positive, decreasing, and long enough "
                "for two extrapolants (>= 3 entries)"
            )
        object.__setattr__(self, "phi", phi)


def negative_part(x):
    """P(x) = 0 for x >= 0 and -x for x < 0, elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0.0, -x, 0.0)
    return float(out) if out.ndim == 0 else out


def _extend_probe(L_batch: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(L ox id)[phi] for a batch of superoperators: (N, 4, 4).

    phi is expanded over first-factor matrix units, phi = sum E_rj ox B_rj;
    L acts on the matrix units, whose images are columns of the superoperator
    matrix (column-stacking index 2j + r).
    """
    N = L_batch.shape[0]
    out = np.zeros((N, 4, 4), dtype=complex)
    for r in range(2):
        for j in range(2):
            LE = L_batch[:, :, 2 * j + r].reshape(N, 2, 2).transpose(0, 2, 1)
            B = phi[2 * r : 2 * r + 2, 2 * j : 2 * j + 2]
            out += np.einsum("nab,cd->nacbd", LE, B).reshape(N, 4, 4)
    return out


def _quotients(C_batch: np.ndarray, probe: ChoiProbe) -> np.ndarray:
    """Difference quotients (||phi + eps C||_1 - 1)/eps: (N, n_eps)."""
    eps = np.asarray(probe.epsilons)
    M = probe.phi[None, None, :, :] + eps[None, :, None, None] * C_batch[:, None, :, :]
    eig = np.linalg.eigvalsh(M)
    tn = np.abs(eig).sum(axis=-1)
    return (tn - 1.0) / eps[None, :]


def _richardson(q: np.ndarray, epsilons) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive first-order extrapolants; returns (last, |last - previous|)."""
    eps = np.asarray(epsilons)
    r = (eps[:-1] * q[:, 1:] - eps[1:] * q[:, :-1]) / (eps[:-1] - eps[1:])
    return r[:, -1], np.abs(r[:, -1] - r[:, -2])


def _as_generator(spec_or_gen) -> TimeGenerator:
    if isinstance(spec_or_gen, TimeGenerator):
        return spec_or_gen
    return compile_generator(spec_or_gen)


def g_numeric_grid(spec_or_gen, times, probe: ChoiProbe | None = None) -> np.ndarray:
    """Divisibility defect g at each grid time (vectorized)."""
    probe = probe or ChoiProbe()
    gen = _as_generator(spec_or_gen)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    C = _extend_probe(gen.dissipative_batch(times), probe.phi)
    q = _quotients(C, probe)
    g, defect = _richardson(q, probe.epsilons)
    tol = 1e-6 * np.maximum(1.0, np.abs(g))
    if np.any(defect > tol):
        worst = int(np.argmax(defect - tol))
        raise ExtrapolationError(
            f"epsilon-ladder estimates differ by {defect[worst]:.3e} at "
            f"T={times[worst]:.6g}"
        )
    if np.any(g < -1e-7):
        worst = float(g.min())
        raise ExtrapolationError(f"g extrapolated to {worst:.3e} < -1e-7")
    return np.clip(g, 0.0, None)


def g_numeric(spec_or_gen, T: float, probe: ChoiProbe | None = None) -> float:
    """Divisibility defect at a single time."""
    return float(g_numeric_grid(spec_or_gen, [T], probe)[0])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def g_secular_analytic(sample: RateSample, coeffs: Coefficients, literature_form: bool = False) -> float:
    """Secular-regime g from one rate sample."""
    c = coeffs
    val = (
        c.c_plus**2 * negative_part(sample.gamma_plus)
        + c.c_minus**2 * negative_part(sample.gamma_minus)
        + 2.0 * c.c_zero**2 * negative_part(sample.gamma_zero)
    )
    return 0.5 * val if literature_form else val


def g_nonsecular_analytic(gamma, coeffs: Coefficients, literature_form: bool = False):
    """Single-channel nonsecular g from the common rate, elementwise."""
    c = coeffs
    if literature_form:
        return (c.c_plus**2 + c.c_minus**2 + 2.0 * c.c_zero) * negative_part(gamma) / 2.0
    # with the squared weight the prefactor collapses to 1 exactly
    return (c.c_plus**2 + c.c_minus**2 + 2.0 * c.c_zero**2) * negative_part(gamma)


def g_undriven_analytic(gamma, literature_form: bool = False):
    """Undriven-model g from the bare decay rate."""
    val = negative_part(gamma)
    return 0.5 * val if literature_form else val


def g_analytic_grid(spec: GeneratorSpec, times, literature_form: bool = False):
    """Closed-form g on a grid, or None when the regime has no closed form."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if spec.regime == "secular":
        params = spec.params
        gammas, _ = rate_table(times, params.regime.s, params.regime.p, params.reservoir.alpha)
        c = params.coeffs
        val = (
            c.c_plus**2 * negative_part(gammas[2])
            + c.c_minus**2 * negative_part(gammas[0])
            + 2.0 * c.c_zero**2 * negative_part(gammas[1])
        )
        return 0.5 * val if literature_form else val
    if spec.regime == "simplified_nonsecular":
        params = spec.params
        gammas, _ = rate_table(times, params.regime.s, 0.0, params.reservoir.alpha)
        return g_nonsecular_analytic(gammas[1], params.coeffs, literature_form)
    if spec.regime == "undriven":
        u = spec.params
        G = np.atleast_1d(nondriven_envelope(times, u.alpha, u.lambda_width))
        Gp = np.atleast_1d(nondriven_envelope_derivative(times, u.alpha, u.lambda_width))
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = -2.0 * Gp / G
        if not np.all(np.isfinite(gamma)):
            raise ZeroDivisionError(
                "grid point falls exactly on a rate pole; shift the grid"
            )
        return g_undriven_analytic(gamma, literature_form)
    return None


@dataclass(frozen=True)
class RhpReport:
    """Divisibility measure on a grid, with whichever g series were computed.

    ``integral`` and ``measure`` come from the analytic series when present,
    otherwise from the numeric one.  ``tail_bound`` estimates the neglected
    integral beyond the grid (None when no closed bound applies).
    """

    grid: np.ndarray
    integral: float
    measure: float
    method: str
    g_numeric: np.ndarray | None = None
    g_analytic: np.ndarray | None = None
    cross_error: float | None = None
    tail_bound: float | None = None


def _tail_bound(spec: GeneratorSpec, T_max: float) -> float | None:
    if spec.regime == "undriven":
        u = spec.params
        return 0.0 if u.lambda_width >= 2.0 * u.alpha else None
    if spec.regime == "full_nonsecular":
        return None
    params = spec.params
    alpha = params.reservoir.alpha
    c = params.coeffs
    if spec.regime == "secular":
        q = QTriple.from_regime(params.regime.s, params.regime.p)
        channels = [
            (c.c_plus**2, q.q_plus),
            (c.c_minus**2, q.q_minus),
            (2.0 * c.c_zero**2, q.q_zero),
        ]
    else:
        channels = [(1.0, params.regime.s)]
    q_max = max(abs(qx) for _, qx in channels)
    if T_max >= np.log(np.sqrt(1.0 + q_max**2)):
        return 0.0
    return float(
        sum(
            w * alpha**2 * np.sqrt(1.0 + qx**2) / (2.0 * (1.0 + qx**2))
            for w, qx in channels
        )
        * np.exp(-T_max)
    )


def rhp_measure(
    spec: GeneratorSpec,
    T_max: float = 30.0,
    step: float = DEFAULT_STEP,
    method: str = "auto",
    probe: ChoiProbe | None = None,
    literature_form: bool = False,
) -> RhpReport:
    """Integrate g over [0, T_max] and form N = I / (I + 1).

    method is 'numeric', 'analytic', 'both', or 'auto' (analytic when the
    regime has a closed form, else numeric).
    """
    for name, value in (("T_max", T_max), ("step", step)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    n = max(1, int(round(T_max / step)))
    grid = np.linspace(0.0, T_max, n + 1)

    if method not in ("numeric", "analytic", "both", "auto"):
        raise ValueError(f"unknown method {method!r}")
    has_closed = spec.regime != "full_nonsecular"
    if method == "auto":
        method = "analytic" if has_closed else "numeric"
    if method in ("analytic", "both") and not has_closed:
        raise ValueError(f"regime {spec.regime!r} has no closed-form g")

    g_num = g_ana = None
    if method in ("numeric", "both"):
        g_num = g_numeric_grid(spec, grid, probe)
    if method in ("analytic", "both"):
        g_ana = g_analytic_grid(spec, grid, literature_form)

    series = g_ana if g_ana is not None else g_num
    integral = float(np.trapezoid(series, grid))
    cross = None
    if g_num is not None and g_ana is not None:
        cross = float(np.abs(g_num - g_ana).max())
    tag = method if method == "numeric" else f"{spec.regime.replace('_', '-')}-analytic"
    if method == "both":
        tag = "both:" + tag
    return RhpReport(
        grid=grid,
        integral=integral,
        measure=integral / (integral + 1.0),
        method=tag,
        g_numeric=g_num,
        g_analytic=g_ana,
        cross_error=cross,
        tail_bound=_tail_bound(spec, T_max),
    )
