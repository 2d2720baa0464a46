"""Divisibility-based non-Markovianity.

The instantaneous divisibility defect g(T) is the eps -> 0 limit of the
trace-norm growth (||P + eps C||_1 - 1)/eps of the maximally entangled probe
P = |phi><phi|, |phi> = (|00> + |11>)/sqrt(2), under the extended generator,
C = (L(T) ox id)[P] (Rivas, Huelga, Plenio, PRL 105, 050403 (2010)).  The
limit has a closed form: with Q = 1 - P,

    g = 2 sum max(-mu, 0) over the eigenvalues mu of Q C Q,

so one batched 3x3 eigendecomposition per grid time gives g, with no
extrapolation.  g is nonnegative and is strictly positive exactly where the
generator momentarily fails to be completely positive.  Only the dissipative
part of L enters: the commutator part C_H of C has Q C_H Q = 0.  Eigenvalues
within a few ulps of the largest entry of C count as zero, so rounding never
reads as a defect where the generator is completely positive.

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

from dataclasses import dataclass

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

#: Default measure grid step in dimensionless time.
DEFAULT_STEP = 1e-2

#: Eigenvalues of the projected Choi block above -_ROUNDING * max|C| are
#: rounding, not divisibility defect: a few ulps of the largest entry.
_ROUNDING = 16.0 * np.finfo(float).eps


def negative_part(x):
    """P(x) = 0 for x >= 0 and -x for x < 0, elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0.0, -x, 0.0)
    return float(out) if out.ndim == 0 else out


def _as_generator(spec_or_gen) -> TimeGenerator:
    if isinstance(spec_or_gen, TimeGenerator):
        return spec_or_gen
    return compile_generator(spec_or_gen)


def g_numeric_grid(spec_or_gen, times) -> np.ndarray:
    """Divisibility defect g at each grid time (vectorized).

    g = 2 sum max(-mu, 0) over the eigenvalues mu of Q C Q, where
    C = (L ox id)[P] = sum_ij L(E_ij) ox E_ij / 2 and L(E_ij)[a, b] is
    L[2b + a, 2j + i] in the column-stacking convention.  Q C Q is taken in
    the basis ((|00> - |11>)/sqrt(2), |01>, |10>) of the range of Q; only
    its lower triangle is filled, which is all eigvalsh reads.
    """
    gen = _as_generator(spec_or_gen)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = times.size
    L = gen.dissipative_batch(times)
    c = 0.5 * L.reshape(n, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3).reshape(n, 4, 4)
    m = np.zeros((n, 3, 3), dtype=complex)
    m[:, 0, 0] = 0.5 * (c[:, 0, 0] - c[:, 0, 3] - c[:, 3, 0] + c[:, 3, 3])
    m[:, 1:, 0] = (c[:, 1:3, 0] - c[:, 1:3, 3]) / np.sqrt(2.0)
    m[:, 1:, 1:] = c[:, 1:3, 1:3]
    mu = np.linalg.eigvalsh(m)
    floor = _ROUNDING * np.abs(c).max(axis=(1, 2), initial=0.0)
    return 2.0 * np.where(mu < -floor[:, None], -mu, 0.0).sum(axis=-1)


def g_numeric(spec_or_gen, T: float) -> float:
    """Divisibility defect at a single time."""
    return float(g_numeric_grid(spec_or_gen, [T])[0])


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
        g_num = g_numeric_grid(spec, grid)
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
