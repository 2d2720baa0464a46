"""Independent reference values for the benchmark's correctness checks.

Nothing here calls the program's integrators, measures or closed forms.  The
closed forms are rederived from the rate formula with exact time integrals,
the undriven envelope is written out again, the propagator is a 4th-order
Magnus integrator with matrix exponentials (the program integrates with RK4),
and the divisibility defect is the projected Choi spectrum instead of the
program's epsilon quotients.  Only the generator L(t) itself is taken from
the program (``TimeGenerator.batch``), because it is the model being
measured, not a solver.

Conventions follow the program: superoperators act on column-stacked
vec(rho), Bloch vectors are (Tr rho sx, Tr rho sy, Tr rho sz), and driven
quantities use the dimensionless time T = lambda t.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)

#: Orthonormal basis (columns) of the complement of the Bell state
#: (|00> + |11>)/sqrt(2): (|00> - |11>)/sqrt(2), |01>, |10>.
_BELL_COMPLEMENT = np.array(
    [[2**-0.5, 0, 0], [0, 1, 0], [0, 0, 1], [-(2**-0.5), 0, 0]]
)


def sum_of_rises(series: np.ndarray) -> float:
    """Total increase of a sampled curve: sum of max(D[k+1] - D[k], 0)."""
    return float(np.clip(np.diff(series), 0.0, None).sum())


# ---------------------------------------------------------------------------
# closed forms of the driven model (resonant drive, Delta = 0)
# ---------------------------------------------------------------------------


def decay_exponent(T: np.ndarray, q: float, alpha: float) -> np.ndarray:
    """Exact integral over [0, T] of gamma(tau) = a (1 - e^-tau cos q tau + q e^-tau sin q tau).

    a = alpha^2 / (2 (1 + q^2)); the two damped-oscillation integrals are
    elementary, so no quadrature error enters the reference.
    """
    e, c, s = np.exp(-T), np.cos(q * T), np.sin(q * T)
    int_cos = (1.0 + e * (q * s - c)) / (1.0 + q * q)
    int_sin = (q - e * (s + q * c)) / (1.0 + q * q)
    return alpha**2 / (2.0 * (1.0 + q * q)) * (T - int_cos + q * int_sin)


def secular_distance(deltas, T, s: float, p: float, alpha: float) -> np.ndarray:
    """Trace distance D(T) of a pair under the secular generator at resonance.

    With channel weights C+ = 1/2, C- = -1/2, C0 = 1/2, the in-plane part of
    the Bloch difference rotates and decays with exponent
    (C+^2 G+ + C-^2 G- + 4 C0^2 G0)/2 and the z part with C+^2 G+ + C-^2 G-,
    where G_xi integrates the channel rate at q_xi = s - xi p.
    """
    dx, dy, dz = deltas
    g_plus = decay_exponent(T, s - p, alpha)
    g_minus = decay_exponent(T, s + p, alpha)
    g_zero = decay_exponent(T, s, alpha)
    coh = 0.5 * (0.25 * g_plus + 0.25 * g_minus + g_zero)
    pop = 0.25 * (g_plus + g_minus)
    return 0.5 * np.sqrt(np.exp(-2.0 * coh) * (dx * dx + dy * dy) + np.exp(-2.0 * pop) * dz * dz)


def resonant_nonsecular_distance(deltas, T, s: float, alpha: float) -> np.ndarray:
    """Trace distance D(T) under the single-channel p << 1 reduction at resonance.

    The x component of the difference decays as E = exp(-G) squared, y and
    z as E, with G the integrated common rate at q = s.  The drive rotation
    of order p is neglected, so this is a reference to a few 1e-4 relative.
    """
    dx, dy, dz = deltas
    E = np.exp(-decay_exponent(T, s, alpha))
    return 0.5 * np.sqrt(E * E * dx * dx + E * (dy * dy + dz * dz))


# ---------------------------------------------------------------------------
# undriven model
# ---------------------------------------------------------------------------


def envelope(t: np.ndarray, alpha: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Decay envelope G(t) and its derivative for the undriven qubit.

    G = e^{-lam t/2} [cosh(d t/2) + (lam/d) sinh(d t/2)] with
    d = sqrt(lam^2 - 2 alpha lam), continued to imaginary d below the
    boundary lam = 2 alpha; G' = -(alpha lam / d) e^{-lam t/2} sinh(d t/2).
    """
    d = np.sqrt(complex(lam * lam - 2.0 * alpha * lam))
    damp = np.exp(-0.5 * lam * t)
    if d == 0:
        return damp * (1.0 + 0.5 * lam * t), -damp * lam * lam * t / 4.0
    sh, ch = np.sinh(0.5 * d * t), np.cosh(0.5 * d * t)
    G = np.real(damp * (ch + (lam / d) * sh))
    Gp = np.real(-(alpha * lam / d) * damp * sh)
    return G, Gp


def undriven_measures(alpha: float, lam: float, tmax: float, step: float) -> tuple[float, float]:
    """(N_RHP, N_BLP) of the undriven qubit on the measure grid of the CLI.

    The grid has round(tmax/step) intervals over [0, tmax/lam] in physical
    time.  N_RHP integrates g = max(2 G'/G, 0) by the trapezoid rule; N_BLP
    is the backflow of the antipodal equatorial pair, D = |G|, summed exactly
    over its rises on the grid.
    """
    n = max(1, int(round(tmax / step)))
    t = np.linspace(0.0, tmax / lam, n + 1)
    G, Gp = envelope(t, alpha, lam)
    g = np.clip(2.0 * Gp / G, 0.0, None)
    integral = float(np.trapezoid(g, t))
    return integral / (integral + 1.0), sum_of_rises(np.abs(G))


# ---------------------------------------------------------------------------
# numerical references built on the program's generator
# ---------------------------------------------------------------------------


def magnus_propagators(generator, grid: np.ndarray) -> np.ndarray:
    """Phi(t_k, 0) at every grid point by 4th-order Magnus steps: (N, 4, 4).

    Each grid interval is one step with the two Gauss points
    c = 1/2 -+ sqrt(3)/6:  Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1].
    At the benchmark's step of 0.01 this is accurate to about 1e-9.
    """
    h = np.diff(grid)
    a = grid[:-1]
    r3 = np.sqrt(3.0)
    A1 = generator.batch(a + (0.5 - r3 / 6.0) * h)
    A2 = generator.batch(a + (0.5 + r3 / 6.0) * h)
    omega = (0.5 * h)[:, None, None] * (A1 + A2) + (r3 / 12.0 * h * h)[:, None, None] * (
        A2 @ A1 - A1 @ A2
    )
    steps = expm(omega)
    out = np.empty((grid.size, 4, 4), dtype=complex)
    out[0] = np.eye(4)
    for k, step in enumerate(steps):
        out[k + 1] = step @ out[k]
    return out


def _vec(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], 4)


def _unvec(v: np.ndarray) -> np.ndarray:
    return np.swapaxes(v.reshape(*v.shape[:-1], 2, 2), -1, -2)


def bloch_linear(props: np.ndarray) -> np.ndarray:
    """Linear Bloch-map parts R_ij(t) = Tr(s_i Phi(t)[s_j]) / 2: (N, 3, 3)."""
    images = _unvec(np.einsum("nab,jb->nja", props, _vec(_PAULI)))
    return 0.5 * np.real(np.einsum("iab,njba->nij", _PAULI, images))


def trajectory(props: np.ndarray, bloch0) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors (N, 3) and minimum eigenvalues (N,) of Phi(t_k) rho0."""
    x, y, z = bloch0
    rho0 = 0.5 * (np.eye(2) + x * _PAULI[0] + y * _PAULI[1] + z * _PAULI[2])
    rhos = _unvec(props @ _vec(rho0))
    rhos = 0.5 * (rhos + np.conj(np.swapaxes(rhos, -1, -2)))
    bloch = np.real(np.einsum("kab,nba->nk", _PAULI, rhos))
    return bloch, np.linalg.eigvalsh(rhos)[:, 0]


def projected_defect(dissipators: np.ndarray) -> np.ndarray:
    """Divisibility defect g from the spectrum of Q (L x id)[P] Q: (N,).

    P is the Bell projector and Q = 1 - P; g = 2 sum max(-mu, 0) over the
    eigenvalues mu, taken on the 3-dim range of Q.  This is the eps -> 0
    limit of the trace-norm quotient the program extrapolates (Rivas,
    Huelga, Plenio, PRL 105, 050403).  With column stacking,
    (L x id)[P] = sum_ij L(E_ij) x E_ij / 2 and L(E_ij)[a, b] is
    L[2b + a, 2j + i].
    """
    n = dissipators.shape[0]
    choi = 0.5 * dissipators.reshape(n, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3).reshape(n, 4, 4)
    mu = np.linalg.eigvalsh(_BELL_COMPLEMENT.T @ choi @ _BELL_COMPLEMENT)
    return 2.0 * np.clip(-mu, 0.0, None).sum(axis=-1)
