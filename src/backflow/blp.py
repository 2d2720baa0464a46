"""Information-backflow non-Markovianity.

The trace distance D(rho1, rho2) = ||rho1 - rho2||_1 / 2 of an evolving state
pair can only shrink under divisible dynamics; intervals where its derivative
sigma = dD/dt is positive mark information flowing back into the system.  The
scalar measure is the largest accumulated backflow over initial state pairs:

    N = max over pairs of the integral of sigma over the sigma > 0 regions.

On a time grid that integral is evaluated exactly as the sum of rises of the
sampled distance, sum over k of max(D[k+1] - D[k], 0) (``backflow_of``).  It
keeps the kinks of D at zeros of the decay envelope, which a quadrature of a
finite-difference sigma would smooth away.

Pairs of 2x2 density matrices evolve through the same linear map, so their
Bloch-vector difference evolves through the 3x3 linear part R(t) of the
propagator and D(t) = ||R(t) delta(0)|| / 2.  The pair search exploits this:
one propagator integration per scenario, then every candidate pair costs a
few matrix-vector products.  D and the sum of its rises are 1-homogeneous in
delta, and |delta| <= 2, so every pair is dominated by the antipodal pure
pair (u, -u) along u = delta / |delta| (optimal qubit pairs are antipodal:
Wissmann et al., PRA 86, 062108 (2012)).  The search therefore runs over unit
directions only: a Fibonacci sphere grid, then Nelder-Mead refinement over
the two angles of the best grid directions.

Closed forms for sigma exist in the secular regime, the resonant nonsecular
reduction, and the undriven model.  As with the divisibility measure, the
default expressions are the ones that match the propagated dynamics;
literature_form=True switches to the variants as printed in the literature
(secular: Gamma and Lambda exchanged between coherence and population
sectors; resonant nonsecular: the bracket structure with the non-decaying
denominator term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_SUBSTEP,
    QubitState,
    Trajectory,
    bloch_linear_grid,
    propagator_grid,
    undriven_bloch_affine,
)
from .generator import GeneratorSpec
from .params import ModelParams, UndrivenParams
from .rates import (
    lorentzian_rate,
    nondriven_envelope,
    nondriven_envelope_derivative,
    rate_table,
)

DEFAULT_STEP = 1e-2


def trace_distance(rho1, rho2) -> float:
    """Half the trace norm of the difference; in [0, 1] for states.

    Accepts QubitState or plain 2x2 arrays.  For qubits this equals half the
    Euclidean distance of the Bloch vectors.
    """
    a = rho1.rho if isinstance(rho1, QubitState) else np.asarray(rho1)
    b = rho2.rho if isinstance(rho2, QubitState) else np.asarray(rho2)
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


@dataclass(frozen=True)
class StatePair:
    """An initial state pair and its Bloch-component differences."""

    rho1: QubitState
    rho2: QubitState

    @property
    def deltas(self) -> tuple[float, float, float]:
        d = self.rho1.bloch - self.rho2.bloch
        return (float(d[0]), float(d[1]), float(d[2]))


def sigma_numeric(traj1: Trajectory, traj2: Trajectory) -> np.ndarray:
    """dD/dt on the shared grid by finite differences.

    Central second-order differences in the interior, one-sided second-order
    at the endpoints.
    """
    if not np.array_equal(traj1.grid, traj2.grid):
        raise ValueError("trajectories must share the same grid")
    diff = traj1.rhos - traj2.rhos
    D = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return np.gradient(D, traj1.grid, edge_order=2)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _check_starts_at_zero(times: np.ndarray):
    if times[0] != 0.0:
        raise ValueError("sigma closed forms integrate rates from 0; grid must start there")


def sigma_secular_analytic(
    deltas, times, params: ModelParams, literature_form: bool = False
) -> np.ndarray:
    """Closed-form sigma of the secular regime on a grid starting at 0.

    The coherence and population decay exponents are accumulated from the
    rates by cumulative trapezoid quadrature.
    """
    dx, dy, dz = deltas
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_starts_at_zero(times)
    c = params.coeffs
    gammas, _ = rate_table(times, params.regime.s, params.regime.p, params.reservoir.alpha)
    gm, g0, gp = gammas
    coh_rate = 0.5 * (c.c_plus**2 * gp + c.c_minus**2 * gm + 4.0 * c.c_zero**2 * g0)
    pop_rate = c.c_plus**2 * gp + c.c_minus**2 * gm
    coh = _cumulative_trapezoid(coh_rate, times)
    pop = _cumulative_trapezoid(pop_rate, times)
    if literature_form:
        coh_rate, pop_rate = pop_rate, coh_rate
        coh, pop = pop, coh
    dxy2 = dx * dx + dy * dy
    dz2 = dz * dz
    num = -(np.exp(-2.0 * coh) * coh_rate * dxy2 + np.exp(-2.0 * pop) * pop_rate * dz2)
    den = 2.0 * np.sqrt(np.exp(-2.0 * coh) * dxy2 + np.exp(-2.0 * pop) * dz2)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


def sigma_resonant_nonsecular_analytic(
    deltas, times, params: ModelParams, literature_form: bool = False
) -> np.ndarray:
    """Closed-form sigma of the single-channel reduction at resonance (Delta = 0).

    The single decay channel damps toward the dressed x axis: rate gamma
    along x, gamma/2 transverse, and neither Hamiltonian piece moves the
    trace distance, which gives the default expression.  literature_form=True
    evaluates the expression as printed in the literature instead.
    """
    drive = params.drive
    if abs(drive.delta) > 1e-12 * max(1.0, drive.omega):
        raise ValueError(f"resonant closed form requires Delta = 0, got {drive.delta}")
    dx, dy, dz = deltas
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_starts_at_zero(times)
    gamma, _ = lorentzian_rate(times, params.regime.s, params.reservoir.alpha)
    E = np.exp(-_cumulative_trapezoid(gamma, times))
    if literature_form:
        br = (dx * dx - dz * dz) + 2.0 * dy * dy
        num = -gamma * E * E * br
        den = math.sqrt(2.0) * np.sqrt((dz * dz + dx * dx) + E * E * br)
    else:
        dyz2 = dy * dy + dz * dz
        num = -gamma * (2.0 * E * E * dx * dx + E * dyz2)
        den = 4.0 * np.sqrt(E * E * dx * dx + E * dyz2)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


def sigma_undriven_analytic(deltas, times, params: UndrivenParams) -> np.ndarray:
    """Closed-form sigma of the undriven model.

    The decay exponent integral is evaluated exactly through the envelope
    (e^-Gamma = G^2), which keeps the expression finite through rate poles;
    the isolated kink times where G = 0 return 0.
    """
    dx, dy, dz = deltas
    times = np.atleast_1d(np.asarray(times, dtype=float))
    G = np.atleast_1d(nondriven_envelope(times, params.alpha, params.lambda_width))
    Gp = np.atleast_1d(
        nondriven_envelope_derivative(times, params.alpha, params.lambda_width)
    )
    dxy2 = dx * dx + dy * dy
    dz2 = dz * dz
    # -gamma e^-2Gamma = 2 G' G^3 and -gamma e^-Gamma = 2 G' G, all pole-free
    num = 4.0 * Gp * G**3 * dz2 + 2.0 * Gp * G * dxy2
    den = 4.0 * np.abs(G) * np.sqrt(G * G * dz2 + dxy2)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


# ---------------------------------------------------------------------------
# pair search
# ---------------------------------------------------------------------------


#: Nelder-Mead iteration cap per refined direction.
NM_MAX_ITER = 200


@dataclass(frozen=True)
class SearchConfig:
    """Sizes of the two-stage direction search."""

    n_directions: int = 128
    n_refine: int = 3

    def __post_init__(self):
        if self.n_directions < 1 or self.n_refine < 0:
            raise ValueError(
                f"need n_directions >= 1 and n_refine >= 0, got {self.n_directions}, {self.n_refine}"
            )


@dataclass(frozen=True)
class BlpReport:
    """Backflow measure, the maximizing pair with its distance D, and the search record."""

    measure: float
    best_pair: StatePair
    best_deltas: tuple[float, float, float]
    stage1_values: np.ndarray
    n_evaluations: int
    grid: np.ndarray
    distance: np.ndarray
    config: SearchConfig


def fibonacci_sphere(n: int) -> np.ndarray:
    """n approximately uniform directions on the unit sphere."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def bloch_map_grid(spec: GeneratorSpec, grid, substep: float = DEFAULT_SUBSTEP) -> np.ndarray:
    """Linear Bloch-map parts R(t) on the grid for any regime: (N, 3, 3).

    The undriven regime uses the exact envelope map (valid through rate
    poles); driven regimes integrate the propagator.
    """
    if spec.regime == "undriven":
        lin, _ = undriven_bloch_affine(spec.params, grid)
        return lin
    return bloch_linear_grid(propagator_grid(spec, grid, substep=substep))


def pair_distance_series(linear_maps: np.ndarray, delta0) -> np.ndarray:
    """Trace distance D on the grid of the maps for one pair difference vector."""
    y = np.einsum("nij,j->ni", linear_maps, np.asarray(delta0, dtype=float))
    return 0.5 * np.linalg.norm(y, axis=1)


def backflow_of(D: np.ndarray) -> float:
    """Accumulated backflow of a sampled distance: sum of max(D[k+1] - D[k], 0).

    This is the exact integral of sigma over the sigma > 0 regions of the
    piecewise-linear interpolant of D on its grid.
    """
    return float(np.clip(np.diff(D), 0.0, None).sum())


def _direction(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def _angles(v: np.ndarray) -> tuple[float, float]:
    return math.acos(max(-1.0, min(1.0, v[2]))), math.atan2(v[1], v[0])


def blp_measure(
    spec: GeneratorSpec,
    T_max: float = 30.0,
    step: float = DEFAULT_STEP,
    config: SearchConfig = SearchConfig(),
    substep: float = DEFAULT_SUBSTEP,
) -> BlpReport:
    """Maximize the accumulated backflow over antipodal pure pairs (u, -u).

    Stage 1 scores the unit directions of a Fibonacci sphere grid; stage 2
    runs Nelder-Mead over the two angles of u from the best stage-1
    directions (ties broken by grid order).  The pair objective is the exact
    sum of rises of D on the grid (``backflow_of``).  The reported measure,
    pair and distance are those of the best direction evaluated along the
    way.
    """
    for name, value in (("T_max", T_max), ("step", step)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    n = max(1, int(round(T_max / step)))
    grid = np.linspace(0.0, T_max, n + 1)
    maps = bloch_map_grid(spec, grid, substep=substep)

    evaluations = 0
    best_value, best_u, best_D = -math.inf, None, None

    def objective(u: np.ndarray) -> float:
        nonlocal evaluations, best_value, best_u, best_D
        evaluations += 1
        D = pair_distance_series(maps, 2.0 * u)
        value = backflow_of(D)
        if value > best_value:
            best_value, best_u, best_D = value, u, D
        return value

    directions = fibonacci_sphere(config.n_directions)
    values = np.array([objective(u) for u in directions])
    # imported here: scipy is slow to import, and only this refine uses it
    from scipy.optimize import minimize

    for idx in np.argsort(-values, kind="stable")[: config.n_refine]:
        minimize(
            lambda x: -objective(_direction(*x)),
            _angles(directions[idx]),
            method="Nelder-Mead",
            options={"maxiter": NM_MAX_ITER, "xatol": 1e-4, "fatol": 1e-10},
        )

    pair = StatePair(
        rho1=QubitState.from_bloch(*best_u),
        rho2=QubitState.from_bloch(*-best_u),
    )
    return BlpReport(
        measure=best_value,
        best_pair=pair,
        best_deltas=pair.deltas,
        stage1_values=values,
        n_evaluations=evaluations,
        grid=grid,
        distance=best_D,
        config=config,
    )
