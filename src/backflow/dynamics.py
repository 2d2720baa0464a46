"""Finite-time propagators of d(rho)/dt = L(t) rho, and trajectories from them.

One integrator: 4th-order Magnus (Blanes, Casas, Oteo, Ros, Phys. Rep. 470,
151 (2009)).  Each interval of the output grid is split into equal steps of
at most ``substep``, so the integrator lands exactly on every grid point.  A
step of size h from t evaluates L at the two Gauss points
t + (1/2 -+ sqrt(3)/6) h and advances by exp(Omega) with

    Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1].

Omega is a combination of generators and their commutators, so every step
preserves trace and Hermiticity to rounding.  The step exponentials are
taken as one batch: a degree-14 Taylor polynomial after scaling by 2^-k to a
largest 1-norm theta <= 1/2, then k squarings (Bader, Blanes, Casas,
Mathematics 7, 1174 (2019)); the remainder bound theta^15 / 15! is at most
2.3e-17.  Trajectories are the propagators applied to the initial state,
Phi(t_k, 0) vec(rho0); the test suite keeps classical RK4 as an independent
oracle for both.

For the undriven model with lambda_width < 2 alpha, the decay rate has poles
inside the time axis; the propagator cannot step across them, so grids
crossing the first pole are rejected.  The exact envelope map (see
:func:`undriven_bloch_affine`) remains smooth through the poles and is what
the measure modules use there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import (
    GeneratorSpec,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    I2,
    compile_generator,
    vec,
)
from .params import UndrivenParams
from .rates import PoleError, nondriven_envelope, nondriven_first_pole

#: Default largest Magnus step, in the time unit of the chosen regime; equal
#: to the default output grid step, so each grid interval is one step.
DEFAULT_SUBSTEP = 1e-2

#: Default integration horizon for the driven model (rates are within
#: e^-30 of their asymptotes there, so measure integrals have converged).
DEFAULT_T_MAX = 30.0

_PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

#: Two-point Gauss-Legendre nodes on [0, 1].
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)

#: Taylor degree of the step exponential (see the module docstring).
_EXP_DEGREE = 14


class IntegrationError(RuntimeError):
    """Integration produced a state outside tolerance."""


@dataclass(frozen=True, eq=False)
class QubitState:
    """2x2 density matrix with a Bloch-vector view.

    Validates Hermiticity and unit trace to 1e-10, positivity to -1e-8.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(rho.trace() - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace is {rho.trace():.12g}, not 1")
        if np.linalg.eigvalsh(rho).min() < -1e-8:
            raise ValueError("density matrix has a negative eigenvalue")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "QubitState":
        r2 = x * x + y * y + z * z
        if r2 > 1.0 + 1e-8:
            raise ValueError(f"Bloch vector has norm {np.sqrt(r2):.6g} > 1")
        return cls(0.5 * (I2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z))

    @classmethod
    def excited(cls) -> "QubitState":
        return cls.from_bloch(0.0, 0.0, 1.0)

    @classmethod
    def ground(cls) -> "QubitState":
        return cls.from_bloch(0.0, 0.0, -1.0)

    @property
    def bloch(self) -> np.ndarray:
        return np.real(np.einsum("kab,ba->k", _PAULI, self.rho))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on an increasing time grid; the first state is rho0 exactly."""

    grid: np.ndarray
    rhos: np.ndarray  # (N, 2, 2)
    spec: GeneratorSpec | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError("grid must be a nonempty 1-d array")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rhos", np.asarray(self.rhos, dtype=complex))

    def __len__(self) -> int:
        return self.grid.size

    @property
    def bloch(self) -> np.ndarray:
        return np.real(np.einsum("kab,nba->nk", _PAULI, self.rhos))

    def state(self, i: int) -> QubitState:
        return QubitState(self.rhos[i])


def _check_pole_free(spec: GeneratorSpec, t_end: float):
    if spec.regime != "undriven":
        return
    pole = nondriven_first_pole(spec.params.alpha, spec.params.lambda_width)
    if pole is not None and t_end >= pole:
        raise PoleError(
            f"grid extends to t={t_end:.6g}, past the first rate pole at "
            f"t={pole:.6g}; stop the grid before it or use the closed-form "
            "undriven map"
        )


def evolve(
    rho0: QubitState,
    spec: GeneratorSpec,
    grid,
    substep: float = DEFAULT_SUBSTEP,
    renormalize: bool = True,
) -> Trajectory:
    """States Phi(t_k, 0) rho0 on the grid, from :func:`propagator_grid`.

    Emitted states are re-symmetrized and trace-renormalized (set
    renormalize=False to observe the raw propagator drift).  A negative
    eigenvalue beyond 1e-6 aborts with the first offending time.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ValueError("trajectory grid must start at 0")
    props = propagator_grid(spec, grid, substep=substep)
    rhos = (props @ vec(rho0.rho)).reshape(-1, 2, 2).transpose(0, 2, 1)
    rhos = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
    low = np.linalg.eigvalsh(rhos)[:, 0]
    bad = np.flatnonzero(low < -1e-6)
    if bad.size:
        k = bad[0]
        raise IntegrationError(
            f"positivity violated at t={grid[k]:.6g}: min eigenvalue {low[k]:.3e}"
        )
    if renormalize:
        rhos /= np.real(np.einsum("naa->n", rhos))[:, None, None]
    rhos[0] = rho0.rho
    return Trajectory(grid=grid, rhos=rhos, spec=spec)


def _expm_batch(A: np.ndarray) -> np.ndarray:
    """exp of each matrix in a stack: scale by 2^-k to 1-norm <= 1/2, Taylor, square k times."""
    k = int(np.ceil(np.log2(max(2.0 * np.abs(A).sum(axis=-2).max(initial=0.0), 1.0))))
    A = A / 2.0**k
    eye = np.eye(A.shape[-1])
    E = eye + A / _EXP_DEGREE
    for j in range(_EXP_DEGREE - 1, 0, -1):
        E = eye + (A @ E) / j
    for _ in range(k):
        E = E @ E
    return E


def propagator_grid(spec: GeneratorSpec, grid, substep: float = DEFAULT_SUBSTEP) -> np.ndarray:
    """Propagators Phi(t_k, grid[0]) at every grid point: (N, 4, 4).

    Each grid interval of length d is split into ceil(d / substep) equal
    4th-order Magnus steps; the step exponentials are taken in one batch and
    multiplied up in sequence.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1 or np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("grid must be increasing and start at t >= 0")
    if not (np.isfinite(substep) and substep > 0):
        raise ValueError(f"substep must be finite and positive, got {substep}")
    _check_pole_free(spec, grid[-1])

    out = np.empty((grid.size, 4, 4), dtype=complex)
    out[0] = np.eye(4)
    if grid.size == 1:
        return out

    d = np.diff(grid)
    counts = np.maximum(np.ceil(d / substep - 1e-9), 1).astype(int)
    ends = np.cumsum(counts)
    h = np.repeat(d / counts, counts)
    within = np.arange(h.size) - np.repeat(ends - counts, counts)
    starts = np.repeat(grid[:-1], counts) + within * h

    gen = compile_generator(spec)
    A1 = gen.batch(starts + _GAUSS_NODES[0] * h)
    A2 = gen.batch(starts + _GAUSS_NODES[1] * h)
    h = h[:, None, None]
    steps = _expm_batch(0.5 * h * (A1 + A2) + (np.sqrt(3.0) / 12.0) * h * h * (A2 @ A1 - A1 @ A2))
    for j in range(1, len(steps)):
        steps[j] = steps[j] @ steps[j - 1]
    out[1:] = steps[ends - 1]
    return out


def propagator(spec: GeneratorSpec, t0: float, t1: float, substep: float = DEFAULT_SUBSTEP) -> np.ndarray:
    """Single propagator Phi(t1, t0) as a 4x4 superoperator matrix."""
    if not 0 <= t0 <= t1:
        raise ValueError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
    if t0 == t1:
        return np.eye(4, dtype=complex)
    return propagator_grid(spec, np.array([t0, t1]), substep=substep)[1]


def bloch_linear_grid(props: np.ndarray) -> np.ndarray:
    """Linear Bloch-map parts R(t) of propagators: (N, 3, 3), real.

    Differences of Bloch vectors evolve as delta(t) = R(t) delta(0); the
    affine offset cancels for state pairs.
    """
    props = np.asarray(props)
    images = np.einsum("nab,kb->nka", props, np.stack([vec(s) for s in _PAULI]))
    mats = images.reshape(props.shape[0], 3, 2, 2).transpose(0, 1, 3, 2)
    return 0.5 * np.real(np.einsum("iab,njba->nij", _PAULI, mats))


def undriven_bloch_affine(params: UndrivenParams, grid) -> tuple[np.ndarray, np.ndarray]:
    """Exact Bloch map of the undriven model: linear parts (N,3,3) and offsets (N,3).

    Coherences scale by the envelope G(t), the population by E = G^2 with
    fixed point at the ground state: r(t) = diag(G, G, E) r(0) + (0, 0, E - 1).
    Smooth through the rate poles, so it works on any grid.
    """
    grid = np.asarray(grid, dtype=float)
    G = np.atleast_1d(nondriven_envelope(grid, params.alpha, params.lambda_width))
    E = G * G
    lin = np.zeros((grid.size, 3, 3))
    lin[:, 0, 0] = G
    lin[:, 1, 1] = G
    lin[:, 2, 2] = E
    off = np.zeros((grid.size, 3))
    off[:, 2] = E - 1.0
    return lin, off


def undriven_trajectory(rho0: QubitState, params: UndrivenParams, grid) -> Trajectory:
    """Exact trajectory of the undriven model via the envelope map."""
    grid = np.asarray(grid, dtype=float)
    lin, off = undriven_bloch_affine(params, grid)
    r = np.einsum("nij,j->ni", lin, rho0.bloch) + off
    rhos = 0.5 * (
        np.broadcast_to(I2, (grid.size, 2, 2))
        + np.einsum("nk,kab->nab", r, _PAULI)
    )
    rhos = np.array(rhos)
    rhos[0] = rho0.rho
    return Trajectory(grid=grid, rhos=rhos, spec=GeneratorSpec("undriven", params))
