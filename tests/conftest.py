import dataclasses

import numpy as np
import pytest

from backflow.generator import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, compile_generator, vec

#: Orthonormal Pauli basis of the column-stacked space: columns vec(sigma_k) / sqrt(2).
PAULI_BASIS = np.stack([vec(s) for s in (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)], axis=1) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_density(rng) -> np.ndarray:
    """Random full-rank 2x2 density matrix."""
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = X @ X.conj().T
    return rho / rho.trace()


def random_bloch(rng, pure: bool = False) -> np.ndarray:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if pure:
        return v
    return v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)


def apply_propagators(props: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """States Phi_k[rho] for a stack of column-stacked superoperators: (N, 2, 2)."""
    return (props @ np.asarray(rho).T.reshape(-1)).reshape(-1, 2, 2).transpose(0, 2, 1)


def _integration_plan(grid: np.ndarray, substep: float):
    """Substep start times, sizes, and the substep index ending each grid point."""
    if substep <= 0:
        raise ValueError("substep must be positive")
    starts, sizes, grid_marks = [], [], []
    for k in range(grid.size - 1):
        t0, t1 = grid[k], grid[k + 1]
        d = t1 - t0
        n_full = int(np.floor(d / substep + 1e-12))
        rem = d - n_full * substep
        steps = [substep] * n_full
        if rem > 1e-12 * max(substep, d):
            steps.append(rem)
        elif n_full == 0:
            steps.append(d)
        acc = t0
        for hstep in steps:
            starts.append(acc)
            sizes.append(hstep)
            acc += hstep
        grid_marks.append(len(starts))
    return np.asarray(starts), np.asarray(sizes), grid_marks


def _pauli_generator(spec):
    """The spec's compiled generator with its matrices in the Pauli basis, where they are real."""
    gen = compile_generator(spec)

    def real(X):
        Y = PAULI_BASIS.conj().T @ X @ PAULI_BASIS
        assert np.abs(Y.imag).max(initial=0.0) < 1e-14
        return np.ascontiguousarray(Y.real)

    return dataclasses.replace(gen, static_ham=real(gen.static_ham),
                               ham_basis=real(gen.ham_basis), diss_basis=real(gen.diss_basis))


def rk4_propagators(spec, grid, substep: float, chunk: int = 20000) -> np.ndarray:
    """Propagators Phi(t_k, grid[0]) of one spec by classical RK4: (N, 4, 4)."""
    return rk4_propagators_stacked([spec], grid, substep, chunk)[:, 0]


def rk4_propagators_stacked(specs, grid, substep: float, chunk: int = 20000) -> np.ndarray:
    """Propagators Phi(t_k, grid[0]) of several specs by classical RK4: (N, S, 4, 4).

    The test oracle for the program's Magnus propagator: each grid interval
    is covered by full substeps of size ``substep`` plus one shortened final
    substep, the one-step RK4 matrices are built in batches of ``chunk``
    substeps (bounded memory at small substeps) and multiplied up in
    sequence, one stacked (S, 4, 4) product per substep for all specs.  The
    steps are taken in the Pauli basis, where every generator is a real
    matrix, and the propagators are returned in the column-stacked basis.
    """
    grid = np.asarray(grid, dtype=float)
    starts, sizes, marks = _integration_plan(grid, substep)
    gens = [_pauli_generator(spec) for spec in specs]
    out = np.empty((grid.size, len(gens), 4, 4))
    out[0] = np.eye(4)
    M = out[0]
    k = 0
    for lo in range(0, starts.size, chunk):
        a, h = starts[lo : lo + chunk], sizes[lo : lo + chunk]
        L_start, L_mid, L_end = (
            np.stack([gen.batch(t) for gen in gens], axis=1) for t in (a, a + h / 2.0, a + h)
        )
        eye = np.eye(4)
        h = h[:, None, None, None]
        K1 = L_start
        K2 = L_mid @ (eye + 0.5 * h * K1)
        K3 = L_mid @ (eye + 0.5 * h * K2)
        K4 = L_end @ (eye + h * K3)
        steps = eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        for j, step in enumerate(steps, start=lo + 1):
            M = step @ M
            if j == marks[k]:
                k += 1
                out[k] = M
    return PAULI_BASIS @ out @ PAULI_BASIS.conj().T
