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


#: The maximally entangled probe (|00> + |11>)/sqrt(2) and its projector.
BELL_STATE = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
BELL_PROJECTOR = np.outer(BELL_STATE, BELL_STATE.conj())

#: Probe perturbation ladder; each Richardson pair removes the O(eps) term.
EPS_LADDER = (1e-4, 5e-5, 2.5e-5)


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


def eps_ladder_g(gen, times, phi) -> np.ndarray:
    """Divisibility defect g by the finite-eps trace-norm quotient: (N,).

    The test oracle for the program's projected Choi spectrum.  The
    quotients (||phi + eps C||_1 - 1)/eps, C = (L ox id)[phi] with the
    dissipative part of L, are taken down ``EPS_LADDER`` and
    Richardson-extrapolated to eps -> 0; consecutive extrapolants must agree
    to 1e-6 relative, and g is clamped at 0 (a value below -1e-7 is an
    error).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    phi = np.asarray(phi, dtype=complex)
    C = _extend_probe(gen.dissipative_batch(times), phi)
    eps = np.asarray(EPS_LADDER)
    M = phi[None, None, :, :] + eps[None, :, None, None] * C[:, None, :, :]
    q = (np.abs(np.linalg.eigvalsh(M)).sum(axis=-1) - 1.0) / eps
    r = (eps[:-1] * q[:, 1:] - eps[1:] * q[:, :-1]) / (eps[:-1] - eps[1:])
    g, defect = r[:, -1], np.abs(r[:, -1] - r[:, -2])
    assert np.all(defect <= 1e-6 * np.maximum(1.0, np.abs(g))), defect.max()
    assert np.all(g >= -1e-7), g.min()
    return np.clip(g, 0.0, None)


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
