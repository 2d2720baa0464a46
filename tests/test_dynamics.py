import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backflow.dynamics import (
    IntegrationError,
    _expm_batch,
    QubitState,
    Trajectory,
    bloch_linear_grid,
    evolve,
    propagator,
    propagator_grid,
    undriven_trajectory,
)
from backflow.generator import GeneratorSpec, compile_generator, unvec, vec
from backflow.params import ModelParams, UndrivenParams
from backflow.rates import PoleError

from conftest import (
    apply_propagators,
    random_bloch,
    random_density,
    rk4_propagators,
    rk4_propagators_stacked,
)

#: (regime, p) of the benchmark-horizon cases, checked against one shared RK4 run.
HORIZON_CASES = [("secular", 30.0), ("full_nonsecular", 9.5), ("simplified_nonsecular", 0.09)]
HORIZON_GRID = np.linspace(0.0, 30.0, 3001)


def horizon_spec(regime, p):
    return GeneratorSpec(regime, ModelParams.from_dimensionless(s=6.0, p=p, alpha=1.0))


@pytest.fixture(scope="session")
def horizon_rk4():
    """RK4 at h = 1e-4 on [0, 30] for every horizon case, stepped together."""
    props = rk4_propagators_stacked(
        [horizon_spec(*case) for case in HORIZON_CASES], HORIZON_GRID, substep=1e-4
    )
    return dict(zip(HORIZON_CASES, props.transpose(1, 0, 2, 3)))


@pytest.fixture(scope="module")
def secular_spec():
    return GeneratorSpec(
        "secular", ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
    )


@pytest.fixture(scope="module")
def weak_undriven_spec():
    return GeneratorSpec("undriven", UndrivenParams(alpha=0.1, lambda_width=1.0))


class TestQubitState:
    def test_bloch_round_trip(self, rng):
        for _ in range(50):
            v = random_bloch(rng)
            st = QubitState.from_bloch(*v)
            assert st.bloch == pytest.approx(v, abs=1e-12)

    def test_purity(self):
        assert QubitState.from_bloch(1.0, 0.0, 0.0).purity == pytest.approx(1.0)
        assert QubitState.from_bloch(0.0, 0.0, 0.0).purity == pytest.approx(0.5)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QubitState(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="trace"):
            QubitState(np.diag([0.9, 0.9]))
        with pytest.raises(ValueError, match="negative"):
            QubitState(np.diag([1.2, -0.2]))
        with pytest.raises(ValueError, match="norm"):
            QubitState.from_bloch(1.0, 1.0, 1.0)

    def test_immutable(self):
        st = QubitState.excited()
        with pytest.raises(ValueError):
            st.rho[0, 0] = 0.0


class TestEvolve:
    def test_pure_precession(self):
        # Hamiltonian-only generator: equatorial rotation at rate p
        w = 2.0
        spec = GeneratorSpec(
            "secular", ModelParams.from_dimensionless(s=0.0, p=w, alpha=1e-30)
        )
        grid = np.linspace(0.0, 2 * np.pi / w, 101)
        traj = evolve(QubitState.from_bloch(1, 0, 0), spec, grid)
        b = traj.bloch
        assert np.abs(b[:, 0] - np.cos(w * grid)).max() < 1e-8
        assert np.abs(b[:, 1] - np.sin(w * grid)).max() < 1e-8
        assert np.abs(b[:, 2]).max() < 1e-12

    def test_zero_generator_constant(self):
        spec = GeneratorSpec(
            "undriven", UndrivenParams(alpha=1e-30, lambda_width=1.0)
        )
        grid = np.linspace(0.0, 3.0, 16)
        traj = evolve(QubitState.from_bloch(0.3, -0.4, 0.2), spec, grid)
        assert np.abs(traj.rhos - traj.rhos[0]).max() < 1e-14

    def test_first_state_exact(self, secular_spec):
        rho0 = QubitState.from_bloch(0.2, 0.1, -0.5)
        traj = evolve(rho0, secular_spec, np.linspace(0.0, 1.0, 11))
        assert np.array_equal(traj.rhos[0], rho0.rho)

    def test_monotone_decay_weak_undriven(self, weak_undriven_spec):
        grid = np.linspace(0.0, 30.0, 601)
        traj = evolve(QubitState.excited(), weak_undriven_spec, grid)
        pop = np.real(traj.rhos[:, 0, 0])
        assert np.all(np.diff(pop) <= 1e-12)

    def test_grid_must_start_at_zero(self, secular_spec):
        with pytest.raises(ValueError, match="start at 0"):
            evolve(QubitState.excited(), secular_spec, np.linspace(1.0, 2.0, 5))

    def test_trace_and_hermiticity_drift(self, secular_spec, rng):
        grid = np.linspace(0.0, 10.0, 101)
        for _ in range(3):
            rho0 = QubitState.from_bloch(*random_bloch(rng))
            traj = evolve(rho0, secular_spec, grid, renormalize=False)
            traces = np.abs(np.einsum("naa->n", traj.rhos) - 1.0)
            herm = np.abs(traj.rhos - traj.rhos.conj().transpose(0, 2, 1)).max()
            assert traces.max() < 1e-10
            assert herm < 1e-10

    def test_pole_crossing_rejected(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        with pytest.raises(PoleError, match="pole"):
            evolve(QubitState.excited(), spec, np.linspace(0.0, 10.0, 101))
        with pytest.raises(PoleError, match="pole"):
            propagator_grid(spec, np.linspace(0.0, 10.0, 101))

    def test_positivity_violation_aborts(self, monkeypatch):
        # a constant negative-rate channel is not a legal evolution: the
        # excited population grows past one and the integrator must say so
        import backflow.dynamics as dyn
        from backflow.generator import SIGMA_MINUS, TimeGenerator, dissipator

        bad = TimeGenerator(
            static_ham=np.zeros((4, 4), dtype=complex),
            ham_basis=np.zeros((0, 4, 4), dtype=complex),
            diss_basis=np.stack([dissipator(SIGMA_MINUS)]),
            coefficients=lambda ts: (np.zeros((ts.size, 0)), -np.ones((ts.size, 1))),
        )
        monkeypatch.setattr(dyn, "compile_generator", lambda spec: bad)
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=0.1, lambda_width=1.0))
        with pytest.raises(IntegrationError, match="positivity violated at t="):
            evolve(QubitState.excited(), spec, np.linspace(0.0, 5.0, 51))


class TestPropagator:
    def test_identity_at_equal_times(self, secular_spec):
        assert np.array_equal(propagator(secular_spec, 1.5, 1.5), np.eye(4))

    def test_composition(self, secular_spec):
        # t1 deliberately off the substep lattice of the direct integration
        t1, t2 = 1.00037, 2.5
        full = propagator(secular_spec, 0.0, t2)
        left = propagator(secular_spec, t1, t2)
        right = propagator(secular_spec, 0.0, t1)
        assert np.linalg.norm(full - left @ right) < 1e-8

    def test_matches_evolve(self, secular_spec, rng):
        # evolve against the RK4 oracle, a different integrator
        grid = np.linspace(0.0, 5.0, 26)
        props = rk4_propagators(secular_spec, grid, substep=1e-3)
        for _ in range(3):
            rho0 = QubitState.from_bloch(*random_bloch(rng))
            traj = evolve(rho0, secular_spec, grid, renormalize=False)
            for k in (5, 12, 25):
                direct = unvec(props[k] @ vec(rho0.rho))
                assert np.abs(direct - traj.rhos[k]).max() < 1e-8

    @pytest.mark.parametrize("regime, p", HORIZON_CASES)
    def test_matches_fine_rk4_over_benchmark_horizon(self, regime, p, horizon_rk4):
        # the default grid and Magnus step against RK4 at h = 1e-4 on [0, 30]
        props = propagator_grid(horizon_spec(regime, p), HORIZON_GRID)
        err = np.abs(props - horizon_rk4[regime, p]).max()
        assert err < 1e-8

    @pytest.mark.parametrize("norm", [0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 5.0, 50.0])
    def test_step_exponential_matches_scipy(self, norm, rng):
        from scipy.linalg import expm

        # a diagonal shift brings the spectral radius near the 1-norm, so a
        # too-short polynomial shows
        A = rng.normal(size=(32, 4, 4)) + 1j * rng.normal(size=(32, 4, 4))
        A += 4.0 * (rng.normal(size=(32, 1, 1)) + 1j * rng.normal(size=(32, 1, 1))) * np.eye(4)
        A *= norm / np.abs(A).sum(axis=-2).max()
        ref = expm(A)
        rel = np.abs(_expm_batch(A) - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert rel.max() <= 1e-13
        if norm == 0.0:
            assert np.array_equal(_expm_batch(A), np.broadcast_to(np.eye(4), A.shape))

    def test_coarse_step_matches_scipy_magnus_product(self):
        # step = substep = 0.5 puts ||Omega||_1 near 15, so the exponential
        # scales and squares; the same Magnus product is built here with expm
        from scipy.linalg import expm

        spec = horizon_spec("secular", 30.0)
        grid = np.linspace(0.0, 30.0, 61)
        h = 0.5
        gen = compile_generator(spec)
        A1 = gen.batch(grid[:-1] + (0.5 - np.sqrt(3.0) / 6.0) * h)
        A2 = gen.batch(grid[:-1] + (0.5 + np.sqrt(3.0) / 6.0) * h)
        omega = 0.5 * h * (A1 + A2) + (np.sqrt(3.0) / 12.0) * h * h * (A2 @ A1 - A1 @ A2)
        assert np.abs(omega).sum(axis=-2).max() > 10.0
        ref = [np.eye(4)]
        for step in expm(omega):
            ref.append(step @ ref[-1])
        err = np.abs(propagator_grid(spec, grid, substep=h) - np.array(ref)).max()
        assert err < 1e-12

    def test_trace_and_hermiticity_preserving(self, secular_spec, rng):
        props = propagator_grid(secular_spec, np.linspace(0.0, 8.0, 17))
        for _ in range(20):
            rho = random_density(rng)
            for P in props[::4]:
                out = unvec(P @ vec(rho))
                assert abs(out.trace() - 1.0) < 1e-8
                assert np.abs(out - out.conj().T).max() < 1e-8

    def test_step_halving_fourth_order(self, secular_spec):
        # error against a quarter-step reference shrinks ~16x per halving
        rho0 = QubitState.from_bloch(0.6, -0.3, 0.5)
        grid = np.array([0.0, 2.0])
        h0 = 0.02
        ref = evolve(rho0, secular_spec, grid, substep=h0 / 4, renormalize=False).rhos[-1]
        e1 = np.abs(evolve(rho0, secular_spec, grid, substep=h0, renormalize=False).rhos[-1] - ref).max()
        e2 = np.abs(evolve(rho0, secular_spec, grid, substep=h0 / 2, renormalize=False).rhos[-1] - ref).max()
        assert 12.0 < e1 / e2 < 20.0

    def test_bad_interval_rejected(self, secular_spec):
        with pytest.raises(ValueError):
            propagator(secular_spec, 2.0, 1.0)

    def test_against_adaptive_integrator(self):
        # independent oracle: scipy's adaptive RK45 on the same linear system
        from scipy.integrate import solve_ivp
        from backflow.generator import compile_generator

        params = ModelParams.from_dimensionless(s=1.0, p=1.0, alpha=0.5,
                                                Delta=1.0, Omega=2.0)
        spec = GeneratorSpec("full_nonsecular", params)
        gen = compile_generator(spec)

        def rhs(t, y):
            m = y[:16].reshape(4, 4) + 1j * y[16:].reshape(4, 4)
            dm = gen(t) @ m
            return np.concatenate([dm.real.ravel(), dm.imag.ravel()])

        y0 = np.concatenate([np.eye(4).ravel(), np.zeros(16)])
        sol = solve_ivp(rhs, (0.0, 5.0), y0, rtol=1e-11, atol=1e-12)
        ref = sol.y[:16, -1].reshape(4, 4) + 1j * sol.y[16:, -1].reshape(4, 4)
        ours = propagator(spec, 0.0, 5.0)
        assert np.abs(ours - ref).max() < 1e-8


#: p window of each driven generator under ``--regime auto``, capped at 30.
P_WINDOWS = {"simplified_nonsecular": (0.01, 0.1), "full_nonsecular": (0.1, 10.0),
             "secular": (10.0, 30.0)}


class TestPropagatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        regime=st.sampled_from(sorted(P_WINDOWS)),
        s=st.floats(0.0, 6.0),
        u=st.floats(0.0, 1.0),
        alpha=st.floats(0.1, 1.0),
        k=st.integers(10, 250),
        frac=st.floats(0.05, 0.95),
        theta=st.floats(0.0, np.pi),
        phi=st.floats(0.0, 2.0 * np.pi),
    )
    def test_composition_trace_and_trajectory(self, regime, s, u, alpha, k, frac, theta, phi):
        lo, hi = P_WINDOWS[regime]
        p = lo * (hi / lo) ** u
        spec = GeneratorSpec(regime, ModelParams.from_dimensionless(s=s, p=p, alpha=alpha))
        t1, t2 = 0.01 * (k + frac), 3.0  # t1 off the 0.01 step lattice
        full = propagator(spec, 0.0, t2)
        split = propagator(spec, t1, t2) @ propagator(spec, 0.0, t1)
        assert np.linalg.norm(full - split) < 1e-8

        grid = np.linspace(0.0, t2, 301)
        props = propagator_grid(spec, grid)
        tr = vec(np.eye(2))
        assert np.abs(tr @ props - tr).max() < 1e-12

        rho0 = QubitState.from_bloch(
            np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
        )
        direct = apply_propagators(props, rho0.rho)
        low = np.linalg.eigvalsh(0.5 * (direct + direct.conj().transpose(0, 2, 1)))[:, 0]
        if low.min() < -1e-6:
            first = grid[np.argmax(low < -1e-6)]
            with pytest.raises(IntegrationError, match=f"at t={first:.6g}:"):
                evolve(rho0, spec, grid, renormalize=False)
        else:
            traj = evolve(rho0, spec, grid, renormalize=False)
            assert np.abs(traj.rhos - direct).max() < 1e-12


class TestBlochMaps:
    def test_linear_part_reproduces_differences(self, secular_spec, rng):
        grid = np.linspace(0.0, 4.0, 41)
        R = bloch_linear_grid(propagator_grid(secular_spec, grid))
        oracle = rk4_propagators(secular_spec, grid, substep=1e-3)
        v1, v2 = random_bloch(rng), random_bloch(rng)
        rho1, rho2 = QubitState.from_bloch(*v1), QubitState.from_bloch(*v2)
        t1 = Trajectory(grid, apply_propagators(oracle, rho1.rho))
        t2 = Trajectory(grid, apply_propagators(oracle, rho2.rho))
        delta_direct = t1.bloch - t2.bloch
        delta_mapped = np.einsum("nij,j->ni", R, v1 - v2)
        assert np.abs(delta_direct - delta_mapped).max() < 1e-7


class TestUndrivenMap:
    def test_exact_map_matches_rk4(self, weak_undriven_spec, rng):
        grid = np.linspace(0.0, 20.0, 201)
        oracle = rk4_propagators(weak_undriven_spec, grid, substep=1e-3)
        for _ in range(3):
            rho0 = QubitState.from_bloch(*random_bloch(rng))
            exact = undriven_trajectory(rho0, weak_undriven_spec.params, grid)
            rk4 = apply_propagators(oracle, rho0.rho)
            magnus = evolve(rho0, weak_undriven_spec, grid, renormalize=False)
            assert np.abs(exact.rhos - rk4).max() < 1e-9
            assert np.abs(exact.rhos - magnus.rhos).max() < 1e-9

    def test_map_smooth_through_pole(self):
        from backflow.rates import nondriven_first_pole

        params = UndrivenParams(alpha=1.0, lambda_width=1.0)
        grid = np.linspace(0.0, 30.0, 3001)
        traj = undriven_trajectory(QubitState.excited(), params, grid)
        pops = np.real(traj.rhos[:, 0, 0])
        assert np.all(pops >= -1e-12)
        assert np.all(pops <= 1.0 + 1e-12)
        # population touches zero at the first rate pole and revives after it
        pole = nondriven_first_pole(1.0, 1.0)
        k_pole = int(np.argmin(np.abs(grid - pole)))
        assert pops[k_pole] < 1e-4
        assert pops[k_pole : k_pole + 400].max() > 5e-4

    def test_markovian_contraction(self, weak_undriven_spec, rng):
        from backflow.blp import trace_distance

        grid = np.linspace(0.0, 30.0, 301)
        for _ in range(5):
            t1 = evolve(QubitState.from_bloch(*random_bloch(rng)), weak_undriven_spec, grid)
            t2 = evolve(QubitState.from_bloch(*random_bloch(rng)), weak_undriven_spec, grid)
            D = [trace_distance(a, b) for a, b in zip(t1.rhos, t2.rhos)]
            assert np.all(np.diff(D) <= 1e-12)

    def test_affine_offset_fixed_point(self):
        params = UndrivenParams(alpha=0.2, lambda_width=1.0)
        grid = np.array([0.0, 50.0])
        traj = undriven_trajectory(QubitState.ground(), params, grid)
        assert np.abs(traj.rhos[1] - traj.rhos[0]).max() < 1e-12


class TestTrajectoryType:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(grid=np.array([0.0, 0.0, 1.0]), rhos=np.zeros((3, 2, 2)))

    def test_state_accessor(self, secular_spec):
        traj = evolve(QubitState.excited(), secular_spec, np.linspace(0.0, 1.0, 6))
        st = traj.state(5)
        assert isinstance(st, QubitState)
        assert st.purity <= 1.0 + 1e-9
