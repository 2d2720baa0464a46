import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

from backflow.blp import (
    SearchConfig,
    _cumulative_trapezoid,
    StatePair,
    backflow_of,
    bloch_map_grid,
    blp_measure,
    fibonacci_sphere,
    pair_distance_series,
    sigma_numeric,
    sigma_resonant_nonsecular_analytic,
    sigma_secular_analytic,
    sigma_undriven_analytic,
    trace_distance,
)
from backflow.dynamics import QubitState, evolve, undriven_trajectory
from backflow.generator import GeneratorSpec
from backflow.params import ModelParams, UndrivenParams
from backflow.rates import lorentzian_rate, nondriven_rate, rate_table

from conftest import random_bloch


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert trace_distance(QubitState.excited(), QubitState.ground()) == pytest.approx(1.0)

    def test_identical_states(self):
        st = QubitState.from_bloch(0.3, 0.1, -0.2)
        assert trace_distance(st, st) == 0.0

    def test_equatorial_quarter_turn(self):
        a = QubitState.from_bloch(1.0, 0.0, 0.0)
        b = QubitState.from_bloch(0.0, 1.0, 0.0)
        assert trace_distance(a, b) == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_equals_half_bloch_distance(self, rng):
        for _ in range(1000):
            v1, v2 = random_bloch(rng), random_bloch(rng)
            d_eig = trace_distance(QubitState.from_bloch(*v1), QubitState.from_bloch(*v2))
            d_bloch = 0.5 * np.linalg.norm(v1 - v2)
            assert abs(d_eig - d_bloch) < 1e-12


class TestStatePair:
    def test_deltas(self):
        pair = StatePair(QubitState.from_bloch(0.5, 0.0, 0.5),
                         QubitState.from_bloch(-0.5, 0.25, 0.5))
        assert pair.deltas == pytest.approx((1.0, -0.25, 0.0), abs=1e-12)


@pytest.fixture(scope="module")
def secular_model():
    return ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5, Delta=1.3, Omega=2.1)


@pytest.fixture(scope="module")
def resonant_model():
    return ModelParams.from_dimensionless(s=5.0, p=1e-4, alpha=0.5)


class TestSigmaNumeric:
    def test_identical_initial_states(self, secular_model):
        spec = GeneratorSpec("secular", secular_model)
        grid = np.linspace(0.0, 2.0, 101)
        st = QubitState.from_bloch(0.3, -0.1, 0.4)
        traj = evolve(st, spec, grid)
        assert np.all(sigma_numeric(traj, traj) == 0.0)

    def test_grid_mismatch_rejected(self, secular_model):
        spec = GeneratorSpec("secular", secular_model)
        t1 = evolve(QubitState.excited(), spec, np.linspace(0.0, 1.0, 11))
        t2 = evolve(QubitState.excited(), spec, np.linspace(0.0, 1.0, 21))
        with pytest.raises(ValueError, match="grid"):
            sigma_numeric(t1, t2)

    def test_markovian_undriven_never_positive(self, rng):
        params = UndrivenParams(alpha=0.1, lambda_width=1.0)
        grid = np.linspace(0.0, 30.0, 3001)
        for _ in range(20):
            v1, v2 = random_bloch(rng), random_bloch(rng)
            t1 = undriven_trajectory(QubitState.from_bloch(*v1), params, grid)
            t2 = undriven_trajectory(QubitState.from_bloch(*v2), params, grid)
            assert sigma_numeric(t1, t2).max() <= 1e-8


@pytest.mark.parametrize("n", [2, 3001, 20001])
def test_cumulative_trapezoid_bit_identical_to_scipy(n, rng):
    # the closed forms' decay exponents must not move by a single bit
    x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.001, 0.02, n - 1))))
    y = rng.normal(size=n)
    assert np.array_equal(_cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0))


class TestSigmaSecular:
    def test_matches_trajectories(self, secular_model, rng):
        spec = GeneratorSpec("secular", secular_model)
        grid = np.linspace(0.0, 8.0, 1601)
        for _ in range(3):
            v1, v2 = random_bloch(rng), random_bloch(rng)
            t1 = evolve(QubitState.from_bloch(*v1), spec, grid)
            t2 = evolve(QubitState.from_bloch(*v2), spec, grid)
            num = sigma_numeric(t1, t2)
            ana = sigma_secular_analytic(tuple(v1 - v2), grid, secular_model)
            assert np.abs(num - ana).max() < 1e-5

    def test_population_pair_sign_tracks_coherence_free_rate(self, secular_model):
        # deltas along z only: sigma is -pop_rate' e^-pop weighted, so its sign
        # is opposite to C+^2 gamma_+ + C-^2 gamma_-
        grid = np.linspace(0.0, 6.0, 1201)
        sig = sigma_secular_analytic((0.0, 0.0, 1.2), grid, secular_model)
        c = secular_model.coeffs
        gammas, _ = rate_table(grid, 1.0, 10.0, 0.5)
        pop_rate = c.c_plus**2 * gammas[2] + c.c_minus**2 * gammas[0]
        inside = slice(1, None)
        assert np.all(np.sign(sig[inside]) == -np.sign(pop_rate[inside]))

    def test_all_zero_deltas(self, secular_model):
        grid = np.linspace(0.0, 2.0, 21)
        assert np.all(sigma_secular_analytic((0.0, 0.0, 0.0), grid, secular_model) == 0.0)

    def test_literature_form_swaps_sectors(self, secular_model):
        grid = np.linspace(0.0, 4.0, 401)
        a = sigma_secular_analytic((1.0, 0.0, 0.0), grid, secular_model)
        b = sigma_secular_analytic((0.0, 0.0, 1.0), grid, secular_model, literature_form=True)
        assert a[1:] == pytest.approx(b[1:])


class TestSigmaResonant:
    def test_detuned_drive_rejected(self, secular_model):
        with pytest.raises(ValueError, match="Delta"):
            sigma_resonant_nonsecular_analytic((1, 0, 0), np.linspace(0, 1, 5), secular_model)

    def test_matches_trajectories(self, resonant_model, rng):
        spec = GeneratorSpec("simplified_nonsecular", resonant_model)
        grid = np.linspace(0.0, 8.0, 1601)
        for _ in range(3):
            v1, v2 = random_bloch(rng), random_bloch(rng)
            t1 = evolve(QubitState.from_bloch(*v1), spec, grid)
            t2 = evolve(QubitState.from_bloch(*v2), spec, grid)
            num = sigma_numeric(t1, t2)
            ana = sigma_resonant_nonsecular_analytic(tuple(v1 - v2), grid, resonant_model)
            assert np.abs(num - ana).max() < 1e-4

    def test_contraction_when_rate_nonnegative(self, rng):
        model = ModelParams.from_dimensionless(s=1.0, p=1e-4, alpha=0.5)
        grid = np.linspace(0.0, 20.0, 2001)
        for _ in range(5):
            deltas = tuple(random_bloch(rng) - random_bloch(rng))
            sig = sigma_resonant_nonsecular_analytic(deltas, grid, model)
            assert sig.max() <= 1e-12

    def test_backflow_iff_rate_negative(self):
        grid = np.linspace(0.0, 30.0, 3001)
        deltas = (1.0, 0.4, -0.2)
        for s, expect in ((2.0, False), (5.0, True)):
            model = ModelParams.from_dimensionless(s=s, p=1e-4, alpha=0.5)
            gamma, _ = lorentzian_rate(grid, s, 0.5)
            sig = sigma_resonant_nonsecular_analytic(deltas, grid, model)
            assert (gamma.min() < 0.0) == expect
            assert (sig.max() > 1e-10) == expect

    def test_literature_form_sign_condition(self):
        # the verbatim bracket keeps sigma <= 0 for gamma >= 0 only when
        # dx^2 + 2 dy^2 > dz^2
        model = ModelParams.from_dimensionless(s=1.0, p=1e-4, alpha=0.5)
        grid = np.linspace(0.0, 10.0, 1001)
        sig = sigma_resonant_nonsecular_analytic((1.0, 0.5, 0.3), grid, model,
                                                 literature_form=True)
        assert sig.max() <= 1e-12


class TestResonantReductionGap:
    """simplified_nonsecular N_BLP against the resonant closed form of its
    best pair.  The closed form drops the O(p) rotation by the drive, so the
    two agree as p -> 0 and their gap shrinks as p^2."""

    @staticmethod
    def closed_form_backflow(model, deltas, grid, refine=100):
        # D(0) plus the integral of the closed-form sigma (Simpson on a grid
        # `refine` times finer), summed over its rises on the measure's grid
        fine = np.linspace(grid[0], grid[-1], refine * (grid.size - 1) + 1)
        sigma = sigma_resonant_nonsecular_analytic(deltas, fine, model)
        D = 0.5 * np.linalg.norm(deltas) + cumulative_simpson(sigma, x=fine, initial=0.0)
        return backflow_of(D[::refine])

    def measure_and_closed_form(self, p):
        model = ModelParams.from_dimensionless(s=4.0, p=p, alpha=0.67)
        report = blp_measure(GeneratorSpec("simplified_nonsecular", model))
        return report.measure, self.closed_form_backflow(model, report.best_deltas, report.grid)

    def test_exact_as_p_vanishes(self):
        measure, closed = self.measure_and_closed_form(1e-9)
        assert measure == pytest.approx(closed, rel=1e-8)

    def test_gap_scales_as_p_squared(self):
        gaps = [m / c - 1.0 for m, c in map(self.measure_and_closed_form, (0.084, 0.042))]
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5


class TestSigmaUndriven:
    def test_sign_opposite_to_rate(self):
        params = UndrivenParams(alpha=1.0, lambda_width=1.0)
        grid = np.linspace(0.0, 10.0, 2001)
        sig = sigma_undriven_analytic((0.4, -0.3, 0.6), grid, params)
        from backflow.rates import nondriven_envelope, nondriven_envelope_derivative

        G = nondriven_envelope(grid, 1.0, 1.0)
        Gp = nondriven_envelope_derivative(grid, 1.0, 1.0)
        mask = np.abs(G) > 1e-6
        gamma = -2.0 * Gp[mask] / G[mask]
        assert np.all(np.sign(sig[mask][1:]) == -np.sign(gamma[1:]))

    def test_weak_coupling_contracts(self, rng):
        params = UndrivenParams(alpha=0.4, lambda_width=1.0)
        grid = np.linspace(0.0, 30.0, 3001)
        for _ in range(5):
            deltas = tuple(random_bloch(rng) - random_bloch(rng))
            assert sigma_undriven_analytic(deltas, grid, params).max() <= 0.0

    def test_matches_trajectories(self, rng):
        params = UndrivenParams(alpha=0.4, lambda_width=1.0)
        spec = GeneratorSpec("undriven", params)
        grid = np.linspace(0.0, 10.0, 2001)
        for _ in range(3):
            v1, v2 = random_bloch(rng), random_bloch(rng)
            t1 = evolve(QubitState.from_bloch(*v1), spec, grid)
            t2 = evolve(QubitState.from_bloch(*v2), spec, grid)
            num = sigma_numeric(t1, t2)
            ana = sigma_undriven_analytic(tuple(v1 - v2), grid, params)
            assert np.abs(num - ana).max() < 1e-5

    def test_envelope_equals_quadrature_when_pole_free(self):
        # e^-Gamma via the envelope coincides with trapezoid quadrature of gamma
        params = UndrivenParams(alpha=0.3, lambda_width=1.0)
        grid = np.linspace(0.0, 20.0, 4001)
        from backflow.rates import nondriven_envelope

        E_env = nondriven_envelope(grid, 0.3, 1.0) ** 2
        gamma = nondriven_rate(grid, 0.3, 1.0)
        E_quad = np.exp(-cumulative_trapezoid(gamma, grid, initial=0.0))
        assert np.abs(E_env - E_quad).max() < 1e-6


class TestFundamentalTheorem:
    def test_integral_of_sigma_equals_distance_change(self, rng):
        model = ModelParams.from_dimensionless(s=1.0, p=1.0, alpha=0.5)
        spec = GeneratorSpec("full_nonsecular", model)
        grid = np.linspace(0.0, 10.0, 20001)
        maps = bloch_map_grid(spec, grid)
        for _ in range(20):
            delta = random_bloch(rng) - random_bloch(rng)
            D = pair_distance_series(maps, delta)
            integral = np.trapezoid(np.gradient(D, grid, edge_order=2), grid)
            assert abs(integral - (D[-1] - D[0])) < 1e-6


class TestOffResonantFamily:
    def test_rate_sign_criterion_survey(self, capsys):
        """Survey, not an invariant: off resonance (Delta != 0, p << 1) the
        backflow measure is expected to switch on exactly with rate
        negativity.  The divisible direction (rate nonnegative -> no
        backflow) is a theorem and is asserted; the converse is only
        reported."""
        rows = []
        for delta, omega_rabi in ((1.0, 1.0), (3.0, 4.0)):
            for s in (2.0, 5.0):
                model = ModelParams.from_dimensionless(
                    s=s, p=0.01, alpha=0.5, Delta=delta, Omega=omega_rabi
                )
                gamma, _ = lorentzian_rate(np.linspace(0.0, 30.0, 3001), s, 0.5)
                n_blp = blp_measure(
                    GeneratorSpec("simplified_nonsecular", model), T_max=30.0
                ).measure
                negative = bool(gamma.min() < 0.0)
                backflow = bool(n_blp > 1e-6)
                rows.append((delta, omega_rabi, s, negative, backflow, n_blp))
                if not negative:
                    assert n_blp <= 1e-6
        agree = sum(1 for r in rows if r[3] == r[4])
        print(f"\noff-resonant rate-sign criterion: {agree}/{len(rows)} points agree")
        for delta, omega_rabi, s, neg, back, n in rows:
            print(f"  Delta={delta:g} Omega={omega_rabi:g} s={s:g}: "
                  f"rate negative={neg} backflow={back} (N_BLP={n:.3e})")


class TestSearch:
    def test_divisible_dynamics_yields_nothing(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=0.1, lambda_width=1.0))
        report = blp_measure(spec, T_max=30.0)
        assert report.measure <= 1e-6

    def test_secular_backflow_found(self):
        model = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
        spec = GeneratorSpec("secular", model)
        report = blp_measure(spec, T_max=30.0)
        assert report.measure > 1e-4
        # the max dominates the fixed equatorial antipodal candidate
        maps = bloch_map_grid(spec, report.grid)
        equatorial = backflow_of(pair_distance_series(maps, np.array([2.0, 0.0, 0.0])))
        assert report.measure >= equatorial - 1e-15

    def test_objective_sums_the_rises(self):
        # every rise counts in full, kinks included; falls count for nothing
        assert backflow_of(np.array([1.0, 0.0, 0.5, 0.25, 0.0, 0.75, 0.5])) == 1.25

    def test_measure_dominates_all_candidates(self):
        model = ModelParams.from_dimensionless(s=5.0, p=0.01, alpha=0.5)
        report = blp_measure(GeneratorSpec("simplified_nonsecular", model), T_max=20.0)
        assert report.measure >= report.stage1_values.max()

    def test_repeat_runs_identical(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        cfg = SearchConfig(n_directions=16, n_refine=1)
        a = blp_measure(spec, T_max=15.0, config=cfg)
        b = blp_measure(spec, T_max=15.0, config=cfg)
        assert a.measure == b.measure
        assert a.best_deltas == b.best_deltas
        assert a.n_evaluations == b.n_evaluations
        assert np.array_equal(a.distance, b.distance)

    def test_fibonacci_sphere_units(self):
        pts = fibonacci_sphere(128)
        assert pts.shape == (128, 3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12

    def test_pure_pair_states_reported(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        cfg = SearchConfig(n_directions=32, n_refine=1)
        report = blp_measure(spec, T_max=15.0, config=cfg)
        assert report.best_pair.rho1.purity == pytest.approx(1.0, abs=1e-9)
        assert report.best_pair.rho2.purity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kw", [{"step": 0.0}, {"step": -0.01}, {"step": np.inf},
                                    {"step": np.nan}, {"T_max": -1.0}, {"T_max": np.inf}])
    def test_bad_horizon_or_step_rejected(self, kw):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        with pytest.raises(ValueError, match="must be finite and positive"):
            blp_measure(spec, **kw)

    def test_reported_distance_is_the_best_pairs(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        report = blp_measure(spec, T_max=15.0, config=SearchConfig(n_directions=16, n_refine=1))
        assert backflow_of(report.distance) == report.measure
        maps = bloch_map_grid(spec, report.grid)
        D = pair_distance_series(maps, report.best_deltas)
        assert np.abs(D - report.distance).max() < 1e-12


class TestAntipodalDominance:
    """The search covers antipodal pairs only; pairs off that set are the
    independent oracle.  D is 1-homogeneous in delta and |v1 - v2| < 2 for
    a non-antipodal pure pair, so none may score above the measure."""

    SPECS = {
        "secular": GeneratorSpec(
            "secular", ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)),
        "full_nonsecular": GeneratorSpec(
            "full_nonsecular", ModelParams.from_dimensionless(s=1.0, p=1.0, alpha=0.5)),
        "simplified_nonsecular": GeneratorSpec(
            "simplified_nonsecular", ModelParams.from_dimensionless(s=5.0, p=0.01, alpha=0.5)),
        "undriven": GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0)),
    }

    @pytest.mark.parametrize("regime", sorted(SPECS))
    def test_random_pure_pairs_never_beat_the_measure(self, regime):
        spec = self.SPECS[regime]
        report = blp_measure(spec, T_max=20.0)
        maps = bloch_map_grid(spec, report.grid)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(64):
            v1, v2 = random_bloch(rng, pure=True), random_bloch(rng, pure=True)
            assert np.linalg.norm(v1 - v2) < 2.0 - 1e-9
            worst = max(worst, backflow_of(pair_distance_series(maps, v1 - v2)))
        assert report.measure > 0.0
        assert worst <= report.measure + 1e-12

    def test_backflow_is_homogeneous_in_delta(self, rng):
        spec = self.SPECS["undriven"]
        grid = np.linspace(0.0, 15.0, 1501)
        maps = bloch_map_grid(spec, grid)
        for _ in range(50):
            delta = random_bloch(rng) - random_bloch(rng)
            c = rng.uniform(0.01, 5.0)
            scaled = backflow_of(pair_distance_series(maps, c * delta))
            assert scaled == pytest.approx(c * backflow_of(pair_distance_series(maps, delta)),
                                           rel=1e-12, abs=1e-15)
