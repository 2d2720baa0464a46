"""Acceptance suite: one test (or parametrized family) per criterion.

Each criterion prints a PASS/FAIL line with the measured numbers, then
asserts its stated tolerance.  Run with `pytest tests/test_acceptance.py -s`
to see every line.
"""

import math

import numpy as np
import pytest

from backflow.blp import (
    bloch_map_grid,
    blp_measure,
    pair_distance_series,
    sigma_numeric,
    sigma_resonant_nonsecular_analytic,
    sigma_secular_analytic,
    sigma_undriven_analytic,
)
from backflow.dynamics import QubitState, evolve, propagator, propagator_grid
from backflow.generator import GeneratorSpec, compile_generator, jump_operator, vec
from backflow.params import DriveParams, ModelParams, ReservoirParams, UndrivenParams, derive
from backflow.rates import negativity_threshold_s, nondriven_rate
from backflow.rhp import g_analytic_grid, g_numeric_grid, g_undriven_analytic, rhp_measure
from backflow.sweep import SweepAxis, SweepSpec

from conftest import random_bloch


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def undriven_measures(alpha: float, lam: float) -> tuple[float, float]:
    spec = GeneratorSpec("undriven", UndrivenParams(alpha=alpha, lambda_width=lam))
    t_max = 30.0 / lam
    n_rhp = rhp_measure(spec, T_max=t_max, step=0.01 / lam, method="analytic").measure
    n_blp = blp_measure(spec, T_max=t_max, step=0.01 / lam, substep=1e-3 / lam).measure
    return n_rhp, n_blp


def undriven_revival_references(alpha: float, lam: float, t_max: float, n_points: int):
    """Closed-form backflow of the undriven model for lambda < 2 alpha.

    G(t) = e^{-lambda t/2} [cos(|d| t/2) + (lambda/|d|) sin(|d| t/2)] with
    |d| = sqrt(2 alpha lambda - lambda^2).  The optimal pair is equatorial and
    antipodal, so D = |G|: each revival rises from a zero of G to the peak
    e^{-pi k lambda/|d|} at t = 2 pi k/|d|.  Returns the sum of rises of |G|
    on the grid and the continuum sum of the revival peaks up to t_max.
    """
    d = math.sqrt(2.0 * alpha * lam - lam * lam)
    t = np.linspace(0.0, t_max, n_points)
    G = np.exp(-lam * t / 2.0) * (np.cos(d * t / 2.0) + (lam / d) * np.sin(d * t / 2.0))
    on_grid = float(np.clip(np.diff(np.abs(G)), 0.0, None).sum())
    n_peaks = int(t_max * d / (2.0 * math.pi))
    continuum = sum(math.exp(-math.pi * k * lam / d) for k in range(1, n_peaks + 1))
    return on_grid, continuum


class TestCriterion1UndrivenBoundary:
    """Markovian below the coupling boundary, non-Markovian above it."""

    @pytest.mark.parametrize("alpha", [0.1, 0.4])
    def test_weak_coupling_markovian(self, alpha):
        n_rhp, n_blp = undriven_measures(alpha, 1.0)
        ok = n_rhp <= 1e-6 and n_blp <= 1e-6
        report("1 (undriven Markovian)",
               ok, f"alpha={alpha}: N_RHP={n_rhp:.3e} N_BLP={n_blp:.3e} (tol 1e-6)")
        assert n_rhp <= 1e-6
        assert n_blp <= 1e-6

    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_strong_coupling_non_markovian(self, alpha):
        n_rhp, n_blp = undriven_measures(alpha, 1.0)
        # same grid as undriven_measures: horizon 30/lambda, step 0.01/lambda
        on_grid, continuum = undriven_revival_references(alpha, 1.0, 30.0, 3001)
        ok = (n_rhp >= 1e-3 and n_blp > 1e-6
              and n_blp == pytest.approx(on_grid, rel=1e-6)
              and on_grid == pytest.approx(continuum, rel=1e-2))
        report("1 (undriven non-Markovian)",
               ok, f"alpha={alpha}: N_RHP={n_rhp:.4e} (tol 1e-3) N_BLP={n_blp:.4e} "
                   f"vs on-grid {on_grid:.4e} (rtol 1e-6), continuum {continuum:.4e} (rtol 1e-2)")
        assert n_rhp >= 1e-3
        assert n_blp > 1e-6
        assert n_blp == pytest.approx(on_grid, rel=1e-6)
        assert on_grid == pytest.approx(continuum, rel=1e-2)


class TestCriterion2SecularAlwaysNonMarkovian:
    @pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
    def test_both_measures_positive(self, s):
        params = ModelParams.from_dimensionless(s=s, p=10.0, alpha=0.5)
        spec = GeneratorSpec("secular", params)
        n_rhp = rhp_measure(spec, T_max=30.0, step=0.01, method="both").measure
        n_blp = blp_measure(spec, T_max=30.0, step=0.01).measure
        ok = n_rhp >= 1e-4 and n_blp >= 1e-4
        report("2 (secular always non-Markovian)",
               ok, f"s={s}: N_RHP={n_rhp:.4e} N_BLP={n_blp:.4e} (tol 1e-4)")
        assert n_rhp >= 1e-4
        assert n_blp >= 1e-4


class TestCriterion3NonsecularThreshold:
    def test_negativity_threshold_window(self):
        s_star = negativity_threshold_s()
        ok = 3.4 <= s_star <= 3.8
        report("3 (rate negativity threshold)", ok, f"s*={s_star:.4f} in [3.4, 3.8]")
        assert 3.4 <= s_star <= 3.8

    def test_below_threshold_markovian(self):
        params = ModelParams.from_dimensionless(s=2.0, p=0.01, alpha=0.5)
        spec = GeneratorSpec("simplified_nonsecular", params)
        n_rhp = rhp_measure(spec, T_max=30.0, method="analytic").measure
        n_blp = blp_measure(spec, T_max=30.0).measure
        ok = n_rhp <= 1e-8 and n_blp <= 1e-6
        report("3 (nonsecular s=2 Markovian)",
               ok, f"N_RHP={n_rhp:.3e} (tol 1e-8) N_BLP={n_blp:.3e} (tol 1e-6)")
        assert n_rhp <= 1e-8
        assert n_blp <= 1e-6

    def test_above_threshold_non_markovian(self):
        params = ModelParams.from_dimensionless(s=5.0, p=0.01, alpha=0.5)
        spec = GeneratorSpec("simplified_nonsecular", params)
        n_rhp = rhp_measure(spec, T_max=30.0, method="both").measure
        n_blp = blp_measure(spec, T_max=30.0).measure
        ok = n_rhp >= 1e-4 and n_blp >= 1e-4
        report("3 (nonsecular s=5 non-Markovian)",
               ok, f"N_RHP={n_rhp:.4e} N_BLP={n_blp:.4e} (tol 1e-4)")
        assert n_rhp >= 1e-4
        assert n_blp >= 1e-4


class TestCriterion4OracleEquivalence:
    def test_g_secular(self):
        params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
        spec = GeneratorSpec("secular", params)
        grid = np.linspace(0.0, 30.0, 3001)
        err = float(np.abs(g_numeric_grid(spec, grid) - g_analytic_grid(spec, grid)).max())
        report("4 (g secular)", err <= 1e-5, f"max|g_num-g_ana|={err:.3e} (tol 1e-5)")
        assert err <= 1e-5

    def test_g_simplified_nonsecular(self):
        params = ModelParams.from_dimensionless(s=5.0, p=0.01, alpha=0.5)
        spec = GeneratorSpec("simplified_nonsecular", params)
        grid = np.linspace(0.0, 30.0, 3001)
        err = float(np.abs(g_numeric_grid(spec, grid) - g_analytic_grid(spec, grid)).max())
        report("4 (g simplified nonsecular)", err <= 1e-5,
               f"max|g_num-g_ana|={err:.3e} (tol 1e-5)")
        assert err <= 1e-5

    def test_g_undriven(self):
        # weak coupling: g identically zero; strong coupling: inside the first
        # negative window, away from the rate poles
        spec_weak = GeneratorSpec("undriven", UndrivenParams(alpha=0.4, lambda_width=1.0))
        grid = np.linspace(0.0, 30.0, 1501)
        err_weak = float(np.abs(
            g_numeric_grid(spec_weak, grid)
            - g_undriven_analytic(nondriven_rate(grid, 0.4, 1.0))
        ).max())
        spec_strong = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        window = np.linspace(4.8, 6.2, 50)
        err_strong = float(np.abs(
            g_numeric_grid(spec_strong, window)
            - g_undriven_analytic(nondriven_rate(window, 1.0, 1.0))
        ).max())
        err = max(err_weak, err_strong)
        report("4 (g undriven)", err <= 1e-5, f"max|g_num-g_ana|={err:.3e} (tol 1e-5)")
        assert err <= 1e-5

    def _sigma_error(self, spec, params_for_closed_form, closed_form, n_pairs=10):
        rng = np.random.default_rng(2718)
        grid = np.linspace(0.0, 8.0, 1601)
        worst = 0.0
        for _ in range(n_pairs):
            v1, v2 = random_bloch(rng), random_bloch(rng)
            t1 = evolve(QubitState.from_bloch(*v1), spec, grid)
            t2 = evolve(QubitState.from_bloch(*v2), spec, grid)
            num = sigma_numeric(t1, t2)
            ana = closed_form(tuple(v1 - v2), grid, params_for_closed_form)
            worst = max(worst, float(np.abs(num - ana).max()))
        return worst

    def test_sigma_secular(self):
        params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
        err = self._sigma_error(GeneratorSpec("secular", params), params,
                                sigma_secular_analytic)
        report("4 (sigma secular)", err <= 1e-4,
               f"max|sig_num-sig_ana|={err:.3e} over 10 pairs (tol 1e-4)")
        assert err <= 1e-4

    def test_sigma_resonant_nonsecular(self):
        params = ModelParams.from_dimensionless(s=5.0, p=1e-4, alpha=0.5)
        err = self._sigma_error(GeneratorSpec("simplified_nonsecular", params), params,
                                sigma_resonant_nonsecular_analytic)
        report("4 (sigma resonant nonsecular)", err <= 1e-4,
               f"max|sig_num-sig_ana|={err:.3e} over 10 pairs (tol 1e-4)")
        assert err <= 1e-4

    def test_sigma_undriven(self):
        uparams = UndrivenParams(alpha=0.4, lambda_width=1.0)
        err = self._sigma_error(GeneratorSpec("undriven", uparams), uparams,
                                sigma_undriven_analytic)
        report("4 (sigma undriven)", err <= 1e-4,
               f"max|sig_num-sig_ana|={err:.3e} over 10 pairs (tol 1e-4)")
        assert err <= 1e-4


class TestCriterion5StructuralInvariants:
    def test_trace_and_hermiticity_on_1000_trajectories(self):
        params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
        spec = GeneratorSpec("secular", params)
        grid = np.linspace(0.0, 10.0, 101)
        props = propagator_grid(spec, grid)
        rng = np.random.default_rng(77)
        worst_tr = worst_h = 0.0
        for _ in range(1000):
            rho0 = QubitState.from_bloch(*random_bloch(rng)).rho
            states = np.einsum("nab,b->na", props, vec(rho0))
            states = states.reshape(-1, 2, 2).transpose(0, 2, 1)
            worst_tr = max(worst_tr, float(np.abs(np.einsum("naa->n", states) - 1.0).max()))
            worst_h = max(worst_h, float(np.abs(states - states.conj().transpose(0, 2, 1)).max()))
        ok = worst_tr <= 1e-10 and worst_h <= 1e-10
        report("5 (trace/hermiticity x1000)", ok,
               f"max trace drift={worst_tr:.2e} max herm drift={worst_h:.2e} (tol 1e-10)")
        assert worst_tr <= 1e-10
        assert worst_h <= 1e-10

    def test_propagator_composition(self):
        params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
        spec = GeneratorSpec("secular", params)
        t1, t2 = 1.00037, 2.5  # split point off the substep lattice
        defect = float(np.linalg.norm(
            propagator(spec, 0.0, t2) - propagator(spec, t1, t2) @ propagator(spec, 0.0, t1)
        ))
        report("5 (composition)", defect <= 1e-8, f"defect={defect:.3e} (tol 1e-8)")
        assert defect <= 1e-8

    def test_step_halving_ratio(self):
        params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
        spec = GeneratorSpec("secular", params)
        rho0 = QubitState.from_bloch(0.6, -0.3, 0.5)
        grid = np.array([0.0, 2.0])
        h0 = 0.02
        ref = evolve(rho0, spec, grid, substep=h0 / 4, renormalize=False).rhos[-1]
        e1 = np.abs(evolve(rho0, spec, grid, substep=h0, renormalize=False).rhos[-1] - ref).max()
        e2 = np.abs(evolve(rho0, spec, grid, substep=h0 / 2, renormalize=False).rhos[-1] - ref).max()
        ratio = float(e1 / e2)
        report("5 (step halving)", 12.0 <= ratio <= 20.0, f"ratio={ratio:.2f} (in [12, 20])")
        assert 12.0 <= ratio <= 20.0

    def test_fundamental_theorem_consistency(self):
        params = ModelParams.from_dimensionless(s=1.0, p=1.0, alpha=0.5)
        spec = GeneratorSpec("full_nonsecular", params)
        grid = np.linspace(0.0, 10.0, 20001)
        maps = bloch_map_grid(spec, grid)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            delta = random_bloch(rng) - random_bloch(rng)
            D = pair_distance_series(maps, delta)
            sig = np.gradient(D, grid, edge_order=2)
            worst = max(worst, abs(float(np.trapezoid(sig, grid)) - float(D[-1] - D[0])))
        report("5 (FTC)", worst <= 1e-6,
               f"max|int sigma - dD|={worst:.3e} over 100 pairs (tol 1e-6)")
        assert worst <= 1e-6


class TestCriterion6CoefficientIdentities:
    def test_identities_and_jump_norm(self):
        rng = np.random.default_rng(999)
        worst = 0.0
        for _ in range(10_000):
            delta = rng.uniform(-20.0, 20.0)
            omega_rabi = rng.uniform(1e-3, 20.0)
            _, c = derive(
                DriveParams(omega_A=delta, omega_L=0.0, Omega=omega_rabi),
                ReservoirParams(alpha=0.5, lambda_width=1.0),
            )
            d1, d2, d3 = c.identity_defects()
            A = jump_operator(c)
            d4 = float(np.trace(A.conj().T @ A).real) - 1.0
            worst = max(worst, abs(d1), abs(d2), abs(d3), abs(d4))
        report("6 (coefficient identities)", worst <= 1e-12,
               f"max defect={worst:.2e} over 10^4 draws (tol 1e-12)")
        assert worst <= 1e-12


class TestCriterion7MeasureOrdering:
    def test_five_by_five_sweep(self):
        spec = SweepSpec(
            axes=(
                SweepAxis("s", 0.0, 5.0, 5),       # 0, 1.25, 2.5, 3.75, 5
                SweepAxis("p", 0.01, 10.0, 5),
            ),
            outputs="both-measures",
            regime="auto",
            fixed={"alpha": 0.5},
            T_max=30.0,
        )
        # spread p over decades rather than linearly
        points = [
            {"s": s, "p": p}
            for s in (0.0, 1.25, 2.5, 3.75, 5.0)
            for p in (0.01, 0.1, 1.0, 3.0, 10.0)
        ]
        from backflow.sweep import _sweep_point

        violations = []
        for point in points:
            row = _sweep_point(spec, point)
            assert "error" not in row, row
            if row["n_rhp"] <= 1e-8 and row["n_blp"] > 1e-4:
                violations.append(row)
        report("7 (measure ordering on 5x5 sweep)", not violations,
               f"{len(points)} points, {len(violations)} ordering violations")
        assert not violations


class TestCriterion8GeneratorConsistency:
    def test_p_zero_limit(self):
        rng = np.random.default_rng(13)
        Ts = np.linspace(0.0, 20.0, 100)
        worst = 0.0
        for _ in range(10):
            params = ModelParams.from_dimensionless(
                s=rng.uniform(0.0, 6.0),
                p=0.0,
                alpha=rng.uniform(0.1, 1.0),
                Delta=rng.uniform(-3.0, 3.0),
                Omega=rng.uniform(0.1, 4.0),
            )
            full = compile_generator(GeneratorSpec("full_nonsecular", params)).batch(Ts)
            simp = compile_generator(GeneratorSpec("simplified_nonsecular", params)).batch(Ts)
            worst = max(worst, float(np.linalg.norm(full - simp, axis=(1, 2)).max()))
        report("8 (p=0 generator consistency)", worst <= 1e-10,
               f"max Frobenius distance={worst:.2e} over 10 draws x 100 times (tol 1e-10)")
        assert worst <= 1e-10
