import numpy as np
import pytest

from backflow.generator import GeneratorSpec, compile_generator
from backflow.params import Coefficients, ModelParams, UndrivenParams
from backflow.rates import nondriven_rate, rate_sample, rate_table
from backflow.rhp import (
    g_analytic_grid,
    g_numeric,
    g_numeric_grid,
    g_nonsecular_analytic,
    g_secular_analytic,
    g_undriven_analytic,
    negative_part,
    rhp_measure,
)
from conftest import BELL_PROJECTOR, BELL_STATE, eps_ladder_g


RESONANT = Coefficients(c_plus=0.5, c_minus=-0.5, c_zero=0.5)


class TestNegativePart:
    def test_values(self):
        assert negative_part(0.3) == 0.0
        assert negative_part(0.0) == 0.0
        assert negative_part(-0.3) == 0.3

    def test_positive_homogeneity(self, rng):
        for _ in range(100):
            x = rng.normal()
            c = rng.uniform(0.1, 10.0)
            assert negative_part(c * x) == pytest.approx(c * negative_part(x))


class TestClosedForms:
    def test_secular_all_positive(self):
        s = rate_sample(20.0, 1.0, 10.0, 0.5)
        assert g_secular_analytic(s, RESONANT) == 0.0

    def test_secular_arithmetic_example(self):
        # weights 1/4 each at resonance; rates (-0.1, 0.2, -0.05)
        sample = rate_sample(0.0, 0.0, 1.0, 1.0)
        sample = type(sample)(
            T=0.0,
            gamma_minus=0.2, gamma_zero=-0.05, gamma_plus=-0.1,
            lamb_minus=0.0, lamb_zero=0.0, lamb_plus=0.0,
        )
        assert g_secular_analytic(sample, RESONANT, literature_form=True) == pytest.approx(0.025)
        assert g_secular_analytic(sample, RESONANT) == pytest.approx(0.05)

    def test_scaling(self):
        sample = lambda c: type(rate_sample(0.0, 0, 1, 1))(
            T=0.0, gamma_minus=0.2 * c, gamma_zero=-0.05 * c, gamma_plus=-0.1 * c,
            lamb_minus=0.0, lamb_zero=0.0, lamb_plus=0.0,
        )
        base = g_secular_analytic(sample(1.0), RESONANT)
        assert g_secular_analytic(sample(3.0), RESONANT) == pytest.approx(3.0 * base)

    def test_nonsecular_values(self):
        assert g_nonsecular_analytic(0.4, RESONANT) == 0.0
        assert g_nonsecular_analytic(-0.3, RESONANT, literature_form=True) == pytest.approx(
            (0.25 + 0.25 + 1.0) * 0.3 / 2.0
        )
        # corrected weight collapses to P(gamma) exactly
        assert g_nonsecular_analytic(-0.3, RESONANT) == pytest.approx(0.3)

    @pytest.mark.parametrize("literature_form", [False, True])
    def test_nonsecular_grid_equals_pointwise(self, literature_form):
        # the array call must give exactly the per-point scalar values
        params = ModelParams.from_dimensionless(s=5.0, p=0.01, alpha=0.5, Delta=1.0, Omega=1.0)
        times = np.linspace(0.0, 30.0, 3001)
        grid_g = g_analytic_grid(GeneratorSpec("simplified_nonsecular", params), times,
                                 literature_form)
        gammas = rate_table(times, 5.0, 0.0, 0.5)[0][1]
        pointwise = [g_nonsecular_analytic(float(g), params.coeffs, literature_form)
                     for g in gammas]
        assert grid_g.max() > 0.0
        assert np.array_equal(grid_g, pointwise)

    def test_undriven_values(self):
        assert g_undriven_analytic(0.2) == 0.0
        assert g_undriven_analytic(-0.3, literature_form=True) == pytest.approx(0.15)
        assert g_undriven_analytic(-0.3) == pytest.approx(0.3)


class TestGNumeric:
    def test_hamiltonian_only_is_zero(self):
        # secular generator with negligible coupling: only the commutator left
        params = ModelParams.from_dimensionless(s=1.0, p=5.0, alpha=1e-12)
        assert g_numeric(GeneratorSpec("secular", params), 2.0) == 0.0

    def test_positive_rates_give_zero(self):
        params = ModelParams.from_dimensionless(s=0.0, p=10.0, alpha=0.5)
        spec = GeneratorSpec("secular", params)
        # past the rate-positivity onset every channel is nonnegative
        for T in (5.0, 12.0):
            assert g_numeric(spec, T) == pytest.approx(0.0, abs=1e-9)

    def test_matches_secular_closed_form(self):
        params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5,
                                                Delta=1.3, Omega=2.1)
        spec = GeneratorSpec("secular", params)
        Ts = np.arange(0.01, 10.0, 0.037)
        gn = g_numeric_grid(spec, Ts)
        ga = g_analytic_grid(spec, Ts)
        assert ga.max() > 1e-3  # the comparison window actually has negativity
        assert np.abs(gn - ga).max() < 1e-5

    def test_matches_simplified_closed_form(self):
        params = ModelParams.from_dimensionless(s=5.0, p=0.01, alpha=0.5)
        spec = GeneratorSpec("simplified_nonsecular", params)
        Ts = np.linspace(0.02, 10.0, 50)
        gn = g_numeric_grid(spec, Ts)
        ga = g_analytic_grid(spec, Ts)
        assert np.abs(gn - ga).max() < 1e-5

    def test_matches_undriven_closed_form(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        ts = np.linspace(4.8, 6.2, 50)  # inside the negative window, past the pole
        gen = compile_generator(spec)
        gn = g_numeric_grid(gen, ts)
        ga = g_undriven_analytic(nondriven_rate(ts, 1.0, 1.0))
        assert ga.max() > 0.1
        assert np.abs(gn - ga).max() < 1e-5

    @pytest.mark.parametrize("regime, s, p, alpha", [
        ("simplified_nonsecular", 5.0, 0.01, 0.5),
        ("simplified_nonsecular", 1.0, 0.02, 0.3),
        ("secular", 1.0, 10.0, 0.5),
    ])
    def test_exactly_zero_where_closed_form_is_zero(self, regime, s, p, alpha):
        # rounding in the Choi block must not read as a divisibility defect
        spec = GeneratorSpec(regime, ModelParams.from_dimensionless(s=s, p=p, alpha=alpha))
        times = np.linspace(0.0, 30.0, 3001)
        gn = g_numeric_grid(spec, times)
        ga = g_analytic_grid(spec, times)
        assert np.count_nonzero(ga == 0.0) > 100
        assert np.all(gn[ga == 0.0] == 0.0)

    def test_probe_phase_invariance(self):
        # a global phase of the probe state leaves its projector unchanged
        params = ModelParams.from_dimensionless(s=5.0, p=0.01, alpha=0.5)
        gen = compile_generator(GeneratorSpec("simplified_nonsecular", params))
        phase = np.exp(1j * 0.7) * BELL_STATE
        times = np.array([0.5, 1.0, 2.7])
        ladder = eps_ladder_g(gen, times, np.outer(phase, phase.conj()))
        assert ladder.max() > 1e-3
        assert g_numeric_grid(gen, times) == pytest.approx(ladder, abs=1e-8)

    def test_against_projected_spectrum_oracle(self):
        # the projected spectrum is the eps -> 0 limit of the trace-norm
        # quotient; the finite-eps ladder, Richardson-extrapolated, is the oracle
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = ModelParams.from_dimensionless(
                s=rng.uniform(0, 8),
                p=10 ** rng.uniform(-2, 1),
                alpha=rng.uniform(0.1, 1.0),
                Delta=rng.uniform(-3, 3),
                Omega=rng.uniform(0.1, 4),
            )
            regime = ("secular", "full_nonsecular", "simplified_nonsecular")[
                int(rng.integers(3))
            ]
            spec = GeneratorSpec(regime, params)
            T = float(rng.uniform(0.05, 6.0))
            limit = float(eps_ladder_g(compile_generator(spec), [T], BELL_PROJECTOR)[0])
            assert g_numeric(spec, T) == pytest.approx(limit, abs=1e-8)


@pytest.fixture(scope="module")
def secular_spec():
    return GeneratorSpec(
        "secular", ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
    )


class TestMeasure:
    def test_markovian_undriven_is_exactly_zero(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=0.1, lambda_width=1.0))
        report = rhp_measure(spec, T_max=30.0, method="both")
        assert report.measure == 0.0
        assert report.cross_error < 1e-8

    def test_strong_coupling_undriven_positive(self):
        spec = GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0))
        report = rhp_measure(spec, T_max=30.0, method="analytic")
        assert report.measure > 1e-3
        assert report.tail_bound is None

    @pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
    def test_secular_always_non_markovian(self, s):
        params = ModelParams.from_dimensionless(s=s, p=10.0, alpha=0.5)
        report = rhp_measure(GeneratorSpec("secular", params), T_max=30.0, method="both")
        assert report.measure > 1e-4
        assert report.cross_error <= 1e-15
        assert report.tail_bound == 0.0

    def test_numeric_measure_zero_where_divisible(self):
        params = ModelParams.from_dimensionless(s=1.0, p=0.02, alpha=0.3)
        spec = GeneratorSpec("simplified_nonsecular", params)
        assert rhp_measure(spec, T_max=30.0, method="analytic").measure == 0.0
        assert rhp_measure(spec, T_max=30.0, method="numeric").measure == 0.0

    def test_monotone_in_horizon(self, secular_spec):
        values = [
            rhp_measure(secular_spec, T_max=T, method="analytic").measure
            for T in (2.0, 5.0, 10.0, 30.0)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_measure_in_unit_interval(self, secular_spec):
        report = rhp_measure(secular_spec, method="analytic")
        assert 0.0 <= report.measure < 1.0
        assert report.measure == pytest.approx(report.integral / (report.integral + 1.0))

    def test_full_nonsecular_has_no_closed_form(self):
        params = ModelParams.from_dimensionless(s=1.0, p=1.0, alpha=0.5)
        spec = GeneratorSpec("full_nonsecular", params)
        with pytest.raises(ValueError, match="closed-form"):
            rhp_measure(spec, method="analytic")
        report = rhp_measure(spec, T_max=10.0, method="auto")
        assert report.g_numeric is not None
        assert report.g_analytic is None

    def test_report_method_tags(self, secular_spec):
        assert rhp_measure(secular_spec, T_max=1.0, method="numeric").method == "numeric"
        assert "secular-analytic" in rhp_measure(secular_spec, T_max=1.0).method

    @pytest.mark.parametrize("kw", [{"step": 0.0}, {"step": -0.01}, {"step": np.inf},
                                    {"step": np.nan}, {"T_max": -1.0}, {"T_max": np.inf}])
    def test_bad_horizon_or_step_rejected(self, secular_spec, kw):
        with pytest.raises(ValueError, match="must be finite and positive"):
            rhp_measure(secular_spec, **kw)
