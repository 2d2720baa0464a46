import numpy as np
import pytest

from backflow.params import (
    Coefficients,
    DriveParams,
    ModelParams,
    Regime,
    RegimeParams,
    ReservoirParams,
    UndrivenParams,
    classify_regime,
    derive,
)


#: A valid value for every field of each parameter class with finiteness checks.
VALID_FIELDS = {
    DriveParams: dict(omega_A=1.0, omega_L=0.0, Omega=1.0),
    ReservoirParams: dict(alpha=0.1, lambda_width=1.0, omega_0=0.0),
    RegimeParams: dict(s=0.0, p=1.0),
    UndrivenParams: dict(alpha=0.1, lambda_width=1.0),
}


def make(delta, omega_rabi, alpha=0.5, lam=1.0, omega_0=1.0, omega_L=0.0):
    drive = DriveParams(omega_A=omega_L + delta, omega_L=omega_L, Omega=omega_rabi)
    reservoir = ReservoirParams(alpha=alpha, lambda_width=lam, omega_0=omega_0)
    return drive, reservoir


class TestDerive:
    def test_resonant_symmetric_splitting(self):
        _, coeffs = derive(*make(0.0, 1.0))
        assert coeffs.c_plus == pytest.approx(0.5)
        assert coeffs.c_minus == pytest.approx(-0.5)
        assert coeffs.c_zero == pytest.approx(0.5)

    def test_three_four_five_drive(self):
        # Delta=3, Omega=4 -> omega=5 and the weights follow directly
        _, coeffs = derive(*make(3.0, 4.0))
        assert coeffs.c_plus == pytest.approx(0.8)
        assert coeffs.c_minus == pytest.approx(-0.2)
        assert coeffs.c_zero == pytest.approx(0.4)
        assert 0.64 + 0.04 + 2 * 0.16 == pytest.approx(1.0)

    def test_laser_at_lorentzian_center_gives_zero_s(self):
        drive, reservoir = make(1.0, 2.0, omega_0=7.0, omega_L=7.0)
        regime, _ = derive(drive, reservoir)
        assert regime.s == 0.0

    def test_degenerate_drive_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            derive(*make(0.0, 0.0))

    def test_coefficient_identities_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            delta = rng.uniform(-50.0, 50.0)
            omega_rabi = rng.uniform(1e-3, 50.0)
            _, c = derive(*make(delta, omega_rabi))
            d1, d2, d3 = c.identity_defects()
            assert abs(d1) < 1e-12
            assert abs(d2) < 1e-12
            assert abs(d3) < 1e-12

    def test_s_p_scale_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            delta, omega_rabi = rng.uniform(-3, 3), rng.uniform(0.1, 3)
            alpha, lam, w0 = rng.uniform(0.1, 1), rng.uniform(0.5, 2), rng.uniform(-2, 2)
            scale = rng.uniform(0.1, 10)
            r1, _ = derive(*make(delta, omega_rabi, alpha, lam, w0))
            r2, _ = derive(*make(scale * delta, scale * omega_rabi, alpha,
                                 scale * lam, scale * w0))
            assert r1.s == pytest.approx(r2.s, rel=1e-12, abs=1e-12)
            assert r1.p == pytest.approx(r2.p, rel=1e-12)


class TestClassify:
    def test_deep_nonsecular(self):
        assert classify_regime(0.01) is Regime.NONSECULAR

    def test_deep_secular(self):
        assert classify_regime(10.0) is Regime.SECULAR

    def test_intermediate(self):
        assert classify_regime(1.0) is Regime.INTERMEDIATE

    def test_custom_thresholds(self):
        assert classify_regime(0.5, thresholds=(0.5, 2.0)) is Regime.NONSECULAR
        with pytest.raises(ValueError):
            classify_regime(1.0, thresholds=(5.0, 2.0))

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(-0.1)


class TestBundles:
    @pytest.mark.filterwarnings("ignore:drive outside")
    def test_from_physical_consistent(self):
        drive, reservoir = make(3.0, 4.0, lam=2.0, omega_0=5.0)
        m = ModelParams.from_physical(drive, reservoir)
        assert m.regime.p == pytest.approx(2.5)
        assert m.regime.s == pytest.approx(2.5)

    def test_validity_warning(self):
        drive = DriveParams(omega_A=1.0, omega_L=1.0, Omega=0.9)
        reservoir = ReservoirParams(alpha=0.1, lambda_width=1.0, omega_0=1.0)
        with pytest.warns(UserWarning, match="validity"):
            ModelParams.from_physical(drive, reservoir)

    def test_from_dimensionless_keeps_regime(self):
        m = ModelParams.from_dimensionless(s=2.0, p=0.0, alpha=0.3, Delta=1.0, Omega=1.0)
        assert m.regime.p == 0.0
        assert m.coeffs.c_plus - m.coeffs.c_minus == pytest.approx(1.0)

    def test_invalid_reservoir(self):
        with pytest.raises(ValueError):
            ReservoirParams(alpha=-1.0, lambda_width=1.0)
        with pytest.raises(ValueError):
            UndrivenParams(alpha=0.1, lambda_width=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "cls, field", [(cls, name) for cls, kw in VALID_FIELDS.items() for name in kw],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_non_finite_field_rejected(self, cls, field, bad):
        # NaN passes every ordered check (x <= 0 is False), so finiteness is checked on its own
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cls(**{**VALID_FIELDS[cls], field: bad})

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            DriveParams(omega_A=1.0, omega_L=0.0, Omega=-1.0)

    def test_omega_recomputed(self):
        d = DriveParams(omega_A=4.0, omega_L=1.0, Omega=4.0)
        assert d.delta == pytest.approx(3.0)
        assert d.omega == pytest.approx(5.0)
        assert d.omega >= abs(d.delta)


def test_coefficients_defects_report():
    bad = Coefficients(c_plus=0.9, c_minus=-0.2, c_zero=0.4)
    d1, _, _ = bad.identity_defects()
    assert abs(d1 - 0.1) < 1e-15
