"""Parameter sweeps and the driven-vs-undriven comparison.

A sweep evaluates rates or measures on a 1- or 2-axis grid of model
parameters and returns one ordered row per grid point; per-point failures go
into an ``error`` column and the sweep continues.  Axes may address the
physical parameters directly (alpha, lambda, omega_0, omega_L, omega_A,
Omega, with the flag spellings omega0/omegaL/omegaA also accepted) or the
dimensionless knobs s and p, which are folded back onto omega_0 and Omega
before the model is built.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .blp import blp_measure
from .dynamics import DEFAULT_SUBSTEP, DEFAULT_T_MAX
from .generator import GeneratorSpec
from .params import (
    DriveParams,
    ModelParams,
    Regime,
    ReservoirParams,
    UndrivenParams,
    classify_regime,
)
from .rates import nondriven_first_pole, nondriven_rate, rate_table
from .rhp import rhp_measure

#: Resolved parameter defaults shared by the sweep machinery and the CLI.
DEFAULT_VALUES = {
    "alpha": 0.5,
    "lambda": 1.0,
    "omega_A": 100.0,
    "omega_L": 100.0,
    "Omega": 10.0,
    "omega_0": 101.0,
}

PARAM_NAMES = tuple(DEFAULT_VALUES)
AXIS_NAMES = PARAM_NAMES + ("s", "p")

#: Flag-style spellings accepted wherever a parameter name is expected.
_NAME_ALIASES = {"omega0": "omega_0", "omegaL": "omega_L", "omegaA": "omega_A"}

OUTPUT_KINDS = ("rates", "rhp", "blp", "both-measures")

#: Measure thresholds used to call a scenario (non-)Markovian in reports:
#: at most finite-difference noise on one side, clearly above it on the other.
MARKOVIAN_TOL = 1e-6
NON_MARKOVIAN_TOL = 1e-5

_REGIME_FOR_CLASS = {
    Regime.NONSECULAR: "simplified_nonsecular",
    Regime.INTERMEDIATE: "full_nonsecular",
    Regime.SECULAR: "secular",
}


def resolve_values(overrides: dict | None = None) -> dict:
    """Defaults with overrides applied; unknown keys are rejected.

    The dimensionless knobs s and p are folded in last, so they compose with
    overridden physical parameters: s moves omega_0, p sets the drive to a
    resonant one of Rabi frequency p * lambda.
    """
    overrides = {_NAME_ALIASES.get(k, k): v for k, v in (overrides or {}).items()}
    s = overrides.pop("s", None)
    p = overrides.pop("p", None)
    values = dict(DEFAULT_VALUES)
    for key, val in overrides.items():
        if key not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {key!r}; expected one of {AXIS_NAMES}")
        values[key] = float(val)
    if s is not None:
        values["omega_0"] = values["omega_L"] + float(s) * values["lambda"]
    if p is not None:
        values["Omega"] = float(p) * values["lambda"]
        values["omega_A"] = values["omega_L"]
    return values


def build_model(values: dict) -> ModelParams:
    """ModelParams from a resolved parameter mapping."""
    drive = DriveParams(
        omega_A=values["omega_A"], omega_L=values["omega_L"], Omega=values["Omega"]
    )
    reservoir = ReservoirParams(
        alpha=values["alpha"], lambda_width=values["lambda"], omega_0=values["omega_0"]
    )
    return ModelParams.from_physical(drive, reservoir)


def pick_regime(regime: str, params: ModelParams) -> str:
    """Map the CLI regime name (possibly 'auto') onto a generator regime."""
    if regime == "auto":
        return _REGIME_FOR_CLASS[classify_regime(params.regime.p)]
    return regime


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: evenly spaced values of one parameter."""

    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "name", _NAME_ALIASES.get(self.name, self.name))
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; expected one of {AXIS_NAMES}")
        if self.steps < 1:
            raise ValueError("axis needs at least one step")
        if self.steps > 1 and self.stop == self.start:
            raise ValueError(f"degenerate range for axis {self.name!r}")

    @property
    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Axes, fixed parameters, regime and requested outputs of a sweep."""

    axes: tuple[SweepAxis, ...]
    outputs: str = "both-measures"
    regime: str = "auto"
    fixed: dict = field(default_factory=dict)
    T_max: float = DEFAULT_T_MAX
    step: float = 1e-2
    substep: float = DEFAULT_SUBSTEP

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("sweeps support one or two axes")
        if self.outputs not in OUTPUT_KINDS:
            raise ValueError(f"unknown outputs {self.outputs!r}; expected {OUTPUT_KINDS}")
        self._check_base()

    def _check_base(self):
        """Reject a fixed parameter that no axis replaces and no point can accept.

        Such a value would fail every point alike, so it is an input error of
        the sweep, not a per-point one.
        """
        replaced = {ax.name for ax in self.axes}
        if "s" in replaced:
            replaced.add("omega_0")
        if "p" in replaced:
            replaced.update(("Omega", "omega_A"))
        used = ("alpha", "lambda") if self.regime == "undriven" else PARAM_NAMES
        values = resolve_values(self.fixed)
        for name in (n for n in used if n not in replaced):
            value = values[name]
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("alpha", "lambda") and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if name == "Omega" and value < 0:
                raise ValueError(f"Omega must be nonnegative, got {value}")

    def points(self) -> list[dict]:
        if len(self.axes) == 1:
            return [{self.axes[0].name: float(v)} for v in self.axes[0].values]
        a, b = self.axes
        return [
            {a.name: float(va), b.name: float(vb)}
            for va in a.values
            for vb in b.values
        ]


def _sweep_point(spec: SweepSpec, point: dict) -> dict:
    row = dict(point)
    values = resolve_values({**spec.fixed, **point})
    step, substep = spec.step, spec.substep
    if spec.regime == "undriven":
        uparams = UndrivenParams(alpha=values["alpha"], lambda_width=values["lambda"])
        gen_spec = GeneratorSpec("undriven", uparams)
        T_max = spec.T_max / values["lambda"]
        step, substep = step / values["lambda"], substep / values["lambda"]
    else:
        model = build_model(values)
        gen_spec = GeneratorSpec(pick_regime(spec.regime, model), model)
        T_max = spec.T_max

    if spec.outputs == "rates":
        if spec.regime == "undriven":
            pole = nondriven_first_pole(values["alpha"], values["lambda"])
            t_end = T_max if pole is None else min(T_max, 0.999 * pole)
            ts = np.linspace(0.0, t_end, 512)
            row["gamma_min"] = float(
                np.min(nondriven_rate(ts, values["alpha"], values["lambda"]))
            )
        else:
            ts = np.linspace(0.0, T_max, 2048)
            model = gen_spec.params
            gammas, _ = rate_table(ts, model.regime.s, model.regime.p, values["alpha"])
            row["gamma_min_minus"] = float(gammas[0].min())
            row["gamma_min_zero"] = float(gammas[1].min())
            row["gamma_min_plus"] = float(gammas[2].min())
        return row

    if spec.outputs in ("rhp", "both-measures"):
        report = rhp_measure(gen_spec, T_max=T_max, step=step, method="auto")
        row["n_rhp"] = report.measure
        row["rhp_integral"] = report.integral
    if spec.outputs in ("blp", "both-measures"):
        report = blp_measure(gen_spec, T_max=T_max, step=step, substep=substep)
        row["n_blp"] = report.measure
    return row


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[dict]:
    """Evaluate the sweep; one row per point, in deterministic product order.

    Failures are recorded in the row's ``error`` field and do not stop the
    sweep.  An invalid fixed parameter is rejected earlier, by ``SweepSpec``.
    """
    points = spec.points()
    rows: list[dict | None] = [None] * len(points)

    def safe(point: dict) -> dict:
        try:
            return _sweep_point(spec, point)
        except Exception as exc:  # recorded per point, sweep continues
            return {**point, "error": f"{type(exc).__name__}: {exc}"}

    if workers <= 1:
        for i, point in enumerate(points):
            rows[i] = safe(point)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            for i, row in enumerate(pool.map(safe, points)):
                rows[i] = row
    return [r for r in rows if r is not None]


def run_compare(
    values: dict | None = None,
    T_max: float = DEFAULT_T_MAX,
    step: float = 1e-2,
    substep: float = DEFAULT_SUBSTEP,
) -> dict:
    """Measure the undriven qubit and the driven qubit in the same reservoir.

    The undriven horizon is T_max / lambda (physical time), the driven one
    T_max (dimensionless).  The report flags laser-induced non-Markovianity
    when the undriven dynamics is Markovian within tolerance while the driven
    dynamics is not.
    """
    values = resolve_values(values)
    lam = values["lambda"]
    uparams = UndrivenParams(alpha=values["alpha"], lambda_width=lam)
    u_spec = GeneratorSpec("undriven", uparams)
    u_T = T_max / lam
    u_rhp = rhp_measure(u_spec, T_max=u_T, step=step / lam, method="analytic").measure
    u_blp = blp_measure(u_spec, T_max=u_T, step=step / lam, substep=substep / lam).measure

    model = build_model(values)
    regime = pick_regime("auto", model)
    d_spec = GeneratorSpec(regime, model)
    d_rhp = rhp_measure(d_spec, T_max=T_max, step=step, method="auto").measure
    d_blp = blp_measure(d_spec, T_max=T_max, step=step, substep=substep).measure

    undriven_markovian = max(u_rhp, u_blp) <= MARKOVIAN_TOL
    driven_non_markovian = min(d_rhp, d_blp) >= NON_MARKOVIAN_TOL
    return {
        "undriven": {
            "alpha": values["alpha"],
            "lambda": lam,
            "t_max": u_T,
            "n_rhp": u_rhp,
            "n_blp": u_blp,
            "markovian": undriven_markovian,
        },
        "driven": {
            "regime": regime,
            "s": model.regime.s,
            "p": model.regime.p,
            "T_max": T_max,
            "n_rhp": d_rhp,
            "n_blp": d_blp,
            "non_markovian": driven_non_markovian,
        },
        "laser_induced_non_markovianity": bool(undriven_markovian and driven_non_markovian),
    }
