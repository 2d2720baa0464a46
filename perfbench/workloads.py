"""The four benchmark workloads: seeded inputs, CLI argv and per-op checks.

Every op is one call of ``backflow.cli.main(argv)``.  Inputs come from the
workload seed only: points of a low-discrepancy sequence (Roberts' R_d
Kronecker sequence) moved by a seeded random shift.  Every prefix of it
covers the parameter box evenly, so the share of ops in any region, such as
the inputs where the program aborts, barely changes from seed to seed,
while the inputs themselves do.  Draws are never filtered: an input that
makes the program fail is run, counted and reported like any other.

Driven scenarios are resonant (omega_A = omega_L) with lambda = 1, so the
dimensionless knobs are s = omega_0 - omega_L and p = Omega.  s covers
[0, 6], p is log-uniform in [0.01, 30], so ``--regime auto`` picks all three
driven generators, and alpha covers [0.2, 1].  omega_L = 1000 keeps
Omega <= 0.1 omega_A, inside the weak-drive window.

Only flags that name the physics are passed (no search sizes, substeps or
probe settings), so refactors of those internals need no change here.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import backflow
import numpy as np

import reference

#: Resonant drive frequency; keeps Omega = p <= 30 well inside Omega <= 0.1 omega_A.
OMEGA_L = 1000.0

#: Minimum-eigenvalue threshold at which ``evolve`` aborts, and the slack
#: allowed between the program's RK4 and the reference Magnus integrator.
POSITIVITY_LIMIT = 1e-6
INTEGRATOR_SLACK = 1e-7

#: Final-state tolerance: RK4 at the default substep 1e-3 drifts in phase by
#: up to ~1e-6 over T = 30 at the top of the p range (p = 30).
TRAJECTORY_ATOL = 1e-5

#: BLP tolerance: the objective at the seed (a Riemann sum of a
#: finite-difference derivative) reads 0.1-1.3% below the exact sum of rises.
BLP_RTOL = 0.03
BLP_ATOL = 1e-6

_ABORT = re.compile(r"positivity violated at t=([0-9.eE+-]+)")


@dataclass
class Outcome:
    """Result of checking one op.

    ``ok``: the op returned 0 and its outputs passed every check.
    ``correct``: the program behaved correctly; the run's ``failed`` counts
    the ops where it did not.  An op that is not ``ok`` can still be correct:
    a positivity abort that the reference integrator confirms is the program
    rightly refusing a non-physical state.  Such ops are the known
    full_nonsecular defect and are counted apart from failures.
    """

    ok: bool
    correct: bool
    values: dict = field(default_factory=dict)
    problem: str | None = None


def _fail(values: dict, problem: str) -> Outcome:
    return Outcome(ok=False, correct=False, values=values, problem=problem)


def _judge(values: dict, problems: list[str]) -> Outcome:
    if problems:
        return _fail(values, "; ".join(problems))
    return Outcome(ok=True, correct=True, values=values)


def _num(x: float) -> str:
    return repr(float(x))


def low_discrepancy(seed: int, dims: int):
    """Endless points in [0, 1)^dims: R_d sequence plus a shift drawn from seed.

    The step is (g^-1, ..., g^-dims) with g the positive root of
    g^(dims+1) = g + 1 (Roberts, 2018).
    """
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    step = g ** -np.arange(1.0, dims + 1.0)
    shift = np.random.default_rng(seed).random(dims)
    n = 0
    while True:
        n += 1
        yield (shift + n * step) % 1.0


def read_csv(path: Path) -> tuple[dict, list[str], list[str]]:
    """Provenance header, column names and data lines of a CLI CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = {}
    k = 0
    while lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition(" = ")
        header[key] = value
        k += 1
    return header, lines[k].split(","), lines[k + 1:]


def _grid_size(header: dict) -> int:
    return max(1, int(round(float(header["tmax"]) / float(header["step"])))) + 1


def _in_unit_interval(name: str, value, problems: list[str]):
    if not (isinstance(value, float) and 0.0 <= value < 1.0):
        problems.append(f"{name}={value!r} outside [0, 1)")


def _driven_generator(scenario: dict, regime: str):
    """The program's generator for a drawn scenario (the model under test)."""
    model = backflow.ModelParams.from_physical(
        backflow.DriveParams(omega_A=OMEGA_L, omega_L=OMEGA_L, Omega=scenario["p"]),
        backflow.ReservoirParams(
            alpha=scenario["alpha"], lambda_width=1.0, omega_0=OMEGA_L + scenario["s"]
        ),
    )
    return backflow.compile_generator(backflow.GeneratorSpec(regime, model))


class Workload:
    name = ""
    dims = 3

    def scenario(self, u: np.ndarray) -> dict:
        """Driven scenario from three uniforms."""
        return {
            "s": 6.0 * u[0],
            "p": 10.0 ** (-2.0 + u[1] * math.log10(3000.0)),
            "alpha": 0.2 + 0.8 * u[2],
        }

    def inputs(self, seed: int):
        """Endless stream of op inputs for this seed."""
        for u in low_discrepancy(seed, self.dims):
            yield self.scenario(u)

    @staticmethod
    def driven_flags(sc: dict) -> list[str]:
        return [
            "--alpha", _num(sc["alpha"]), "--lambda", "1.0",
            "--omegaA", _num(OMEGA_L), "--omegaL", _num(OMEGA_L),
            "--Omega", _num(sc["p"]), "--omega0", _num(OMEGA_L + sc["s"]),
        ]

    def argv(self, sc: dict, stem: Path) -> tuple[list[str], dict]:
        raise NotImplementedError

    def check(self, sc: dict, files: dict, rc: int, stderr: str) -> Outcome:
        raise NotImplementedError


class DrivenBackflow(Workload):
    name = "driven_backflow"

    def argv(self, sc, stem):
        files = {"csv": stem.with_suffix(".csv"), "json": stem.with_suffix(".json")}
        return ["blp", *self.driven_flags(sc), "--regime", "auto",
                "--out", str(files["csv"]), "--json", str(files["json"])], files

    def check(self, sc, files, rc, stderr):
        if rc != 0:
            return _fail({}, f"exit {rc}: {stderr.strip()}")
        header, _, rows = read_csv(files["csv"])
        summary = json.loads(files["json"].read_text(encoding="utf-8"))
        regime = header["generator"]
        n = summary["n_blp"]
        deltas = summary["best_deltas"]
        grid = np.linspace(0.0, float(header["tmax"]), _grid_size(header))
        if regime == "secular":
            D = reference.secular_distance(deltas, grid, sc["s"], sc["p"], sc["alpha"])
            how = "closed form"
        elif regime == "simplified_nonsecular":
            D = reference.resonant_nonsecular_distance(deltas, grid, sc["s"], sc["alpha"])
            how = "closed form"
        else:
            props = reference.magnus_propagators(_driven_generator(sc, regime), grid)
            D = 0.5 * np.linalg.norm(reference.bloch_linear(props) @ np.asarray(deltas), axis=1)
            how = "magnus"
        ref = reference.sum_of_rises(D)
        values = {"generator": regime, "n_blp": n, "best_deltas": deltas,
                  "reference": ref, "reference_kind": how}
        problems = []
        if abs(n - ref) > BLP_RTOL * ref + BLP_ATOL:
            problems.append(f"n_blp={n:.6e} vs {how} backflow of the best pair {ref:.6e}")
        if len(rows) != grid.size:
            problems.append(f"{len(rows)} CSV rows, expected {grid.size}")
        if not problems and regime == "full_nonsecular" and n >= 1.0:
            # the non-CP generator lets N_BLP grow with T_max; the value is right
            return Outcome(ok=False, correct=True, values=values,
                           problem=f"n_blp={n:.6e} >= 1 (matches the reference)")
        _in_unit_interval("n_blp", n, problems)
        return _judge(values, problems)


class DivisibilityLong(Workload):
    name = "divisibility_long"

    def argv(self, sc, stem):
        files = {"csv": stem.with_suffix(".csv"), "json": stem.with_suffix(".json")}
        closed = backflow.classify_regime(sc["p"]) is not backflow.Regime.INTERMEDIATE
        return ["rhp", *self.driven_flags(sc), "--regime", "auto", "--tmax", "200",
                "--method", "both" if closed else "numeric",
                "--out", str(files["csv"]), "--json", str(files["json"])], files

    def check(self, sc, files, rc, stderr):
        if rc != 0:
            return _fail({}, f"exit {rc}: {stderr.strip()}")
        header, _, rows = read_csv(files["csv"])
        summary = json.loads(files["json"].read_text(encoding="utf-8"))
        regime = header["generator"]
        n = summary["n_rhp"]
        cross = summary["cross_validation_max_error"]
        values = {"generator": regime, "n_rhp": n, "cross_error": cross}
        problems = []
        _in_unit_interval("n_rhp", n, problems)
        grid = np.linspace(0.0, float(header["tmax"]), _grid_size(header))
        if len(rows) != grid.size:
            problems.append(f"{len(rows)} CSV rows, expected {grid.size}")
        if regime != "full_nonsecular":
            if cross is None or cross > 1e-5:
                problems.append(f"cross_validation_max_error={cross!r} > 1e-5")
        else:
            g = reference.projected_defect(_driven_generator(sc, regime).dissipative_batch(grid))
            integral = float(np.trapezoid(g, grid))
            ref = integral / (integral + 1.0)
            values["reference"] = ref
            # the epsilon ladder is good to ~1e-9 per point; integrated over T_max
            if abs(n - ref) > 1e-6 * ref + 1e-9 * grid[-1]:
                problems.append(f"n_rhp={n:.9e} vs projected-spectrum {ref:.9e}")
        return _judge(values, problems)


class UndrivenSweep(Workload):
    name = "undriven_sweep"
    dims = 1
    # One worker: on 2 CPUs the 2-thread pool swung between overlapped and
    # serialized ops from run to run (p90 spread 21% over 5 seeds).
    points = 4

    def scenario(self, u):
        return {"alpha": 0.3 + 0.7 * u[0]}

    def argv(self, sc, stem):
        files = {"csv": stem.with_suffix(".csv")}
        a = sc["alpha"]
        axis = f"lambda={_num(0.8 * a)}:{_num(3.2 * a)}:{self.points}"
        return ["sweep", "--regime", "undriven", "--alpha", _num(a), "--axis", axis,
                "--workers", "1", "--out", str(files["csv"])], files

    def check(self, sc, files, rc, stderr):
        if rc != 0:
            return _fail({}, f"exit {rc}: {stderr.strip()}")
        header, columns, lines = read_csv(files["csv"])
        rows = [dict(zip(columns, line.split(","))) for line in lines]
        tmax, step = float(header["tmax"]), float(header["step"])
        problems, values = [], {"rows": []}
        if len(rows) != self.points:
            problems.append(f"{len(rows)} sweep rows, expected {self.points}")
        for row in rows:
            if row.get("error"):
                problems.append(f"row lambda={row['lambda']}: {row['error']}")
                continue
            lam, n_rhp, n_blp = float(row["lambda"]), float(row["n_rhp"]), float(row["n_blp"])
            ref_rhp, ref_blp = reference.undriven_measures(sc["alpha"], lam, tmax, step)
            values["rows"].append([lam, n_rhp, n_blp])
            _in_unit_interval("n_rhp", n_rhp, problems)
            _in_unit_interval("n_blp", n_blp, problems)
            if abs(n_rhp - ref_rhp) > 1e-7 * ref_rhp + 1e-12:
                problems.append(f"lambda={lam}: n_rhp={n_rhp:.9e} vs envelope {ref_rhp:.9e}")
            if abs(n_blp - ref_blp) > BLP_RTOL * ref_blp + BLP_ATOL:
                problems.append(f"lambda={lam}: n_blp={n_blp:.6e} vs envelope {ref_blp:.6e}")
        return _judge(values, problems)


class DrivenTrajectory(Workload):
    name = "driven_trajectory"
    dims = 5

    def scenario(self, u):
        sc = super().scenario(u[:3])
        z = 1.0 - 2.0 * u[3]
        phi = 2.0 * math.pi * u[4]
        r = math.sqrt(max(0.0, 1.0 - z * z))
        sc["bloch"] = [r * math.cos(phi), r * math.sin(phi), z]
        return sc

    def argv(self, sc, stem):
        files = {"csv": stem.with_suffix(".csv")}
        bloch = ",".join(_num(v) for v in sc["bloch"])
        return ["evolve", *self.driven_flags(sc), "--regime", "auto",
                f"--bloch={bloch}", "--out", str(files["csv"])], files

    def check(self, sc, files, rc, stderr):
        # an aborted op writes no CSV, so the generator comes from the auto rule
        regime = {
            backflow.Regime.NONSECULAR: "simplified_nonsecular",
            backflow.Regime.INTERMEDIATE: "full_nonsecular",
            backflow.Regime.SECULAR: "secular",
        }[backflow.classify_regime(sc["p"])]
        header, _, rows = read_csv(files["csv"]) if rc == 0 else ({}, [], [])
        tmax, step = float(header.get("tmax", 30.0)), float(header.get("step", 1e-2))
        grid = np.arange(0.0, tmax + 0.5 * step, step)
        props = reference.magnus_propagators(_driven_generator(sc, regime), grid)
        bloch, low = reference.trajectory(props, sc["bloch"])
        values = {"generator": regime}
        if rc == 0:
            final = [float(v) for v in rows[-1].split(",")[1:4]]
            err = float(np.max(np.abs(np.asarray(final) - bloch[-1])))
            values.update(final_bloch=final, reference_error=err)
            problems = []
            if header["generator"] != regime:
                problems.append(f"generator {header['generator']}, expected {regime}")
            if len(rows) != grid.size:
                problems.append(f"{len(rows)} CSV rows, expected {grid.size}")
            if err > TRAJECTORY_ATOL:
                problems.append(f"final Bloch vector off the reference by {err:.3e}")
            if low.min() < -POSITIVITY_LIMIT - INTEGRATOR_SLACK:
                problems.append(f"reference min eigenvalue {low.min():.3e} but no abort")
            return _judge(values, problems)
        match = _ABORT.search(stderr)
        if rc != 2 or match is None:
            return _fail(values, f"exit {rc}: {stderr.strip()}")
        t_abort = float(match.group(1))
        k = int(round(t_abort / step))
        values["abort_t"] = t_abort
        values["reference_min_eig"] = float(low[k])
        confirmed = (
            0 < k < grid.size
            and low[k] < -POSITIVITY_LIMIT + INTEGRATOR_SLACK
            and low[:k].min() >= -POSITIVITY_LIMIT - INTEGRATOR_SLACK
        )
        if not confirmed:
            return _fail(values, f"abort at t={t_abort} not confirmed by the reference")
        return Outcome(ok=False, correct=True, values=values,
                       problem=f"positivity abort at t={t_abort} (confirmed)")


WORKLOADS = {w.name: w for w in (DrivenBackflow(), DivisibilityLong(),
                                 UndrivenSweep(), DrivenTrajectory())}
