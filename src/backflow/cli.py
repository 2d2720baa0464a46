"""Command-line front end.

Subcommands: rates, evolve, rhp, blp, compare, sweep.  Series go to CSV
(with a full provenance header), scalar summaries to JSON, plots to SVG.
Runs are deterministic: identical flags give identical output.

Parameters come from built-in defaults, overridden by a flat key = value
config file (keys: omega_A, omega_L, Omega, alpha, lambda, omega_0; blank
lines and '#' comments ignored), overridden by CLI flags.  --tmax is the
horizon in units of 1/lambda: the dimensionless T for driven regimes, and
tmax/lambda of physical time for the undriven one.

Exit codes: 0 success, 1 bad input, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .blp import SearchConfig, backflow_of, bloch_map_grid, blp_measure, pair_distance_series
from .dynamics import DEFAULT_SUBSTEP, IntegrationError, QubitState, evolve
from .generator import GeneratorSpec
from .params import UndrivenParams
from .rates import PoleError, nondriven_first_pole, nondriven_rate, rate_table
from .rhp import rhp_measure
from .plotting import emit_plot
from .sweep import (
    AXIS_NAMES,
    OUTPUT_KINDS,
    SweepAxis,
    SweepSpec,
    build_model,
    pick_regime,
    resolve_values,
    run_compare,
    run_sweep,
)

REGIME_CHOICES = ("auto", "secular", "full_nonsecular", "simplified_nonsecular", "undriven")

_CONFIG_KEYS = {"omega_A", "omega_L", "Omega", "alpha", "lambda", "omega_0"}

_NUMERIC_ERRORS = (PoleError, IntegrationError, ArithmeticError)


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # shortest exact round-trip
    return str(v)


def read_config(path: str) -> dict:
    """Parse the flat key = value parameter file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliInputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise CliInputError(
                    f"{path}:{lineno}: unknown key {key!r}; expected one of {sorted(_CONFIG_KEYS)}"
                )
            try:
                out[key] = float(value.strip())
            except ValueError as exc:
                raise CliInputError(f"{path}:{lineno}: bad number {value.strip()!r}") from exc
    return out


def _resolved_values(args) -> dict:
    overrides = {}
    if args.config:
        overrides.update(read_config(args.config))
    for key, attr in (
        ("alpha", "alpha"),
        ("lambda", "lam"),
        ("omega_0", "omega_0"),
        ("omega_L", "omega_L"),
        ("omega_A", "omega_A"),
        ("Omega", "Omega"),
    ):
        val = getattr(args, attr)
        if val is not None:
            overrides[key] = val
    return resolve_values(overrides)


def _driven_spec(args, values) -> GeneratorSpec:
    model = build_model(values)
    return GeneratorSpec(pick_regime(args.regime, model), model)


def _provenance(args, values, **extra) -> dict:
    prov = {"command": args.command, "version": __version__, "regime": args.regime}
    prov.update({k: values[k] for k in sorted(values)})
    prov.update(tmax=args.tmax, step=args.step, substep=args.substep)
    prov.update(extra)
    return prov


def _write_csv(path, provenance: dict, columns, rows):
    lines = [f"# {key} = {_fmt(provenance[key])}" for key in sorted(provenance)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit(args, provenance, columns, rows, summary=None):
    """Route CSV/JSON to --out/--json/stdout per --format."""
    if args.format == "json" and args.out is None and summary is not None:
        _write_json(args.json, summary)
        return
    _write_csv(args.out, provenance, columns, rows)
    if summary is not None and args.json is not None:
        _write_json(args.json, summary)


def _positive_float(text: str) -> float:
    """Argument type of --tmax, --step and --substep: a finite number > 0."""
    try:
        value = float(text)
        ok = np.isfinite(value) and value > 0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"expects a finite positive number, got {text!r}")
    return value


def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliInputError(f"{flag} expects 'x,y,z', got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise CliInputError(f"{flag} expects numbers, got {text!r}") from exc
    return x, y, z


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rates(args) -> int:
    values = _resolved_values(args)
    if args.regime == "undriven":
        params = UndrivenParams(alpha=values["alpha"], lambda_width=values["lambda"])
        alpha, lam = params.alpha, params.lambda_width
        t_end = args.tmax / lam
        prov_extra = {}
        pole = nondriven_first_pole(alpha, lam)
        if pole is not None and t_end >= pole:
            t_end = 0.999 * pole
            prov_extra["truncated_at_pole"] = pole
        ts = np.arange(0.0, t_end + 0.5 * args.step / lam, args.step / lam)
        gamma = nondriven_rate(ts, alpha, lam)
        prov = _provenance(args, values, **prov_extra)
        rows = [(t, g) for t, g in zip(ts, np.atleast_1d(gamma))]
        _write_csv(args.out, prov, ["t", "gamma"], rows)
        if args.plot:
            emit_plot([("gamma", ts, np.atleast_1d(gamma))], args.plot,
                      xlabel="t", ylabel="rate")
        return 0

    model = build_model(values)
    ts = np.arange(0.0, args.tmax + 0.5 * args.step, args.step)
    gammas, lambs = rate_table(ts, model.regime.s, model.regime.p, values["alpha"])
    prov = _provenance(args, values, s=model.regime.s, p=model.regime.p)
    columns = ["T", "gamma_minus", "gamma_zero", "gamma_plus",
               "lamb_minus", "lamb_zero", "lamb_plus"]
    rows = zip(ts, gammas[0], gammas[1], gammas[2], lambs[0], lambs[1], lambs[2])
    _write_csv(args.out, prov, columns, rows)
    if args.plot:
        emit_plot(
            [("gamma_minus", ts, gammas[0]), ("gamma_zero", ts, gammas[1]),
             ("gamma_plus", ts, gammas[2])],
            args.plot, xlabel="T", ylabel="rate",
        )
    return 0


def cmd_evolve(args) -> int:
    values = _resolved_values(args)
    x, y, z = _parse_triple(args.bloch, "--bloch")
    try:
        rho0 = QubitState.from_bloch(x, y, z)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    if args.regime == "undriven":
        spec = GeneratorSpec(
            "undriven", UndrivenParams(alpha=values["alpha"], lambda_width=values["lambda"])
        )
        grid = np.arange(0.0, (args.tmax + 0.5 * args.step) / values["lambda"],
                         args.step / values["lambda"])
        substep = args.substep / values["lambda"]
    else:
        spec = _driven_spec(args, values)
        grid = np.arange(0.0, args.tmax + 0.5 * args.step, args.step)
        substep = args.substep
    traj = evolve(rho0, spec, grid, substep=substep)
    bloch = traj.bloch
    purity = 0.5 * (1.0 + np.sum(bloch**2, axis=1))
    prov = _provenance(args, values, bloch0=args.bloch, generator=spec.regime)
    rows = zip(traj.grid, bloch[:, 0], bloch[:, 1], bloch[:, 2], purity)
    _write_csv(args.out, prov, ["t", "x", "y", "z", "purity"], rows)
    if args.plot:
        emit_plot(
            [("x", traj.grid, bloch[:, 0]), ("y", traj.grid, bloch[:, 1]),
             ("z", traj.grid, bloch[:, 2])],
            args.plot, xlabel="t", ylabel="Bloch component",
        )
    return 0


def _measure_spec(args, values) -> tuple[GeneratorSpec, float, float, float]:
    """Generator spec plus (T_max, step, substep) in that regime's time unit."""
    if args.regime == "undriven":
        lam = values["lambda"]
        spec = GeneratorSpec(
            "undriven", UndrivenParams(alpha=values["alpha"], lambda_width=lam)
        )
        return spec, args.tmax / lam, args.step / lam, args.substep / lam
    return _driven_spec(args, values), args.tmax, args.step, args.substep


def cmd_rhp(args) -> int:
    values = _resolved_values(args)
    spec, t_max, step, _ = _measure_spec(args, values)
    report = rhp_measure(spec, T_max=t_max, step=step, method=args.method,
                         literature_form=args.literature_form)
    prov = _provenance(args, values, generator=spec.regime, method=report.method)
    blank = [""] * report.grid.size
    g_num = report.g_numeric if report.g_numeric is not None else blank
    g_ana = report.g_analytic if report.g_analytic is not None else blank
    rows = zip(report.grid, g_num, g_ana)
    summary = {
        "integral": report.integral,
        "n_rhp": report.measure,
        "method": report.method,
        "cross_validation_max_error": report.cross_error,
        "tail_bound": report.tail_bound,
    }
    if report.tail_bound is not None and report.tail_bound > 1e-6:
        summary["tail_warning"] = (
            f"tail estimate {report.tail_bound:.3e} exceeds 1e-6; increase --tmax"
        )
    _emit(args, prov, ["T", "g_numeric", "g_analytic"], rows, summary)
    if args.plot:
        series = []
        if report.g_numeric is not None:
            series.append(("g numeric", report.grid, report.g_numeric))
        if report.g_analytic is not None:
            series.append(("g analytic", report.grid, report.g_analytic))
        emit_plot(series, args.plot, xlabel="T", ylabel="g")
    return 0


def cmd_blp(args) -> int:
    values = _resolved_values(args)
    spec, t_max, step, substep = _measure_spec(args, values)
    if (args.pair1 is None) != (args.pair2 is None):
        raise CliInputError("--pair1 and --pair2 must be given together")

    if args.pair1 is not None:
        b1 = _parse_triple(args.pair1, "--pair1")
        b2 = _parse_triple(args.pair2, "--pair2")
        try:
            r1, r2 = QubitState.from_bloch(*b1), QubitState.from_bloch(*b2)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
        n = max(1, int(round(t_max / step)))
        grid = np.linspace(0.0, t_max, n + 1)
        maps = bloch_map_grid(spec, grid, substep=substep)
        D = pair_distance_series(maps, r1.bloch - r2.bloch)
        summary = {
            "mode": "fixed-pair",
            "pair_backflow": backflow_of(D),
            "bloch1": list(b1),
            "bloch2": list(b2),
        }
        prov = _provenance(args, values, generator=spec.regime,
                           pair1=args.pair1, pair2=args.pair2)
    else:
        config = SearchConfig(n_directions=args.directions, n_refine=args.refine)
        report = blp_measure(spec, T_max=t_max, step=step, config=config, substep=substep)
        grid, D = report.grid, report.distance
        top = np.sort(report.stage1_values)[::-1][:5]
        summary = {
            "mode": "search",
            "n_blp": report.measure,
            "best_bloch1": [float(v) for v in report.best_pair.rho1.bloch],
            "best_bloch2": [float(v) for v in report.best_pair.rho2.bloch],
            "best_deltas": list(report.best_deltas),
            "n_evaluations": report.n_evaluations,
            "stage1_top_values": [float(v) for v in top],
            "search": {"directions": config.n_directions, "refine": config.n_refine},
        }
        prov = _provenance(args, values, generator=spec.regime,
                           directions=config.n_directions, refine=config.n_refine)
    sigma = np.gradient(D, grid, edge_order=2)
    rows = zip(grid, D, sigma)
    _emit(args, prov, ["t", "D", "sigma"], rows, summary)
    if args.plot:
        emit_plot([("D", grid, D), ("sigma", grid, sigma)], args.plot,
                  xlabel="t", ylabel="trace distance / derivative")
    return 0


def cmd_compare(args) -> int:
    values = _resolved_values(args)
    report = run_compare(values, T_max=args.tmax, step=args.step, substep=args.substep)
    _write_json(args.json if args.json else args.out, report)
    return 0


def _parse_axis(text: str) -> SweepAxis:
    name, _, rng = text.partition("=")
    parts = rng.split(":")
    if not rng or len(parts) != 3:
        raise CliInputError(f"--axis expects name=start:stop:steps, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliInputError(f"bad axis range in {text!r}") from exc
    try:
        return SweepAxis(name=name.strip(), start=start, stop=stop, steps=steps)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def cmd_sweep(args) -> int:
    if not args.axis:
        raise CliInputError("sweep needs at least one --axis name=start:stop:steps")
    axes = tuple(_parse_axis(a) for a in args.axis)
    values = _resolved_values(args)
    fixed = {k: values[k] for k in values}
    try:
        spec = SweepSpec(
            axes=axes,
            outputs=args.outputs,
            regime=args.regime,
            fixed=fixed,
            T_max=args.tmax,
            step=args.step,
            substep=args.substep,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    rows = run_sweep(spec, workers=args.workers)

    columns = [ax.name for ax in axes]
    extra = sorted({k for row in rows for k in row} - set(columns) - {"error"})
    columns += extra + ["error"]
    prov = _provenance(args, values, outputs=args.outputs,
                       axes=";".join(args.axis), workers=args.workers)
    table = [[row.get(c, "") for c in columns] for row in rows]
    _write_csv(args.out, prov, columns, table)

    if args.plot:
        if len(axes) != 1:
            raise CliInputError("--plot for sweeps requires a single axis")
        xs = [row[axes[0].name] for row in rows if "error" not in row]
        series = []
        for col in extra:
            ys = [row[col] for row in rows if "error" not in row]
            if ys and all(isinstance(v, (int, float)) for v in ys):
                series.append((col, xs, ys))
        emit_plot(series, args.plot, xlabel=axes[0].name)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value parameter file")
    common.add_argument("--alpha", type=float, help="reservoir coupling")
    common.add_argument("--lambda", dest="lam", type=float, help="Lorentzian width")
    common.add_argument("--omega0", dest="omega_0", type=float, help="Lorentzian center")
    common.add_argument("--omegaL", dest="omega_L", type=float, help="laser frequency")
    common.add_argument("--omegaA", dest="omega_A", type=float, help="qubit splitting")
    common.add_argument("--Omega", dest="Omega", type=float, help="Rabi frequency")
    common.add_argument("--regime", choices=REGIME_CHOICES, default="auto")
    common.add_argument("--tmax", type=_positive_float, default=30.0,
                        help="horizon in units of 1/lambda (default 30)")
    common.add_argument("--step", type=_positive_float, default=1e-2, help="output grid step")
    common.add_argument("--substep", type=_positive_float, default=DEFAULT_SUBSTEP,
                        help="largest 4th-order Magnus step (default: the grid step 0.01)")
    common.add_argument("--out", help="CSV output path (default stdout)")
    common.add_argument("--json", help="JSON summary path")
    common.add_argument("--plot", help="SVG plot path")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="what to print to stdout when --out is not given")

    parser = _Parser(prog="backflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("rates", parents=[common], help="decay and shift rate series")

    p_evolve = sub.add_parser("evolve", parents=[common], help="integrate one trajectory")
    p_evolve.add_argument("--bloch", default="1,0,0", help="initial Bloch vector x,y,z")

    p_rhp = sub.add_parser("rhp", parents=[common], help="divisibility measure")
    p_rhp.add_argument("--method", choices=("auto", "numeric", "analytic", "both"),
                       default="auto")
    p_rhp.add_argument("--literature-form", action="store_true",
                       help="use the closed forms as printed in the literature")

    p_blp = sub.add_parser("blp", parents=[common], help="information-backflow measure")
    p_blp.add_argument("--directions", type=int, default=128,
                       help="antipodal sphere-grid directions")
    p_blp.add_argument("--refine", type=int, default=3,
                       help="stage-1 candidates refined by Nelder-Mead")
    p_blp.add_argument("--pair1", help="fixed-pair mode: first Bloch vector x,y,z")
    p_blp.add_argument("--pair2", help="fixed-pair mode: second Bloch vector x,y,z")

    sub.add_parser("compare", parents=[common],
                   help="undriven vs driven measures in the same reservoir")

    p_sweep = sub.add_parser("sweep", parents=[common], help="parameter sweep")
    p_sweep.add_argument("--axis", action="append", default=[],
                         help=f"name=start:stop:steps with name in {AXIS_NAMES}")
    p_sweep.add_argument("--outputs", choices=OUTPUT_KINDS, default="both-measures")
    p_sweep.add_argument("--workers", type=int, default=1)

    return parser


_COMMANDS = {
    "rates": cmd_rates,
    "evolve": cmd_evolve,
    "rhp": cmd_rhp,
    "blp": cmd_blp,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS + (np.linalg.LinAlgError,) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
