"""Trace-distance dynamics and the information-backflow measure.

Two states evolving under the same open dynamics can only get harder to
distinguish while the evolution is divisible; intervals where their trace
distance D(t) grows mark information returning from the environment.  The
measure N_BLP maximizes the accumulated growth over initial state pairs.
Every pair is dominated by the antipodal pure pair along its Bloch
difference, so the search runs over directions only: a Fibonacci-sphere
grid, refined by Nelder-Mead over the two angles.

Run:  python demos/information_backflow.py
"""

import os

import numpy as np

from backflow import GeneratorSpec, ModelParams, blp_measure
from backflow.blp import backflow_of, bloch_map_grid, pair_distance_series
from backflow.plotting import emit_plot

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
spec = GeneratorSpec("secular", params)

report = blp_measure(spec, T_max=30.0)
print("secular s=1, p=10, alpha=0.5")
print(f"  N_BLP = {report.measure:.6e} after {report.n_evaluations} pair evaluations")
print(f"  best pair Bloch difference (dx, dy, dz) = "
      f"({report.best_deltas[0]:+.3f}, {report.best_deltas[1]:+.3f}, {report.best_deltas[2]:+.3f})")

# The winning pair sits on the poles of the dressed z axis: its distance is
# driven by the population rates, whose negative windows are the deepest.
D_best = report.distance
sigma_best = np.gradient(D_best, report.grid, edge_order=2)
maps = bloch_map_grid(spec, report.grid)
D_eq = pair_distance_series(maps, np.array([2.0, 0.0, 0.0]))
emit_plot(
    [("best pair", report.grid, D_best), ("equatorial pair", report.grid, D_eq)],
    os.path.join(OUT, "trace_distance.svg"),
    title="distinguishability of evolving pairs", xlabel="T", ylabel="D",
)
emit_plot(
    [("best pair", report.grid, sigma_best)],
    os.path.join(OUT, "sigma.svg"),
    title="trace-distance derivative (positive = backflow)", xlabel="T", ylabel="sigma",
)

eq_value = backflow_of(D_eq)
print(f"  equatorial antipodal pair accumulates {eq_value:.6e} -- the polar pair wins")
print(f"\nplots written to {OUT}/")
