"""Divisibility defect g(T) and the measure N = I/(I+1).

g(T) is computed two independent ways and cross-validated:

* numerically, from the negative eigenvalues of the generator's Choi
  matrix projected off the maximally entangled probe: the exact eps -> 0
  limit of the probe's trace-norm growth under I + eps L(T);
* analytically, from the negative parts of the decay rates.

Wherever every rate is nonnegative the generator is a legitimate (completely
positive) channel generator and g vanishes; a negative rate opens a
non-contractive direction and g switches on.

Run:  python demos/divisibility_measure.py
"""

import os

from backflow import GeneratorSpec, ModelParams, rhp_measure
from backflow.plotting import emit_plot

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# --- secular regime: the +/- channels always ring negative -----------------
params = ModelParams.from_dimensionless(s=1.0, p=10.0, alpha=0.5)
report = rhp_measure(GeneratorSpec("secular", params), T_max=30.0, method="both")
print("secular s=1, p=10, alpha=0.5")
print(f"  I = {report.integral:.6e}, N_RHP = {report.measure:.6e}")
print(f"  cross-validation max |g_numeric - g_analytic| = {report.cross_error:.2e}")
emit_plot(
    [("g numeric", report.grid, report.g_numeric),
     ("g analytic", report.grid, report.g_analytic)],
    os.path.join(OUT, "g_secular.svg"),
    title="divisibility defect, secular regime", xlabel="T", ylabel="g",
)

# --- nonsecular regime: g switches on with the reservoir detuning ----------
print("\nsingle-channel nonsecular, p = 0.01, alpha = 0.5")
for s in (2.0, 5.0):
    p = ModelParams.from_dimensionless(s=s, p=0.01, alpha=0.5)
    rep = rhp_measure(GeneratorSpec("simplified_nonsecular", p), T_max=30.0, method="both")
    tag = "Markovian" if rep.measure == 0.0 else "non-Markovian"
    print(f"  s = {s:g}: N_RHP = {rep.measure:.6e}  ({tag}, "
          f"cross error {rep.cross_error:.1e})")

# --- the measure saturates when the defect diverges -------------------------
from backflow import UndrivenParams

rep = rhp_measure(GeneratorSpec("undriven", UndrivenParams(alpha=1.0, lambda_width=1.0)),
                  T_max=30.0, method="analytic")
print(f"\nundriven strong coupling: N_RHP = {rep.measure:.4f} (approaches 1: the")
print("rate diverges at the envelope zeros, so the defect integral blows up)")
print(f"\nplots written to {OUT}/")
