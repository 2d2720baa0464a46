#!/usr/bin/env python3
"""Benchmark of the ``backflow`` command line, one workload per run.

    python3 perfbench/run.py --workload driven_backflow --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root; the program is imported from ``src/``.  Each
op is one in-process call of ``backflow.cli.main(argv)`` in a closed loop
with one client, timed from call to return (CLI outputs written).  Ops run
until their summed time reaches ``--seconds``.  Every op is checked against
an independent reference outside the timed region (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
input twice, untraced and with every layer wrapped (see ``tracing.py``),
in alternating order, and reports the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; per-op records,
provenance and spans go to ``.bench_out/``.
"""

import os

# Before numpy loads: one BLAS thread, so no workload runs more threads than
# the sweep's own pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPEATS = 7
SETUP_CODE = "import backflow.cli as cli; cli.build_parser()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program():
    """backflow.cli from this checkout's src/, or exit non-zero."""
    import backflow.cli

    where = Path(backflow.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"backflow was imported from {where}, not from {SRC}")
    return backflow.cli


def git_commit() -> str | None:
    """HEAD commit read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "backflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def setup_times(env) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its parser."""
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
    return out


def run_op(cli, workload, scenario, stem, op_id, tracer=None) -> dict:
    """One timed CLI call, then its check (untimed); removes the op's files."""
    argv, files = workload.argv(scenario, stem)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = tracer.run_op(op_id, cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # an uncaught program error is a failed op, not a crash
            rc = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    bytes_out = len(out.getvalue().encode()) + sum(
        f.stat().st_size for f in files.values() if f.exists())
    try:
        outcome = workload.check(scenario, files, rc, err.getvalue())
    except Exception:
        outcome = Outcome(ok=False, correct=False, problem="check raised:\n" + traceback.format_exc())
    for f in files.values():
        f.unlink(missing_ok=True)
    gc.collect()
    return {
        "op": op_id, "argv": argv, "wall_s": wall, "rc": rc, "ok": outcome.ok,
        "correct": outcome.correct, "problem": outcome.problem, "values": outcome.values,
        "bytes_out": bytes_out, "warnings": [str(w.message) for w in caught],
    }


def run_ops(cli, workload, scenarios, seconds, tmpdir) -> list[dict]:
    """Ops in a closed loop until their summed wall time reaches ``seconds``."""
    records, spent = [], 0.0
    for i, scenario in enumerate(scenarios):
        if spent >= seconds:
            break
        rec = run_op(cli, workload, scenario, tmpdir / f"op-{i}", i)
        records.append(rec)
        spent += rec["wall_s"]
    return records


def end_to_end(records, setup) -> dict:
    walls = [r["wall_s"] for r in records]
    return {
        "op_p50_s": statistics.median(walls),
        "op_p90_s": float(np.percentile(walls, 90)),
        "ops_per_s": sum(r["ok"] for r in records) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args) -> int:
    cli = import_program()
    workload = WORKLOADS[args.workload]
    prov = provenance(args)
    print("provenance " + json.dumps(prov), flush=True)
    env = child_env()
    out_dir = ROOT / ".bench_out"
    tmp_root = ROOT / ".bench_tmp"
    out_dir.mkdir(exist_ok=True)
    tmp_root.mkdir(exist_ok=True)
    out_stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    try:
        first = next(workload.inputs(args.seed))
        run_op(cli, workload, first, tmpdir / "warmup", -1)  # first-call costs, not counted
        gc.freeze()  # the per-op collections then scan only what the ops allocate
        if args.trace:
            records, metrics = per_layer(cli, workload, workload.inputs(args.seed),
                                         args.seconds, tmpdir, env, out_stem)
            declared = SPEC["per_layer"]
        else:
            setup = setup_times(env)
            records = run_ops(cli, workload, workload.inputs(args.seed), args.seconds, tmpdir)
            metrics = end_to_end(records, setup)
            declared = SPEC["end_to_end"]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"metric set {sorted(metrics)} does not match BENCHMARK.json {sorted(names)}")
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["correct"] for r in records),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    # Ops that exit non-zero or leave [0, 1) with a result the reference
    # confirms: the known full_nonsecular defect, not a wrong result.
    defect = {"ops": sum(r["correct"] and not r["ok"] for r in records),
              "attempted": len(records)}
    record = {"provenance": prov, "result": result, "known_defect": defect, "ops": records}
    out_stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for r in records:
        if r["problem"]:
            print(f"op {r['op']}: {r['problem']}", file=sys.stderr)
    print("known_defect " + json.dumps(defect))
    print(json.dumps(result))
    return 0


def per_layer(cli, workload, stream, seconds, tmpdir, env, out_stem):
    """Each input run twice, untraced and traced in alternating order."""
    imports = tracing.import_times(sys.executable, env, ROOT)
    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, scenario in enumerate(stream):
        if sum(r["wall_s"] for r in plain) >= seconds / 2.0:
            break
        for run_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not run_traced:
                plain.append(run_op(cli, workload, scenario, tmpdir / f"plain-{i}", i))
                continue
            tracer.install()
            try:
                traced.append(run_op(cli, workload, scenario, tmpdir / f"traced-{i}", i, tracer))
            finally:
                tracer.remove()
    metrics, shares = tracing.layer_metrics(tracer.spans, len(traced))
    metrics["cli.bytes_out"] = statistics.mean(r["bytes_out"] for r in traced)
    metrics.update(imports)
    metrics["trace.overhead_frac"] = (
        sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain) - 1.0)
    tracer.dump(out_stem.with_suffix(".spans.jsonl.gz"))
    print(f"self-time shares of thread-busy time, {workload.name}:", file=sys.stderr)
    for name, share in shares.items():
        print(f"  {name:40s} {share:7.1%}", file=sys.stderr)
    return plain + traced, metrics


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    rows, status = [], 0
    for name in (w["name"] for w in SPEC["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        defect = next(json.loads(line.partition(" ")[2]) for line in lines
                      if line.startswith("known_defect "))
        status |= not result["correct"]
        rows.append((name, result, defect["ops"]))
    for name, result, defect in rows:
        # failed_frac: ops that exit non-zero or fail a check, the defect included
        frac = (result["failed"] + defect) / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} known_defect={defect} failed_frac={frac:.3f}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
