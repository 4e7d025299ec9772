"""rnalign benchmark: one closed-loop client runs one workload in-process.

    python3 benchmarks/run.py --workload train-dg --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Ops run back to back until their summed wall time
reaches ``--seconds`` (ops of a group, see ``granule``, always finish
together) and at least the workload's quality set has run.  Every op's
outputs are checked, untimed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` patches the
package's public functions to record spans around every other op group and
prints the per-layer metrics instead.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  A fuller record (environment,
set-up samples, per-op wall times and digests) goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``, and in a traced run
the spans go to ``.bench_out/spans-<workload>.csv``.
"""

import os

# Pinned before numpy loads: one BLAS thread keeps timings steady, and thread
# count makes no measurable difference at these matrix shapes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPEATS = 5
MODULES = ("errors", "numerics", "losses", "data", "model", "training",
           "config", "cli")


def import_package():
    """Import rnalign afresh from the checkout's src/ and return its
    modules.  numpy and scipy stay loaded: they are the platform, not the
    program under test."""
    for name in [m for m in sys.modules
                 if m == "rnalign" or m.startswith("rnalign.")]:
        del sys.modules[name]
    package = importlib.import_module("rnalign")
    if Path(package.__file__).resolve().parent != SRC / "rnalign":
        raise SystemExit(f"rnalign imported from {package.__file__}, "
                         f"not from {SRC}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"rnalign.{name}") for name in MODULES})


def set_up(workload_cls, seed):
    """Time SETUP_REPEATS fresh set-ups (import + inputs); keep the last."""
    samples = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        start = time.perf_counter()
        rn = import_package()
        workload = workload_cls(rn, WORK, seed)
        samples.append(time.perf_counter() - start)
    return rn, workload, samples


def run_ops(rn, workload, seconds, tracer):
    """The closed loop.  Returns one record per op."""
    records = []
    measured = 0.0
    min_ops = max(workload.quality_ops, 2 * workload.granule)
    i = 0
    while i < min_ops or i % workload.granule or measured < seconds:
        traced = tracer is not None and (i // workload.granule) % 2 == 0
        start = time.perf_counter()
        try:
            if traced:
                result = tracer.traced_op(i, lambda: workload.op(i))
            else:
                result = workload.op(i)
            error = None
        except rn.errors.NumericalError as exc:
            result, error = None, exc
        wall = time.perf_counter() - start
        measured += wall
        if error is None:
            outcome = workload.check(i, result)
        else:
            outcome = Outcome(failures=[f"NumericalError: {error}"])
        if tracer is None and i < workload.quality_ops and not outcome.failures:
            try:
                acc = workload.reference(i)
            except rn.errors.NumericalError as exc:
                outcome.failures.append(f"source-only twin: {exc}")
            else:
                if acc is not None:
                    outcome.runs.append({"method": "source-only", "acc": acc,
                                         "rho_gap": None, "reference": True})
        records.append({"op": i, "wall_s": wall, "traced": traced,
                        "outcome": outcome})
        i += 1
    return records


def mean(values):
    return sum(values) / len(values)


def quality_metrics(records, quality_ops):
    runs = [run for r in records[:quality_ops] for run in r["outcome"].runs]
    own = [run for run in runs if not run["reference"]]
    acc = {m: [run["acc"] for run in runs if run["method"] == m]
           for m in ("rna", "source-only")}
    return {
        "heldout_acc": (mean([run["acc"] for run in own]), len(own)),
        "rho_gap_final": (mean([run["rho_gap"] for run in own
                                if run["rho_gap"] is not None]),
                          sum(run["rho_gap"] is not None for run in own)),
        "rna_margin_pts": (100.0 * (mean(acc["rna"])
                                    - mean(acc["source-only"])),
                           len(acc["rna"]) + len(acc["source-only"])),
    }


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(records, setup_samples, workload):
    walls = [r["wall_s"] for r in records]
    failed = sum(bool(r["outcome"].failures) for r in records)
    # throughput per op group (one matrix rotation mixes all three
    # settings); the median keeps a short slow spell from moving it
    step = workload.granule
    groups = [records[k:k + step] for k in range(0, len(records), step)]
    rates = [sum(r["outcome"].iterations for r in g)
             / sum(r["wall_s"] for r in g) for g in groups]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s",
                    len(setup_samples)),
        "iters_per_s": (statistics.median(rates), "1/s", len(groups)),
        "op_s_p50": (statistics.median(walls), "s", len(records)),
        "op_ok_frac": ((len(records) - failed) / len(records), "frac",
                       len(records)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    for name, (value, count) in quality_metrics(
            records, workload.quality_ops).items():
        unit = "pts" if name == "rna_margin_pts" else "frac"
        metrics[name] = (value, unit, count)
    return metrics


def per_layer(records, tracer):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    totals, gap = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        seconds, calls = totals[layer]
        metrics[f"{layer}_s"] = (seconds, "s", calls)
        metrics[f"{layer}_calls"] = (calls, "count", calls)
    metrics["data.feature_file_bytes"] = (
        sum(r["outcome"].feature_file_bytes for r in traced), "bytes",
        len(traced))
    metrics["model.checkpoint_bytes"] = (
        sum(r["outcome"].checkpoint_bytes for r in traced), "bytes",
        len(traced))
    metrics["training.iterations"] = (
        sum(r["outcome"].iterations for r in traced), "count", len(traced))

    def ips(rs):
        return sum(r["outcome"].iterations for r in rs) / sum(
            r["wall_s"] for r in rs)
    metrics["trace.overhead_frac"] = (1.0 - ips(traced) / ips(plain), "frac",
                                      len(records))
    metrics["trace.unaccounted_frac"] = (gap, "frac", len(traced))
    return metrics


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"git_sha": sha or "unknown",
            "git_dirty": None if sha is None else bool(status)}


def environment(workload, seed):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            **git_state(),
            "workload_seed": seed, "derived_seeds": workload.seeds()}


def fmt(value):
    return value if isinstance(value, int) else float(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rnalign" / "__init__.py").is_file():
        print(f"error: no rnalign package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    listed = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
            "per_layer" if args.trace else "end_to_end"]]

    rn, workload, setup_samples = set_up(WORKLOADS[args.workload], args.seed)
    tracer = Tracer(rn) if args.trace else None
    records = run_ops(rn, workload, args.seconds, tracer)
    if tracer is None:
        metrics = end_to_end(records, setup_samples, workload)
    else:
        metrics = per_layer(records, tracer)
        tracer.write(OUT / f"spans-{args.workload}.csv")
    if sorted(metrics) != sorted(listed):
        raise SystemExit("computed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(listed))}")
    metrics = {name: metrics[name] for name in listed}
    failed = [r for r in records if r["outcome"].failures]
    env = environment(workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)

    for r in records:
        digest = json.dumps(r["outcome"].digest, sort_keys=True)
        status = "ok" if not r["outcome"].failures else \
            "FAILED " + "; ".join(r["outcome"].failures)
        print(f"op {r['op']} {r['wall_s']:.4f}s"
              f"{' traced' if r['traced'] else ''} {status} digest={digest}")
    run_digest = hashlib.sha256("\n".join(
        json.dumps(r["outcome"].digest, sort_keys=True)
        for r in records[:workload.quality_ops]).encode()).hexdigest()
    print(f"quality-set digest {run_digest}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload} {name} = {fmt(value)} {unit} (n={count})")
    if tracer is None:
        print(f"{args.workload} op_fail_frac = {len(failed) / len(records)} "
              f"(= 1 - op_ok_frac); op_s_p90 omitted: {len(records)} ops "
              f"leave fewer than 10 beyond it")

    OUT.mkdir(exist_ok=True)
    record_path = OUT / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    record_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_samples_s": setup_samples,
        "quality_set_digest": run_digest,
        "metrics": {n: {"value": fmt(v), "unit": u, "samples": c}
                    for n, (v, u, c) in metrics.items()},
        "ops": [{"op": r["op"], "wall_s": r["wall_s"], "traced": r["traced"],
                 "iterations": r["outcome"].iterations,
                 "failures": r["outcome"].failures,
                 "digest": r["outcome"].digest} for r in records],
    }, indent=1, sort_keys=True) + "\n", encoding="ascii")

    print(json.dumps({
        "correct": not failed, "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": fmt(v), "unit": u}
                    for n, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
