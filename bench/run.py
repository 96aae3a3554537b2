"""Benchmark of qprops: one seeded workload per run, checked against an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and layers.json for why each exists):
  spin_search  in-process ``spin-search`` on generated d = 2 specs
  multi_time   library calls on prebuilt multi-time Context lists
  cli_batch    one ``python -m qprops.cli`` child process per op

Every workload is a closed loop: one op in flight, whole cycles of a fixed
op mix, repeated until S seconds have passed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced cycle, then traced
cycles, and reports per-layer metrics per op plus the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.  A fuller report and the recorded spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("spin_search", "multi_time", "cli_batch")
SETUP_PROBES = 3

# Reported per traced op, except the ratio and the overhead.
PER_LAYER = [
    ("linop.Projector.count", "count"),
    ("linop.Projector.self_ms", "ms"),
    ("linop.eigh.count", "count"),
    ("linop.evolution_operator.self_ms", "ms"),
    ("lattice.translate.count", "count"),
    ("lattice.translate.self_ms", "ms"),
    ("contexts.build_generalized_context.self_ms", "ms"),
    ("contexts.build_generalized_context.rejected", "count"),
    ("contexts.useful_atom_ratio", "ratio"),
    ("contexts.composite_probability.self_ms", "ms"),
    ("contexts.Context.self_ms", "ms"),
    ("histories.HistoryFamily.count", "count"),
    ("histories.HistoryFamily.self_ms", "ms"),
    ("histories.gmh_check.self_ms", "ms"),
    ("histories.griffiths_check.self_ms", "ms"),
    ("spin.compatible_directions.self_ms", "ms"),
    ("spin.gmh_directions.self_ms", "ms"),
    ("spin.griffiths_directions.self_ms", "ms"),
    ("spin.grid_points.count", "count"),
    ("specio.load_system_spec.self_ms", "ms"),
    ("specio.realize_system.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.process_overhead_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.emit.self_ms", "ms"),
    *[(f"{m}.errors", "count") for m in tracing.MODULES],
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- set-up --------------------------------------------------------------------


def check_checkout() -> None:
    for needed in (ROOT / "src" / "qprops" / "__init__.py", ROOT / "specs"):
        if not needed.exists():
            raise BenchError(f"{needed} not found: run from a full qprops checkout")


def load_workload(name: str):
    sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module(name)


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate the inputs from the seed, run one warm-up op."""
    import numpy as np

    module = load_workload(name)
    ops, blobs = module.generate(np.random.default_rng(seed), workdir)
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(hashlib.sha256(blob).digest())
    # the timed loop checks this op again, so its answer is not checked here
    return ops, digest.hexdigest(), ops[0].run(None)


def oracle_self_test(op, out) -> None:
    """A corrupted answer must be counted as failed."""
    if not op.check(op.corrupt(out)):
        raise BenchError(f"oracle accepted a corrupted {op.kind} answer")


def probe_main(args) -> int:
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        set_up(args.workload, args.seed, Path(tmp))
        print("ready", flush=True)
    return 0


def measure_setups(args) -> list[float]:
    """Seconds from process start to the first timed op, in fresh processes."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code})")
    return times


# --- timed loop ----------------------------------------------------------------


def run_op(op, tracer, failures: list) -> tuple[float, bool]:
    """Run and check one op; return its latency and whether it was correct."""
    started = time.perf_counter()
    try:
        out = op.run(tracer)
    except Exception:
        latency = time.perf_counter() - started
        failures.append(f"{op.kind}: raised\n{traceback.format_exc(limit=3)}")
        return latency, False
    latency = time.perf_counter() - started
    try:
        problems = op.check(out)
    except Exception as exc:  # a malformed report is a wrong answer
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        failures.append(f"{op.kind}: {'; '.join(problems)}")
    return latency, not problems


def run_cycles(ops, seconds: float, tracer=None, first_id: int = 0):
    """Whole cycles of ``ops`` until ``seconds`` have passed (at least one)."""
    latencies, correct, failures = [], 0, []
    started = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.begin_op(first_id + len(latencies), op.expected)
            latency, ok = run_op(op, tracer, failures)
            latencies.append(latency)
            correct += ok
        if time.perf_counter() - started >= seconds:
            return latencies, correct, failures


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def end_to_end(args, ops, setups: list[float]):
    latencies, correct, failures = run_cycles(ops, args.seconds)
    n = len(latencies)
    tail_s, pct, beyond = tail(latencies)
    by_op: dict[str, list[float]] = {}
    for i, latency in enumerate(latencies):
        by_op.setdefault(f"{i % len(ops)}:{ops[i % len(ops)].kind}", []).append(latency)
    op_p50 = {key: statistics.median(v) for key, v in by_op.items()}
    if args.workload == "cli_batch":
        rss_kib = max(op.maxrss_kib for op in ops)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (correct / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(op_p50.values()), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{correct} correct ops / {sum(latencies):.3f} s of op time, "
                     f"{n // len(ops)} cycles of {len(ops)} ops",
        "latency_p50_ms": f"median over the {len(ops)} ops of a cycle of each op's "
                          f"median; all-samples median "
                          f"{1e3 * statistics.median(latencies):.6g}",
        "latency_tail_ms": f"p{pct:.1f}, {beyond} samples beyond, n={n}",
        "peak_rss_mib": "largest child process" if args.workload == "cli_batch"
                        else "benchmark process",
    }
    extra = {"failed_share": (n - correct) / n, "tail_percentile": pct,
             "tail_samples_beyond": beyond, "samples": n,
             "p50_ms_by_op": {k: 1e3 * v for k, v in op_p50.items()},
             "latencies_ms": [round(1e3 * x, 4) for x in latencies]}
    return metrics, notes, n, n - correct, failures, extra


def per_layer(args, ops):
    """Alternate untraced and traced cycles; layer figures come from the latter."""
    tracer = tracing.Tracer()
    plain, traced, correct, failures = [], [], 0, []
    started = time.perf_counter()
    run_cycles(ops, 0.0)  # unmeasured, so first-touch costs miss both sides
    while True:
        latencies, ok, failed = run_cycles(ops, 0.0)
        plain += latencies
        correct += ok
        failures += failed
        patches = tracing.install(tracer)
        try:
            latencies, ok, failed = run_cycles(ops, 0.0, tracer, len(traced))
        finally:
            tracing.uninstall(patches)
        traced += latencies
        correct += ok
        failures += failed
        if time.perf_counter() - started >= args.seconds:
            break
    n = len(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "contexts.useful_atom_ratio":
            made = totals.get("contexts.build_projectors", 0.0)
            value = totals.get("contexts.useful_atoms", 0.0) / made if made else 0.0
        elif name == "trace.overhead_pct":
            value = 100.0 * (sum(traced) / sum(plain) - 1.0)
        elif name.endswith("_ms"):
            key = name[: -len("_ms")] + "_s"
            value = 1e3 * totals.get(key, 0.0) / n
        else:
            value = totals.get(name, 0.0) / n
        metrics[name] = (value, unit)
    tracer.save(WORK / f"spans_{args.workload}_seed{args.seed}.npz")
    notes = {"trace.overhead_pct": f"op time over {n // len(ops)} cycles each: traced "
                                   f"{sum(traced):.3f} s, untraced {sum(plain):.3f} s"}
    extra = {"traced_ops": n, "spans": len(tracer.start)}
    attempted = len(plain) + n
    return metrics, notes, attempted, attempted - correct, failures, extra


# --- environment ---------------------------------------------------------------


def _blas_threads() -> int | None:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy as np
    import yaml

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy releases
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "yaml_libyaml": bool(yaml.__with_libyaml__),
        "git_commit": commit,
    }


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
        WORK.mkdir(exist_ok=True)
        if args.setup_probe:
            return probe_main(args)
        setups = [] if args.trace else measure_setups(args)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        try:
            ops, digest, warm_out = set_up(args.workload, args.seed, workdir)
            oracle_self_test(ops[0], warm_out)
            if args.trace:
                result = per_layer(args, ops)
            else:
                result = end_to_end(args, ops, setups)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    metrics, notes, attempted, failed, failures, extra = result

    env = environment()
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    print(f"env: {json.dumps(env)}")
    print(f"inputs_sha256: {digest}")
    print("oracle self-test: corrupted answer counted as failed")
    print(f"failed_share = {failed / attempted:.6g} share  ({failed} of {attempted} ops)")
    for line in failures[:5]:
        print(f"  failure: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    result_line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = dict(result_line, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  inputs_sha256=digest, notes=notes, extra=extra,
                  failures=failures[:20])
    (WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2)
    )
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
