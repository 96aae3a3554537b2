"""In-process A/B timer: this checkout's qprops against another, per op class.

    python tools/ab.py --against CHECKOUT [--rounds N]

Both trees' ``qprops`` are imported into one process under two package
names (the package imports itself relatively, so a second name works).
The op lists come from ``bench/multi_time.generate`` and
``bench/spin_search.generate`` of this checkout, read as they are: each
workload module is loaded once per tree, with ``qprops`` bound to that
tree's package while it imports, and generates its ops from each seed of
``SEEDS``, the same on both sides, so both trees run the same inputs.  Every op is checked against its oracle
once per tree first.

Each op class (one op per class and seed) then runs N rounds, one call per
tree per round, the tree that goes first alternating.  A class's time is
its best of N on each side; its ratio is this checkout's best over the
other's (below 1 means this checkout is faster), and its spread is the
lower and upper quartile of the N per-round ratios.  The result goes to
``BENCH_ab.json`` at the root of this checkout, with the package versions
and the git description of each tree.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("multi_time", "spin_search")
SEEDS = (1, 2, 3)


def _describe(tree: Path) -> str:
    """``git describe --always --dirty`` of the tree, or its directory name."""
    run = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return run.stdout.strip() if run.returncode == 0 else tree.name


def _load_package(tree: Path, name: str):
    """The tree's ``qprops`` package under ``name``, with its ``cli``."""
    source = tree / "src" / "qprops"
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _load_workload(workload: str, package, tag: str):
    """``bench/<workload>.py`` as a module of its own, importing ``package``
    wherever it imports ``qprops``."""
    prefix = package.__name__ + "."
    aliases = {"qprops": package}
    aliases.update(
        {"qprops." + key[len(prefix):]: module
         for key, module in sys.modules.items() if key.startswith(prefix)}
    )
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        path = BENCH / f"{workload}.py"
        spec = importlib.util.spec_from_file_location(f"{workload}_{tag}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, previous in saved.items():
            if previous is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = previous
    return module


def _ops(module, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    ops, _ = module.generate(np.random.default_rng(seed), workdir)
    for op in ops:
        problems = op.check(op.run(None))
        if problems:
            sys.exit(f"{module.__name__} seed {seed} {op.kind}: {'; '.join(problems)}")
    return ops


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _time_class(here, there, rounds: int):
    """Best of ``rounds`` per side and the per-round ratios, interleaved."""
    best = {"here": float("inf"), "there": float("inf")}
    ratios = []
    for k in range(rounds):
        took = {}
        order = [("here", here), ("there", there)]
        for side, op in order[:: 1 if k % 2 == 0 else -1]:
            start = time.perf_counter()
            op.run(None)
            took[side] = time.perf_counter() - start
            best[side] = min(best[side], took[side])
        ratios.append(took["here"] / took["there"])
    return best, ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True, help="another checkout")
    parser.add_argument("--rounds", type=int, default=30, help="calls per op class and tree")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    against = args.against.resolve()
    if not (against / "src" / "qprops" / "__init__.py").exists():
        parser.error(f"{against} holds no src/qprops")
    sys.path.insert(0, str(BENCH))  # the workloads import ``oracle``
    packages = {
        "here": _load_package(ROOT, "qprops_ab_here"),
        "there": _load_package(against, "qprops_ab_there"),
    }
    classes = []
    with tempfile.TemporaryDirectory(prefix="qprops-ab-") as scratch:
        for workload in WORKLOADS:
            modules = {side: _load_workload(workload, pkg, side) for side, pkg in packages.items()}
            for seed in SEEDS:
                ops = {
                    side: _ops(module, seed, Path(scratch) / side / f"{workload}_{seed}")
                    for side, module in modules.items()
                }
                for here, there in zip(ops["here"], ops["there"]):
                    assert here.kind == there.kind, (here.kind, there.kind)
                    best, ratios = _time_class(here, there, args.rounds)
                    q1, q3 = _quartiles(ratios)
                    classes.append({
                        "workload": workload, "seed": seed, "kind": here.kind,
                        "here_ms": best["here"] * 1e3, "there_ms": best["there"] * 1e3,
                        "ratio": best["here"] / best["there"], "ratio_q1": q1, "ratio_q3": q3,
                    })
                    row = classes[-1]
                    print(
                        f"{workload:11s} seed {seed} {row['kind']:24s} "
                        f"{row['here_ms']:8.3f} ms {row['there_ms']:8.3f} ms  "
                        f"ratio {row['ratio']:.3f} [{q1:.3f}, {q3:.3f}]",
                        flush=True,
                    )
    result = {
        "here": _describe(ROOT),
        "against": _describe(against),
        "rounds": args.rounds,
        "seeds": SEEDS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "classes": classes,
    }
    (ROOT / "BENCH_ab.json").write_text(json.dumps(result, indent=1) + "\n")
    total = {side: sum(row[f"{side}_ms"] for row in classes) for side in ("here", "there")}
    print(f"sum of bests: {total['here']:.3f} ms here, {total['there']:.3f} ms against; "
          f"ratio {total['here'] / total['there']:.3f}; written to BENCH_ab.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
