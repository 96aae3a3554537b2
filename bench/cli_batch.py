"""cli_batch workload: one ``python -m qprops.cli`` child process per op.

A cycle runs all six subcommands on the two shipped specs and on generated
observable-form specs (mostly d = 2 and 6, some d = 16 and 32).  Exit codes
and JSON fields are predicted from each spec's reference-time atoms.  The
traced run starts ``cli_child.py`` instead, which wraps the callables inside
the child and hands its spans back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import oracle
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SHIPPED = ("spin_zz.yaml", "spin_xz.yaml")


class Spec:
    """A spec file plus what the oracle needs: atoms at the reference time."""

    def __init__(self, path: Path, rho, atoms_ref, labels, bad_context=None,
                 directions=None):
        self.path = path
        self.rho = rho
        self.atoms_ref = atoms_ref
        self.labels = labels
        self.bad_context = bad_context
        self.directions = directions  # Bloch vectors of direction-form contexts

    def history_table(self):
        grid, gram = oracle.history_gram(self.atoms_ref, self.rho)
        keys = [
            ",".join(self.labels[t][c] for t, c in enumerate(choice)) for choice in grid
        ]
        return keys, gram


class CliOp:
    """One child process: argv after ``qprops.cli`` and the predicted report."""

    def __init__(self, spec, argv, code, want, expected, workdir: Path):
        self.kind = argv[0]
        self.spec = spec
        self.argv = [argv[0], str(spec.path), *argv[1:], "--format", "json"]
        self.code = code
        self.want = want
        self.expected = frozenset(expected)
        self.workdir = workdir
        self.maxrss_kib = 0

    def _spawn(self, cmd: list[str]) -> tuple[int, str, str]:
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kib = max(self.maxrss_kib, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def run(self, tracer=None):
        if tracer is None:
            return self._spawn([sys.executable, "-m", "qprops.cli", *self.argv])
        spans = self.workdir / "child_spans.json"
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans),
               ",".join(sorted(self.expected)), "--", *self.argv]
        started = time.perf_counter()
        result = self._spawn(cmd)
        wall = time.perf_counter() - started
        dumped = json.loads(spans.read_text())
        main_id = dumped["names"].index("cli.main")
        main_s = sum(
            e - s for n, s, e in zip(dumped["name"], dumped["start"], dumped["end"])
            if n == main_id
        )
        tracer.merge(dumped, tracer.op_id)
        tracer.count("cli.process_overhead_s",
                     wall - dumped["counters"]["cli.import_s"] - main_s)
        return result

    def check(self, out) -> list[str]:
        code, text, err = out
        if code != self.code:
            return [f"exit {code}, want {self.code}: {err.strip()[-200:]}"]
        doc = json.loads(text)
        problems = []
        for field, want in self.want.items():
            got = doc.get(field) if field == "verdict" else doc["results"].get(field)
            if field == "probabilities":
                problems += oracle.probabilities_differ(got, want)
            elif field in ("max_commutator", "max_residual"):
                if not abs(got - want) <= 1e-6 * want:
                    problems.append(f"{field} {got!r}, want {want!r}")
            elif field == "contexts":
                seen = [{k: e.get(k) for k in w} for e, w in zip(got, want)]
                if len(got) != len(want) or seen != want:
                    problems.append(f"contexts {seen}, want {want}")
            elif got != want:
                problems.append(f"{field} {got!r}, want {want!r}")
        return problems

    @staticmethod
    def corrupt(out):
        code, text, err = out
        return code ^ 1, text, err


# --- expected reports ---------------------------------------------------------


def _gc_check(spec: Spec) -> tuple[int, dict]:
    worst = oracle.max_commutator(spec.atoms_ref)
    if not oracle.verdict(worst):
        return 1, {"verdict": "fail", "max_commutator": worst}
    keys, gram = spec.history_table()
    probs = {k: max(0.0, float(gram[n, n].real)) for n, k in enumerate(keys)}
    return 0, {"verdict": "pass", "composed_atoms": len(keys), "probabilities": probs}


def _consistency(spec: Spec, criterion: str) -> tuple[int, dict]:
    keys, gram = spec.history_table()
    if criterion == "gmh":
        residual = oracle.max_off_diagonal(gram)
    else:
        residual = oracle.griffiths_residual(spec.atoms_ref, spec.rho)
    ok = oracle.verdict(residual)
    probs = {k: max(0.0, float(gram[n, n].real)) for n, k in enumerate(keys)}
    want = {"verdict": "pass" if ok else "fail", "criterion": criterion,
            "probabilities": probs}
    if not ok:
        want["max_residual"] = residual
    return (0 if ok else 1), want


def _history_prob(spec: Spec) -> tuple[int, dict]:
    keys, gram = spec.history_table()
    return 0, {"probabilities": {k: float(gram[n, n].real) for n, k in enumerate(keys)}}


def _validate(spec: Spec) -> tuple[int, dict]:
    entries = []
    for k, atoms in enumerate(spec.atoms_ref):
        if k == spec.bad_context:
            entries.append({"status": "UncoveredEigenvalue"})
        else:
            entries.append({"status": "ok", "labels": spec.labels[k],
                            "ranks": [oracle.rank(a) for a in atoms]})
    return (1 if spec.bad_context is not None else 0), {"contexts": entries}


def _lattice(spec: Spec, op: str, left: str, right: str) -> tuple[int, dict]:
    def atom(ref):
        c, a = (int(x) for x in ref.split(":"))
        return spec.atoms_ref[c][a]

    answer = oracle.lattice_answer(op, atom(left), None if op == "neg" else atom(right))
    return 0, {"op": op, ("implies" if op == "implies" else "rank"): answer}


def _spin_search(spec: Spec, count: int) -> tuple[int, dict]:
    # shipped specs: free dynamics, state and directions given at t0 = 0
    points = oracle.sphere_grid(count)
    n2 = spec.directions[-1]
    residual = oracle.search_residuals("commute", None, points, n2)
    keep = np.array([oracle.verdict(float(r)) for r in residual], dtype=bool)
    return 0, {"grid_points": count + 6, "accepted": points[keep].tolist()}


# --- spec generation ----------------------------------------------------------


def _observable_spec(rng, path, dim, n_times, commuting, pure=False, uncovered=None):
    """Observable-form spec whose windows pick groups of a known basis."""
    parts = 2 if dim == 2 else 3
    while True:
        hamiltonian = oracle.random_hermitian(rng, dim)
        if pure:
            v = oracle.random_unitary(rng, dim)[:, :1]
            rho = v @ v.conj().T
        else:
            rho = oracle.random_density(rng, dim)
        times = np.cumsum(rng.uniform(0.3, 1.2, size=n_times))
        shared = oracle.random_unitary(rng, dim)
        bases = [shared if commuting else oracle.random_unitary(rng, dim) for _ in times]
        groups = [oracle.random_groups(rng, dim, parts) for _ in times]
        atoms_ref = [oracle.group_atoms(b, g) for b, g in zip(bases, groups)]
        spec = Spec(path, rho, atoms_ref, [[f"a{i}" for i in range(parts)]] * n_times,
                    uncovered)
        _, gram = spec.history_table()
        residuals = [oracle.max_commutator(atoms_ref), oracle.max_off_diagonal(gram)]
        if n_times == 2 and parts == 2:
            residuals.append(oracle.griffiths_residual(atoms_ref, rho))
        if None not in map(oracle.verdict, residuals):
            break
    contexts = []
    for k, (t, basis, grp) in enumerate(zip(times, bases, groups)):
        eigenvalues = np.zeros(dim)
        for g, members in enumerate(grp):
            eigenvalues[members] = g
        push = oracle.evolution(hamiltonian, float(t))
        observable = push @ (basis * eigenvalues) @ basis.conj().T @ push.conj().T
        windows = [{"label": f"a{g}", "lo": g - 0.5, "hi": g + 0.5} for g in range(parts)]
        if k == uncovered:
            windows.pop()  # the top eigenvalue falls in no window
        contexts.append({"time": float(t), "observable": oracle.as_pairs(observable),
                         "windows": windows})
    doc = {"dimension": dim, "hbar": 1.0, "initial_time": 0.0,
           "initial_state": oracle.as_pairs(rho),
           "hamiltonian": oracle.as_pairs(hamiltonian), "contexts": contexts}
    path.write_text(
        yaml.dump(doc, Dumper=yaml.CSafeDumper, default_flow_style=None, sort_keys=False)
    )
    return spec


def _shipped_spec(path: Path) -> Spec:
    doc = yaml.safe_load(path.read_text())
    if doc.get("hamiltonian") is not None or doc["initial_time"] != doc["reference_time"]:
        raise ValueError(f"{path}: the oracle handles free dynamics at t0 only")
    rho = np.array([[complex(*e) if isinstance(e, list) else e for e in row]
                    for row in doc["initial_state"]])
    directions = [np.array(c["direction"], dtype=float) for c in doc["contexts"]]
    return Spec(path, rho, [oracle.spin_projector_pair(n) for n in directions],
                [c["labels"] for c in doc["contexts"]], directions=directions)


def generate(rng, workdir: Path):
    """Ops of one cycle and the bytes that define them."""
    s1 = _observable_spec(rng, workdir / "d2_commuting.yaml", 2, 2, True)
    s2 = _observable_spec(rng, workdir / "d6_commuting.yaml", 6, 3, True)
    s3 = _observable_spec(rng, workdir / "d6_independent.yaml", 6, 2, False)
    s4 = _observable_spec(rng, workdir / "d6_uncovered.yaml", 6, 2, True, uncovered=1)
    s5 = _observable_spec(rng, workdir / "d2_pure.yaml", 2, 2, False, pure=True)
    s6 = _observable_spec(rng, workdir / "d16_commuting.yaml", 16, 3, True)
    s7 = _observable_spec(rng, workdir / "d32_commuting.yaml", 32, 3, True)
    zz, xz = (_shipped_spec(ROOT / "specs" / name) for name in SHIPPED)
    plan = [
        (s1, ["validate-context"], _validate(s1)),
        (s1, ["gc-check"], _gc_check(s1)),
        (s1, ["history-prob"], _history_prob(s1)),
        (s1, ["lattice", "--op", "meet", "--left", "0:0", "--right", "1:1"],
         _lattice(s1, "meet", "0:0", "1:1")),
        (s2, ["gc-check"], _gc_check(s2)),
        (s2, ["consistency", "--criterion", "gmh"], _consistency(s2, "gmh")),
        (s2, ["lattice", "--op", "join", "--left", "0:0", "--right", "1:1"],
         _lattice(s2, "join", "0:0", "1:1")),
        (s2, ["lattice", "--op", "implies", "--left", "0:0", "--right", "1:0"],
         _lattice(s2, "implies", "0:0", "1:0")),
        (s3, ["gc-check"], _gc_check(s3)),
        (s3, ["consistency", "--criterion", "gmh"], _consistency(s3, "gmh")),
        (s3, ["lattice", "--op", "neg", "--left", "0:1"], _lattice(s3, "neg", "0:1", "")),
        (s4, ["validate-context"], _validate(s4)),
        (s5, ["consistency", "--criterion", "griffiths"], _consistency(s5, "griffiths")),
        (zz, ["gc-check"], _gc_check(zz)),
        (xz, ["gc-check"], _gc_check(xz)),
        (xz, ["consistency", "--criterion", "gmh"], _consistency(xz, "gmh")),
        (zz, ["consistency", "--criterion", "griffiths"], _consistency(zz, "griffiths")),
        (xz, ["history-prob"], _history_prob(xz)),
        (xz, ["spin-search", "--mode", "commute", "--grid-count", "200"],
         _spin_search(xz, 200)),
        (s6, ["gc-check"], _gc_check(s6)),
        (s6, ["consistency", "--criterion", "gmh"], _consistency(s6, "gmh")),
        (s6, ["history-prob"], _history_prob(s6)),
        (s7, ["gc-check"], _gc_check(s7)),
        (s7, ["consistency", "--criterion", "gmh"], _consistency(s7, "gmh")),
        (s7, ["history-prob"], _history_prob(s7)),
    ]
    ops = []
    for spec, argv, (code, want) in plan:
        expected = ["IncompatibleContexts"] if argv[0] == "gc-check" and code else []
        if spec.bad_context is not None:
            expected.append("UncoveredEigenvalue")
        ops.append(CliOp(spec, argv, code, want, expected, workdir))
    blobs = [s.path.read_bytes() for s in (s1, s2, s3, s4, s5, s6, s7, zz, xz)]
    blobs += [" ".join(op.argv[:1] + op.argv[2:]).encode() for op in ops]
    return ops, blobs
