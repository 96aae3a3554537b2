"""multi_time workload: library calls on prebuilt ``Context`` lists.

One cycle holds every (d, T, commuting) combination once: d in {2, 6, 16}
at T = 2, 3 and 4 times, and d = 32 at T = 2 and 4, with the most atoms per
context, k <= d, that keep the composed grid k^T at most 81.  d = 32 skips
T = 3 (64 atoms) so its accepted ops form one cost class of 81-atom grids,
which keeps the latency tail inside that class across run lengths.  Commuting
descriptions share one eigenbasis at the reference time; the others draw an
independent basis per time.  Each atom is built at its reference-time form
and pushed to its own time, so the generator knows the answer.
"""

from __future__ import annotations

import itertools

import numpy as np

import oracle
# module attributes, not imported names, so the traced run's wrappers are seen
from qprops import contexts, histories
from qprops.errors import IncompatibleContexts
from qprops.linop import DensityOperator, HermitianOperator, Projector

SHAPES = ((2, 2), (2, 3), (2, 4), (6, 2), (6, 3), (6, 4),
          (16, 2), (16, 3), (16, 4), (32, 2), (32, 4))
MAX_GRID = 81
REF_TIME = 0.0


class MultiTimeOp:
    def __init__(self, ctxs, hamiltonian, rho, accept, table, gmh_ok, gmh_probs):
        self.contexts = ctxs
        self.hamiltonian = HermitianOperator(hamiltonian)
        self.rho = DensityOperator(rho)
        self.accept = accept
        self.table = table
        self.gmh_ok = gmh_ok
        self.gmh_probs = gmh_probs
        self.expected = frozenset() if accept else frozenset({"IncompatibleContexts"})

    def run(self, tracer=None):
        try:
            gc = contexts.build_generalized_context(
                self.contexts, REF_TIME, self.hamiltonian
            )
        except IncompatibleContexts as err:
            family = histories.HistoryFamily(
                self.contexts, self.hamiltonian, REF_TIME, self.rho
            )
            report = histories.gmh_check(family)
            return {"accepted": False, "pairs": len(err.pairs), "table": None,
                    "gmh": report.verdict, "probs": report.probabilities}
        table = {
            labels: contexts.composite_probability(gc, gc.property([labels]), self.rho)
            for labels in gc.label_tuples
        }
        family = histories.family_from_generalized_context(gc, self.rho)
        report = histories.gmh_check(family)
        return {"accepted": True, "pairs": 0, "table": table,
                "gmh": report.verdict, "probs": report.probabilities}

    def check(self, out) -> list[str]:
        if out["accepted"] != self.accept:
            return [f"accepted={out['accepted']}, want {self.accept}"]
        problems = []
        if not self.accept and out["pairs"] == 0:
            problems.append("rejection names no offending pair")
        if self.accept:
            problems += oracle.probabilities_differ(out["table"], self.table)
        if out["gmh"] != self.gmh_ok:
            problems.append(f"gmh verdict {out['gmh']}, want {self.gmh_ok}")
        problems += oracle.probabilities_differ(out["probs"], self.gmh_probs)
        return problems

    @staticmethod
    def corrupt(out):
        bad = dict(out)
        bad["probs"] = {k: v + 1e-3 for k, v in out["probs"].items()}
        return bad


def atoms_per_context(dim: int, n_times: int) -> int:
    k = 1
    while k < dim and (k + 1) ** n_times <= MAX_GRID:
        k += 1
    return k


def _draw(rng, dim: int, n_times: int, commuting: bool):
    parts = atoms_per_context(dim, n_times)
    hamiltonian = oracle.random_hermitian(rng, dim)
    rho = oracle.random_density(rng, dim)
    times = np.cumsum(rng.uniform(0.3, 1.2, size=n_times))
    shared = oracle.random_unitary(rng, dim)
    bases = [shared if commuting else oracle.random_unitary(rng, dim) for _ in times]
    groups = [oracle.random_groups(rng, dim, parts) for _ in times]
    atoms_ref = [oracle.group_atoms(b, g) for b, g in zip(bases, groups)]
    return hamiltonian, rho, times, atoms_ref, groups, shared


def _expected(rho, atoms_ref, groups, shared, commuting):
    """Verdicts and tables from the construction, or None when borderline."""
    accept = oracle.verdict(oracle.max_commutator(atoms_ref))
    if accept is None or accept != commuting:
        return None
    labels = [[f"a{i}" for i in range(len(ctx))] for ctx in atoms_ref]
    grid, gram = oracle.history_gram(atoms_ref, rho)
    gmh_ok = oracle.verdict(oracle.max_off_diagonal(gram))
    if gmh_ok is None:
        return None
    key = [tuple(labels[t][c] for t, c in enumerate(choice)) for choice in grid]
    gmh_probs = {k: max(0.0, float(gram[n, n].real)) for n, k in enumerate(key)}
    table = None
    if accept:
        weight = np.real(np.diagonal(shared.conj().T @ rho @ shared))
        table = {}
        for k, choice in zip(key, grid):
            common = set(range(rho.shape[0]))
            for t, c in enumerate(choice):
                common &= set(groups[t][c].tolist())
            table[k] = float(sum(weight[j] for j in common))
    return accept, table, gmh_ok, gmh_probs, labels


def generate(rng, workdir=None):
    """Ops of one cycle and the bytes that define them."""
    ops, blobs = [], []
    for (dim, n_times), commuting in itertools.product(SHAPES, (True, False)):
        while True:
            hamiltonian, rho, times, atoms_ref, groups, shared = _draw(
                rng, dim, n_times, commuting
            )
            expected = _expected(rho, atoms_ref, groups, shared, commuting)
            if expected is not None:
                break
        accept, table, gmh_ok, gmh_probs, labels = expected
        ctxs = []
        for t, atoms, names in zip(times, atoms_ref, labels):
            # an atom at time t translates back to its reference-time form
            push = oracle.evolution(hamiltonian, float(t))
            moved = [push @ a @ push.conj().T for a in atoms]
            ctxs.append(
                contexts.Context(float(t), [Projector(m) for m in moved], names)
            )
            blobs.extend(m.tobytes() for m in moved)
        blobs += [hamiltonian.tobytes(), rho.tobytes(), times.tobytes()]
        op = MultiTimeOp(ctxs, hamiltonian, rho, accept, table, gmh_ok, gmh_probs)
        op.kind = f"d{dim}/T{n_times}/{'commuting' if commuting else 'independent'}"
        ops.append(op)
    return ops, blobs
