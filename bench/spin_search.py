"""spin_search workload: in-process ``qprops spin-search`` on generated d = 2 specs.

One cycle holds every (mode, dynamics, grid size) combination once: modes
commute/gmh/griffiths, free or random 2x2 Hamiltonian, 400 or 2000 spiral
points (406 or 2006 with the axes).  The state direction n0 and the fixed
direction n2 are chosen so that grid points g0 and g2 land on them after
translation to t0, which keeps every accepted set non-empty.  Free ops take
g0 and g2 from two perpendicular axes, as in the paper's worked cases, so the
griffiths set holds whole great circles through other grid points; that
tells the real-part condition apart from look-alikes such as the imaginary
part.  Driven ops take any two grid points well apart.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import yaml

import oracle
import qprops.cli

MODES = ("commute", "gmh", "griffiths")
GRID_COUNTS = (400, 2000)


class SpinSearchOp:
    expected = frozenset()

    def __init__(self, path: Path, mode: str, count: int, accepted: np.ndarray):
        self.kind = f"{mode}/{count}"
        self.argv = [
            "spin-search", str(path), "--mode", mode,
            "--grid-count", str(count), "--format", "json",
        ]
        self.mode = mode
        self.grid_points = count + 6
        self.accepted = accepted
        self.pairs = oracle.antipodal_pairs(accepted)

    def run(self, tracer=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qprops.cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit {code}, want 0"]
        res = json.loads(text)["results"]
        problems = []
        if res["mode"] != self.mode or res["grid_points"] != self.grid_points:
            problems.append(f"mode/grid {res['mode']}/{res['grid_points']}")
        got = np.array(res["accepted"], dtype=float).reshape(-1, 3)
        if got.shape != self.accepted.shape or res["accepted_count"] != len(got):
            problems.append(f"{len(got)} accepted, want {len(self.accepted)}")
        elif not np.allclose(got, self.accepted, rtol=0.0, atol=1e-12):
            problems.append("accepted directions differ from the Bloch prediction")
        if res["antipodal_pairs"] != self.pairs:
            problems.append("antipodal pairs differ")
        return problems

    @staticmethod
    def corrupt(out):
        code, text = out
        doc = json.loads(text)
        doc["results"]["accepted"] = doc["results"]["accepted"][1:]
        return code, json.dumps(doc)


def _draw(rng, mode: str, count: int, driven: bool):
    """Spec mapping and expected accepted directions for one search."""
    points = oracle.sphere_grid(count)
    while True:
        pool = len(points) if driven else 6  # the axes come first
        i0, i2 = rng.choice(pool, size=2, replace=False)
        g0, g2 = points[i0], points[i2]
        if abs(float(g0 @ g2)) > (math.cos(0.2) if driven else 0.5):
            continue  # keep the two preferred directions well apart
        field = np.zeros(3)
        if driven:
            field = rng.normal(size=3)
            field *= rng.uniform(0.4, 1.2) / np.linalg.norm(field)
        t2 = float(rng.uniform(1.5, 3.0))
        t1 = 0.5 * t2  # the CLI default: midpoint of t0 = 0 and t2
        r1 = oracle.bloch_rotation(field, t1)
        r2 = oracle.bloch_rotation(field, t2)
        n0 = r1 @ g0
        n2 = r2.T @ r1 @ g2
        residual = oracle.search_residuals(mode, n0, points @ r1.T, r2 @ n2)
        verdicts = [oracle.verdict(float(r)) for r in residual]
        if None not in verdicts:
            break
    doc = {
        "dimension": 2,
        "hbar": 1.0,
        "initial_time": 0.0,
        "initial_state": oracle.as_pairs(oracle.spin_projector_pair(n0)[0]),
        "contexts": [
            {"time": t2, "direction": [float(x) for x in n2], "labels": ["up", "down"]}
        ],
    }
    if driven:
        offset = float(rng.uniform(-0.5, 0.5))
        h = offset * np.eye(2) + np.einsum("k,kij->ij", field, oracle.PAULI)
        doc["hamiltonian"] = oracle.as_pairs(h)
    return doc, points[np.array(verdicts, dtype=bool)]


def generate(rng, workdir: Path):
    """Ops of one cycle and the bytes that define them."""
    ops, blobs = [], []
    for count in GRID_COUNTS:
        for mode in MODES:
            for driven in (False, True):
                doc, accepted = _draw(rng, mode, count, driven)
                text = yaml.safe_dump(doc, sort_keys=False)
                path = workdir / f"spin_{len(ops):02d}.yaml"
                path.write_text(text)
                op = SpinSearchOp(path, mode, count, accepted)
                op.kind += "/driven" if driven else "/free"
                ops.append(op)
                blobs.append(text.encode() + " ".join(op.argv[2:]).encode())
    return ops, blobs
