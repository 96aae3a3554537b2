"""One sha256 per answer of qprops, for this checkout and, optionally, another.

    python tools/answers.py                     # this checkout's answers
    python tools/answers.py --against CHECKOUT  # and every answer that differs

Each side runs in two child processes, one for the library cases and one
for every CLI line, with that checkout's ``src`` first on the import path,
under the environment this script runs in, so ``OPENBLAS_CORETYPE`` picks
the BLAS kernel of both sides.  Both sides read the same inputs:

- a fixed seeded case set built with ``tests/helpers.py`` of this checkout:
  d 2-32 and 1-4 context times; commuting contexts (one basis at the
  reference time), near-commuting ones (each context turned by
  exp(-i 1e-9 K) for its own random K) and independent ones; each at the
  default tolerances and at loosened ones.  Per case the answers are the
  translated stacks, each context's ``law_residual``, the context-law
  violations and messages of an incomplete and a tilted atom family, the
  composed atoms and their composite probabilities or the
  ``IncompatibleContexts`` pairs and gap, and the gmh and griffiths
  reports of the case's history family;
- every command line of ``tests/cli_contract.txt`` (whose edge-case specs
  are under ``tests/specs/``), in text and JSON: stdout, stderr and exit
  code of each ``cli.main`` call, run from this checkout's root, so both
  sides read this checkout's table and spec files.  The calls share one
  process and capture both streams as bytes, which gives the hashes of one
  process per call.

Every answer prints as ``<sha256>  <name>``.  With ``--against``, every
answer whose hash differs between the two sides (or that only one side
gives) is listed after them, and the exit status is 1 when any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIMENSIONS = (2, 3, 6, 16, 32)
TIME_COUNTS = (1, 2, 3, 4)
KINDS = ("commuting", "near", "independent")
TILT = 1e-9
LOOSE = {"proj": 1e-8, "herm": 1e-8, "commute": 1e-6, "consist": 1e-6}

# one command line per row after its exit code; "#" starts a comment row
CONTRACT = ROOT / "tests" / "cli_contract.txt"


def _feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h`` exactly: arrays by dtype, shape and
    bytes, floats by their hex form, containers element by element."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}:".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"float {float(obj).hex()};".encode())
    elif isinstance(obj, dict):
        h.update(b"dict(")
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
        h.update(b")")
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}(".encode())
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}: {obj};".encode())
        for name in ("violations", "pairs", "gap"):
            if hasattr(obj, name):
                _feed(h, getattr(obj, name))
    else:
        h.update(f"{type(obj).__name__} {obj!r};".encode())


def _digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _outcome(build):
    """What ``build()`` returns, or the qprops error it raises."""
    from qprops.errors import QpropsError

    try:
        return build()
    except QpropsError as err:
        return err


def _case_contexts(rng, dim, n_times, kind, hamiltonian):
    """The contexts of one case: at most four atoms per time, so that the
    label grid stays below 4^4 histories."""
    import numpy as np
    from helpers import random_hermitian, random_partition, random_unitary, shared_basis_contexts
    from qprops.contexts import Context
    from qprops.linop import Projector, evolution_operator

    parts = int(rng.integers(1, min(dim, 4) + 1))
    if kind != "independent":
        contexts = shared_basis_contexts(rng, dim, n_times, hamiltonian, parts=parts)
        if kind == "commuting":
            return contexts
        turned = []
        for ctx in contexts:
            u = evolution_operator(random_hermitian(rng, dim), 0.0, TILT)
            turned.append(Context(ctx.time, [Projector(u.transform(a.matrix)) for a in ctx.atoms]))
        return turned
    contexts = []
    for t in 0.75 * np.arange(1, n_times + 1):
        basis = random_unitary(rng, dim)
        atoms = [
            Projector(basis[:, group] @ basis[:, group].conj().T)
            for group in random_partition(rng, dim, parts)
        ]
        contexts.append(Context(float(t), atoms))
    return contexts


def _report(report):
    return (report.criterion, report.verdict, report.violations, report.probabilities)


def _case_answers(name, rng, dim, n_times, kind, tols):
    """The answers of one case, by name."""
    from helpers import random_density, random_hermitian
    from qprops.contexts import (
        Context,
        GeneralizedContext,
        composite_probability,
        translate_contexts,
    )
    from qprops.histories import (
        HistoryFamily,
        family_from_generalized_context,
        gmh_check,
        griffiths_check,
    )
    from qprops.linop import Projector, evolution_operator

    hamiltonian = random_hermitian(rng, dim)
    rho = random_density(rng, dim, pure=bool(rng.integers(2)))
    contexts = _case_contexts(rng, dim, n_times, kind, hamiltonian)
    answers = {
        "translated": translate_contexts(contexts, 0.0, hamiltonian)[1],
        "law_residual": [ctx.law_residual for ctx in contexts],
    }
    first = contexts[0]
    for tilt in (1e-9, 1e-6):
        u = evolution_operator(random_hermitian(rng, dim), 0.0, tilt)
        tilted = [Projector(u.transform(first.atoms[0].matrix), tols=tols), *first.atoms[1:]]
        answers[f"tilted {tilt:g} laws"] = _outcome(
            lambda: Context(first.time, tilted, first.labels, tols=tols).law_residual
        )
    answers["incomplete laws"] = _outcome(
        lambda: Context(first.time, first.atoms[:-1] or (Projector.zero(dim),), tols=tols)
    )
    gc = _outcome(lambda: GeneralizedContext(contexts, 0.0, hamiltonian, tols=tols))
    if isinstance(gc, GeneralizedContext):
        answers["composed atoms"] = {
            label: atom.matrix for label, atom in gc.composed_atoms.items()
        }
        answers["composite probabilities"] = [
            _outcome(lambda: composite_probability(gc, gc.property([label]), rho, tols=tols))
            for label in gc.label_tuples
        ]
        family = family_from_generalized_context(gc, rho)
    else:
        answers["incompatible"] = gc
        family = HistoryFamily(contexts, hamiltonian, -1.0, rho)
    answers["gmh"] = _outcome(lambda: _report(gmh_check(family, tols=tols)))
    answers["griffiths"] = _outcome(lambda: _report(griffiths_check(family, tols=tols)))
    return {f"{name} {key}": _digest(value) for key, value in answers.items()}


def _library_answers() -> None:
    """Print the hashes of every library case as one JSON object (the child
    side of ``_side_answers``)."""
    import numpy as np

    from qprops.config import DEFAULT_TOLERANCES

    loose = DEFAULT_TOLERANCES.updated(**LOOSE)
    answers = {}
    seed = 0
    for dim in DIMENSIONS:
        for n_times in TIME_COUNTS:
            for kind in KINDS:
                for tag, tols in (("default", DEFAULT_TOLERANCES), ("loose", loose)):
                    seed += 1
                    name = f"d{dim} T{n_times} {kind} {tag}"
                    rng = np.random.default_rng(seed)
                    answers.update(_case_answers(name, rng, dim, n_times, kind, tols))
    json.dump(answers, sys.stdout)


def _contract_lines() -> list[str]:
    return [
        row.split(" ", 1)[1]
        for row in CONTRACT.read_text().splitlines()
        if row and not row.startswith("#")
    ]


def _cli_answers() -> None:
    """Print the hashes of every contract line, in text and JSON, as one
    JSON object (the child side of ``_side_answers``): each line runs
    through ``cli.main`` in this process, with stdout and stderr captured
    as bytes in the encoding a child process of its own would write."""
    import io

    from qprops.cli import main

    streams = {}
    answers = {}
    for line in _contract_lines():
        for fmt in ("text", "json"):
            argv = [*shlex.split(line), "--format", fmt]
            for name in ("stdout", "stderr"):
                stream = getattr(sys, f"__{name}__")
                streams[name] = io.TextIOWrapper(
                    io.BytesIO(), encoding=stream.encoding, errors=stream.errors
                )
            sys.stdout, sys.stderr = streams["stdout"], streams["stderr"]
            try:
                code = main(argv)
            except SystemExit as exit_:
                # as the interpreter maps it at exit
                code = 0 if exit_.code is None else exit_.code
                if not isinstance(code, int):
                    print(code, file=sys.stderr)
                    code = 1
            finally:
                sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
            name = f"cli {line} --format {fmt}"
            for key, stream in streams.items():
                stream.flush()
                answers[f"{name} {key}"] = hashlib.sha256(stream.buffer.getvalue()).hexdigest()
            answers[f"{name} exit"] = _digest(code)
    json.dump(answers, sys.stdout)


def _child(checkout: Path, call: str, *paths: Path) -> dict[str, str]:
    """The JSON object that ``answers.<call>()`` prints in a child process
    with the checkout's ``src``, then ``paths``, on its import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), *map(str, paths), str(ROOT / "tools")]
    ))
    child = subprocess.run(
        [sys.executable, "-c", f"import answers; answers.{call}()"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if child.returncode != 0:
        sys.exit(f"the {call} child of {checkout} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def _side_answers(checkout: Path) -> dict[str, str]:
    return {
        **_child(checkout, "_library_answers", ROOT / "tests"),
        **_child(checkout, "_cli_answers"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    args = parser.parse_args(argv)
    ours = _side_answers(ROOT)
    theirs = None if args.against is None else _side_answers(args.against.resolve())
    for name, value in ours.items():
        print(f"{value}  {name}")
    if theirs is None:
        return 0
    differ = [
        name for name in {**ours, **theirs} if ours.get(name) != theirs.get(name)
    ]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(ours)} answers here, {len(theirs)} in {args.against}; {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
