"""Spans around qprops callables, placed from outside at run time.

``install`` swaps a fixed list of public qprops callables (and the names
other qprops modules imported them under) for wrappers that record one span
per call: name, start, end, parent span, op id and how it ended.  Nothing
under ``src/`` is edited, and ``uninstall`` puts the originals back.  Spans
stay in memory until the run ends.

This module imports neither numpy nor qprops at load time, so the traced CLI
child can time ``import qprops.cli`` on its own.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# Callables that get a span, per qprops module.  Class entries wrap
# ``__init__``.  Helpers such as ``max_entry_norm`` stay unwrapped so their
# cost lands in the self time of the layer that calls them.
TRACED = {
    "linop": ["Projector", "evolution_operator"],
    "lattice": ["translate", "class_of", "class_meet", "class_join",
                "class_negate", "class_implies"],
    "contexts": ["Context", "build_generalized_context", "composite_probability"],
    "histories": ["HistoryFamily", "gmh_check", "griffiths_check",
                  "history_probability", "family_from_generalized_context"],
    "spin": ["sphere_grid", "compatible_directions", "gmh_directions",
             "griffiths_directions"],
    "specio": ["load_system_spec", "realize_system"],
    "cli": ["main", "emit"],
}
MODULES = tuple(TRACED)

OK, EXPECTED, ERROR = 0, 1, 2


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.status = array("b")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_id = -1
        self.expected: frozenset[str] = frozenset()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id: int, expected=frozenset()) -> None:
        """Tag later spans with ``op_id``; ``expected`` names the exception
        classes the op raises on purpose (verdicts, not errors)."""
        self.op_id = op_id
        self.expected = frozenset(expected)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.status.append(OK)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, exc: BaseException | None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            names = {cls.__name__ for cls in type(exc).__mro__}
            self.status[idx] = EXPECTED if names & self.expected else ERROR

    # -- moving spans between processes and to disk --

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "status": self.status.tolist(),
            "counters": self.counters,
        }

    def merge(self, dumped: dict, op_id: int) -> None:
        """Append spans recorded by a child process under ``op_id``."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in dumped["names"]]
        self.name.extend(remap[i] for i in dumped["name"])
        self.start.extend(dumped["start"])
        self.end.extend(dumped["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dumped["parent"])
        self.status.extend(dumped["status"])
        self.op.extend([op_id] * len(dumped["name"]))
        for key, value in dumped["counters"].items():
            self.count(key, value)

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            status=np.frombuffer(self.status, dtype=np.int8),
        )

    # -- per-layer figures --

    def layer_totals(self) -> dict[str, float]:
        """Per span name: call count and self seconds; per module: errors.

        Self time is a span's duration minus its direct children's.  An error
        is counted once per module it leaves, at the module's outermost span.
        """
        import numpy as np

        if not self.names:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        status = np.frombuffer(self.status, dtype=np.int8)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        self_time = dur - child_time
        counts = np.bincount(name, minlength=len(self.names))
        self_sum = np.bincount(name, weights=self_time, minlength=len(self.names))
        module_of = np.array([n.split(".")[0] for n in self.names])
        span_module = module_of[name]
        parent_module = np.where(nested, span_module[np.maximum(parent, 0)], "")
        leaving = (status == ERROR) & (span_module != parent_module)
        out: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            out[f"{label}.count"] = float(counts[nid])
            out[f"{label}.self_s"] = float(self_sum[nid])
        for module in MODULES:
            out[f"{module}.errors"] = float(np.sum(leaving & (span_module == module)))
        build = self._ids.get("contexts.build_generalized_context")
        if build is not None:
            out["contexts.build_generalized_context.rejected"] = float(
                np.sum((name == build) & (status == EXPECTED))
            )
            inside = name == build
            # spans are stored in start order, so a parent precedes its children
            for idx in np.nonzero(nested)[0]:
                inside[idx] |= inside[parent[idx]]
            projector = self._ids.get("linop.Projector")
            out["contexts.build_projectors"] = float(
                np.sum(inside & (name == projector)) if projector is not None else 0
            )
        out.update(self.counters)
        return out


def _wrap(tracer: Tracer, label: str, fn, probe=None):
    nid = tracer.name_id(label)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, exc)
            raise
        tracer.close(idx, None)
        if probe is not None:
            probe(tracer, args, kwargs, result)
        return result

    return traced


def _grid_probe(fn):
    signature = inspect.signature(fn)

    def probe(tracer, args, kwargs, result):
        grid = signature.bind(*args, **kwargs).arguments["grid"]
        tracer.count("spin.grid_points.count", len(grid))

    return probe


def _useful_atoms_probe(tracer, args, kwargs, gc):
    tracer.count(
        "contexts.useful_atoms",
        sum(1 for atom in gc.composed_atoms.values() if atom.rank > 0),
    )


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every callable in ``TRACED``; return the patches for ``uninstall``."""
    import importlib

    import numpy as np

    wrappers: dict[int, tuple[object, object]] = {}
    patches: list[tuple[object, str, object]] = []
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"qprops.{module_name}")
        for attr in names:
            obj = getattr(module, attr)
            label = f"{module_name}.{attr}"
            if inspect.isclass(obj):
                init = obj.__dict__["__init__"]
                patches.append((obj, "__init__", init))
                setattr(obj, "__init__", _wrap(tracer, label, init))
                continue
            probe = None
            if attr.endswith("_directions"):
                probe = _grid_probe(obj)
            elif attr == "build_generalized_context":
                probe = _useful_atoms_probe
            wrappers[id(obj)] = (obj, _wrap(tracer, label, obj, probe))
    # rebind the name everywhere qprops refers to it, imported names included
    for module_name, module in list(sys.modules.items()):
        if module_name != "qprops" and not module_name.startswith("qprops."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])

    eigh = np.linalg.eigh

    @functools.wraps(eigh)
    def counted_eigh(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("qprops."):
            tracer.count("linop.eigh.count")
        return eigh(*args, **kwargs)

    patches.append((np.linalg, "eigh", eigh))
    np.linalg.eigh = counted_eigh
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)

