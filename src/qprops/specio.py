"""Reading, validating, and writing system description files.

A system description is one YAML document: dimension, dynamics (Hamiltonian
and hbar), an initial state with its time, a reference time, and a list of
contexts.  Each context carries its time and one of three atom forms:
explicit projector matrices, an observable with spectral windows, or a spin
direction (dimension-2 systems).  Complex entries are written as two-element
``[re, im]`` arrays; plain numbers are accepted on input as real values.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import yaml

from .config import DEFAULT_TOLERANCES, Tolerances
from .contexts import Context
from .errors import (
    InvariantViolation,
    NonHermitianInput,
    NonUnitDirection,
    ParseError,
    QpropsError,
    ValidationError,
)
from .linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    SpectralWindow,
    spectral_projectors,
)
from .spin import Direction, spin_projectors

__all__ = [
    "ContextSpec",
    "SystemSpec",
    "RealizedSystem",
    "parse_system_spec",
    "load_system_spec",
    "spec_to_mapping",
    "dumps_system_spec",
    "realize_context",
    "realize_system",
    "matrix_to_pairs",
]

_DIRECTION_NORM_WARN = 1e-9

# libyaml's parser when PyYAML was built with it; both loaders share one
# constructor and resolver, so they build the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_scalar(value, where: str) -> complex:
    if isinstance(value, bool):
        raise ParseError(f"{where}: booleans are not matrix entries")
    if isinstance(value, (int, float)):
        parts = (value,)
    elif (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value)
    ):
        parts = value
    else:
        raise ParseError(
            f"{where}: expected a number or a [re, im] pair, got {value!r}"
        )
    try:
        z = complex(*parts)
    except OverflowError:
        raise ParseError(f"{where}: entry is too large for a float") from None
    if not cmath.isfinite(z):
        raise ParseError(f"{where}: entry {value!r} is not finite")
    return z


def _require_number(value, where: str) -> float:
    """``value`` as a float; it must be an int or float, not a boolean."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where} is too large for a float") from None


def _require_finite_number(value, where: str) -> float:
    number = _require_number(value, where)
    if not math.isfinite(number):
        raise ParseError(f"{where} must be finite, got {value!r}")
    return number


def _parse_matrix(value, dim: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{where}: expected a nested array, got {type(value).__name__}")
    rows = []
    for r, row in enumerate(value):
        if not isinstance(row, (list, tuple)):
            raise ParseError(f"{where}: row {r} is not an array")
        rows.append([_parse_scalar(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)])
        if len(rows[r]) != len(rows[0]):
            raise ValidationError(
                f"{where}: row {r} has {len(rows[r])} entries, row 0 has {len(rows[0])}"
            )
    arr = np.array(rows, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape != (dim, dim):
        raise ValidationError(
            f"{where}: expected a {dim}x{dim} matrix, got shape {arr.shape}"
        )
    return arr


def _scalar_to_value(z: complex) -> Any:
    return [float(z.real), float(z.imag)]


def matrix_to_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    """Nested row-major representation with [re, im] entries."""
    arr = np.asarray(matrix, dtype=np.complex128)
    return [[_scalar_to_value(z) for z in row] for row in arr]


@dataclass(frozen=True, eq=False)
class ContextSpec:
    """One context entry of a system description (a single atom form is set);
    two entries are equal when their written forms are."""

    time: float
    labels: tuple[str, ...] | None = None
    atoms: tuple[np.ndarray, ...] | None = None
    observable: np.ndarray | None = None
    windows: tuple[SpectralWindow, ...] | None = None
    direction: Direction | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContextSpec):
            return NotImplemented
        return _context_to_mapping(self) == _context_to_mapping(other)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Parsed system description: dynamics, state, and proposed contexts;
    two descriptions are equal when their written forms are."""

    dimension: int
    hbar: float
    hamiltonian: np.ndarray
    initial_time: float
    initial_state: np.ndarray
    reference_time: float
    contexts: tuple[ContextSpec, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return spec_to_mapping(self) == spec_to_mapping(other)


def _parse_context_entry(entry, dim: int, index: int) -> ContextSpec:
    where = f"contexts[{index}]"
    if not isinstance(entry, Mapping):
        raise ParseError(f"{where}: expected a mapping")
    if "time" not in entry:
        raise ParseError(f"{where}: missing 'time'")
    time = entry["time"]
    _require_finite_number(time, f"{where}: 'time'")

    forms = [k for k in ("atoms", "observable", "direction") if k in entry]
    if len(forms) != 1:
        raise ParseError(
            f"{where}: exactly one of 'atoms', 'observable', or 'direction' "
            f"must be given, found {forms or 'none'}"
        )
    labels = entry.get("labels")
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or not all(
            isinstance(l, str) and "," not in l for l in labels
        ):
            # a ',' would split a label in the CLI's history keys and --choices
            raise ParseError(f"{where}: 'labels' must be an array of strings without ','")
        labels = tuple(labels)

    if "atoms" in entry:
        if not isinstance(entry["atoms"], (list, tuple)) or not entry["atoms"]:
            raise ParseError(f"{where}: 'atoms' must be a non-empty array")
        atoms = tuple(
            _parse_matrix(a, dim, f"{where}.atoms[{k}]")
            for k, a in enumerate(entry["atoms"])
        )
        return ContextSpec(float(time), labels, atoms=atoms)

    if "observable" in entry:
        observable = _parse_matrix(entry["observable"], dim, f"{where}.observable")
        if labels is not None:
            raise ParseError(
                f"{where}: observable contexts take their labels from the windows"
            )
        raw_windows = entry.get("windows")
        if not isinstance(raw_windows, (list, tuple)) or not raw_windows:
            raise ParseError(f"{where}: 'windows' must be a non-empty array")
        windows = []
        for k, win in enumerate(raw_windows):
            if not isinstance(win, Mapping) or not {"label", "lo", "hi"} <= set(win):
                raise ParseError(
                    f"{where}.windows[{k}]: expected keys 'label', 'lo', 'hi'"
                )
            if "," in str(win["label"]):
                raise ParseError(f"{where}.windows[{k}]: 'label' must not contain ','")
            lo, hi = (
                _require_number(win[key], f"{where}.windows[{k}]: {key!r}")
                for key in ("lo", "hi")
            )
            try:
                windows.append(SpectralWindow(str(win["label"]), lo, hi))
            except InvariantViolation as err:
                raise ValidationError(f"{where}.windows[{k}]: {err}") from err
        return ContextSpec(float(time), None, observable=observable, windows=tuple(windows))

    raw = entry["direction"]
    if dim != 2:
        raise ValidationError(
            f"{where}: direction contexts require dimension 2, got {dim}"
        )
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 3
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    ):
        raise ParseError(f"{where}: 'direction' must be a 3-vector of numbers")
    x, y, z = (_require_finite_number(c, f"{where}: 'direction'") for c in raw)
    # squared components can overflow, or lose bits below the normal range;
    # normalizing then fails, so the overflow warning would only be noise
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ValidationError(f"{where}: direction vector is zero")
    try:
        direction = Direction.normalized(x, y, z)
    except NonUnitDirection as err:
        raise ValidationError(
            f"{where}: 'direction' {list(raw)} cannot be normalized: {err}"
        ) from err
    if abs(norm - 1.0) > _DIRECTION_NORM_WARN:
        warnings.warn(
            f"{where}: direction {list(raw)} has norm {norm!r}; auto-normalizing",
            stacklevel=2,
        )
    return ContextSpec(float(time), labels, direction=direction)


def parse_system_spec(document, source: str = "<memory>") -> SystemSpec:
    """Build a ``SystemSpec`` from a parsed YAML/JSON mapping.

    Raises ``ParseError`` for structural problems and ``ValidationError``
    for semantic ones (shape mismatches, non-increasing times).
    """
    if not isinstance(document, Mapping):
        raise ParseError(f"{source}: top level must be a mapping")
    for key in ("dimension", "initial_time", "initial_state", "contexts"):
        if key not in document:
            raise ParseError(f"{source}: missing required key {key!r}")
    dim = document["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{source}: 'dimension' must be a positive integer")

    hbar = document.get("hbar", 1.0)
    if (
        not isinstance(hbar, (int, float))
        or isinstance(hbar, bool)
        or not 0 < hbar <= sys.float_info.max
    ):
        raise ValidationError(f"{source}: 'hbar' must be a positive finite number")

    initial_time = document["initial_time"]
    _require_finite_number(initial_time, f"{source}: 'initial_time'")

    hamiltonian = None
    if document.get("hamiltonian") is not None:
        hamiltonian = _parse_matrix(document["hamiltonian"], dim, f"{source}.hamiltonian")
    initial_state = _parse_matrix(document["initial_state"], dim, f"{source}.initial_state")
    if hamiltonian is None:
        # after the state, whose d x d entries bound d by the document's size
        hamiltonian = np.zeros((dim, dim), dtype=np.complex128)
    reference_time = document.get("reference_time", initial_time)
    _require_finite_number(reference_time, f"{source}: 'reference_time'")

    raw_contexts = document["contexts"]
    if not isinstance(raw_contexts, (list, tuple)) or not raw_contexts:
        raise ParseError(f"{source}: 'contexts' must be a non-empty array")
    contexts = tuple(
        _parse_context_entry(entry, dim, k) for k, entry in enumerate(raw_contexts)
    )
    times = [ctx.time for ctx in contexts]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValidationError(
            f"{source}: context times must be strictly increasing, got {times}"
        )
    if times[0] <= float(initial_time):
        raise ValidationError(
            f"{source}: context times must follow the initial time {initial_time!r}"
        )

    return SystemSpec(
        dimension=dim,
        hbar=float(hbar),
        hamiltonian=hamiltonian,
        initial_time=float(initial_time),
        initial_state=initial_state,
        reference_time=float(reference_time),
        contexts=contexts,
    )


def load_system_spec(path) -> SystemSpec:
    """Parse a system description file (YAML; JSON is a YAML subset)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        document = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as err:
        raise ParseError(f"{path}: {err}") from err
    return parse_system_spec(document, source=str(path))


def _context_to_mapping(ctx: ContextSpec) -> dict:
    out: dict[str, Any] = {"time": ctx.time}
    if ctx.atoms is not None:
        out["atoms"] = [matrix_to_pairs(a) for a in ctx.atoms]
    if ctx.observable is not None:
        out["observable"] = matrix_to_pairs(ctx.observable)
    if ctx.windows is not None:
        out["windows"] = [{"label": w.label, "lo": w.lo, "hi": w.hi} for w in ctx.windows]
    if ctx.direction is not None:
        out["direction"] = [ctx.direction.x, ctx.direction.y, ctx.direction.z]
    if ctx.labels is not None:
        out["labels"] = list(ctx.labels)
    return out


def spec_to_mapping(spec: SystemSpec) -> dict:
    """Plain mapping mirroring the file schema, with [re, im] complex entries."""
    return {
        "dimension": spec.dimension,
        "hbar": spec.hbar,
        "hamiltonian": matrix_to_pairs(spec.hamiltonian),
        "initial_time": spec.initial_time,
        "initial_state": matrix_to_pairs(spec.initial_state),
        "reference_time": spec.reference_time,
        "contexts": [_context_to_mapping(ctx) for ctx in spec.contexts],
    }


def dumps_system_spec(spec: SystemSpec) -> str:
    return yaml.safe_dump(spec_to_mapping(spec), sort_keys=False)


@dataclass(frozen=True, eq=False)
class RealizedSystem:
    """Operator-level view of a system description."""

    dimension: int
    hbar: float
    hamiltonian: HermitianOperator
    initial_time: float
    initial_state: DensityOperator
    reference_time: float
    contexts: tuple[Context, ...]


def realize_context(
    ctx: ContextSpec, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> Context:
    """Build and validate the context described by one entry.

    Propagates the underlying invariant errors (non-projector atoms,
    exclusivity/completeness violations, uncovered eigenvalues, ...).
    """
    if ctx.atoms is not None:
        atoms = [Projector(a, tols=tols) for a in ctx.atoms]
        return Context(ctx.time, atoms, ctx.labels, tols=tols)
    if ctx.observable is not None:
        observable = HermitianOperator(ctx.observable, tols=tols)
        atoms = spectral_projectors(observable, ctx.windows, tols=tols)
        return Context(ctx.time, atoms, [w.label for w in ctx.windows], tols=tols)
    labels = ctx.labels if ctx.labels is not None else ("+", "-")
    return Context(ctx.time, spin_projectors(ctx.direction, tols=tols), labels, tols=tols)


def realize_system(
    spec: SystemSpec, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> RealizedSystem:
    """Build every operator of the description, validating all invariants.

    Invariant failures are reported as ``ValidationError`` (the description
    itself is faulty); use ``realize_context`` directly to inspect individual
    context failures.
    """
    try:
        hamiltonian = HermitianOperator(spec.hamiltonian, tols=tols)
    except NonHermitianInput as err:
        raise ValidationError(f"hamiltonian: {err}") from err
    try:
        initial_state = DensityOperator(spec.initial_state, tols=tols)
    except InvariantViolation as err:
        raise ValidationError(f"initial_state: {err}") from err
    contexts = []
    for k, ctx in enumerate(spec.contexts):
        try:
            contexts.append(realize_context(ctx, tols=tols))
        except QpropsError as err:
            raise ValidationError(f"contexts[{k}]: {err}") from err
    return RealizedSystem(
        dimension=spec.dimension,
        hbar=spec.hbar,
        hamiltonian=hamiltonian,
        initial_time=spec.initial_time,
        initial_state=initial_state,
        reference_time=spec.reference_time,
        contexts=tuple(contexts),
    )
