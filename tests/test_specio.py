from pathlib import Path

import numpy as np
import pytest
import yaml

from qprops.errors import ParseError, ValidationError
from qprops.linop import SpectralWindow, max_entry_norm
from qprops.specio import (
    ContextSpec,
    dumps_system_spec,
    load_system_spec,
    parse_system_spec,
    realize_context,
    realize_system,
    spec_to_mapping,
)

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"

EYE = [[1.0, 0.0], [0.0, 1.0]]
MIXED = [[0.5, 0.0], [0.0, 0.5]]
X_PLUS_STATE = [[0.5, 0.5], [0.5, 0.5]]


def base_document(**overrides):
    doc = {
        "dimension": 2,
        "initial_time": 0.0,
        "initial_state": X_PLUS_STATE,
        "contexts": [
            {"time": 1.0, "direction": [0.0, 0.0, 1.0], "labels": ["z+", "z-"]},
            {"time": 2.0, "direction": [0.0, 0.0, 1.0], "labels": ["z+", "z-"]},
        ],
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_defaults(self):
        spec = parse_system_spec(base_document())
        assert spec.hbar == 1.0
        assert spec.reference_time == spec.initial_time
        assert np.array_equal(spec.hamiltonian, np.zeros((2, 2)))

    def test_complex_entries_as_pairs(self):
        doc = base_document(
            hamiltonian=[[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
        )
        spec = parse_system_spec(doc)
        assert spec.hamiltonian[0, 1] == -1.0j
        assert spec.hamiltonian[1, 0] == 1.0j

    def test_atom_matrix_context(self):
        doc = base_document(
            contexts=[
                {
                    "time": 1.0,
                    "atoms": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                    "labels": ["up", "down"],
                }
            ]
        )
        spec = parse_system_spec(doc)
        assert spec.contexts[0].atoms is not None
        assert spec.contexts[0].labels == ("up", "down")

    def test_observable_window_context(self):
        doc = base_document(
            contexts=[
                {
                    "time": 1.0,
                    "observable": [[1.0, 0.0], [0.0, -1.0]],
                    "windows": [
                        {"label": "up", "lo": 0.5, "hi": 1.5},
                        {"label": "down", "lo": -1.5, "hi": -0.5},
                    ],
                }
            ]
        )
        spec = parse_system_spec(doc)
        assert spec.contexts[0].windows[0].label == "up"

    def test_missing_key(self):
        doc = base_document()
        del doc["initial_state"]
        with pytest.raises(ParseError):
            parse_system_spec(doc)

    def test_wrong_matrix_shape(self):
        with pytest.raises(ValidationError):
            parse_system_spec(base_document(initial_state=[[1.0]]))

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            parse_system_spec(base_document(initial_state=[[1.0, "x"], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "entry", [float("nan"), float("inf"), -float("inf"), [0.0, float("nan")]]
    )
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(ParseError, match="not finite"):
            parse_system_spec(base_document(hamiltonian=[[entry, 0.0], [0.0, 0.0]]))

    def test_times_must_increase(self):
        doc = base_document()
        doc["contexts"][1]["time"] = 0.5
        with pytest.raises(ValidationError):
            parse_system_spec(doc)

    def test_times_must_follow_initial_time(self):
        with pytest.raises(ValidationError):
            parse_system_spec(base_document(initial_time=1.5))

    def test_two_atom_forms_rejected(self):
        doc = base_document()
        doc["contexts"][0]["atoms"] = [EYE]
        with pytest.raises(ParseError):
            parse_system_spec(doc)

    def test_direction_needs_three_components(self):
        doc = base_document()
        doc["contexts"][0]["direction"] = [0.0, 1.0]
        with pytest.raises(ParseError):
            parse_system_spec(doc)

    def test_skewed_direction_warns_and_normalizes(self):
        doc = base_document()
        doc["contexts"][0]["direction"] = [0.0, 0.0, 2.0]
        with pytest.warns(UserWarning, match="auto-normalizing"):
            spec = parse_system_spec(doc)
        assert spec.contexts[0].direction.z == 1.0

    def test_zero_direction_rejected(self):
        doc = base_document()
        doc["contexts"][0]["direction"] = [0.0, 0.0, 0.0]
        with pytest.raises(ValidationError):
            parse_system_spec(doc)

    def test_observable_labels_key_rejected(self):
        doc = base_document(
            contexts=[
                {
                    "time": 1.0,
                    "observable": EYE,
                    "windows": [{"label": "all", "lo": 0.5, "hi": 1.5}],
                    "labels": ["a"],
                }
            ]
        )
        with pytest.raises(ParseError):
            parse_system_spec(doc)

    def test_nonpositive_hbar_rejected(self):
        with pytest.raises(ValidationError):
            parse_system_spec(base_document(hbar=0.0))

    @pytest.mark.parametrize("hbar", [float("inf"), float("nan")])
    def test_non_finite_hbar_rejected(self, hbar):
        with pytest.raises(ValidationError, match="finite"):
            parse_system_spec(base_document(hbar=hbar))

    @pytest.mark.parametrize("key", ["initial_time", "reference_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, key, value):
        with pytest.raises(ParseError, match="finite"):
            parse_system_spec(base_document(**{key: value}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_context_time_rejected(self, value):
        doc = base_document()
        doc["contexts"][0]["time"] = value
        with pytest.raises(ParseError, match="finite"):
            parse_system_spec(doc)

    @staticmethod
    def observable_document(lo):
        return base_document(
            contexts=[
                {
                    "time": 1.0,
                    "observable": [[1.0, 0.0], [0.0, -1.0]],
                    "windows": [
                        {"label": "up", "lo": lo, "hi": 1.5},
                        {"label": "down", "lo": -1.5, "hi": -0.5},
                    ],
                }
            ]
        )

    @pytest.mark.parametrize("lo", ["abc", [1], False], ids=["string", "list", "false"])
    def test_window_bound_must_be_a_number(self, lo):
        with pytest.raises(ParseError, match=r"windows\[0\]: 'lo' must be a number"):
            parse_system_spec(self.observable_document(lo))

    def test_ragged_atom_matrix_rejected(self):
        doc = base_document(
            contexts=[{"time": 1.0, "atoms": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 1.0]]]}]
        )
        with pytest.raises(ValidationError, match=r"atoms\[0\]: row 1 has 1 entries"):
            parse_system_spec(doc)

    @pytest.mark.parametrize("component", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_direction_rejected(self, component):
        doc = base_document()
        doc["contexts"][0]["direction"] = [component, 0.0, 1.0]
        with pytest.raises(ParseError, match="'direction' must be finite"):
            parse_system_spec(doc)

    def test_direction_norm_overflow_rejected(self):
        doc = base_document()
        doc["contexts"][0]["direction"] = [1e308, 1e308, 0.0]
        with pytest.raises(ValidationError, match="'direction' .* cannot be normalized"):
            parse_system_spec(doc)

    @pytest.mark.parametrize(
        "key, named",
        [
            ("initial_time", "'initial_time'"),
            ("hbar", "'hbar'"),
            ("initial_state", "initial_state[0][0]"),
            ("window", "'lo'"),
        ],
    )
    def test_integer_beyond_float_range_rejected(self, key, named):
        huge = 10**400
        if key == "initial_state":
            doc = base_document(initial_state=[[huge, 0.0], [0.0, 0.0]])
        elif key == "window":
            doc = self.observable_document(huge)
        else:
            doc = base_document(**{key: huge})
        with pytest.raises((ParseError, ValidationError)) as caught:
            parse_system_spec(doc)
        assert named in str(caught.value)

    def test_huge_dimension_without_hamiltonian_rejected(self):
        with pytest.raises(ValidationError, match="initial_state"):
            parse_system_spec(base_document(dimension=10**400))


class TestRoundTrip:
    def test_parse_dump_parse_is_identity(self):
        doc = base_document(
            hamiltonian=[[[0.0, 0.0], [0.3, -1.2]], [[0.3, 1.2], [0.7, 0.0]]],
            reference_time=0.25,
            hbar=2.0,
        )
        doc["contexts"].append(
            {
                "time": 3.0,
                "observable": [[1.0, 0.0], [0.0, -1.0]],
                "windows": [
                    {"label": "up", "lo": 0.5, "hi": 1.5},
                    {"label": "down", "lo": -1.5, "hi": -0.5},
                ],
            }
        )
        spec = parse_system_spec(doc)
        text = dumps_system_spec(spec)
        again = parse_system_spec(yaml.safe_load(text))
        assert again == spec

    def test_atoms_form_round_trips_with_its_labels(self):
        # complex off-diagonal atoms, once labelled and once not
        plus = [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]
        minus = [[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]]
        doc = base_document(
            contexts=[
                {"time": 1.0, "atoms": [plus, minus], "labels": ["y+", "y-"]},
                {"time": 2.0, "atoms": [minus, plus]},
            ]
        )
        spec = parse_system_spec(doc)
        entries = yaml.safe_load(dumps_system_spec(spec))["contexts"]
        assert entries[0]["labels"] == ["y+", "y-"]
        assert "labels" not in entries[1]
        again = parse_system_spec({**doc, "contexts": entries})
        assert again == spec
        assert again.contexts[0].labels == ("y+", "y-")
        assert np.array_equal(again.contexts[0].atoms[0], np.array([[0.5, -0.5j], [0.5j, 0.5]]))
        entries[1]["atoms"].reverse()
        assert parse_system_spec({**doc, "contexts": entries}) != spec

    def test_mapping_uses_re_im_pairs(self):
        spec = parse_system_spec(base_document())
        mapping = spec_to_mapping(spec)
        assert mapping["initial_state"][0][1] == [0.5, 0.0]

    def test_shipped_examples_parse_and_round_trip(self):
        for name in ("spin_zz.yaml", "spin_xz.yaml"):
            spec = load_system_spec(SPECS_DIR / name)
            again = parse_system_spec(yaml.safe_load(dumps_system_spec(spec)))
            assert again == spec


class TestEquality:
    """Specs compare by every field they write, and only by those."""

    @staticmethod
    def spec():
        doc = base_document(hamiltonian=[[0.0, 0.5], [0.5, 0.0]])
        doc["contexts"].append(
            {
                "time": 3.0,
                "observable": [[1.0, 0.0], [0.0, -1.0]],
                "windows": [
                    {"label": "up", "lo": 0.5, "hi": 1.5},
                    {"label": "down", "lo": -1.5, "hi": -0.5},
                ],
            }
        )
        doc["contexts"].append({"time": 4.0, "atoms": [EYE], "labels": ["all"]})
        return doc

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["contexts"][0].update(time=1.5),
            lambda doc: doc["contexts"][1].update(labels=["z+", "down"]),
            lambda doc: doc["contexts"][3].update(atoms=[[[1.0, 0.0], [1e-300, 1.0]]]),
            lambda doc: doc.update(initial_state=[[0.5, [0.5, 1e-17]], [[0.5, -1e-17], 0.5]]),
            lambda doc: doc["contexts"][2]["windows"][1].update(lo=-1.25),
            lambda doc: doc["contexts"][1].update(direction=[0.0, 0.6, 0.8]),
            lambda doc: doc.update(reference_time=0.5),
            lambda doc: doc.update(hbar=2.0),
        ],
        ids=["time", "label", "atom", "state", "window", "direction", "ref", "hbar"],
    )
    def test_specs_that_differ_in_one_field_are_unequal(self, edit):
        doc = self.spec()
        edit(doc)
        assert parse_system_spec(doc) != parse_system_spec(self.spec())

    def test_negative_zero_entry_equals_zero(self):
        doc = self.spec()
        doc["hamiltonian"] = [[-0.0, 0.5], [0.5, [0.0, -0.0]]]
        assert parse_system_spec(doc) == parse_system_spec(self.spec())

    def test_labels_given_differ_from_none(self):
        direction = parse_system_spec(base_document()).contexts[0].direction
        assert ContextSpec(1.0, ("+", "-"), direction=direction) != ContextSpec(
            1.0, direction=direction
        )

    def test_spec_without_a_form_equals_itself(self):
        assert ContextSpec(1.0) == ContextSpec(1.0)
        assert ContextSpec(1.0) != ContextSpec(2.0)

    def test_real_and_complex_forms_of_one_observable_are_equal(self):
        window = SpectralWindow("up", 0.0, 1.0)
        observable = np.diag([1.0, -1.0])
        assert ContextSpec(1.0, observable=observable, windows=(window,)) == ContextSpec(
            1.0, observable=observable.astype(complex), windows=(window,)
        )
        assert ContextSpec(1.0) != "contexts[0]"


class TestRealize:
    def test_direction_context_default_labels(self):
        doc = base_document(
            contexts=[{"time": 1.0, "direction": [0.0, 0.0, 1.0]}]
        )
        ctx = realize_context(parse_system_spec(doc).contexts[0])
        assert ctx.labels == ("+", "-")
        assert np.allclose(ctx.atoms[0].matrix, np.diag([1.0, 0.0]))

    def test_observable_context_uses_window_labels(self):
        doc = base_document(
            contexts=[
                {
                    "time": 1.0,
                    "observable": [[1.0, 0.0], [0.0, -1.0]],
                    "windows": [
                        {"label": "up", "lo": 0.5, "hi": 1.5},
                        {"label": "down", "lo": -1.5, "hi": -0.5},
                    ],
                }
            ]
        )
        ctx = realize_context(parse_system_spec(doc).contexts[0])
        assert ctx.labels == ("up", "down")
        assert max_entry_norm(sum(a.matrix for a in ctx.atoms) - np.eye(2)) < 1e-12

    def test_realized_system_carries_operators(self):
        system = realize_system(parse_system_spec(base_document()))
        assert system.initial_state.dim == 2
        assert len(system.contexts) == 2

    def test_non_hermitian_hamiltonian_rejected(self):
        doc = base_document(
            hamiltonian=[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        )
        with pytest.raises(ValidationError, match="hamiltonian"):
            realize_system(parse_system_spec(doc))

    def test_invalid_state_rejected(self):
        with pytest.raises(ValidationError, match="initial_state"):
            realize_system(parse_system_spec(base_document(initial_state=EYE)))

    def test_non_projector_atom_rejected(self):
        doc = base_document(
            contexts=[{"time": 1.0, "atoms": [[[0.7, 0.0], [0.0, 0.3]], MIXED]}]
        )
        with pytest.raises(ValidationError, match="contexts"):
            realize_system(parse_system_spec(doc))
