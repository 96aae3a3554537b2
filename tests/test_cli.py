import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from qprops import cli
from qprops.cli import MAX_GRID_COUNT, main
from qprops.contexts import build_generalized_context, composite_probability
from qprops.histories import HistoryFamily, griffiths_check
from qprops.linop import DensityOperator, evolution_operator
from qprops.specio import load_system_spec, realize_system
from qprops.spin import Direction, gmh_directions, griffiths_directions, sphere_points

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"
ZZ = str(SPECS_DIR / "spin_zz.yaml")
XZ = str(SPECS_DIR / "spin_xz.yaml")


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def assert_one_line_error(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def write_spec(tmp_path, doc, name="system.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestGcCheck:
    def test_matching_contexts_pass_with_table(self, capsys):
        code, payload, _ = run_json(capsys, "gc-check", ZZ)
        assert code == 0
        assert payload["verdict"] == "pass"
        table = payload["results"]["probabilities"]
        assert table["z+,z+"] == pytest.approx(0.5, abs=1e-12)
        assert table["z-,z-"] == pytest.approx(0.5, abs=1e-12)
        assert table["z+,z-"] == pytest.approx(0.0, abs=1e-12)
        assert table["z-,z+"] == pytest.approx(0.0, abs=1e-12)

    def test_skew_contexts_fail_with_residuals(self, capsys):
        code, payload, _ = run_json(capsys, "gc-check", XZ)
        assert code == 1
        assert payload["verdict"] == "fail"
        violations = payload["results"]["violations"]
        assert len(violations) == 4
        assert payload["results"]["max_commutator"] == pytest.approx(0.5, abs=1e-12)

    def test_tolerance_override_changes_the_verdict(self, capsys):
        # a loosened commutator threshold passes every pair, but the joint
        # eigenbasis is not the contexts' (its certified gap is about 2.6):
        # the check fails, with the worst pair and the gap, however loose
        # proj and herm are
        for extra in ([], ["--tol", "proj=10", "--tol", "herm=10"]):
            code, payload, _ = run_json(
                capsys, "gc-check", XZ, "--tol", "commute=10", *extra
            )
            assert code == 1
            assert payload["verdict"] == "fail"
            assert payload["tolerances"]["commute"] == 10.0
            results = payload["results"]
            assert "probabilities" not in results
            assert [(v["label_a"], v["label_b"]) for v in results["violations"]] == [
                ("x+", "z+")
            ]
            assert results["max_commutator"] == pytest.approx(0.5, abs=1e-12)
            assert results["gap"] > 0.25
        code = main(["gc-check", XZ, "--tol", "commute=10"])
        assert code == 1
        assert "gap: 2.59" in capsys.readouterr().out

    def test_loose_commute_does_not_label_non_commuting_atoms(self, capsys, tmp_path):
        # z then a direction 150 degrees away: every eigenvalue of the joint
        # observable lies within 1/4 of a label position (2.13 and 0.87), but
        # its eigenvectors are far from diagonalizing either context (the
        # certified gap is about 2), so no atom is labelled and the check
        # fails
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "reference_time": 0.0,
            "initial_state": [[1.0, 0.0], [0.0, 0.0]],
            "contexts": [
                {"time": 1.0, "direction": [0.0, 0.0, 1.0], "labels": ["z+", "z-"]},
                {
                    "time": 2.0,
                    "direction": [0.5, 0.0, -math.sqrt(3.0) / 2],
                    "labels": ["n+", "n-"],
                },
            ],
        }
        path = write_spec(tmp_path, doc)
        code, payload, err = run_json(capsys, "gc-check", path, "--tol", "commute=10")
        assert code == 1 and err == ""
        results = payload["results"]
        assert "probabilities" not in results
        assert len(results["violations"]) == 1
        assert results["max_commutator"] == pytest.approx(0.25, abs=1e-12)
        assert 0.25 < results["gap"] < math.inf

    def test_single_context_off_its_eigenbasis_fails_without_pairs(self, capsys, tmp_path):
        # atoms with |P^2 - P| = 0.36 pass proj = herm = 10, but the one
        # context is not its eigenbasis (certified gap about 0.4): the check
        # fails, and with no context pair it names no pair
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[1.0, 0.0], [0.0, 0.0]],
            "contexts": [
                {"time": 1.0, "atoms": [[[1.0, 0.6], [0.6, 0.0]], [[0.0, -0.6], [-0.6, 1.0]]]}
            ],
        }
        path = write_spec(tmp_path, doc)
        code, payload, err = run_json(
            capsys, "gc-check", path, "--tol", "proj=10", "--tol", "herm=10"
        )
        assert code == 1 and err == ""
        results = payload["results"]
        assert results["violations"] == [] and results["max_commutator"] == 0.0
        assert results["gap"] > 0.25

    def test_state_is_evolved_to_the_reference_time(self, capsys, tmp_path):
        # z+ prepared at t = 0 under H = 0.3 sigma_x; z at t = 1 and one
        # period of U later, asked at t = 0.5
        doc = {
            "dimension": 2,
            "hamiltonian": [[0.0, 0.3], [0.3, 0.0]],
            "initial_time": 0.0,
            "reference_time": 0.5,
            "initial_state": [[1.0, 0.0], [0.0, 0.0]],
            "contexts": [
                {"time": 1.0, "direction": [0.0, 0.0, 1.0], "labels": ["a+", "a-"]},
                {"time": 1.0 + math.pi / 0.3, "direction": [0.0, 0.0, 1.0],
                 "labels": ["b+", "b-"]},
            ],
        }
        path = write_spec(tmp_path, doc)
        code, payload, _ = run_json(capsys, "gc-check", path)
        assert code == 0
        system = realize_system(load_system_spec(path))
        gc = build_generalized_context(system.contexts, 0.5, system.hamiltonian)
        u = evolution_operator(system.hamiltonian, 0.0, 0.5)
        rho = system.initial_state.evolved(u)
        want = {
            ",".join(labels): composite_probability(gc, gc.property([labels]), rho)
            for labels in gc.label_tuples
        }
        assert payload["results"]["probabilities"] == want
        assert want["a+,b+"] == pytest.approx(math.cos(0.3) ** 2, abs=1e-12)

    def test_text_format(self, capsys):
        code = main(["gc-check", ZZ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        assert "z+,z+: 0.5" in out


class TestValidateContext:
    def test_good_contexts(self, capsys):
        code, payload, _ = run_json(capsys, "validate-context", ZZ)
        assert code == 0
        statuses = [c["status"] for c in payload["results"]["contexts"]]
        assert statuses == ["ok", "ok"]

    def test_exclusivity_failure_reported(self, capsys, tmp_path):
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [
                {
                    "time": 1.0,
                    "atoms": [
                        [[1.0, 0.0], [0.0, 0.0]],
                        [[0.5, -0.5], [-0.5, 0.5]],
                    ],
                }
            ],
        }
        code, payload, _ = run_json(
            capsys, "validate-context", write_spec(tmp_path, doc)
        )
        assert code == 1
        entry = payload["results"]["contexts"][0]
        assert entry["status"] == "ExclusivityViolation"
        assert entry["violations"][0][2] == pytest.approx(0.5, abs=1e-12)

    def test_completeness_failure_reported(self, capsys, tmp_path):
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [{"time": 1.0, "atoms": [[[1.0, 0.0], [0.0, 0.0]]]}],
        }
        code, payload, _ = run_json(
            capsys, "validate-context", write_spec(tmp_path, doc)
        )
        assert code == 1
        entry = payload["results"]["contexts"][0]
        assert entry["status"] == "CompletenessViolation"
        assert entry["violations"] == [pytest.approx(1.0, abs=1e-12)]

    def test_non_projector_atom_reported(self, capsys, tmp_path):
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [
                {"time": 1.0, "atoms": [[[0.7, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.0, 1.0]]]}
            ],
        }
        code, payload, _ = run_json(
            capsys, "validate-context", write_spec(tmp_path, doc)
        )
        assert code == 1
        assert payload["results"]["contexts"][0]["status"] == "InvariantViolation"


class TestConsistency:
    def test_skew_family_is_gmh_consistent(self, capsys):
        code, payload, _ = run_json(capsys, "consistency", XZ, "--criterion", "gmh")
        assert code == 0
        assert payload["verdict"] == "pass"
        assert payload["results"]["probabilities"]["x+,z+"] == pytest.approx(
            0.5, abs=1e-12
        )

    def test_griffiths_on_matching_contexts(self, capsys):
        code, payload, _ = run_json(
            capsys, "consistency", ZZ, "--criterion", "griffiths"
        )
        assert code == 0
        assert payload["results"]["criterion"] == "griffiths"

    def test_inconsistent_family_fails(self, capsys, tmp_path):
        invsq = 1.0 / 2.0**0.5
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [
                {"time": 1.0, "direction": [invsq, invsq, 0.0], "labels": ["d+", "d-"]},
                {"time": 2.0, "direction": [0.0, 0.0, 1.0], "labels": ["z+", "z-"]},
            ],
        }
        code, payload, _ = run_json(
            capsys, "consistency", write_spec(tmp_path, doc), "--criterion", "gmh"
        )
        assert code == 1
        assert payload["verdict"] == "fail"
        assert payload["results"]["violations"]

    def test_griffiths_on_any_shape(self, capsys, tmp_path):
        # one time passes; x, z, x on z+ fails on the twelve pairs of
        # histories that share their last atom, each at 1/8
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [
                {"time": 1.0, "direction": [0.0, 0.0, 1.0]},
            ],
        }
        code, payload, _ = run_json(
            capsys, "consistency", write_spec(tmp_path, doc), "--criterion", "griffiths"
        )
        assert code == 0
        assert payload["verdict"] == "pass"
        doc["initial_state"] = [[1.0, 0.0], [0.0, 0.0]]
        doc["contexts"] = [
            {"time": float(t), "direction": n}
            for t, n in enumerate([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], 1)
        ]
        code, payload, _ = run_json(
            capsys, "consistency", write_spec(tmp_path, doc), "--criterion", "griffiths"
        )
        assert code == 1
        results = payload["results"]
        assert len(results["violations"]) == 12
        assert results["max_residual"] == pytest.approx(0.125, abs=1e-12)
        assert sum(results["probabilities"].values()) == pytest.approx(1.0, abs=1e-12)


class TestHistoryProb:
    def test_full_table(self, capsys):
        code, payload, _ = run_json(capsys, "history-prob", XZ)
        assert code == 0
        table = payload["results"]["probabilities"]
        assert table["x+,z+"] == pytest.approx(0.5, abs=1e-12)
        assert table["x-,z-"] == pytest.approx(0.0, abs=1e-12)

    def test_single_choice(self, capsys):
        code, payload, _ = run_json(capsys, "history-prob", XZ, "--choices", "x+,z+")
        assert code == 0
        assert payload["results"]["probabilities"] == {"x+,z+": pytest.approx(0.5)}

    def test_unknown_choice_is_input_error(self, capsys):
        code, _, err = run_json(capsys, "history-prob", XZ, "--choices", "up,down")
        assert code == 2
        assert "not an atom" in err

    def test_empty_choices_are_an_input_error(self, capsys):
        # an empty --choices names no history; it is not the whole table
        for choices in ("", ","):
            code, payload, err = run_json(capsys, "history-prob", XZ, "--choices", choices)
            assert code == 2
            assert payload is None
            assert_one_line_error(err)

    @pytest.mark.parametrize("command", ["history-prob", "consistency"])
    def test_comma_in_a_label_is_an_input_error(self, capsys, tmp_path, command):
        # "a" and "a,b" then "b,c" and "c" would print "a,b,c" for two histories
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [
                {"time": 1.0, "direction": [0.0, 0.0, 1.0], "labels": ["a", "a,b"]},
                {"time": 2.0, "direction": [1.0, 0.0, 0.0], "labels": ["b,c", "c"]},
            ],
        }
        code, payload, err = run_json(capsys, command, write_spec(tmp_path, doc))
        assert code == 2
        assert payload is None
        assert_one_line_error(err)
        assert "contexts[0]: 'labels'" in err
        doc["contexts"][0] = {
            "time": 1.0,
            "observable": [[1.0, 0.0], [0.0, -1.0]],
            "windows": [
                {"label": "up", "lo": 0.0, "hi": 1.5},
                {"label": "down,", "lo": -1.5, "hi": -0.5},
            ],
        }
        doc["contexts"][1].pop("labels")
        code, payload, err = run_json(capsys, command, write_spec(tmp_path, doc))
        assert code == 2
        assert_one_line_error(err)
        assert "contexts[0].windows[1]: 'label'" in err

    def test_pruned_histories_weigh_exactly_zero(self, capsys, tmp_path):
        # one unit direction at two times under free dynamics: the products
        # P-·P+ and P+·P- round to entries near 1e-17, whose weights a
        # product per history reads near 1e-33; those histories are pruned
        axis = {"direction": [0.6, 0.0, 0.8], "labels": ["n+", "n-"]}
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [{"time": 1.0, **axis}, {"time": 2.0, **axis}],
        }
        path = write_spec(tmp_path, doc)
        system = realize_system(load_system_spec(path))
        family = HistoryFamily(
            system.contexts, system.hamiltonian, 0.0, system.initial_state
        )
        rho = system.initial_state.matrix
        (p_plus, p_minus), (q_plus, q_minus) = family.heisenberg_atoms
        loop = [q_minus @ p_plus, q_plus @ p_minus]
        assert all(np.trace(c @ rho @ c.conj().T).real > 0 for c in loop)
        code, payload, _ = run_json(capsys, "history-prob", path)
        assert code == 0
        table = payload["results"]["probabilities"]
        assert table["n+,n-"] == table["n-,n+"] == 0.0
        assert table["n+,n+"] + table["n-,n-"] == pytest.approx(1.0, abs=1e-12)
        report = griffiths_check(family)
        assert report.verdict
        assert report.probabilities[("n+", "n-")] == 0.0
        assert report.probabilities[("n-", "n+")] == 0.0


class TestLattice:
    def test_meet_of_orthogonal_outcomes_is_zero(self, capsys):
        code, payload, _ = run_json(
            capsys, "lattice", ZZ, "--op", "meet", "--left", "0:0", "--right", "1:1"
        )
        assert code == 0
        assert payload["results"]["rank"] == 0

    def test_join_of_orthogonal_outcomes_is_identity(self, capsys):
        code, payload, _ = run_json(
            capsys, "lattice", ZZ, "--op", "join", "--left", "0:0", "--right", "1:1"
        )
        assert code == 0
        assert payload["results"]["rank"] == 2
        rep = payload["results"]["representative"]
        assert rep[0][0] == [1.0, 0.0]
        assert rep[0][1] == [0.0, 0.0]

    def test_negation(self, capsys):
        code, payload, _ = run_json(capsys, "lattice", ZZ, "--op", "neg", "--left", "0:0")
        assert code == 0
        assert payload["results"]["representative"][1][1] == [1.0, 0.0]

    def test_implies_same_atom_across_times(self, capsys):
        code, payload, _ = run_json(
            capsys, "lattice", ZZ, "--op", "implies", "--left", "0:0", "--right", "1:0"
        )
        assert code == 0
        assert payload["results"]["implies"] is True

    def test_bad_atom_reference(self, capsys):
        code, _, err = run_json(
            capsys, "lattice", ZZ, "--op", "meet", "--left", "0:7", "--right", "1:0"
        )
        assert code == 2
        assert "out of range" in err


class TestSpinSearch:
    def test_commute_mode_keeps_only_the_fixed_axis(self, capsys):
        code, payload, _ = run_json(
            capsys, "spin-search", XZ, "--mode", "commute", "--grid-count", "100"
        )
        assert code == 0
        accepted = payload["results"]["accepted"]
        assert accepted == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        assert payload["results"]["antipodal_pairs"] == [[0, 1]]

    def test_gmh_mode_keeps_both_axes(self, capsys):
        code, payload, _ = run_json(
            capsys, "spin-search", XZ, "--mode", "gmh", "--grid-count", "50"
        )
        assert code == 0
        accepted = {tuple(d) for d in payload["results"]["accepted"]}
        assert accepted == {
            (1.0, 0.0, 0.0),
            (-1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0),
        }

    def test_griffiths_mode_counts_plane_points(self, capsys):
        code, payload, _ = run_json(
            capsys, "spin-search", XZ, "--mode", "griffiths", "--grid-count", "50"
        )
        assert code == 0
        assert payload["results"]["accepted_count"] >= 4

    def test_t1_must_be_interior(self, capsys):
        code, _, err = run_json(
            capsys, "spin-search", XZ, "--mode", "commute", "--t1", "5.0"
        )
        assert code == 2
        assert "intermediate time" in err

    def test_negative_t1_with_an_exponent_is_a_value(self, capsys, tmp_path):
        # argparse's own pattern takes -1e-05 for an option; both spellings
        # must give the same report and the same diagnostic
        doc = yaml.safe_load(Path(XZ).read_text())
        doc["initial_time"] = doc["reference_time"] = -1.0
        inside = write_spec(tmp_path, doc)
        for spec, want in ((inside, 0), (XZ, 2)):
            outcomes = []
            for t1 in (["--t1", "-1e-05"], ["--t1=-1e-05"]):
                code = main(["spin-search", spec, "--mode", "commute", *t1])
                outcomes.append((code, *capsys.readouterr()))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == want
        assert "intermediate time -1e-05 must lie inside" in outcomes[0][2]

    @pytest.mark.parametrize("count", [-5, MAX_GRID_COUNT + 1])
    def test_grid_count_out_of_range(self, capsys, count):
        code, payload, err = run_json(
            capsys, "spin-search", XZ, "--mode", "commute", "--grid-count", str(count)
        )
        assert code == 2
        assert payload is None
        assert_one_line_error(err)
        assert f"--grid-count must lie in [0, {MAX_GRID_COUNT}]" in err

    @pytest.mark.parametrize("mode", ["commute", "gmh", "griffiths"])
    def test_directions_built_only_for_accepted_rows(self, capsys, monkeypatch, mode):
        built = []
        check = Direction.__post_init__

        def counted_check(self):
            built.append((self.x, self.y, self.z))
            check(self)

        monkeypatch.setattr(Direction, "__post_init__", counted_check)
        _, payload, _ = run_json(
            capsys, "spin-search", XZ, "--mode", mode, "--grid-count", "2000"
        )
        results = payload["results"]
        assert results["grid_points"] == 2006
        # the spec's two context directions (the last is the fixed one), then
        # one per accepted row
        assert len(built) == 2 + results["accepted_count"]
        assert [list(n) for n in built[2:]] == results["accepted"]

    def test_mixed_state_gets_its_search(self, capsys, tmp_path):
        # the searches read the state itself, pure or mixed: the maximally
        # mixed state passes every grid point, and another mixed state gets
        # the library's answer
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "contexts": [{"time": 2.0, "direction": [0.0, 0.0, 1.0]}],
        }
        searches = {"gmh": gmh_directions, "griffiths": griffiths_directions}
        z = Direction(0.0, 0.0, 1.0)
        cases = (([[0.5, 0.0], [0.0, 0.5]], 206), ([[0.75, 0.2], [0.2, 0.25]], 2))
        for state, count in cases:
            doc["initial_state"] = state
            spec = write_spec(tmp_path, doc)
            rho = DensityOperator(state)
            for mode, search in searches.items():
                code, payload, _ = run_json(
                    capsys, "spin-search", spec, "--mode", mode, "--grid-count", "200"
                )
                assert code == 0
                kept = search(None, z, sphere_points(200), rho, None, 1.0, 0.0, 1.0, 2.0)
                assert payload["results"]["accepted"] == [[n.x, n.y, n.z] for n in kept]
                assert payload["results"]["accepted_count"] == count


# Accepted axes of ``spin-search --grid-count 2000`` per layout and mode, as
# the spherical-point searches gave them before they became forms over the
# Pauli basis.  Each axis is one antipodal pair, written as the JSON text of
# the report so that -0.0 and 0.0 differ; no spiral point passes on these
# layouts.  CI runs tier-1 under several OpenBLAS kernels, so this also
# holds the answers there.
AXIS_TEXT = {
    "x": "[1.0, 0.0, 0.0], [-1.0, -0.0, -0.0]",
    "y": "[0.0, 1.0, 0.0], [-0.0, -1.0, -0.0]",
    "z": "[0.0, 0.0, 1.0], [-0.0, -0.0, -1.0]",
}
PINNED_AXES = {
    ("spin_xz", "commute"): "z",
    ("spin_xz", "gmh"): "xz",
    ("spin_xz", "griffiths"): "xyz",
    ("spin_zz", "commute"): "z",
    ("spin_zz", "gmh"): "xz",
    ("spin_zz", "griffiths"): "xyz",
    # spin_xz with H = 0.3 sigma_x: the translated +-z is not on the grid
    ("spin_xz_driven", "commute"): "",
    ("spin_xz_driven", "gmh"): "x",
    ("spin_xz_driven", "griffiths"): "xyz",
}


@pytest.mark.parametrize("layout, mode", sorted(PINNED_AXES))
def test_spin_search_answers_are_pinned(capsys, tmp_path, layout, mode):
    path = SPECS_DIR / f"{layout.removesuffix('_driven')}.yaml"
    if layout.endswith("_driven"):
        doc = yaml.safe_load(path.read_text())
        doc["hamiltonian"] = [[0.0, 0.3], [0.3, 0.0]]
        path = write_spec(tmp_path, doc)
    code, payload, _ = run_json(
        capsys, "spin-search", str(path), "--mode", mode, "--grid-count", "2000"
    )
    axes = PINNED_AXES[layout, mode]
    assert code == 0
    results = payload["results"]
    assert results["grid_points"] == 2006
    assert json.dumps(results["accepted"]) == (
        "[" + ", ".join(AXIS_TEXT[a] for a in axes) + "]"
    )
    assert results["antipodal_pairs"] == [[2 * k, 2 * k + 1] for k in range(len(axes))]


def test_control_characters_in_text_keys_are_escaped(capsys, tmp_path):
    # a label with a line break keeps its field on one text line; the JSON
    # report keeps the key as it is
    doc = yaml.safe_load(Path(XZ).read_text())
    doc["contexts"][0]["labels"] = ["a\nb", "c\x7f"]
    path = write_spec(tmp_path, doc)
    code, payload, _ = run_json(capsys, "history-prob", path)
    assert code == 0
    keys = list(payload["results"]["probabilities"])
    assert keys == ["a\nb,z+", "a\nb,z-", "c\x7f,z+", "c\x7f,z-"]
    assert main(["history-prob", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("  probabilities:") + 1 :][: len(keys)]
    assert [line.split(": ")[0] for line in table] == [
        "    a\\nb,z+", "    a\\nb,z-", "    c\\x7f,z+", "    c\\x7f,z-"
    ]
    # and so does a label printed as a value
    assert main(["validate-context", path]) == 0
    assert "        - a\\nb\n        - c\\x7f\n" in capsys.readouterr().out


class TestHeadlineContrast:
    def test_same_file_passes_consistency_but_fails_gc_check(self, capsys):
        code_hist, hist, _ = run_json(capsys, "consistency", XZ, "--criterion", "gmh")
        code_gc, gc, _ = run_json(capsys, "gc-check", XZ)
        assert (code_hist, hist["verdict"]) == (0, "pass")
        assert (code_gc, gc["verdict"]) == (1, "fail")


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, payload, err = run_json(capsys, "gc-check", "/nonexistent/file.yaml")
        assert code == 2
        assert payload is None
        assert "cannot read" in err

    def test_malformed_yaml(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("dimension: [unclosed")
        code, _, err = run_json(capsys, "gc-check", str(path))
        assert code == 2
        assert "error" in err

    def test_multi_line_diagnostic_is_joined(self, capsys, tmp_path):
        # PyYAML's message spans four lines
        path = tmp_path / "broken.yaml"
        path.write_text("dimension: [unclosed\n")
        code, _, err = run_json(capsys, "gc-check", str(path))
        assert code == 2
        assert_one_line_error(err)
        assert "while parsing a flow sequence in " in err

    def test_negative_psd_floor_reads_as_one_number(self, capsys):
        # a negative tolerance is allowed and only makes the check fail
        code, _, err = run_json(capsys, "gc-check", ZZ, "--tol", "psd=-1")
        assert code == 2
        assert_one_line_error(err)
        assert "(floor 1.0e+00)" in err

    def test_unknown_tolerance_name(self, capsys):
        code, _, err = run_json(capsys, "gc-check", ZZ, "--tol", "bogus=1")
        assert code == 2
        assert "unknown tolerance" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_rejected(self, capsys, tmp_path, value):
        invsq = 1.0 / 2.0**0.5
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [
                {"time": 1.0, "direction": [invsq, invsq, 0.0]},
                {"time": 2.0, "direction": [0.0, 0.0, 1.0]},
            ],
        }
        code, payload, err = run_json(
            capsys,
            "consistency",
            write_spec(tmp_path, doc),
            "--tol",
            f"consist={value}",
        )
        assert code == 2
        assert payload is None
        assert_one_line_error(err)
        assert "must be finite" in err

    @pytest.mark.parametrize("name", ["meet", "comp", "orth", "recon"])
    def test_removed_tolerance_names_are_unknown(self, capsys, name):
        code, _, err = run_json(capsys, "gc-check", ZZ, "--tol", f"{name}=5")
        assert code == 2
        assert "unknown tolerance" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["gc-check"],
            ["spin-search", "--mode", "commute"],
            ["spin-search", "--mode", "gmh"],
            ["spin-search", "--mode", "griffiths"],
        ],
        ids=["gc-check", "commute", "gmh", "griffiths"],
    )
    def test_non_finite_hamiltonian(self, capsys, tmp_path, command):
        path = tmp_path / "nan.yaml"
        path.write_text(
            Path(XZ).read_text() + "hamiltonian:\n  - [.nan, 0.0]\n  - [0.0, 0.0]\n"
        )
        code, payload, err = run_json(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert payload is None
        assert_one_line_error(err)
        assert "not finite" in err

    X_TWICE = (
        "dimension: 2\n"
        "hbar: {hbar}\n"
        "initial_time: {initial}\n"
        "reference_time: {reference}\n"
        "initial_state: [[0.5, 0.5], [0.5, 0.5]]\n"
        "hamiltonian: [[1.0, 0.0], [0.0, -1.0]]\n"
        "contexts:\n"
        "  - {{time: {first}, direction: [1.0, 0.0, 0.0], labels: [x+, x-]}}\n"
        "  - {{time: 2.0, direction: [1.0, 0.0, 0.0], labels: [x+, x-]}}\n"
    )
    X_TWICE_FINITE = dict(hbar="1.0", initial="0.0", reference="0.0", first="1.0")

    def test_x_twice_under_sigma_z_fails(self, capsys, tmp_path):
        path = tmp_path / "x_twice.yaml"
        path.write_text(self.X_TWICE.format(**self.X_TWICE_FINITE))
        code, payload, _ = run_json(capsys, "gc-check", str(path))
        assert code == 1
        assert payload["verdict"] == "fail"

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("hbar", ".inf", "'hbar'"),  # used to turn U into I and print PASS
            ("hbar", ".nan", "'hbar'"),
            ("initial", ".nan", "'initial_time'"),
            ("initial", "-.inf", "'initial_time'"),
            ("reference", ".nan", "'reference_time'"),
            ("reference", ".inf", "'reference_time'"),
            ("first", ".nan", "contexts[0]: 'time'"),
            ("first", ".inf", "contexts[0]: 'time'"),
        ],
    )
    def test_non_finite_hbar_or_time(self, capsys, tmp_path, key, value, named):
        path = tmp_path / "x_twice.yaml"
        path.write_text(self.X_TWICE.format(**{**self.X_TWICE_FINITE, key: value}))
        code, payload, err = run_json(capsys, "gc-check", str(path))
        assert code == 2
        assert payload is None
        assert_one_line_error(err)
        assert named in err and "finite" in err

    @pytest.mark.parametrize(
        "context, named",
        [
            (
                {"observable": [[1.0, 0.0], [0.0, -1.0]],
                 "windows": [{"label": "up", "lo": lo, "hi": 1.5},
                             {"label": "down", "lo": -1.5, "hi": -0.5}]},
                "windows[0]: 'lo'",
            )
            for lo in ("abc", [1], False)
        ]
        + [
            ({"atoms": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 1.0]]]}, "atoms[0]"),
            ({"direction": [float("nan"), 0.0, 1.0]}, "'direction'"),
            ({"direction": [float("inf"), 0.0, 1.0]}, "'direction'"),
            ({"direction": [1e308, 1e308, 0.0]}, "'direction'"),
        ],
        ids=["lo-string", "lo-list", "lo-false", "ragged-atoms", "direction-nan",
             "direction-inf", "direction-overflow"],
    )
    def test_malformed_field_is_named(self, capsys, tmp_path, context, named):
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [{"time": 1.0, **context}],
        }
        code, payload, err = run_json(capsys, "gc-check", write_spec(tmp_path, doc))
        assert code == 2
        assert payload is None
        assert_one_line_error(err)
        assert named in err

    def test_unexpected_exception_is_an_input_error(self, capsys, monkeypatch):
        def broken_handler(spec, args, tols):
            raise ValueError("unforeseen")

        monkeypatch.setitem(cli.HANDLERS, "gc-check", broken_handler)
        code, payload, err = run_json(capsys, "gc-check", ZZ)
        assert code == 2
        assert payload is None
        assert err == "error: ValueError: unforeseen\n"

    def test_exception_without_a_message_names_its_class(self, capsys, monkeypatch):
        def exhausted_handler(spec, args, tols):
            raise MemoryError()

        monkeypatch.setitem(cli.HANDLERS, "gc-check", exhausted_handler)
        code, payload, err = run_json(capsys, "gc-check", ZZ)
        assert code == 2
        assert payload is None
        assert err == "error: MemoryError\n"

    def test_rendering_fault_is_an_input_error(self, capsys, monkeypatch):
        def broken_emit(report, fmt):
            raise ValueError("unrenderable")

        monkeypatch.setattr(cli, "emit", broken_emit)
        code, payload, err = run_json(capsys, "validate-context", ZZ)
        assert code == 2
        assert payload is None
        assert err == "error: ValueError: unrenderable\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gc-check", XZ, "--format", "json"],
        ["validate-context", ZZ],
        ["spin-search", XZ, "--mode", "commute", "--grid-count", "40"],
    ],
)
def test_closed_output_exits_141_without_a_traceback(argv):
    # the reading end is closed before the child starts, so its first write
    # meets a broken pipe whatever the verdict
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    ))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "qprops.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert child.returncode == cli.OUTPUT_CLOSED == 141
    assert child.stderr == b""


def run_child(*argv):
    """``python -m qprops.cli`` in a child process, with text output."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    ))
    return subprocess.run(
        [sys.executable, "-m", "qprops.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_bad_command_line_gets_a_one_line_diagnostic():
    # argparse would print its usage block as well; --help is unchanged
    child = run_child("spin-search", XZ, "--mode", "commute", "--grid-count", "abc")
    assert (child.returncode, child.stdout) == (cli.INPUT_ERROR, "")
    assert_one_line_error(child.stderr)
    assert "--grid-count: invalid int value: 'abc'" in child.stderr
    helped = run_child("spin-search", "--help")
    assert helped.returncode == 0 and helped.stderr == ""
    assert helped.stdout.startswith("usage: qprops spin-search [-h]")


def test_warnings_wait_for_the_report(capsys, tmp_path):
    # a direction off unit norm warns; a later parse error must still print
    # one line, which the warning would have preceded
    doc = yaml.safe_load(Path(ZZ).read_text())
    doc["contexts"][0]["direction"] = [0.0, 0.0, 2.0]
    spec = write_spec(tmp_path, doc)
    assert main(["gc-check", spec]) == cli.PASS
    captured = capsys.readouterr()
    assert captured.out.startswith("command: gc-check")
    assert captured.err.startswith("warning: contexts[0]: direction [0.0, 0.0, 2.0]")
    assert captured.err.count("\n") == 1
    doc["contexts"][1]["time"] = "later"
    child = run_child("gc-check", write_spec(tmp_path, doc))
    assert (child.returncode, child.stdout) == (cli.INPUT_ERROR, "")
    assert_one_line_error(child.stderr)


@pytest.mark.parametrize(
    "argv",
    [["lattice", ZZ], ["gc-check", ZZ, "--no-such-flag"], ["no-such-command", ZZ], []],
)
def test_parser_errors_are_one_line_input_errors(capsys, argv):
    assert main(argv) == cli.INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error(captured.err)


class TestParserReuse:
    RUNS = [
        ["gc-check", ZZ, "--tol", "proj=1e-9", "--tol", "commute=1e-8"],
        ["gc-check", ZZ, "--format", "json"],
        ["gc-check", XZ, "--format", "json"],
        ["validate-context", XZ, "--tol", "proj=1e-12"],
        ["consistency", XZ, "--criterion", "gmh", "--tol", "consist=1e-12"],
        ["consistency", ZZ, "--criterion", "griffiths"],
        ["history-prob", XZ, "--choices", "x+,z+", "--format", "json"],
        ["history-prob", XZ],
        ["lattice", ZZ, "--op", "meet", "--left", "0:0", "--right", "1:1"],
        ["lattice", ZZ, "--op", "neg"],
        ["spin-search", XZ, "--mode", "commute", "--grid-count", "40"],
        ["spin-search", XZ, "--mode", "gmh", "--tol", "consist=1e-6", "--t1", "0.7"],
        ["gc-check", ZZ, "--tol", "nosuch=1"],
    ]

    def test_repeated_calls_give_the_reports_of_first_calls(self, capsys):
        def run(argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = []
        for argv in self.RUNS:
            cli.build_parser.cache_clear()
            first.append(run(argv))
        assert {code for code, _, _ in first} == {0, 1, 2}
        cli.build_parser.cache_clear()
        repeated = [run(argv) for argv in self.RUNS + self.RUNS[::-1]]
        assert repeated == first + first[::-1]
        assert cli.build_parser.cache_info().misses == 1
