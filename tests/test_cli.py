import json
from pathlib import Path

import pytest
import yaml

from qprops import cli
from qprops.cli import MAX_GRID_COUNT, main
from qprops.spin import Direction

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
        # loosening only the commutator threshold is not enough: the composed
        # products then fail their own projector validation downstream
        code, _, _ = run_json(capsys, "gc-check", XZ, "--tol", "commute=10")
        assert code == 2
        code, payload, _ = run_json(
            capsys,
            "gc-check",
            XZ,
            "--tol", "commute=10", "--tol", "proj=10", "--tol", "herm=10",
        )
        assert code == 0
        assert payload["tolerances"]["commute"] == 10.0
        table = payload["results"]["probabilities"]
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)

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

    def test_wrong_shape_for_griffiths_is_an_input_error(self, capsys, tmp_path):
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.5], [0.5, 0.5]],
            "contexts": [
                {"time": 1.0, "direction": [0.0, 0.0, 1.0]},
            ],
        }
        code, payload, err = run_json(
            capsys, "consistency", write_spec(tmp_path, doc), "--criterion", "griffiths"
        )
        assert code == 2
        assert payload is None
        assert "two times" in err


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
        # the spec's two context directions (the last is the fixed one), the
        # state direction outside commute mode, then one per accepted row
        spec_and_state = 2 if mode == "commute" else 3
        assert len(built) == spec_and_state + results["accepted_count"]
        assert [list(n) for n in built[spec_and_state:]] == results["accepted"]

    def test_mixed_state_rejected_for_gmh_mode(self, capsys, tmp_path):
        doc = {
            "dimension": 2,
            "initial_time": 0.0,
            "initial_state": [[0.5, 0.0], [0.0, 0.5]],
            "contexts": [{"time": 2.0, "direction": [0.0, 0.0, 1.0]}],
        }
        code, _, err = run_json(
            capsys, "spin-search", write_spec(tmp_path, doc), "--mode", "gmh"
        )
        assert code == 2
        assert "pure" in err


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
