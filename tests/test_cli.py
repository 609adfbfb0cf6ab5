"""Command-line front end: subcommands, exit codes, emitted files."""
import csv
import hashlib
import io
import json
import xml.etree.ElementTree as ET

import pytest

from robpareto.cli import EXIT_INTERNAL, build_parser, main
from robpareto.core import builtin_instance, instance_to_dict, load_instance, save_instance
from robpareto.linprog import SolverStalledError
from robpareto.phantom import PhantomConfig, generate

HEADER = (
    "candidate,robust_efficient,convex_hull_efficient,"
    "objectivewise_efficient,set_valued_minimizer,dominator"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return {r["candidate"]: r for r in rows}


_ROW = {"1": [1, 2], "2": [3, 4]}


def _table_file(table):
    return {"n": 2, "scenarios": {"ids": ["1", "2"]}, "objectives": {"table": table},
            "candidates": {"explicit": ["a", "b"]}}


def _linear_file(first_coord):
    return {"n": 1, "scenarios": {"ids": ["1", "2"], "coords": {"1": [first_coord], "2": [2.0]}},
            "objectives": {"linear_in_s": {"a": [[1.0]], "b": [[2.0]]}}, "candidates": {"explicit": ["a", "b"]}}


# instance files that must be input errors (exit 2, one line)
_MALFORMED = {
    "row not an object": _table_file({"a": [1, 2], "b": _ROW}),
    "affine family as a list": {"n": 2, "scenarios": {"ids": ["1"]},
                                "objectives": {"affine_family": [[[0, 1], [2, 4]]]},
                                "candidates": {"simplex": {"dim": 2, "step": 0.5}}},
    "nan entry": _table_file({"a": {"1": [float("nan"), 2], "2": [3, 4]}, "b": _ROW}),
    "vector of the wrong length": _table_file({"a": {"1": [1, 2, 3], "2": [3, 4]}, "b": _ROW}),
    "missing pair": _table_file({"a": {"1": [1, 2]}, "b": {"1": [1, 2]}}),
    "rows name different scenarios": _table_file({"a": {**_ROW, "3": [0, 0]}, "b": _ROW}),
    "empty table": _table_file({}),
    "scalar entry": _table_file({"a": {"1": 5, "2": [3, 4]}, "b": _ROW}),
    "string entry": _table_file({"a": {"1": "12", "2": [3, 4]}, "b": _ROW}),
    "n disagrees with the map": {**_table_file({"a": _ROW, "b": _ROW}), "n": 3},
    "linear-in-s candidate missing": {**_linear_file(1.0), "candidates": {"explicit": ["a", "b", "c"]}},
    "nan coords": _linear_file(float("nan")),
    "infinite coords": _linear_file(float("inf")),
    "nan polyhedral b": {**_linear_file(1.0), "scenarios": {"ids": ["1", "2"], "coords": {"1": [1], "2": [2]},
                                                          "A": [[1.0]], "b": [float("nan")]}},
    "explicit candidates as a string": {**_table_file({"a": _ROW, "b": _ROW}), "candidates": {"explicit": "ab"}},
    "scenario ids as a string": {**_table_file({"a": _ROW, "b": _ROW}), "scenarios": {"ids": "12"}},
    "simplex points as strings": {"n": 2, "scenarios": {"ids": ["1"]},
                                  "objectives": {"affine_family": {"1": [[0, 1], [2, 4]]}},
                                  "candidates": {"simplex": {"dim": 2, "points": ["01", "10"]}}},
    "n not an integer": {**_table_file({"a": _ROW, "b": _ROW}), "n": 2.7},
    "n a boolean": {**_table_file({"a": _ROW, "b": _ROW}), "n": True},
    "simplex dim not an integer": {"n": 2, "scenarios": {"ids": ["1"]},
                                   "objectives": {"affine_family": {"1": [[0, 1], [2, 4]]}},
                                   "candidates": {"simplex": {"dim": 2.9, "step": 0.5}}},
    "scenario_hull a string": {**_table_file({"a": _ROW, "b": _ROW}), "scenario_hull": "false"},
    "simplex step a boolean": {"n": 2, "scenarios": {"ids": ["1"]},
                               "objectives": {"affine_family": {"1": [[0, 1], [2, 4]]}},
                               "candidates": {"simplex": {"dim": 2, "step": True}}},
    "simplex step a string": {"n": 2, "scenarios": {"ids": ["1"]},
                              "objectives": {"affine_family": {"1": [[0, 1], [2, 4]]}},
                              "candidates": {"simplex": {"dim": 2, "step": "0.5"}}},
    "name not a string": {**_table_file({"a": _ROW, "b": _ROW}), "name": 7},
}

# which subcommands read which option; every other pair is a usage error
_OPTIONS = {
    "--step": ("classify", "scalarize", "sweep", "report"),
    "--eq-tol": ("classify", "report"),
    "--strict-tol": ("classify", "report"),
    "--seed": ("report",),
    "--emit": ("classify", "scalarize", "sweep", "phantom"),
}
_VALUES = {"--step": "0.25", "--eq-tol": "1e-9", "--strict-tol": "1e-9", "--seed": "3", "--emit": "out"}
_SUBCOMMANDS = ("classify", "scalarize", "sweep", "phantom", "report")
_REQUIRED = {"scalarize": ["--u", "wsum:w=1"], "sweep": ["--p", "1"]}
_PAIRS = [(cmd, opt) for opt in _OPTIONS for cmd in _SUBCOMMANDS]


class TestClassify:
    def test_problem1_stdout(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "problem-1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 22
        rows = parse_csv(out)
        assert all(r["robust_efficient"] == "true" for r in rows.values())
        origin = rows["0"]
        assert origin["convex_hull_efficient"] == "false"
        assert "convex_hull:1" in origin["dominator"]
        assert rows["1"]["convex_hull_efficient"] == "true"
        winners = [c for c, r in rows.items() if r["objectivewise_efficient"] == "true"]
        assert winners == ["1"]

    def test_problem2_origin_row(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "problem-2")
        assert code == 0
        rows = parse_csv(out)
        assert rows["(0, 0)"]["convex_hull_efficient"] == "true"

    def test_step_flag_controls_grid(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "problem-1", "--step", "0.25")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_round_trip_byte_for_byte(self, capsys, tmp_path):
        for name in ("problem-1", "problem-2"):
            _, direct, _ = run(capsys, "classify", "--builtin", name)
            path = tmp_path / f"{name}.json"
            save_instance(builtin_instance(name), path)
            code, from_file, _ = run(capsys, "classify", str(path))
            assert code == 0
            assert from_file == direct

    # sha256 of the CSV as classify wrote it before its certificates became
    # arrays; a change that moves any label, dominator or label text must
    # update it on purpose
    _GOLDEN = {
        "problem-2 at step 0.025": "104e099150721d6336348dd43ac9ac3c5c60cf75cb104a9a88af97a3712dac28",
        "phantom at resolution 3": "9449f5492e5e218b660a851a60f5323e59662743b100c14287da251291c263f8",
    }

    @pytest.mark.parametrize("case", sorted(_GOLDEN))
    def test_csv_matches_golden_digest(self, capsys, tmp_path, case):
        if case.startswith("problem-2"):
            argv = ["--builtin", "problem-2", "--step", "0.025"]
        else:
            path = tmp_path / "phantom3.json"
            save_instance(generate(PhantomConfig(lattice_resolution=3)), path)
            argv = [str(path)]
        code, out, _ = run(capsys, "classify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self._GOLDEN[case]

    def test_near_tie_nesting(self, capsys, tmp_path):
        # B is plain-dominated by A only through the eq_tol slack
        path = tmp_path / "near_tie.json"
        path.write_text(json.dumps({
            "n": 2,
            "scenarios": {"ids": ["1"]},
            "objectives": {"table": {"A": {"1": [0, 0]}, "B": {"1": [-0.5e-9, 1.5e-9]}}},
            "candidates": {"explicit": ["A", "B"]},
        }))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 0, err
        row = parse_csv(out)["B"]
        assert row["robust_efficient"] == row["convex_hull_efficient"] == "false"
        assert "robust:A; convex_hull:A" in row["dominator"]

    def test_cyclic_near_tie_image(self, capsys, tmp_path):
        # each point sits above the other by a rounded gap just over strict_tol
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps({
            "n": 2,
            "scenarios": {"ids": ["a", "b"]},
            "objectives": {"table": {"x": {"a": [1.000000001, 1.0], "b": [1.0, 1.000000001]}}},
            "candidates": {"explicit": ["x"]},
        }))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 0, err
        assert parse_csv(out)["x"]["set_valued_minimizer"] == "true"

    # near-ties that image_dominates calls dominated: every notion must name
    # the dominator, and report's re-checks must agree
    _NEAR_TIE_FILES = {
        "b": {"n": 2, "scenarios": {"ids": ["1"]},
              "objectives": {"table": {"a": {"1": [1.000000001, 0]}, "b": {"1": [1, 1]}}},
              "candidates": {"explicit": ["a", "b"]}},
        "c0": {"n": 1, "scenarios": {"ids": ["1", "2", "3"]},
               "objectives": {"table": {"c0": {"1": [3.0000000015], "2": [0], "3": [0]},
                                        "c1": {"1": [0], "2": [3.0000000005], "3": [0]}}},
               "candidates": {"explicit": ["c0", "c1"]}},
    }

    @pytest.mark.parametrize("label, dominator", [("b", "a"), ("c0", "c1")])
    def test_near_tie_dominators_reach_every_notion(self, capsys, tmp_path, label, dominator):
        path = tmp_path / "near_tie.json"
        path.write_text(json.dumps(self._NEAR_TIE_FILES[label]))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 0, err
        line = next(line for line in out.splitlines() if line.startswith(label + ","))
        assert line == (f"{label},false,false,false,false,robust:{dominator}; convex_hull:{dominator}; "
                        f"objectivewise:{dominator}; set_valued:{dominator}")
        code, out, err = run(capsys, "report", str(path))
        assert code == 0, out + err

    def test_emit_writes_csv_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        code, out, _ = run(
            capsys, "classify", "--builtin", "problem-1", "--emit", str(out_dir)
        )
        assert code == 0
        csv_text = (out_dir / "classify.csv").read_text()
        assert csv_text.splitlines()[0] == HEADER
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "classify"
        assert manifest["source"] == "builtin:problem-1"
        assert any(p.endswith("classify.csv") for p in manifest["outputs"])
        assert manifest["wall_clock_s"] >= 0
        assert out == f"wrote {out_dir / 'classify.csv'}: 21 candidates, " \
                      "robust=21, convex_hull=9, objectivewise=1, set_valued=21\n"


class TestScalarize:
    def test_weighted_sum_exact(self, capsys):
        code, out, _ = run(
            capsys, "scalarize", "--builtin", "problem-1", "--u", "wsum:w=0.5,0.5"
        )
        assert code == 0
        assert "best: 0.6" in out
        assert "value: 1.6" in out
        assert "method: exact_lp" in out

    def test_problem2_even_weights(self, capsys):
        code, out, _ = run(
            capsys, "scalarize", "--builtin", "problem-2", "--u", "wsum:w=0.5,0.5"
        )
        assert code == 0
        assert "best: (0.5, 0.5)" in out
        assert "value: 2.875" in out

    def test_constructive_anchor(self, capsys):
        code, out, _ = run(
            capsys,
            "scalarize", "--builtin", "problem-1",
            "--u", "construct:anchor=0,mode=plain", "--trace",
        )
        assert code == 0
        fields = dict(
            l.split(": ", 1) for l in out.splitlines() if ": " in l and not l.startswith("trace")
        )
        assert fields["best"] == "0"
        assert abs(float(fields["value"])) < 1e-9
        traces = [l for l in out.splitlines() if l.startswith("trace:")]
        assert len(traces) == 3
        assert traces[0].startswith("trace: s=1 u=")

    def test_multiple_scalarizers(self, capsys):
        code, out, _ = run(
            capsys,
            "scalarize", "--builtin", "problem-1",
            "--u", "wsum:w=0.5,0.5", "--u", "pnorm:p=2,w=1",
        )
        assert code == 0
        assert out.count("u: ") == 2

    def test_emit_json(self, capsys, tmp_path):
        out_dir = tmp_path / "s"
        code, _, _ = run(
            capsys,
            "scalarize", "--builtin", "problem-1",
            "--u", "wsum:w=0.5,0.5", "--emit", str(out_dir),
        )
        assert code == 0
        data = json.loads((out_dir / "scalarize.json").read_text())
        assert data[0]["best"] == "0.6"
        assert abs(data[0]["value"] - 1.6) < 1e-9
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "scalarize"
        assert manifest["scalarizers"] == ["wsum:w=0.5,0.5"]
        assert manifest["outputs"] == [str(out_dir / "scalarize.json")]
        assert (manifest["eq_tol"], manifest["strict_tol"], manifest["seed"]) == (1e-9, 1e-9, None)


class TestSweep:
    def test_problem1_single_p(self, capsys):
        code, out, _ = run(capsys, "sweep", "--builtin", "problem-1", "--p", "1")
        assert code == 0
        line = out.strip().splitlines()[0]
        assert line.startswith("p=1 ")
        fields = dict(kv.split("=", 1) for kv in line.split())
        # scaled 1-norm pieces cross at x = 0.6
        assert fields["best"] == "0.6"
        assert abs(float(fields["value"]) - 0.4) < 1e-9
        assert abs(float(fields["sup_radius"]) - 0.7) < 1e-9

    def test_problem1_radius_ordering(self, capsys):
        code, out, _ = run(capsys, "sweep", "--builtin", "problem-1", "--p", "1,2,10")
        assert code == 0
        radii = [
            float(dict(kv.split("=", 1) for kv in line.split())["sup_radius"])
            for line in out.strip().splitlines()
        ]
        assert len(radii) == 3
        assert radii[2] <= radii[1] <= radii[0] + 1e-9

    def test_emit_csv_and_svg(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _, _ = run(
            capsys,
            "sweep", "--builtin", "problem-1", "--p", "2",
            "--emit", str(out_dir),
        )
        assert code == 0
        csv_path = out_dir / "sweep_p2.csv"
        svg_path = out_dir / "sweep_p2.svg"
        assert csv_path.exists() and svg_path.exists()
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert len(rows) == 3  # one per scenario
        assert set(rows[0]) == {"scenario_id", "f1", "f2"}
        ET.fromstring(svg_path.read_text())  # well-formed XML
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "sweep"

    def test_scaled_emission(self, capsys, tmp_path):
        out_dir = tmp_path / "scaled"
        code, _, _ = run(
            capsys,
            "sweep", "--builtin", "problem-1", "--p", "10",
            "--scaled", "--emit", str(out_dir),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out_dir / "sweep_p10.csv").read_text())))
        assert set(rows[0]) == {"scenario_id", "f1_scaled", "f2_scaled"}
        vals = [float(r["f1_scaled"]) for r in rows] + [float(r["f2_scaled"]) for r in rows]
        assert max(vals) <= 1 + 1e-9 and min(vals) >= -1e-9


class TestPhantom:
    def test_stdout_instance_json(self, capsys):
        code, out, _ = run(capsys, "phantom")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 2
        assert len(data["candidates"]["explicit"]) == 18565
        assert data["scenarios"]["ids"] == ["shift-3", "shift0", "shift3"]

    def test_stdout_is_the_indented_json_dump(self, capsys):
        code, out, _ = run(capsys, "phantom")
        assert code == 0
        assert out == json.dumps(instance_to_dict(generate(PhantomConfig())), indent=2, sort_keys=True) + "\n"

    def test_emit_then_reload(self, capsys, tmp_path):
        out_dir = tmp_path / "ph"
        code, out, _ = run(capsys, "phantom", "--emit", str(out_dir))
        assert code == 0
        assert "wrote" in out and "18565 candidates" in out
        inst_path = out_dir / "phantom.json"
        inst = load_instance(inst_path)
        assert len(inst.candidate_list()) == 18565
        assert list(inst.scenarios.ids) == ["shift-3", "shift0", "shift3"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "phantom"
        assert manifest["outputs"] == [str(inst_path)]
        assert (manifest["step"], manifest["eq_tol"], manifest["strict_tol"], manifest["seed"]) \
            == (None, 1e-9, 1e-9, None)

    def test_unknown_phantom_source_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--phantom", "sparse")
        assert code == 2
        assert "sparse" in err


class TestReport:
    def test_builtin_source(self, capsys):
        code, out, _ = run(capsys, "report", "--builtin", "problem-1")
        assert code == 0
        assert "certificates and scalarizer bounds verified" in out

    def test_random_batch(self, capsys):
        code, out, _ = run(capsys, "report", "--random", "3", "--seed", "7")
        assert code == 0
        assert "random harness: 3 instances, 0 with violations" in out

    def test_negative_random_count(self, capsys):
        code, out, err = run(capsys, "report", "--random", "-3")
        assert (code, out) == (2, "")
        assert err == "error: --random needs a count >= 0, got -3\n"

    def test_violations_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "robpareto.cli.harness", lambda inst, **kw: ["fabricated defect"]
        )
        code, out, err = run(capsys, "report", "--builtin", "problem-1")
        assert code == 1
        assert "fabricated defect" in out
        assert "FAILED" in err


class TestErrorPaths:
    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "classify", "--builtin", "problem-9")
        assert code == 2
        assert "problem-9" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2

    def test_empty_candidates_degenerate(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "n": 2,
            "scenarios": {"ids": ["1"]},
            "objectives": {"table": {"a": {"1": [1, 2]}}},
            "candidates": {"explicit": []},
        }))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 3

    def test_empty_scenarios_degenerate(self, capsys, tmp_path):
        path = tmp_path / "noscen.json"
        path.write_text(json.dumps({
            "n": 2,
            "scenarios": {"ids": []},
            "objectives": {"table": {"a": {}}},
            "candidates": {"explicit": ["a"]},
        }))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 3

    @pytest.mark.parametrize("name", list(_MALFORMED))
    def test_malformed_instance_file(self, capsys, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_MALFORMED[name]))
        for argv in (["classify", str(path)], ["scalarize", str(path), "--u", "wsum:w=1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: instance file {str(path)!r}: ") and err.count("\n") == 1

    def test_bad_scalarizer_spec(self, capsys):
        code, _, err = run(
            capsys, "scalarize", "--builtin", "problem-1", "--u", "bogus:x=1"
        )
        assert code == 2
        assert "bogus" in err

    def test_p_below_one_rejected(self, capsys):
        code, _, err = run(
            capsys, "scalarize", "--builtin", "problem-1", "--u", "pnorm:p=0.5,w=1"
        )
        assert code == 2

    def test_sweep_p_below_one_or_nan_rejected(self, capsys):
        for p in ("0.5", "nan", "1,0.9"):
            code, out, err = run(capsys, "sweep", "--builtin", "problem-1", "--p", p)
            assert (code, out) == (2, "")
            assert err == f"error: --p values must be >= 1 (or inf), got {p!r}\n"

    def test_non_finite_reference_rejected(self, capsys):
        for spec in ("pnorm:p=2,ref=nan", "pnorm:p=2,ref=inf", "chebyshev:w=1,ref=nan"):
            code, out, err = run(capsys, "scalarize", "--builtin", "problem-1", "--u", spec)
            assert (code, out) == (2, "")
            assert err == f"error: invalid scalarizer {spec!r}: reference point must be finite\n"

    def test_empty_p_list(self, capsys):
        code, _, err = run(capsys, "sweep", "--builtin", "problem-1", "--p", "")
        assert code == 2

    def test_emit_path_through_file_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir")
        code, _, err = run(
            capsys,
            "classify", "--builtin", "problem-1",
            "--emit", str(blocker / "sub"),
        )
        assert code == 4

    @pytest.mark.parametrize("exc", [
        SolverStalledError("optimal basis violates a variable bound"),
        RuntimeError("invariant violated: candidate x is convex-hull efficient but not robust efficient"),
    ])
    def test_internal_failure_one_line(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("robpareto.cli.classify", fail)
        code, out, err = run(capsys, "classify", "--builtin", "problem-1")
        assert code == EXIT_INTERNAL == 5
        assert out == ""
        assert err == f"error: internal: {exc}\n"

    def test_step_needs_a_simplex_lattice(self, capsys, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({
            "n": 1,
            "scenarios": {"ids": ["1"]},
            "objectives": {"table": {"a": {"1": [1.0]}}},
            "candidates": {"explicit": ["a"]},
        }))
        points = tmp_path / "points.json"
        points.write_text(json.dumps({
            "n": 1,
            "scenarios": {"ids": ["1"]},
            "objectives": {"affine_family": {"1": [[1.0, 2.0]]}},
            "candidates": {"simplex": {"dim": 2, "points": [[0.5, 0.5]]}},
        }))
        for source in (["--phantom", "default"], [str(table)], [str(points)]):
            code, out, err = run(capsys, "classify", *source, "--step", "0.5")
            assert (code, out) == (2, "")
            assert err.startswith("error: --step 0.5 on ") and err.count("\n") == 1
            assert "no simplex lattice" in err

    def test_step_out_of_range(self, capsys):
        code, out, err = run(capsys, "classify", "--builtin", "problem-1", "--step", "2")
        assert (code, out) == (2, "")
        assert "step must lie in (0, 1]" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "report"])
    @pytest.mark.parametrize("option", ["--eq-tol", "--strict-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_bad_tolerance_rejected(self, capsys, command, option, value):
        # nan labelled every candidate efficient, and a negative eq_tol gave another labelling
        code, out, err = run(capsys, command, "--builtin", "problem-1", f"{option}={value}")
        assert (code, out) == (2, "")
        name = option[2:].replace("-", "_")
        assert err == f"error: {name} must be finite and nonnegative, got {float(value)!r}\n"

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_zero_tolerances_accepted(self, capsys, command):
        code, out, _ = run(capsys, command, "--builtin", "problem-1", "--eq-tol", "0", "--strict-tol", "0")
        # report runs; at eq_tol 0 its re-verification may find LP witnesses off by roundoff
        assert code in ((0,) if command == "classify" else (0, 1)) and out

    def test_two_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        save_instance(builtin_instance("problem-1"), path)
        code, _, err = run(capsys, "classify", str(path), "--builtin", "problem-1")
        assert code == 2



def test_repeated_main_calls_in_one_process_agree(capsys):
    # the parser is built once and shared, so no call may see another's options
    calls = [("classify", "--builtin", "problem-1", "--eq-tol", "1e-6"), ("report", "--random", "1", "--seed", "3"),
             ("classify", "--builtin", "problem-1")]
    first = [run(capsys, *argv) for argv in calls]
    assert [run(capsys, *argv) for argv in calls] == first
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert build_parser() is build_parser()


class TestOptionSurface:
    @pytest.mark.parametrize("command,option", _PAIRS)
    def test_option_only_where_read(self, capsys, command, option):
        argv = [command, *_REQUIRED.get(command, []), option, _VALUES[option]]
        if command in _OPTIONS[option]:
            assert build_parser().parse_args(argv).command == command
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_help_lists_only_read_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert {opt for opt in _OPTIONS if opt in text} == {opt for opt, cmds in _OPTIONS.items() if command in cmds}
