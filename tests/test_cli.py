from __future__ import annotations

import json
import math

import pytest

from conftest import read_tessellation_file
from stitlab.cli import main

ISO_MEASURE = {"isotropic_mass": 6.283185307179586, "atoms": []}
AXIS_MEASURE = {
    "isotropic_mass": 0.0,
    "atoms": [
        {"angle_radians": 0.0, "mass": 0.5},
        {"angle_radians": math.pi, "mass": 0.5},
        {"angle_radians": math.pi / 2, "mass": 0.5},
        {"angle_radians": -math.pi / 2, "mass": 0.5},
    ],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestMeasureCommand:
    def test_unit_square_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "m.json", {"measure": ISO_MEASURE, "set": "unit_square"}
        )
        assert main(["measure", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda_hit"] == pytest.approx(4.0)
        assert report["total_mass"] == pytest.approx(2.0 * math.pi)
        # kappa is the exact minimum, 2, less its rounding bound (no atoms: 2 * 2**-52 * total mass).
        assert 2.0 - 2 * 2.0**-52 * report["total_mass"] <= report["kappa"] <= 2.0
        assert all(v["value"] == pytest.approx(2.0) for v in report["zeta"])

    def test_explicit_set_geometry(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "m.json",
            {"measure": AXIS_MEASURE, "set": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}},
        )
        assert main(["measure", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda_hit"] == pytest.approx(1.0)


class TestSimulateCommand:
    def test_tiny_time_single_cell_svg(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "measure": ISO_MEASURE,
                "window": {"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]},
                "a": 1e-12,
                "seed": 5,
            },
        )
        out = tmp_path / "t.json"
        svg = tmp_path / "t.svg"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--svg", str(svg)]) == 0
        doc = svg.read_text()
        assert doc.count('fill="#') == 1  # exactly one cell
        tess = read_tessellation_file(str(out))
        assert len(tess.cells) == 1

    def test_json_roundtrip_geometry(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "measure": ISO_MEASURE,
                "window": {"vertices": [[0, 0], [3, 0], [3, 3], [0, 3]]},
                "a": 1.0,
                "seed": 9,
            },
        )
        out = tmp_path / "t.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        first = read_tessellation_file(str(out))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        second = read_tessellation_file(str(out))
        assert first == second
        assert sum(len(c.polygon.vertices) for c in first.cells) > 4

    def test_seed_override(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "measure": ISO_MEASURE,
                "window": {"vertices": [[0, 0], [3, 0], [3, 3], [0, 3]]},
                "a": 1.0,
                "seed": 9,
            },
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "10"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        assert read_tessellation_file(str(out_a)) != read_tessellation_file(str(out_b))

    def test_undividable_cell_exits_2_with_a_message(self, tmp_path, capsys):
        side = 4.0 * 2.0**-30
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "measure": ISO_MEASURE,
                "window": {"vertices": [[0, 0], [side, 0], [side, side], [0, side]]},
                "a": 2.0**30,
                "seed": 0,
            },
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert "error: could not draw a dividing line" in capsys.readouterr().err


class TestCapacityCommand:
    def config(self, tmp_path, **overrides):
        payload = {
            "id": "sq",
            "measure": ISO_MEASURE,
            "set": "unit_square",
            "a": 1.0,
            "n": 300,
            "seed": 17,
        }
        payload.update(overrides)
        return write_config(tmp_path, "c.json", payload)

    def test_csv_row_fields(self, tmp_path, capsys):
        assert main(["capacity", "--config", self.config(tmp_path), "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        assert lines[1] == "query_id,a,n,mean,stderr,analytic,seed"
        fields = lines[2].split(",")
        assert fields[0] == "sq" and fields[-1] == "17"
        assert float(fields[5]) == pytest.approx(math.exp(-4.0))

    def test_reruns_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["capacity", "--config", cfg, "--no-timestamp", "--out", str(out_a)]) == 0
        assert main(["capacity", "--config", cfg, "--no-timestamp", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_timestamp_line_present_by_default(self, tmp_path, capsys):
        assert main(["capacity", "--config", self.config(tmp_path)]) == 0
        assert "# timestamp:" in capsys.readouterr().out


class TestMixingCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "mix.json",
            {
                "measure": ISO_MEASURE,
                "A": {"vertices": [[0, -0.5], [0, 0.5]]},
                "B": {"vertices": [[0, -0.5], [0, 0.5]]},
                "direction": [1, 0],
                "distances": [5, 10],
                "a": 1.0,
                "seed": 3,
            },
        )
        assert main(["mixing", "--config", cfg, "--no-timestamp"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1].startswith("h_norm,zeta,")
        first = lines[2].split(",")
        assert float(first[0]) == 5.0
        assert float(first[1]) == pytest.approx(2.0)
        assert float(first[2]) == pytest.approx(math.exp(-4.0))


    def test_zero_distance_is_bad_input(self, tmp_path, capsys):
        config = {"measure": ISO_MEASURE, "A": "unit_square", "B": "unit_square", "direction": [1, 0]}
        config.update(distances=[0.0, 2.0], a=1.0, seed=3)
        cfg = write_config(tmp_path, "mix.json", config)
        assert main(["mixing", "--config", cfg, "--no-timestamp"]) == 2
        assert capsys.readouterr().err == "error: sweep distances must be finite and > 0\n"


class TestIterateCommand:
    def test_report_matches_analytic(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "it.json",
            {
                "measure": ISO_MEASURE,
                "window": {"vertices": [[-0.3, -0.3], [1.3, -0.3], [1.3, 1.3], [-0.3, 1.3]]},
                "set": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                "a": 0.5,
                "a2": 0.5,
                "n": 400,
                "seed": 11,
            },
        )
        assert main(["iterate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["analytic"] == pytest.approx(math.exp(-4.0))
        assert abs(report["z"]) <= 3.0


class TestValidateCommand:
    def test_fast_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["validate", "fast", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["failed"] == 0
        assert report["passed"] == len(report["checks"]) > 10
        assert all(c["elapsed_s"] >= 0.0 for c in report["checks"])

    def test_unknown_suite_is_bad_input(self, capsys):
        assert main(["validate", "bogus"]) == 2


class TestBadInput:
    def test_missing_config(self):
        assert main(["measure"]) == 2

    def test_flag_the_command_does_not_read(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {"measure": ISO_MEASURE, "set": "unit_square"})
        for argv in (["measure", "--config", cfg, "--seed", "3"], ["validate", "--n", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_config_not_found(self):
        assert main(["measure", "--config", "/nonexistent/x.json"]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["measure", "--config", str(path)]) == 2

    def test_missing_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "measure": ISO_MEASURE,
                "window": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                "a": 1.0,
            },
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_degenerate_measure(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {
                "measure": {"isotropic_mass": 0.0, "atoms": [{"angle_radians": 0.0, "mass": 1.0}]},
                "set": "unit_square",
            },
        )
        assert main(["measure", "--config", cfg]) == 2

    def test_non_finite_vertex(self, tmp_path):
        body = {"vertices": [[0, 0], [1, 0], [float("nan"), 1]]}
        cfg = write_config(tmp_path, "m.json", {"measure": ISO_MEASURE, "set": body})
        assert main(["measure", "--config", cfg]) == 2

    def test_unbalanced_measure(self, tmp_path):
        atoms = [{"angle_radians": 0.0, "mass": 1.0}, {"angle_radians": math.pi / 2, "mass": 1.0}]
        cfg = write_config(tmp_path, "m.json", {"measure": {"atoms": atoms}, "set": "unit_square"})
        assert main(["measure", "--config", cfg]) == 2

    def test_unknown_shape(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {"measure": ISO_MEASURE, "set": "dodecahedron"})
        assert main(["measure", "--config", cfg]) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_iterate_needs_a_replication(self, tmp_path, capsys, n):
        # The body touches the window's edge, which fails only once the
        # replication count has been accepted.
        config = {"measure": ISO_MEASURE, "window": {"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}, "set": "unit_square"}
        config.update(a=0.1, a2=0.1, seed=1)
        cfg = write_config(tmp_path, "i.json", config)
        assert main(["iterate", "--config", cfg, "--n", n]) == 2
        assert capsys.readouterr().err == "error: need at least one replication\n"

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("capacity", "a", [1.0]),
            ("iterate", "a2", {"t": 0.5}),
            ("capacity", "n", [300]),
            ("capacity", "seed", [17]),
            ("mixing", "mc_n", [5]),
            ("mixing", "direction", 1.0),
            ("mixing", "distances", 5.0),
            ("capacity", "n", 20.9),
            ("capacity", "seed", 17.5),
            ("capacity", "a", True),
            ("capacity", "n", True),
            ("capacity", "n", "300"),
            ("simulate", "a", "0.5"),
            ("iterate", "a2", False),
            ("mixing", "mc_n", 5.0),
            ("mixing", "seed", True),
            ("mixing", "direction", [1, True]),
            ("mixing", "direction", "10"),
            ("mixing", "distances", [5.0, "50"]),
            ("capacity", "a", 10**400),
        ],
        ids=["a", "a2", "n", "seed", "mc_n", "direction", "distances", "n-float", "seed-float", "a-bool", "n-bool",
             "n-string", "a-string", "a2-bool", "mc_n-float", "seed-bool", "direction-bool-entry",
             "direction-string", "distances-string-entry", "a-overflow"],
    )
    def test_value_of_the_wrong_type_names_its_key(self, tmp_path, capsys, command, key, value):
        config = {"measure": ISO_MEASURE, "set": "unit_square", "A": "unit_segment", "B": "unit_segment"}
        config.update(a=0.5, a2=0.5, n=2, mc_n=2, seed=1, direction=[1, 0], distances=[5.0])
        config["window"] = {"vertices": [[-1, -1], [2, -1], [2, 2], [-1, 2]]}
        config[key] = value
        cfg = write_config(tmp_path, "t.json", config)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} has a bad value")

    @pytest.mark.parametrize("query_id", ["sq,\nrow", "a,b", 'a"b', "a\rb", "a\nb"])
    def test_capacity_id_must_fit_one_csv_field(self, tmp_path, capsys, query_id):
        config = {"measure": ISO_MEASURE, "set": "unit_square", "a": 0.5, "n": 2, "seed": 1, "id": query_id}
        cfg = write_config(tmp_path, "c.json", config)
        assert main(["capacity", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: config key 'id' has a bad value {query_id!r}")

    @pytest.mark.parametrize("command", ["simulate", "capacity", "iterate"])
    def test_window_must_be_a_polygon_with_area(self, tmp_path, command):
        square = {"vertices": [[-1, -1], [2, -1], [2, 2], [-1, 2]]}
        for window in ({"pieces": [square]}, {"vertices": [[-1, -1], [2, 2]]}):
            config = {"measure": ISO_MEASURE, "window": window, "set": "unit_square"}
            config.update(a=0.1, a2=0.1, n=2, seed=1)
            cfg = write_config(tmp_path, "w.json", config)
            assert main([command, "--config", cfg]) == 2
