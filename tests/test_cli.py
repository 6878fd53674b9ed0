"""Command-line interface: subcommands, exit codes, output formats."""

import csv
import io
import json

import numpy as np
import pytest

from laggcd import LagrangePoly, RootList, cluster_dnc, from_roots, roots
from laggcd import NearDuplicateNodesWarning
from laggcd.cli import main
from conftest import PX, PY, QX, QY


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def simple_problem(tmp_path, p_roots, q_roots, sigma, name="simple.json", **extra):
    """Problem file for polynomials with the given (simple) roots, plus
    any extra top-level fields."""
    def side(rl):
        rl = RootList((r, 1) for r in rl)
        n = rl.total_multiplicity() + 1
        nodes = np.linspace(-6.0, 6.0, n)
        poly = from_roots(rl, nodes)
        return list(map(float, poly.nodes.real)), list(map(float, poly.values.real))

    px, py = side(p_roots)
    qx, qy = side(q_roots)
    return write_json(
        tmp_path,
        name,
        {"px": px, "py": py, "qx": qx, "qy": qy, "sigma": sigma, **extra},
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRoots:
    def test_reference_p(self, capsys, problem_file):
        code, out, _ = run(capsys, ["roots", problem_file, "--side", "P"])
        assert code == 0
        payload = json.loads(out)
        assert payload["side"] == "P"
        assert len(payload["roots"]) == 7
        assert payload["discarded"] == 2
        for entry in payload["roots"]:
            assert entry["residual"] <= 1e-6 * max(abs(v) for v in PY)

    def test_reference_q(self, capsys, problem_file):
        code, out, _ = run(capsys, ["roots", problem_file, "--side", "Q"])
        assert code == 0
        assert len(json.loads(out)["roots"]) == 6

    def test_output_file(self, capsys, problem_file, tmp_path):
        dest = tmp_path / "roots.json"
        code, out, _ = run(capsys, ["roots", problem_file, "-o", str(dest)])
        assert code == 0
        assert out == ""
        assert len(json.loads(dest.read_text())["roots"]) == 7

    def test_deterministic_output(self, capsys, problem_file):
        _, out1, _ = run(capsys, ["roots", problem_file])
        _, out2, _ = run(capsys, ["roots", problem_file])
        assert out1 == out2


class TestAgcd:
    def test_reference_pipeline(self, capsys, problem_file):
        code, out, _ = run(capsys, ["agcd", problem_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["gcd"]["degree"] == 6
        assert payload["matching"]["total_weight"] == 6
        assert payload["cert_p"] and payload["cert_q"]
        mults = sorted(m for _, m in payload["gcd"]["roots"])
        assert mults == [2, 4]
        # node/value arrays describe a degree-6 polynomial
        assert len(payload["gcd"]["nodes"]) == 7

    def test_schema_stable_across_runs(self, capsys, problem_file):
        _, out1, _ = run(capsys, ["agcd", problem_file])
        _, out2, _ = run(capsys, ["agcd", problem_file])
        assert out1 == out2

    def test_sigma_flag_overrides_file(self, capsys, problem_file):
        code, out, _ = run(capsys, ["agcd", problem_file, "--sigma", "0.01"])
        assert code == 0
        small = json.loads(out)["gcd"]["degree"]
        _, out2, _ = run(capsys, ["agcd", problem_file])
        assert small <= json.loads(out2)["gcd"]["degree"]

    def test_exact_matcher_flag(self, capsys, problem_file):
        code, out, _ = run(capsys, ["agcd", problem_file, "--matcher", "exact"])
        assert code == 0
        assert json.loads(out)["matching"]["total_weight"] == 6

    def test_graph_csv_dump(self, capsys, problem_file, tmp_path):
        dest = tmp_path / "graph.csv"
        code, _, _ = run(capsys, ["agcd", problem_file, "--graph-csv", str(dest)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(dest.read_text())))
        assert rows[0] == ["left_root", "right_root", "weight", "distance"]
        # the computed lone root of P lands just outside sigma of Q's
        # quadruple cluster, so only the two heavy edges survive
        assert len(rows) == 1 + 2
        weights = sorted(int(r[2]) for r in rows[1:])
        assert weights == [2, 4]

    def test_graph_csv_complex_roots(self, capsys, tmp_path):
        pair = [0.5 + 0.5j, 0.5 - 0.5j]
        path = simple_problem(tmp_path, pair + [2.0], pair + [-2.0], 1e-3)
        dest = tmp_path / "graph.csv"
        code, _, _ = run(capsys, ["agcd", path, "--graph-csv", str(dest)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(dest.read_text())))[1:]
        assert len(rows) == 2
        for row in rows:
            assert row[0].endswith("j") and row[1].endswith("j")
        left = sorted((complex(r[0]) for r in rows), key=lambda z: z.imag)
        assert left == pytest.approx(pair[::-1], abs=1e-6)

    def test_gcd_samples_roundtrip(self, capsys, tmp_path):
        # the emitted node/value arrays must reproduce the reported roots
        # when fed back through the rootfinder
        path = simple_problem(
            tmp_path, [1.0, 2.0, 3.0, -4.0], [2.0, 3.0, 9.0], sigma=1e-6
        )
        code, out, _ = run(capsys, ["agcd", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["gcd"]["degree"] == 2
        nodes = [complex(*z) for z in payload["gcd"]["nodes"]]
        values = [complex(*z) for z in payload["gcd"]["values"]]
        report = roots(LagrangePoly(nodes, values))
        regrouped = cluster_dnc(RootList((r, 1) for r in report.roots), 1e-8)
        key = lambda z: (z.real, z.imag)
        want = sorted((complex(*r) for r, _ in payload["gcd"]["roots"]), key=key)
        got = sorted((r for r, _ in regrouped), key=key)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8

    def test_sigma_overrides_in_file(self, capsys, tmp_path):
        # a cluster sigma above sigma merges P's roots 0 and 0.3 into a
        # double at 0.15, which costs d = 0.15 > sigma = 0.1
        path = simple_problem(
            tmp_path, [0.0, 0.3], [5.0, 7.0], 0.1, sigmaOverrides={"cluster": 0.5}
        )
        code, out, _ = run(capsys, ["agcd", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["p_clustered"] == [[[pytest.approx(0.15), 0.0], 2]]
        assert not payload["cert_p"]
        assert payload["warnings"][0].startswith("distance certificate failed for P")

    def test_payload_reports_base_sigma_and_stage_sigmas(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "ov.json",
            {
                "px": PX, "py": PY, "qx": QX, "qy": QY, "sigma": 0.5,
                "sigmaOverrides": {"cluster": 0.01},
            },
        )
        code, out, _ = run(capsys, ["agcd", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma"] == 0.5
        assert payload["sigmas"] == {"cluster": 0.01, "edge": 0.5, "cert": 0.5}

    def test_rho_max(self, capsys, problem_file):
        code, out, _ = run(capsys, ["agcd", problem_file, "--rho", "max"])
        assert code == 0
        assert json.loads(out)["rho"] == "max"


class TestCluster:
    def test_csv_shape_and_flags(self, capsys, tmp_path):
        path = write_json(tmp_path, "pts.json", [[1.0, 1], [1.4, 1], [9.0, 2]])
        code, out, _ = run(capsys, ["cluster", path, "--sigma", "0.5"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["re", "im", "multiplicity", "cluster_id", "was_merged"]
        body = rows[1:]
        assert sum(int(r[2]) for r in body) == 4
        merged = {r[4] for r in body}
        assert merged == {"true", "false"}
        pair = [r for r in body if r[4] == "true"]
        assert len(pair) == 1 and float(pair[0][0]) == pytest.approx(1.2)

    def test_complex_points(self, capsys, tmp_path):
        path = write_json(tmp_path, "pts.json", [[[0.0, 1.0], 1], [[0.0, -1.0], 1]])
        code, out, _ = run(capsys, ["cluster", path, "--sigma", "3.0"])
        assert code == 0
        body = list(csv.reader(io.StringIO(out)))[1:]
        assert len(body) == 1
        assert float(body[0][1]) == pytest.approx(0.0)

    def test_heuristic_strategy(self, capsys, tmp_path):
        pts = [[[0.1 * np.cos(t), 0.1 * np.sin(t)], 1]
               for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        path = write_json(tmp_path, "pts.json", pts)
        code, out, _ = run(
            capsys, ["cluster", path, "--sigma", "0.02", "--strategy", "heuristic"]
        )
        assert code == 0
        body = list(csv.reader(io.StringIO(out)))[1:]
        assert len(body) == 1 and int(body[0][2]) == 3

    def test_repeated_entry_merges_once(self, capsys, tmp_path):
        # two of three equal entries merge into a double; the third is the
        # input entry left untouched
        path = write_json(tmp_path, "pts.json", [[1.0, 1], [1.0, 1], [1.0, 1]])
        argv = ["--strategy", "heuristic", "--max-mult", "2", "--sigma", "1e-6"]
        code, out, _ = run(capsys, ["cluster", path] + argv)
        assert code == 0
        assert out.splitlines()[1:] == ["1,0,2,0,true", "1,0,1,1,false"]

    def test_empty_points_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "pts.json", [])
        code, out, _ = run(capsys, ["cluster", path, "--sigma", "1.0"])
        assert code == 0
        assert out.strip() == "re,im,multiplicity,cluster_id,was_merged"

    def test_output_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "pts.json", [[1.0, 1]])
        dest = tmp_path / "out.csv"
        code, out, _ = run(capsys, ["cluster", path, "--sigma", "1.0", "-o", str(dest)])
        assert code == 0 and out == ""
        assert dest.read_text().startswith("re,im,")


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["roots", "/no/such/file.json"])
        assert code == 2
        assert "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["agcd", str(path)])
        assert code == 2

    def test_missing_fields(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", {"px": [0, 1], "py": [1, 2]})
        code, _, err = run(capsys, ["agcd", str(path)])
        assert code == 2
        assert "missing" in err

    def test_length_mismatch(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "bad.json",
            {"px": [0, 1, 2], "py": [1, 2], "qx": [0, 1], "qy": [1, 2], "sigma": 0.5},
        )
        assert run(capsys, ["agcd", str(path)])[0] == 2

    def test_duplicate_nodes(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "bad.json",
            {"px": [1, 1], "py": [1, 2], "qx": [0, 1], "qy": [1, 2], "sigma": 0.5},
        )
        assert run(capsys, ["roots", str(path)])[0] == 2

    def test_negative_sigma_in_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "bad.json",
            {"px": [0, 1], "py": [1, 2], "qx": [0, 1], "qy": [1, 2], "sigma": -1},
        )
        assert run(capsys, ["agcd", str(path)])[0] == 2

    def test_zero_polynomial_is_numeric_error(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "zero.json",
            {"px": [0, 1, 2], "py": [0, 0, 0], "qx": [0, 1], "qy": [1, 2],
             "sigma": 0.5},
        )
        code, _, err = run(capsys, ["roots", str(path)])
        assert code == 3

    def test_constant_side_is_numeric_error(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "const.json",
            {"px": [0, 1, 2], "py": [1, 0, 3], "qx": [0, 1, 2], "qy": [5, 5, 5],
             "sigma": 0.5},
        )
        code, out, err = run(capsys, ["agcd", path])
        assert code == 3 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: Q rootfinding found no roots: ")

    def test_overflowing_weights_are_numeric_error(self, capsys, tmp_path):
        nodes = list(np.linspace(0.0, 1000.0, 150))
        path = write_json(
            tmp_path, "wide.json",
            {"px": nodes, "py": [1.0] * 150, "qx": [0, 1], "qy": [1, 2],
             "sigma": 0.5},
        )
        code, out, err = run(capsys, ["agcd", path])
        assert code == 3 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: 150 of the 150 barycentric weights ")

    def test_bad_points_entry(self, capsys, tmp_path):
        path = write_json(tmp_path, "pts.json", [[1.0, 0]])
        assert run(capsys, ["cluster", str(path), "--sigma", "1.0"])[0] == 2

    def test_points_entry_not_a_pair(self, capsys, tmp_path):
        path = write_json(tmp_path, "pts.json", [[1.0, 1], [2.0]])
        code, out, err = run(capsys, ["cluster", str(path), "--sigma", "1.0"])
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [
            "error: each point must be a [root, multiplicity] pair, got [2.0]"
        ]

    def test_problem_file_not_an_object(self, capsys, tmp_path):
        path = write_json(tmp_path, "list.json", [[0, 1], [1, 2]])
        code, out, err = run(capsys, ["agcd", str(path)])
        assert code == 2 and out == ""
        assert err.strip().splitlines() == ["error: problem file must be a JSON object"]

    def test_bad_points_shape(self, capsys, tmp_path):
        path = write_json(tmp_path, "pts.json", {"points": []})
        assert run(capsys, ["cluster", str(path), "--sigma", "1.0"])[0] == 2

    def test_bad_sigma_override_in_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "bad.json",
            {"px": [0, 1], "py": [1, 2], "qx": [0, 1], "qy": [1, 2], "sigma": 0.5,
             "sigmaOverrides": {"cluster": "x"}},
        )
        code, _, err = run(capsys, ["agcd", str(path)])
        assert code == 2
        assert err.strip().splitlines() == [
            "error: sigmaOverrides.cluster must be a number >= 0, got 'x'"
        ]

    def test_negative_sigma_flag(self, capsys, problem_file):
        with pytest.raises(SystemExit) as exc:
            main(["agcd", problem_file, "--sigma", "-1"])
        assert exc.value.code == 2
        assert "error: argument --sigma: must be >= 0" in capsys.readouterr().err

    def test_zero_max_mult_flag(self, capsys, problem_file, tmp_path):
        points = write_json(tmp_path, "pts.json", [[1.0, 1]])
        for argv in (["agcd", problem_file], ["cluster", points, "--sigma", "1.0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--max-mult", "0"])
            assert exc.value.code == 2
            assert "error: argument --max-mult: must be >= 1" in capsys.readouterr().err

    INFINITE_FLAGS = {
        "cluster_sigma": ["cluster", "POINTS", "--sigma", "inf"],
        "agcd_sigma": ["agcd", "PROBLEM", "--sigma", "inf"],
        "sigma_cluster": ["agcd", "PROBLEM", "--sigma-cluster", "inf"],
    }

    @pytest.mark.parametrize("argv", INFINITE_FLAGS.values(), ids=INFINITE_FLAGS.keys())
    def test_infinite_tolerance_flag_is_input_error(self, capsys, problem_file, tmp_path, argv):
        points = write_json(tmp_path, "pts.json", [[0.0, 1], [5.0, 1], [100.0, 1]])
        argv = [{"POINTS": points, "PROBLEM": problem_file}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "must be finite, got " in errors[0]

    PROBE_BASE = {"px": [0, 1, 2], "py": [1, 2, 5], "qx": [0, 1, 3], "qy": [1, 0, 4],
                  "sigma": 0.1}
    FILE_PROBES = {
        "nan_value": {"py": [1, float("nan"), 5]},
        "infinite_node": {"px": [0, float("inf"), 2]},
        "huge_integer_node": {"px": [0, 1, 10**400]},
        "bool_max_multiplicity": {"maxMultiplicity": True},
        "unknown_sigma_override": {"sigmaOverrides": {"edg": -5}},
        "edge_sigma_override": {"sigmaOverrides": {"edge": 0.1}},
        "cert_sigma_override": {"sigmaOverrides": {"cert": 0.1}},
        "false_sigma_overrides": {"sigmaOverrides": False},
        "zero_sigma_overrides": {"sigmaOverrides": 0},
        "empty_array_sigma_overrides": {"sigmaOverrides": []},
        "non_array_field": {"qy": 5},
        "unequal_q_lengths": {"qy": [1, 0]},
        "unknown_strategy": {"strategy": "bogus"},
        "unknown_rho": {"rho": "median"},
    }

    @pytest.mark.parametrize("change", FILE_PROBES.values(), ids=FILE_PROBES.keys())
    def test_bad_problem_file_is_input_error(self, capsys, tmp_path, change):
        path = write_json(tmp_path, "probe.json", {**self.PROBE_BASE, **change})
        code, out, err = run(capsys, ["agcd", path])
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    REMOVED_FLAGS = {
        "agcd_fixpoint": ["agcd", "PROBLEM", "--fixpoint"],
        "cluster_fixpoint": ["cluster", "POINTS", "--sigma", "1", "--fixpoint"],
        "cluster_fuzz": ["cluster", "POINTS", "--sigma", "1", "--fuzz", "1"],
        "agcd_sigma_edge": ["agcd", "PROBLEM", "--sigma-edge", "0.1"],
        "agcd_sigma_cert": ["agcd", "PROBLEM", "--sigma-cert", "0.1"],
    }

    @pytest.mark.parametrize("argv", REMOVED_FLAGS.values(), ids=REMOVED_FLAGS.keys())
    def test_removed_flag_is_input_error(self, capsys, problem_file, tmp_path, argv):
        points = write_json(tmp_path, "pts.json", [[0.0, 1], [1e-3, 1]])
        argv = [{"POINTS": points, "PROBLEM": problem_file}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        removed = ("--fixpoint", "--fuzz", "--sigma-edge", "--sigma-cert")
        flag = next(a for a in argv if a in removed)
        assert "error: unrecognized arguments: " + flag in captured.err


class TestWriteErrors:
    WRITES = {
        "agcd_output": ["agcd", "PROBLEM", "-o", "DEST"],
        "agcd_graph_csv": ["agcd", "PROBLEM", "--graph-csv", "DEST"],
        "roots_output": ["roots", "PROBLEM", "-o", "DEST"],
        "cluster_output": ["cluster", "POINTS", "--sigma", "1", "-o", "DEST"],
    }

    @pytest.mark.parametrize("dest", ["missing_directory", "directory"])
    @pytest.mark.parametrize("argv", WRITES.values(), ids=WRITES.keys())
    def test_unwritable_file_is_input_error(
        self, capsys, problem_file, tmp_path, argv, dest
    ):
        points = write_json(tmp_path, "pts.json", [[0.0, 1], [1e-3, 1]])
        target = str({"missing_directory": tmp_path / "no" / "out.txt",
                      "directory": tmp_path}[dest])
        names = {"POINTS": points, "PROBLEM": problem_file, "DEST": target}
        code, out, err = run(capsys, [names.get(a, a) for a in argv])
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write %s: " % target)


class TestInputWarnings:
    def test_agcd_near_duplicate_nodes_warn(self, capsys, tmp_path):
        nodes = [0.0, 1.0, 2.0, 2.0 + 1e-9]
        path = write_json(
            tmp_path, "near.json",
            {"px": nodes, "py": [(x - 1) * (x - 3) * (x + 1) for x in nodes],
             "qx": [0.0, 1.0, 3.0], "qy": [1.0, 0.0, 4.0], "sigma": 1e-3},
        )
        with pytest.warns(NearDuplicateNodesWarning) as caught:
            code, out, _ = run(capsys, ["agcd", path])
        assert code == 0
        assert len(caught) == 1
        notes = json.loads(out)["warnings"]
        assert notes[0] == "P nodes: %s" % caught[0].message
        assert not any(note.startswith("Q nodes") for note in notes)
