"""Command-line interface: subcommands, exit codes, output formats."""

import argparse
import csv
import inspect
import io
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laggcd import (
    ClusterParams, LagrangePoly, RootList, Strategy, approximate_gcd, cluster_dnc,
    from_roots, roots,
)
from laggcd import cli
from laggcd.agcd import MATCHERS
from laggcd.cli import main
from laggcd.metric import RHOS, check_rho
from laggcd.problemfile import parse_problem
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

    def test_exact_matcher_at_degree_120(self, capsys, tmp_path):
        # 120 x 120 clusters: one dense assignment, as greedy finds
        x = np.cos((2 * np.arange(121) + 1) * np.pi / 242)
        y = np.prod(x[:, None] - np.cos(np.arange(1, 121) * np.pi / 121), axis=1)
        px, py = list(map(float, x)), list(map(float, y))
        path = write_json(
            tmp_path, "big.json", {"px": px, "py": py, "qx": px, "qy": py, "sigma": 1e-6}
        )
        payloads = {}
        for matcher in ("greedy", "exact"):
            code, out, err = run(capsys, ["agcd", path, "--matcher", matcher])
            assert code == 0, err
            payloads[matcher] = json.loads(out)
            assert payloads[matcher].pop("matcher") == matcher
        assert payloads["exact"] == payloads["greedy"]
        assert payloads["exact"]["gcd"]["degree"] == 120
        assert payloads["exact"]["cert_p"] and payloads["exact"]["cert_q"]

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

    def test_distance_beyond_the_double_range(self, capsys, tmp_path):
        # the two points are 1.8e308 apart: inf, outside any finite sigma
        path = write_json(tmp_path, "pts.json", [[0.0, 1], [[1e308, 1.5e308], 1]])
        code, out, err = run(capsys, ["cluster", path, "--sigma", "1.7e308"])
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == ["0,0,1,0,false", "1e+308,1.5e+308,1,1,false"]

    def test_multiplicity_too_large_to_expand(self, capsys, tmp_path):
        # the heuristic expands the multiplicity into points; dnc never does
        path = write_json(tmp_path, "pts.json", [[0.0, 2**63]])
        argv = ["cluster", path, "--sigma", "0.1"]
        code, out, err = run(capsys, argv + ["--strategy", "heuristic"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: cannot expand a total multiplicity of 9223372036854775808"
        ]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == ["0,0,9223372036854775808,0,false"]

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

    UNREADABLE = {
        "not_utf8": b"\xff\xfe\x00garbage",
        "nested_too_deeply": b"[" * 100_000,
    }

    @pytest.mark.parametrize("command", ["agcd", "roots", "cluster"])
    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_unreadable_json_is_input_error(self, capsys, tmp_path, content, command):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = [command, str(path)] + (["--sigma", "1"] if command == "cluster" else [])
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err

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
        "misspelt_key": {"stratgy": "heuristic"},
    }

    @pytest.mark.parametrize("change", FILE_PROBES.values(), ids=FILE_PROBES.keys())
    def test_bad_problem_file_is_input_error(self, capsys, tmp_path, change):
        path = write_json(tmp_path, "probe.json", {**self.PROBE_BASE, **change})
        code, out, err = run(capsys, ["agcd", path])
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_unknown_field_is_named(self, capsys, tmp_path):
        doc = {**self.PROBE_BASE, "stratgy": "heuristic", "eps": 1e-3}
        code, out, err = run(capsys, ["agcd", write_json(tmp_path, "typo.json", doc)])
        assert (code, out, err) == (2, "", "error: unknown fields: 'eps', 'stratgy'\n")

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


# JSON trees as the CLI payloads hold them, and the values json writes
# specially: tuples, float subclasses, -0.0, NaN/Infinity, bools, None,
# big ints, non-ASCII text and empty containers
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**40), 10**40) | st.floats()
    | st.floats().map(np.float64) | st.text()
)
JSON_PAIRS = st.tuples(st.floats(), st.floats())  # an [re, im] pair
JSON_TREES = st.recursive(
    JSON_SCALARS | JSON_PAIRS | JSON_PAIRS.map(list),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text() | st.integers(-3, 3), children, max_size=4)
    ),
    max_leaves=24,
)


class TestJsonWriter:
    """cli._dumps writes what json.dumps(obj, indent=2) writes."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(JSON_TREES)
    @example((1.0, 2.0))
    @example([-0.0, float("nan")])
    @example({"z": [float("inf"), -float("inf")], "e": [], "t": (), "d": {}})
    @example([np.float64(0.1), np.float64(-0.0)])
    @example({"σ": "∞ \u2028 \x00 \"q\"", "n": None, "b": [True, False]})
    @example([2**200, -(2**64), 0, (1.5,), [[1.0, 2.0, 3.0]]])
    @example({1: "int key", 2.5: "float key", None: "null key", True: "bool key"})
    def test_matches_stdlib_indent_2(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    def test_real_payloads(self, capsys, problem_file, tmp_path, monkeypatch):
        seen = []
        dumps = cli._dumps

        def spy(obj):
            seen.append((obj, dumps(obj)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "_dumps", spy)
        for argv in (
            ["agcd", problem_file, "--graph-csv", str(tmp_path / "graph.csv")],
            ["roots", problem_file, "--side", "P"],
            ["roots", problem_file, "--side", "Q"],
        ):
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == seen[-1][1] + "\n"
        assert len(seen) == 3
        for obj, text in seen:
            assert text == json.dumps(obj, indent=2)
            assert text.isascii()


class TestSharedParser:
    """main builds its parser once and may be called repeatedly."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_leak_between_calls(self, capsys, problem_file):
        def settings_of(argv):
            code, out, _ = run(capsys, ["agcd", problem_file, *argv])
            assert code == 0
            payload = json.loads(out)
            return [payload[key] for key in ("matcher", "rho", "strategy", "sigma")]

        flags = ["--matcher", "exact", "--rho", "max", "--strategy", "heuristic"]
        assert settings_of(flags + ["--sigma", "0.3"]) == ["exact", "max", "heuristic", 0.3]
        assert settings_of([]) == ["greedy", "sum", "dnc", 0.5]

    def test_argparse_error_between_runs(self, capsys, problem_file):
        assert run(capsys, ["agcd", problem_file])[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["agcd", problem_file, "--rho", "median"])
        assert exc.value.code == 2
        assert "invalid choice: 'median'" in capsys.readouterr().err
        assert run(capsys, ["agcd", problem_file])[0] == 0

    def test_identical_calls_write_identical_bytes(self, capsys, problem_file, tmp_path):
        written = []
        for name in ("first.json", "second.json"):
            dest = tmp_path / name
            assert run(capsys, ["agcd", problem_file, "-o", str(dest)])[0] == 0
            written.append(dest.read_bytes())
        assert written[0] == written[1]


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
    NOTE = (
        "nearly coincident nodes (gap 1.000e-09 vs spread 2.000e+00); "
        "expect poor conditioning"
    )

    def near_problem(self, tmp_path, qx=(0.0, 1.0, 3.0)):
        nodes = [0.0, 1.0, 2.0, 2.0 + 1e-9]
        return write_json(
            tmp_path, "near.json",
            {"px": nodes, "py": [(x - 1) * (x - 3) * (x + 1) for x in nodes],
             "qx": list(qx), "qy": [1.0, 0.0, 4.0], "sigma": 1e-3},
        )

    def test_agcd_near_duplicate_nodes_warn(self, capsys, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["agcd", self.near_problem(tmp_path)])
        assert code == 0
        assert err.splitlines() == ["warning: P nodes: " + self.NOTE]
        notes = json.loads(out)["warnings"]
        assert notes[0] == "P nodes: " + self.NOTE
        assert not any(note.startswith("Q nodes") for note in notes)

    @pytest.mark.parametrize("side", ["P", "Q"])
    def test_roots_notes_the_side_it_reads(self, capsys, tmp_path, side):
        argv = ["roots", self.near_problem(tmp_path), "--side", side]
        code, _, err = run(capsys, argv)
        assert code == 0
        want = ["warning: P nodes: " + self.NOTE] if side == "P" else []
        assert err.splitlines() == want

    @pytest.mark.parametrize("side", ["P", "Q"])
    def test_roots_json_carries_the_node_note(self, capsys, tmp_path, side):
        argv = ["roots", self.near_problem(tmp_path), "--side", side]
        code, out, _ = run(capsys, argv)
        payload = json.loads(out)
        want = ["P nodes: " + self.NOTE] if side == "P" else []
        assert code == 0 and payload["warnings"] == want and payload["note"] is None

    def test_roots_json_lists_node_then_rootfinding_note(self, capsys, tmp_path):
        # a quadratic sampled on four nodes, two nearly coincident: both
        # notes of P
        nodes = [0.0, 1.0, 2.0, 2.0 + 1e-9]
        doc = {"px": nodes, "py": [(x + 1.0) * (x - 0.5) for x in nodes],
               "qx": [0.0, 1.0, 3.0], "qy": [1.0, 0.0, 4.0], "sigma": 1e-3}
        path = write_json(tmp_path, "low.json", doc)
        code, out, _ = run(capsys, ["roots", path])
        payload = json.loads(out)
        assert code == 0 and payload["note"].startswith("sampled data appears")
        want = ["P nodes: " + self.NOTE, "P rootfinding: " + payload["note"]]
        assert payload["warnings"] == want
        # agcd words P's notes the same way
        code, out, _ = run(capsys, ["agcd", path])
        assert code == 0
        assert [w for w in json.loads(out)["warnings"] if w.startswith("P ")] == want

    def test_meeting_inclusion_disks_are_a_rootfinding_note(self, capsys, tmp_path):
        # degree 128 on 0.95-scaled Chebyshev roots sampled by their
        # product: Aberth's disks meet on both sides, and both commands
        # word the note alike
        x = np.cos((2 * np.arange(129) + 1) * np.pi / 258)
        y = np.prod(x[:, None] - 0.95 * x[:-1], axis=1)
        doc = {"px": x.tolist(), "py": y.tolist(), "qx": x.tolist(),
               "qy": y.tolist(), "sigma": 1e-6}
        path = write_json(tmp_path, "deg128.json", doc)
        code, out, _ = run(capsys, ["roots", path])
        payload = json.loads(out)
        assert code == 0 and len(payload["roots"]) == 128
        assert payload["discarded"] == 2
        assert payload["note"].startswith("128 of 128 roots have inclusion disks that meet")
        assert payload["warnings"] == ["P rootfinding: " + payload["note"]]
        code, out, _ = run(capsys, ["agcd", path])
        notes = json.loads(out)["warnings"]
        assert code == 0 and "P rootfinding: " + payload["note"] in notes

    def test_note_precedes_the_error(self, capsys, tmp_path):
        path = self.near_problem(tmp_path, qx=(0.0, 1.0, 1.0))
        code, out, err = run(capsys, ["agcd", path])
        assert code == 2 and out == ""
        first, second = err.splitlines()
        assert first == "warning: P nodes: " + self.NOTE
        assert second.startswith("error: nodes must be pairwise distinct")


def parser_options(command):
    """The options of one subcommand of the shared parser, by dest."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in sub.choices[command]._actions}


class TestVocabularies:
    """Each option's names and default have one owner in the library."""

    def test_names_and_defaults_come_from_the_library(self, capsys, tmp_path):
        strategies = tuple(s.value for s in Strategy)
        library = inspect.signature(approximate_gcd).parameters
        for command in ("agcd", "cluster"):
            option = parser_options(command)["strategy"]
            assert tuple(option.choices) == strategies and option.default is None
        options = parser_options("agcd")
        assert tuple(options["rho"].choices) == RHOS and options["rho"].default is None
        assert tuple(options["matcher"].choices) == MATCHERS
        assert options["matcher"].default == library["matcher"].default

        # nothing set: the payload reports the library's defaults
        base = {"px": [0, 1, 2], "py": [1, 2, 5], "qx": [0, 1, 3], "qy": [1, 0, 4],
                "sigma": 0.1}
        code, out, _ = run(capsys, ["agcd", write_json(tmp_path, "base.json", base)])
        payload = json.loads(out)
        assert code == 0
        assert payload["rho"] == library["rho"].default
        assert payload["matcher"] == library["matcher"].default
        assert payload["strategy"] == ClusterParams(sigma=0.1).strategy.value

        # every name passes the file, the library and the CLI
        p = LagrangePoly(base["px"], base["py"])
        q = LagrangePoly(base["qx"], base["qy"])
        for strategy, rho, matcher in itertools.product(strategies, RHOS, MATCHERS):
            pf = parse_problem({**base, "strategy": strategy, "rho": rho})
            assert (pf.strategy, pf.rho) == (strategy, rho)
            params = ClusterParams(sigma=0.1, strategy=strategy)
            check_rho(rho)
            approximate_gcd(p, q, params, matcher=matcher, rho=rho)
            argv = ["agcd", write_json(tmp_path, "names.json", base),
                    "--strategy", strategy, "--rho", rho, "--matcher", matcher]
            code, out, _ = run(capsys, argv)
            payload = json.loads(out)
            assert code == 0
            assert [payload[k] for k in ("strategy", "rho", "matcher")] == [
                strategy, rho, matcher
            ]
