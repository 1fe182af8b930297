"""Scenario files, serialization round-trips, CLI exit codes, determinism."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from toricdensity import SectionBasis, cli, count_lattice_points
from toricdensity.density import section_expansion_residual
from toricdensity.fileio import (dump_csv, dump_json, geometry_to_dict,
                                 load_geometry, load_scenario, rational_to_str)
from toricdensity.polytope import _fr

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestSerialization:
    def test_rational_roundtrip(self):
        for q in (F(3, 4), F(-7, 2), F(5), F(0)):
            assert _fr(rational_to_str(q)) == q

    def test_float_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            _fr(0.25)

    def test_geometry_roundtrip(self, square_family):
        d = geometry_to_dict(square_family.base, square_family.cuts)
        P, cuts = load_geometry(d)
        assert P.vertices == square_family.base.vertices
        assert [c.key() for c in cuts] == [c.key() for c in square_family.cuts]

    def test_fixture_polytopes_load(self):
        for path in sorted((FIXTURES / "polytopes").glob("*.json")):
            with open(path) as fh:
                P, cuts = load_geometry(json.load(fh))
            assert P.vertices

    def test_scenario_requires_known_task(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": 1, "task": "noop",
            "polytope": {"dim": 1, "facets": [
                {"normal": ["1"], "offset": "0"},
                {"normal": ["-1"], "offset": "-1"}]},
        }))
        with pytest.raises(ValueError, match="unknown task"):
            load_scenario(bad)

    def test_scenario_with_potential(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({
            "schema": 1, "task": "check-delzant",
            "polytope": {"dim": 1, "facets": [
                {"normal": ["1"], "offset": "0"},
                {"normal": ["-1"], "offset": "-1"}]},
            "potential": {"monomials": [{"exponents": [2], "coeff": 0.1}]},
        }))
        sc = load_scenario(p)
        assert not sc.perturbation.is_zero

    def test_dump_json_deterministic(self, tmp_path):
        payload = {"b": 0.1 + 0.2, "a": F(1, 3), "c": [1, 2]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(payload, p1)
        dump_json(payload, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["a"] == "1/3"

    def test_dump_csv_float_repr(self, tmp_path):
        p = tmp_path / "x.csv"
        dump_csv({"k": [1], "v": [0.1]}, p)
        assert p.read_text() == "k,v\n1,0.1\n"

    def test_dump_csv_columns_match_the_cell_by_cell_format(self, tmp_path):
        # the row-by-row formatting dump_csv had, as the reference
        def cell(v):
            if isinstance(v, float):
                return repr(v)
            return rational_to_str(v) if isinstance(v, F) else str(v)

        columns = {"y": np.array([0.1 + 0.2, -0.0, 1e16, 5e-324]),
                   "k": np.array([1, 2**70, -3, 0], dtype=object),
                   "q": [F(1, 3), F(4), F(-5, 2), True], "r": np.array(list("CNDC"))}
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))
        p = tmp_path / "x.csv"
        dump_csv(columns, p)
        assert p.read_text() == "y,k,q,r\n" + "".join(
            ",".join(map(cell, row)) + "\n" for row in rows)
        assert p.read_text().splitlines()[2] == "-0.0,1180591620717411303424,4,N"
        with pytest.raises(ValueError):
            dump_csv({"a": [1, 2], "b": [1]}, p)


class TestCliRuns:
    def test_futaki_tent(self, tmp_path):
        rc = run_cli(["futaki", "--scenario",
                      FIXTURES / "scenarios" / "cp1_tent_futaki.json",
                      "--out", tmp_path])
        assert rc == 0
        data = json.loads((tmp_path / "futaki.json").read_text())
        assert data["F1_combinatorial"] == "-1/4"
        assert abs(data["F1_metric"] + 0.25) < 1e-4

    def test_em_check_square(self, tmp_path):
        rc = run_cli(["em-check", "--scenario",
                      FIXTURES / "scenarios" / "square_em.json",
                      "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "em_check.csv").read_text().strip().splitlines()
        assert lines[0] == "k,direct,asymptotic,residual"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_delzant_failure_exit_code(self, tmp_path):
        rc = run_cli(["check-delzant", "--scenario",
                      FIXTURES / "scenarios" / "nondelzant_check.json",
                      "--out", tmp_path])
        assert rc == cli.EXIT_CHECK_FAILED
        data = json.loads((tmp_path / "delzant.json").read_text())
        assert data["is_delzant"] is False

    def test_slope_cp2(self, tmp_path):
        rc = run_cli(["slope", "--scenario",
                      FIXTURES / "scenarios" / "cp2_slope.json",
                      "--out", tmp_path])
        assert rc == 0
        data = json.loads((tmp_path / "slope.json").read_text())
        assert data["mu_c"] == "30/11"
        assert data["verdict"] == "stable at c"

    def test_lattice_count_csv(self, tmp_path):
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps({
            "schema": 1, "task": "lattice-count",
            "polytope": {"dim": 2, "facets": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["0", "1"], "offset": "0"},
                {"normal": ["-1", "-1"], "offset": "-1"}]},
            "params": {"k_grid": [1, 2, 3]},
        }))
        assert run_cli(["lattice-count", "--scenario", sc, "--out", tmp_path]) == 0
        lines = (tmp_path / "lattice_count.csv").read_text().strip().splitlines()
        assert lines[1:] == ["1,0,3", "2,0,6", "3,0,10"]

    def test_expansion_check_cp1(self, tmp_path):
        rc = run_cli(["expansion-check", "--scenario",
                      FIXTURES / "scenarios" / "cp1_expansion.json",
                      "--out", tmp_path])
        assert rc == 0
        data = json.loads((tmp_path / "expansion_check.json").read_text())
        assert set(data["fields"]) == {"one", "y1"}
        for entry in data["fields"].values():
            # null slope marks residuals at machine zero
            assert entry["slope"] is None or entry["slope"] <= -1.7

    def test_parse_error_exit_code(self, tmp_path):
        rc = run_cli(["futaki", "--scenario", tmp_path / "missing.json",
                      "--out", tmp_path])
        assert rc == cli.EXIT_PARSE

    def test_precondition_exit_code(self, tmp_path):
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps({
            "schema": 1, "task": "density-profile",
            "polytope": {"dim": 1, "facets": [
                {"normal": ["1"], "offset": "0"},
                {"normal": ["-1"], "offset": "-1"}],
                "cuts": [{"normal": ["1"], "offset": "0"}]},
            "params": {"t": "1/3", "k": 10},
        }))
        rc = run_cli(["density-profile", "--scenario", sc, "--out", tmp_path])
        assert rc == cli.EXIT_PRECONDITION  # k=10 not divisible by N=3

    def test_repeated_cut_exit_code(self, tmp_path, capsys):
        sc = tmp_path / "s.json"
        cut = {"normal": ["1", "0"], "offset": "0"}
        sc.write_text(json.dumps({
            "schema": 1, "task": "futaki",
            "polytope": {"dim": 2, "facets": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["0", "1"], "offset": "0"},
                {"normal": ["-1", "0"], "offset": "-1"},
                {"normal": ["0", "-1"], "offset": "-1"}],
                "cuts": [cut, cut]},
        }))
        rc = run_cli(["futaki", "--scenario", sc, "--out", tmp_path])
        assert rc == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("toricdensity.polytope: ")
        assert "cut AffineFunctional(1*x0 - 0) is repeated" in err

    def test_precondition_names_raising_module_under_python_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "toricdensity.cli", "slope", "--scenario",
             str(FIXTURES / "scenarios" / "square_em.json"), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_PRECONDITION
        assert proc.stderr == "toricdensity.cli: slope requires a single-cut family\n"

    @staticmethod
    def _capped_profile(tmp_path, run_capped, params):
        geometry = json.loads((FIXTURES / "polytopes" / "cp2_vertex.json").read_text())
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps({"schema": 1, "task": "density-profile",
                                  "polytope": geometry, "params": params}))
        return run_capped(["-m", "toricdensity.cli", "density-profile", "--scenario", sc,
                           "--out", tmp_path / "out"], cap=1 << 30)

    def test_lattice_budget_exit_code(self, tmp_path, run_capped):
        # k=3000 on the triangle is 4,504,501 lattice points: refused before
        # any is built, so a 1 GiB address space suffices
        proc = self._capped_profile(tmp_path, run_capped, {"t": "1/5", "k": 3000})
        assert proc.returncode == cli.EXIT_PRECONDITION, proc.stderr
        assert proc.stderr == ("toricdensity.polytope: k*P has 4504501 lattice points at "
                               "k=3000, past the budget of 1048576\n")

    def test_profile_grid_budget_exit_code(self, tmp_path, run_capped):
        # 1100^2 sample points are refused before any is built
        start = time.perf_counter()
        proc = self._capped_profile(tmp_path, run_capped, {"t": "1/5", "k": 10, "grid": 1100})
        assert proc.returncode == cli.EXIT_PRECONDITION, proc.stderr
        assert proc.stderr == ("toricdensity.polytope: a grid of 1100^2 = 1210000 points is "
                               "past the budget of 1048576\n")
        assert time.perf_counter() - start < 10

    def test_profile_at_lattice_budget_grid(self, tmp_path, run_capped):
        # 1024^2 is the largest grid within the budget; 523,776 points of it
        # lie strictly inside the triangle
        start = time.perf_counter()
        proc = self._capped_profile(tmp_path, run_capped, {"t": "1/5", "k": 5, "grid": 1024})
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert time.perf_counter() - start < 15
        with open(tmp_path / "out" / "density_profile.csv") as fh:
            assert sum(1 for _ in fh) == 1 + 523_776

    def test_profile_grid_point_is_exact(self, tmp_path):
        # the cp1 grid point 3/10 is exactly 3/10: on N(3/10), written 0.3
        P = load_scenario(FIXTURES / "scenarios" / "cp1_density.json").polytope
        num, den = P.interior_grid(9)
        assert F(int(num[2, 0]), den) == F(3, 10)
        rc = run_cli(["density-profile", "--scenario",
                      FIXTURES / "scenarios" / "cp1_density.json", "--out", tmp_path])
        assert rc == cli.EXIT_OK
        row = (tmp_path / "density_profile.csv").read_text().splitlines()[3].split(",")
        assert (row[0], row[-1]) == ("0.3", "N")

    @staticmethod
    def _capped_count(tmp_path, run_capped, params):
        # the 3-simplex, cut at its vertex by x + y + z >= t
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps({"schema": 1, "task": "lattice-count", "polytope": {
            "dim": 3, "facets": [{"normal": nu, "offset": "0"} for nu in
                                 (["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"])]
            + [{"normal": ["-1", "-1", "-1"], "offset": "-1"}],
            "cuts": [{"normal": ["1", "1", "1"], "offset": "0"}]}, "params": params}))
        start = time.perf_counter()
        proc = run_capped(["-m", "toricdensity.cli", "lattice-count", "--scenario", sc,
                           "--out", tmp_path / "out"], cap=1 << 30)
        return proc, time.perf_counter() - start

    def test_count_at_a_million_is_evaluated(self, tmp_path, run_capped):
        proc, elapsed = self._capped_count(tmp_path, run_capped, {"k_grid": [1000000]})
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert elapsed < 1
        lines = (tmp_path / "out" / "lattice_count.csv").read_text().splitlines()
        assert lines[1:] == [f"1000000,0,{(10**6 + 3) * (10**6 + 2) * (10**6 + 1) // 6}"]

    def test_fibre_budget_exit_code(self, tmp_path, run_capped):
        # P(t) has integrality divisor 1000003, so k = 10^6 is walked: a box
        # of (10^6 + 1)^2 fibres, refused before the walk
        proc, elapsed = self._capped_count(tmp_path, run_capped,
                                           {"t": "1/1000003", "k_grid": [1000000]})
        assert proc.returncode == cli.EXIT_PRECONDITION, proc.stderr
        assert proc.stderr == ("toricdensity.polytope: k*P has 1000002000001 fibres at "
                               "k=1000000, past the budget of 67108864\n")
        assert elapsed < 5

    def test_node_budget_exit_code(self, tmp_path, monkeypatch):
        # a budget below the second Gauss order stops the section norms
        from toricdensity import density
        monkeypatch.setattr(density, "NODE_BUDGET", 5)
        rc = run_cli(["density-profile", "--scenario",
                      FIXTURES / "scenarios" / "cp1_density.json", "--out", tmp_path])
        assert rc == cli.EXIT_NONCONVERGENCE

    @staticmethod
    def _scenario(tmp_path, task, geometry, params):
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps({"schema": 1, "task": task, "params": params,
                                  "polytope_file": str(FIXTURES / "polytopes" / geometry)}))
        return sc

    @pytest.mark.parametrize("k_grid,value", [
        ([2.5], "2.5"), ([100.0], "100.0"), (["4"], "'4'"), ([True], "True")])
    def test_k_grid_entry_must_be_an_integer(self, tmp_path, capsys, k_grid, value):
        # 2.5 counted 9 points for "k = 2.5", 100.0 and "4" raised TypeError,
        # True wrote the row True,0,4
        sc = self._scenario(tmp_path, "lattice-count", "square_corner.json",
                            {"k_grid": k_grid})
        assert run_cli(["lattice-count", "--scenario", sc, "--out", tmp_path]) \
            == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == \
            f"toricdensity.polytope: expected an integer, got {value}\n"
        assert not (tmp_path / "lattice_count.csv").exists()

    def test_k_grid_must_be_a_list(self, tmp_path, capsys):
        sc = self._scenario(tmp_path, "lattice-count", "square_corner.json", {"k_grid": 4})
        assert run_cli(["lattice-count", "--scenario", sc, "--out", tmp_path]) \
            == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == "toricdensity.cli: k_grid must be a list, got 4\n"

    def test_lattice_count_at_t_requires_cuts(self, tmp_path, capsys):
        # t without cuts was ignored: the interval wrote 1,0,2 and 2,0,3
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps({"schema": 1, "task": "lattice-count", "polytope": {
            "dim": 1, "facets": [{"normal": ["1"], "offset": "0"},
                                 {"normal": ["-1"], "offset": "-1"}]},
            "params": {"t": "1/2", "k_grid": [1, 2]}}))
        assert run_cli(["lattice-count", "--scenario", sc, "--out", tmp_path]) \
            == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == \
            "toricdensity.cli: lattice-count at t requires cuts in the scenario\n"
        assert not (tmp_path / "lattice_count.csv").exists()

    @pytest.mark.parametrize("grid", [0, -3])
    def test_profile_grid_must_be_positive(self, tmp_path, capsys, grid):
        # grid 0 and -3 wrote a one-point profile at the vertex centroid
        sc = self._scenario(tmp_path, "density-profile", "cp1.json",
                            {"t": "3/10", "k": 20, "grid": grid})
        assert run_cli(["density-profile", "--scenario", sc, "--out", tmp_path]) \
            == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == ("toricdensity.polytope: a grid needs at least "
                                           f"one point per axis, got {grid}\n")
        assert not (tmp_path / "density_profile.csv").exists()

    @pytest.mark.parametrize("params", [{"t": "3/10", "k": 20.5},
                                        {"t": "3/10", "k": 20, "grid": 9.0}])
    def test_profile_k_and_grid_must_be_integers(self, tmp_path, params):
        # k = 20.5 ran at k = 20 through int()
        sc = self._scenario(tmp_path, "density-profile", "cp1.json", params)
        assert run_cli(["density-profile", "--scenario", sc, "--out", tmp_path]) \
            == cli.EXIT_PRECONDITION

    @pytest.mark.parametrize("bad", [2.5, 10.0, "4", True])
    def test_dilation_entry_points_take_integers_only(self, u_interval, bad):
        P = u_interval.polytope
        calls = [lambda k: count_lattice_points(P, k), P.lattice_points, P.interior_grid,
                 lambda k: SectionBasis.build(u_interval, k),
                 lambda k: section_expansion_residual(u_interval, [F(1, 2)], k, 1.0)]
        for call in calls:
            with pytest.raises(ValueError, match="expected an integer"):
                call(bad)
        assert count_lattice_points(P, np.int64(10)) == 11
        assert P.lattice_points(np.int32(2)).tolist() == [[0], [1], [2]]

    @pytest.mark.parametrize("raw,message", [
        ([1, 2], "must be a JSON object, got list"),
        ({"params": [1]}, "scenario params must be a JSON object, got list"),
        ({"potential": [1]}, "malformed potential"),
        ({"polytope": {**json.loads((FIXTURES / "polytopes" / "square_corner.json")
                                    .read_text()), "dim": 2.5}},
         "expected an integer, got 2.5")],
        ids=["list", "params_list", "potential_list", "float_dim"])
    def test_scenario_shape_parse_error(self, tmp_path, capsys, raw, message):
        # the lists exited 1 with an AttributeError traceback; dim 2.5 was
        # truncated to 2
        if isinstance(raw, dict):
            raw = {"schema": 1, "task": "em-check",
                   "polytope_file": str(FIXTURES / "polytopes" / "square_corner.json"), **raw}
            if "polytope" in raw:
                del raw["polytope_file"]
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps(raw))
        assert run_cli(["em-check", "--scenario", sc, "--out", tmp_path]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("toricdensity.fileio: ") and message in err

    def test_scenario_family_built_once(self):
        sc = load_scenario(FIXTURES / "scenarios" / "cp1_report.json")
        assert sc.family is sc.family

    def test_parser_built_once_and_parses_each_call_afresh(self):
        parser = cli._parser()
        assert cli._parser() is parser
        first = parser.parse_args(["futaki", "--scenario", "a.json", "--out", "o",
                                   "--threads", "3"])
        second = parser.parse_args(["slope", "--scenario", "b.json", "--out", "p"])
        assert (first.command, first.threads) == ("futaki", 3)
        assert vars(second) == {"command": "slope", "scenario": "b.json", "out": "p",
                                "threads": 1}

    @pytest.mark.parametrize("flag,value", [("--dp-convention", "printed"),
                                            ("--tolerance", "1e-8")])
    def test_removed_flags_exit_2(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["futaki", "--scenario", FIXTURES / "scenarios" / "cp1_tent_futaki.json",
                     "--out", tmp_path, flag, value])
        assert exc.value.code == cli.EXIT_PARSE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [0.5, "1/2", ["1/2", "1/3"], [], ["x"], [None]],
                             ids=["float", "string", "two", "empty", "bad_literal", "null"])
    def test_expansion_check_alpha_exit_3(self, tmp_path, capsys, alpha):
        # a float alpha died with a TypeError and exit 1, a string with a
        # Fraction literal message, a list of the wrong length in numpy
        sc = tmp_path / "s.json"
        sc.write_text(json.dumps({
            "schema": 1, "task": "expansion-check", "polytope_file":
                str(FIXTURES / "polytopes" / "cp1.json"),
            "params": {"alpha": alpha, "k_grid": [10, 20]}}))
        assert run_cli(["expansion-check", "--scenario", sc, "--out", tmp_path]) == \
            cli.EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith("toricdensity.cli: alpha ")


@pytest.mark.slow
class TestDeterminism:
    def test_report_byte_identical_across_threads(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        scenario = FIXTURES / "scenarios" / "cp1_report.json"
        for out, threads in ((out1, "1"), (out2, "4")):
            proc = subprocess.run(
                [sys.executable, "-m", "toricdensity.cli", "report",
                 "--scenario", str(scenario), "--out", str(out),
                 "--threads", threads],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_bit_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        scenario = FIXTURES / "scenarios" / "cp1_tent_futaki.json"
        for out in (out1, out2):
            assert run_cli(["futaki", "--scenario", scenario, "--out", out]) == 0
        assert (out1 / "futaki.json").read_bytes() == \
            (out2 / "futaki.json").read_bytes()


@pytest.mark.slow
def test_every_report_fixture_passes(tmp_path):
    scenarios = sorted((FIXTURES / "scenarios").glob("*report*.json"))
    assert len(scenarios) >= 6
    import time
    for scenario in scenarios:
        start = time.monotonic()
        rc = run_cli(["report", "--scenario", scenario,
                      "--out", tmp_path / scenario.stem])
        elapsed = time.monotonic() - start
        assert rc == 0, scenario.name
        assert elapsed < 300, f"{scenario.name} took {elapsed:.0f}s"
