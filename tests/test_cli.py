import json

import pytest

from triprofile.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c5_path(tmp_path):
    p = tmp_path / "c5.edges"
    p.write_text("# five-cycle\nn 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    return str(p)


@pytest.fixture
def two_block_path(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"sizes": [0.5, 0.5], "probs": [[1, 0], [0, 1]]}')
    return str(p)


class TestCensus:
    def test_c5(self, capsys, c5_path):
        code, out, _ = run(capsys, "census", c5_path)
        assert code == 0
        assert "densities: 0,0.5,0.5,0" in out
        assert "d_e: 0.5" in out
        assert "outside" not in out

    def test_verdict_order(self, capsys, c5_path):
        _, out, _ = run(capsys, "census", c5_path)
        regions = [ln.split(":")[0] for ln in out.splitlines()[-4:]]
        assert regions == ["s03", "s12", "s13", "s23"]

    def test_graphon_two_block(self, capsys, two_block_path):
        code, out, _ = run(capsys, "census", two_block_path, "--graphon")
        assert code == 0
        assert "densities: 0,0.75,0,0.25" in out
        line = [ln for ln in out.splitlines() if ln.startswith("s13:")][0]
        assert "boundary" in line and "unit-sum" in line

    def test_self_loop_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 1\n3 3\n")
        code, _, err = run(capsys, "census", str(p))
        assert code == 2
        assert "line 2" in err

    def test_not_utf8_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_bytes(b"0 1\n\xff\xfe 2\n")
        code, out, err = run(capsys, "census", str(p))
        assert code == 2 and out == ""
        assert err == "error: line 2: not valid UTF-8\n"

    def test_huge_vertex_id_exit_2(self, capsys, tmp_path):
        p = tmp_path / "huge.edges"
        p.write_text("0 1\n2 100000000000000000000\n")
        code, out, err = run(capsys, "census", str(p))
        assert code == 2 and out == ""
        assert err == "error: line 2: vertex id too large\n"

    def test_graphon_not_utf8_exit_2(self, capsys, tmp_path):
        p = tmp_path / "w.json"
        p.write_bytes(b'{"sizes": [1.0], "probs": [[0.5]]}\xff')
        code, out, err = run(capsys, "census", str(p), "--graphon")
        assert code == 2 and out == ""
        assert err.startswith("error: not a valid step-graphon document")

    def test_too_small_exit_1(self, capsys, tmp_path):
        p = tmp_path / "tiny.edges"
        p.write_text("0 1\n")
        code, _, err = run(capsys, "census", str(p))
        assert code == 1
        assert "too small" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_exit_1_without_output(self, capsys, c5_path, tol):
        code, out, err = run(capsys, "census", c5_path, "--tol", tol)
        assert code == 1
        assert out == ""
        assert "tolerance must be a nonnegative real" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "census", "/nonexistent/file.edges")
        assert code == 2


class TestMember:
    def test_outside(self, capsys):
        code, out, _ = run(capsys, "member", "--region", "s12",
                           "--x", "0.5", "--y", "0.3")
        assert code == 0
        assert "verdict: outside" in out
        slack = float([ln for ln in out.splitlines()
                       if ln.startswith("slack:")][0].split(":")[1])
        assert abs(slack + 0.05) <= 1e-12

    def test_goodman_boundary(self, capsys):
        code, out, _ = run(capsys, "member", "--region", "s03",
                           "--x", "0.125", "--y", "0.125")
        assert code == 0
        assert "verdict: boundary" in out and "goodman" in out

    def test_inside(self, capsys):
        code, out, _ = run(capsys, "member", "--region", "s13",
                           "--x", "0.4", "--y", "0.01")
        assert code == 0
        assert "verdict: inside" in out and "slack: 0.005" in out

    def test_bad_region_exit_1(self, capsys):
        code, _, err = run(capsys, "member", "--region", "s77",
                           "--x", "0", "--y", "0")
        assert code == 1 and "unknown region" in err


class TestBoundary:
    def test_s13_junctions(self, capsys, tmp_path):
        out_path = tmp_path / "b.csv"
        code, _, _ = run(capsys, "boundary", "--region", "s13",
                         "--samples", "1000", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "param,x,y,branch"
        params = [float(ln.split(",")[0]) for ln in lines[1:]]
        spacing = 1.0 / 999
        for j in (1 / 16, 1 / 9, 0.25):
            assert min(abs(p - j) for p in params) <= spacing

    def test_s12_triangle(self, capsys):
        code, out, _ = run(capsys, "boundary", "--region", "s12", "--samples", "3")
        assert code == 0
        branches = {ln.rsplit(",", 1)[1] for ln in out.splitlines()[1:]}
        assert branches == {"d2=0", "d1+d2=3/4", "d1=0"}

    def test_s23_endpoints(self, capsys):
        code, out, _ = run(capsys, "boundary", "--region", "s23", "--samples", "4")
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        curve = [r for r in rows if r[3] == "curve"]
        assert abs(float(curve[0][1]) - 0.75) <= 1e-9
        assert abs(float(curve[-1][2]) - 1.0) <= 1e-9

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "boundary", "--region", "s23", "--samples", "50")
        for ln in out.splitlines()[1:]:
            p, x, y, _ = ln.split(",")
            # 17 significant digits round-trip exactly
            assert f"{float(x):.17g}" == x and f"{float(y):.17g}" == y

    def test_unknown_region_exit_1(self, capsys):
        code, _, _ = run(capsys, "boundary", "--region", "s99", "--samples", "10")
        assert code == 1


class TestConstruct:
    def test_multipartite(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, text, _ = run(capsys, "construct", "--family", "multipartite",
                            "--param", "a=0.333", "--param", "b=1",
                            "--n", "999", "--out", str(out))
        assert code == 0
        summary = json.loads((tmp_path / "g.edges.summary.json").read_text())
        assert summary["max_deviation"] <= 0.01
        first = out.read_text().splitlines()[0]
        assert first == "n 999"

    def test_g2_degenerate_empty(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, _, _ = run(capsys, "construct", "--family", "g2",
                         "--param", "a=0", "--param", "p=1",
                         "--n", "100", "--out", str(out))
        assert code == 0
        body = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("n ")]
        assert body == []

    def test_g0_deviation_reported(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, text, _ = run(capsys, "construct", "--family", "g0",
                            "--param", "x=0.2", "--n", "2000",
                            "--seed", "0", "--out", str(out))
        assert code == 0
        dev = float([ln for ln in text.splitlines()
                     if ln.startswith("max_deviation")][0].split(":")[1])
        assert dev <= 0.01

    def test_determinism_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            code, _, _ = run(capsys, "construct", "--family", "s12",
                             "--param", "a=0.5", "--param", "p=0.3",
                             "--n", "150", "--seed", "11", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_family_lists_ranges(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "--family", "g0",
                           "--param", "x=0.9", "--n", "100",
                           "--out", str(tmp_path / "x.edges"))
        assert code == 1
        assert "must lie in" in err


class TestSweep:
    def test_deviations_decrease(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "g0",
                           "--param-grid", "x=-0.1,0.2",
                           "--n-list", "200,400,800", "--seeds", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("family,params,n,seed,d0")
        by_param = {}
        for ln in lines[1:]:
            cells = ln.split(",")
            by_param.setdefault(cells[1], []).append(float(cells[-1]))
        for devs in by_param.values():
            assert len(devs) == 3
            assert devs[0] >= devs[1] >= devs[2]

    def test_s12_half_trace(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "s12",
                           "--param-grid", "a=0.5",
                           "--param-grid", "p=0.1,0.5,0.9",
                           "--n-list", "300", "--seeds", "2")
        assert code == 0
        for ln in out.splitlines()[1:]:
            cells = ln.split(",")
            p = float(cells[1].split(";")[1].split("=")[1])
            lim_d1 = float(cells[10])
            assert abs(lim_d1 - (0.375 - 0.375 * (1 - 2 * p) ** 3)) <= 1e-12

    def test_empty_n_list_exit_1(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "g0",
                         "--param-grid", "x=0.1", "--n-list", "")
        assert code == 1

    def test_non_integer_seeds_exit_1(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "g0",
                             "--param-grid", "x=0.1", "--n-list", "50",
                             "--seeds", "abc")
        assert code == 1
        assert out == ""
        assert "--seeds is not a list of integers: 'abc'" in err


class TestOptimize:
    def test_gap_small(self, capsys):
        code, out, _ = run(capsys, "optimize", "--alpha", "2.2", "--grid", "200")
        assert code == 0
        gap = abs(float([ln for ln in out.splitlines()
                         if ln.startswith("gap:")][0].split(":")[1]))
        assert gap <= 1e-6

    def test_rejects_closed_endpoint(self, capsys):
        code, _, err = run(capsys, "optimize", "--alpha", "2.0")
        assert code == 1
        assert "alpha" in err and "2" in err

    def test_candidate_table(self, capsys):
        code, out, _ = run(capsys, "optimize", "--alpha", "2.41", "--grid", "100")
        assert code == 0
        sigma_line = [ln for ln in out.splitlines() if ln.startswith("best_x")][0]
        x3 = float(sigma_line.split(":")[1].split(",")[2])
        assert abs(x3 - 0.498) <= 0.002  # sigma near 1/4 at the right end
        assert "corner x=(0,0,1)" in out
        assert "one zero, x2=x3=1/2" in out


class TestVerify:
    def test_census_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census")
        assert code == 0
        assert "FAIL" not in out
        assert "oracle equivalence" in out

    def test_optimizer_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "optimizer")
        assert code == 0
        assert "FAIL" not in out

    def test_boundary_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "boundary")
        assert code == 0
        assert "breakpoints" in out
