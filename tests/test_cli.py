import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import triprofile
from triprofile import cli, verify
from triprofile.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(address_bytes, *argv):
    """Run the CLI in a subprocess whose address space is limited to address_bytes."""
    src = os.path.dirname(os.path.dirname(triprofile.__file__))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_bytes, address_bytes))

    return subprocess.run([sys.executable, "-m", "triprofile.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
                          timeout=60, capture_output=True, text=True)


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

    def test_no_thread_started(self, c5_path):
        # only the seeded blow-up census's tile kernel and the parse of an
        # edge file of more than one chunk make a thread pool; a census of
        # c5's one-chunk file and a membership query import no
        # concurrent.futures
        src = os.path.dirname(os.path.dirname(triprofile.__file__))
        code = ("import sys, threading\n"
                "from triprofile.cli import main\n"
                f"assert main(['census', {c5_path!r}]) == 0\n"
                "assert main(['member', '--region', 's13', '--x', '0.4', '--y', '0.01']) == 0\n"
                "assert 'concurrent.futures' not in sys.modules\n"
                "assert threading.active_count() == 1\n")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              timeout=60, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

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

    @pytest.mark.parametrize("text", [
        # keys near 2^63 once overflowed into a false duplicate
        "0 999999999999999999\n70368744177664 999999999999999999\n",
        # a graph too large to allocate
        "0 1000000000000\n",
    ])
    def test_vertex_limit_exit_2(self, capsys, tmp_path, text):
        p = tmp_path / "huge.edges"
        p.write_text(text)
        code, out, err = run(capsys, "census", str(p))
        assert code == 2 and out == ""
        assert err == "error: line 1: vertex id too large\n"

    def test_graphon_not_utf8_exit_2(self, capsys, tmp_path):
        p = tmp_path / "w.json"
        p.write_bytes(b'{"sizes": [1.0], "probs": [[0.5]]}\xff')
        code, out, err = run(capsys, "census", str(p), "--graphon")
        assert code == 2 and out == ""
        assert err.startswith("error: not a valid step-graphon document")

    @pytest.mark.parametrize("doc,text", [
        ('{"sizes": [0.5, 0.5], "probs": [[1, 0], [0]]}',
         "probs must be a rectangular array of real numbers"),
        ('{"sizes": "abc", "probs": [[1]]}', "sizes must be a rectangular array of real numbers"),
        ('{"sizes": [[0.5], [0.5]], "probs": [[1, 0], [0, 1]]}',
         "sizes must be a one-dimensional list of block weights"),
        ('{"sizes": ["0.5", "0.5"], "probs": [[true, false], [false, "1e0"]]}',
         "sizes must be a rectangular array of real numbers"),
        ('{"sizes": [1], "probs": [[true]]}', "probs must be a rectangular array of real numbers"),
    ])
    def test_graphon_malformed_arrays_exit_2(self, capsys, tmp_path, doc, text):
        p = tmp_path / "w.json"
        p.write_text(doc)
        code, out, err = run(capsys, "census", str(p), "--graphon")
        assert code == 2 and out == ""
        assert err == f"error: invalid step graphon: {text}\n"

    @pytest.mark.parametrize("doc", ["[0.5, 0.5]", '{"sizes": [1], "probs": [[0]], "extra": 1}'])
    def test_graphon_not_an_object_exit_2(self, capsys, tmp_path, doc):
        p = tmp_path / "w.json"
        p.write_text(doc)
        code, out, err = run(capsys, "census", str(p), "--graphon")
        assert code == 2 and out == ""
        assert err == ('error: step-graphon document must be an object with keys '
                       '"sizes" and "probs"\n')

    @pytest.mark.parametrize("depth,text", [
        (70, "invalid step graphon: sizes must be a rectangular array of real numbers"),
        (900, "invalid step graphon: sizes must be a rectangular array of real numbers"),
        (100_000, "not a valid step-graphon document: nested too deeply"),
    ])
    def test_graphon_nested_exit_2(self, capsys, tmp_path, depth, text):
        p = tmp_path / "w.json"
        p.write_text('{"sizes": ' + "[" * depth + "]" * depth + ', "probs": [[1]]}')
        code, out, err = run(capsys, "census", str(p), "--graphon")
        assert code == 2 and out == ""
        assert err == f"error: {text}\n"

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

    def test_one_sample_exit_1(self, capsys):
        code, out, err = run(capsys, "boundary", "--region", "s13", "--samples", "1")
        assert code == 1 and out == ""
        assert err == "error: count must be at least 2\n"

    def test_samples_too_large_exit_1(self, tmp_path):
        # its rows alone would need 936 GB: refused before any allocation,
        # even under a 1 GB address-space limit
        out = tmp_path / "b.csv"
        done = run_limited(1 << 30, "boundary", "--region", "s13",
                           "--samples", "1000000000", "--out", str(out))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            "error: 1000000000 samples too large: the 6 pieces of s13 would need "
            "9.36e+11 bytes (156 a row), over the 4294967296-byte budget\n")
        assert not out.exists()


class TestConstruct:
    def test_multipartite(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, text, _ = run(capsys, "construct", "--family", "multipartite",
                            "--param", "a=0.333", "--param", "b=1",
                            "--n", "999", "--out", str(out))
        assert code == 0
        summary = json.loads((tmp_path / "g.edges.summary.json").read_text())
        assert summary["max_deviation"] <= 0.01
        assert summary["version"] == triprofile.__version__
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

    @pytest.mark.parametrize("command", ["construct", "sweep"])
    def test_complemented_must_be_0_or_1(self, capsys, tmp_path, command):
        argv = {"construct": ["--param", "a=0.5", "--param", "complemented=0.3",
                              "--n", "50", "--out", str(tmp_path / "x.edges")],
                "sweep": ["--param-grid", "a=0.5", "--param-grid", "complemented=0.3",
                          "--n-list", "50"]}[command]
        code, out, err = run(capsys, command, "--family", "clique-isolated", *argv)
        assert code == 1 and out == ""
        assert err == ("error: clique-isolated parameter complemented must be 0 or 1"
                       " (got 0.3)\n")
        assert not (tmp_path / "x.edges").exists()

    @pytest.mark.parametrize("command", ["construct", "sweep"])
    @pytest.mark.parametrize("x", ["0.03", "0.2"])
    def test_negative_seed_exit_1(self, capsys, tmp_path, command, x):
        # refused for the seeded regime and for the deterministic one alike
        argv = {"construct": ["--param", f"x={x}", "--n", "100", "--seed", "-5",
                              "--out", str(tmp_path / "x.edges")],
                "sweep": ["--param-grid", f"x={x}", "--n-list", "100",
                          "--seeds", "-5"]}[command]
        code, out, err = run(capsys, command, "--family", "g0", *argv)
        assert code == 1 and out == ""
        assert err == "error: seed must be nonnegative (got -5)\n"
        assert not (tmp_path / "x.edges").exists()

    def test_structure_too_large_exit_1(self, tmp_path):
        # g0 x=0.2 at n=200000 has 8 711 188 587 edges, exact from its part
        # sizes; it is refused before any allocation, even under a 1 GB
        # address-space limit
        out = tmp_path / "x.edges"
        done = run_limited(1 << 30, "construct", "--family", "g0", "--param", "x=0.2",
                           "--n", "200000", "--out", str(out))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            "error: graph too large to build: n=200000 has 8711188587 edges "
            "(7.32e+11 bytes at 84 an edge), over the 17179869184-byte budget\n")
        assert not out.exists()

    @pytest.mark.parametrize("param,text", [
        ("x", "--param expects key=value (got 'x')"),
        ("x=q", "parameter 'x' is not a number: 'q'"),
    ])
    def test_bad_param_exit_1(self, capsys, tmp_path, param, text):
        out = tmp_path / "x.edges"
        code, stdout, err = run(capsys, "construct", "--family", "g0", "--param", param,
                                "--n", "100", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {text}\n"
        assert not out.exists()

    def test_invalid_family_lists_ranges(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "--family", "g0",
                           "--param", "x=0.9", "--n", "100",
                           "--out", str(tmp_path / "x.edges"))
        assert code == 1
        assert "must lie in" in err


GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "perfbench" / "golden_sweep.json"


class TestSweep:
    @pytest.mark.parametrize("family,params", [
        ("g0", {"x": 0.03}), ("g2", {"a": 0.3, "p": 0.6}), ("s12", {"a": 0.5, "p": 0.3})])
    def test_seeded_rows_match_golden(self, capsys, family, params):
        # the finite columns of the seeded criterion-8 cases at n = 500, as the
        # benchmark's golden file holds them: a change to a seeded graph shows
        cases = [c for c in json.loads(GOLDEN_SWEEP.read_text(encoding="utf-8"))["cases"]
                 if c["family"] == family and c["params"] == params]
        assert len(cases) == 3
        grid = [a for k, v in params.items() for a in ("--param-grid", f"{k}={v!r}")]
        seeds = ",".join(str(c["seed"]) for c in cases)
        code, out, _ = run(capsys, "sweep", "--family", family, *grid,
                           "--n-list", "500", "--seeds", seeds)
        assert code == 0
        assert ([",".join(line.split(",")[:9]) for line in out.splitlines()[1:]]
                == [c["rows"][0] for c in cases])

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

    @pytest.mark.parametrize("argv,text", [
        (["--param-grid", "x"], "--param-grid expects key=v1,v2,... (got 'x')"),
        (["--param-grid", "x=a"], "grid for 'x' is not a list of numbers: 'a'"),
        (["--param-grid", "x="], "grid for 'x' must name at least one value"),
        ([], "at least one --param-grid is required"),
        (["--param-grid", "x=0.1", "--n-list", "5x"],
         "--n-list is not a list of integers: '5x'"),
        (["--param-grid", "x=0.1", "--seeds", ","], "--seeds must name at least one value"),
    ])
    def test_bad_lists_exit_1(self, capsys, argv, text):
        # a later --n-list replaces the default one
        code, out, err = run(capsys, "sweep", "--family", "g0", "--n-list", "50", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {text}\n"

    def test_sampled_graph_too_large_exit_1(self):
        # above the bitset cap a sampled census draws a graph: n=50000 at
        # density 0.54 would take about 56 GB, refused before any draw even
        # under a 3 GB address-space limit
        start = time.perf_counter()
        done = run_limited(3 << 30, "sweep", "--family", "g2", "--param-grid", "a=0.3",
                           "--param-grid", "p=0.6", "--n-list", "50000")
        assert time.perf_counter() - start < 10
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            "error: sampled graph too large to draw: n=50000 would have about "
            "6.73e+08 edges (5.65e+10 bytes at 84 an edge), over the "
            "17179869184-byte budget\n")


class TestParserReuse:
    """main builds its parser once per process; each call must parse afresh."""

    MEMBER = ("member", "--region", "s13", "--x", "0.4", "--y", "0.01")

    def test_repeated_sweep_same_bytes(self, capsys):
        argv = ("sweep", "--family", "g2", "--param-grid", "a=0.3",
                "--param-grid", "p=0.6", "--n-list", "500", "--seeds", "1")
        first = run(capsys, *argv)
        assert first[0] == 0 and first[1].count("\n") == 2
        assert run(capsys, *argv) == first

    def test_construct_params_do_not_carry_over(self, capsys, tmp_path):
        argv = ("construct", "--family", "g2", "--param", "a=0.3", "--param", "p=0.6",
                "--n", "300", "--seed", "1", "--out")
        first, again = tmp_path / "first.edges", tmp_path / "again.edges"
        cli.build_parser.cache_clear()
        assert run(capsys, *argv, str(first))[0] == 0
        # g1 takes a and x, g2 takes a and p: a carried-over --param is refused
        assert run(capsys, "construct", "--family", "g1", "--param", "a=0.5",
                   "--param", "x=0.1", "--n", "200", "--out",
                   str(tmp_path / "other.edges"))[0] == 0
        assert run(capsys, *argv, str(again))[0] == 0
        assert again.read_bytes() == first.read_bytes()
        assert (tmp_path / "again.edges.summary.json").read_bytes() == \
            (tmp_path / "first.edges.summary.json").read_bytes()

    @pytest.mark.parametrize("bad", [("member", "--region", "s13", "--x", "nope", "--y", "0"),
                                     ("member", "--x", "0.4"),
                                     ("no-such-command",)])
    def test_usage_error_then_valid_call(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, *self.MEMBER)
        assert code == 0 and err == ""
        assert out == ("verdict: inside\nslack: 0.0050000000000000044\n"
                       "binding: d1<=s13_upper(d3):linear\n")

    def test_handler_found_by_name_at_call_time(self, capsys, monkeypatch):
        assert run(capsys, *self.MEMBER)[0] == 0
        seen = []

        def stub(args):
            seen.append((args.region, args.x, args.y))
            return 7

        monkeypatch.setattr(cli, "cmd_member", stub)
        assert run(capsys, *self.MEMBER) == (7, "", "")
        assert seen == [("s13", 0.4, 0.01)]


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

    def test_grid_too_large_exit_1(self):
        # one int64 array over its index square would need 18.6 GiB: refused
        # before any allocation, even under a 2 GB address-space limit
        done = run_limited(2_000_000 * 1024, "optimize", "--alpha", "2.2",
                           "--grid", "100000")
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            "error: grid 100000 too large: its scan would need 8.25e+10 bytes "
            "(33 a point), over the 4294967296-byte budget\n")

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_refine_tol_flag_gone_exit_2(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--alpha", "2.2", "--refine-tol", tol])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: --refine-tol {tol}" in err


class TestVerify:
    def test_census_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census")
        assert code == 0
        assert "FAIL" not in out
        assert "oracle equivalence" in out
        assert "PASS graphon fast = brute" in out

    def test_optimizer_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "optimizer")
        assert code == 0
        assert "FAIL" not in out
        # every check line ends with its elapsed seconds
        assert all(re.search(r" \(\d+\.\d\d s\)$", ln) for ln in out.splitlines())

    def test_boundary_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "boundary")
        assert code == 0
        assert "breakpoints" in out

    def test_constructions_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "constructions")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS every boundary piece attained by its family" in out
        assert "PASS finite realizations near their limits at n=400" in out

    @staticmethod
    def stub_suites(monkeypatch, failing=()):
        # each suite returns two results named after it and runs no check
        for suite in verify.SUITES:
            results = [verify.CheckResult(f"{suite} {k}", f"{suite} {k}" not in failing,
                                          "stub", {}, 0.0) for k in (1, 2)]
            monkeypatch.setitem(verify.SUITES, suite, lambda results=results: results)

    def test_all_runs_every_suite_in_order(self, monkeypatch):
        self.stub_suites(monkeypatch)
        assert [r.name for r in verify.run_suite("all")] == [
            f"{suite} {k}" for suite in ("census", "boundary", "constructions", "optimizer")
            for k in (1, 2)]

    def test_failure_exit_1(self, capsys, monkeypatch):
        self.stub_suites(monkeypatch, failing=("boundary 2", "optimizer 1"))
        code, out, err = run(capsys, "verify", "--suite", "all")
        assert code == 1
        lines = out.splitlines()
        assert lines[3] == "FAIL boundary 2: stub (0.00 s)"
        assert lines[6] == "FAIL optimizer 1: stub (0.00 s)"
        assert sum(ln.startswith("PASS ") for ln in lines) == 6
        assert err == "first failing invariant: boundary 2\n"

    def test_other_subcommands_do_not_load_the_checks(self):
        src = os.path.dirname(os.path.dirname(triprofile.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, triprofile.cli; print('triprofile.verify' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"
