"""Acceptance gate: the package's end-to-end criteria at fixed tolerances.

Criteria 1-8 run the invariant checks of ``triprofile.verify`` at full scale
(``triprofile verify`` runs the same functions at desk scale).  Each
criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Criterion 5 separates the flagged optimum from every other
stationary candidate: by at least 1e-6 in general, and, for the two
candidates of value (9-a)/16 that merge with the optimum at alpha = 1+sqrt(2),
by exactly -(a^2-2a-1)^3 / (144(a-1)) (about 8.3e-9 at alpha = 2.41),
evaluated in ``Fraction``.
"""
import json

import triprofile as tp
from triprofile import verify
from triprofile.cli import main as cli_main


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' | ' + detail if detail else ''}")
    return ok


def criterion(name, checks, detail, max_seconds=None):
    """Report a criterion made of verify checks; assert that each passed and,
    when max_seconds is given, that together they took no longer."""
    failures = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    seconds = sum(c.seconds for c in checks)
    if max_seconds is not None and seconds > max_seconds:
        failures.append(f"runtime {seconds:.0f}s > {max_seconds}s")
    report(name, not failures, "; ".join([detail] + failures))
    assert not failures, " | ".join(failures)


def test_criterion_1_census_oracle_equivalence():
    oracle = verify.census_oracle(12345, 1000)
    criterion("1 census oracle equivalence", [oracle],
              f"{oracle.values['graphs']} graphs, {oracle.seconds:.1f}s",
              max_seconds=30)


def test_criterion_2_closed_form_cross_checks():
    linked, three = (verify.linked_cliques_closed_form(50, 1e-12),
                     verify.three_cliques_closed_form(50))
    checks = [linked, three, verify.g1_g2_closed_forms(20),
              verify.s12_closed_form(20), verify.isolated_mass_scaling(10)]
    anchors = linked.values["anchors"] and three.values["anchors"]
    criterion("2 closed-form cross-checks", checks,
              f"max |error| {max(c.values['error'] for c in checks):.2e}, "
              f"anchors {'ok' if anchors else 'BAD'}, "
              f"linked cliques via g0 {linked.values['g0_error']:.2e}")


def test_criterion_3_edge_triangle_envelope_suite():
    checks = [verify.envelope_closed_form(1000), verify.envelope_breakpoints(),
              verify.envelope_round_trip(500), verify.min_triangle_attainment(50)]
    closed, jump, round_trip, attain = (c.values for c in checks)
    criterion("3 edge-triangle envelope suite", checks,
              f"closed-form {closed['error']:.2e}, jump {jump['jump']:.2e}, "
              f"round-trip {round_trip['error']:.2e}, "
              f"attainment {attain['error']:.2e}")


def test_criterion_4_s13_boundary_attainment():
    pieces = verify.piece_attainment(100, (tp.Region.S13,))
    junctions = verify.s13_junctions()
    criterion("4 S13 boundary attainment", [pieces, junctions],
              f"max |slack| {pieces.values['slack']:.2e}, "
              f"junction jump {junctions.values['jump']:.2e}, "
              f"pieces {pieces.values['pieces']}, "
              f"junction values {junctions.values['value_error']:.2e}")


def test_criterion_5_clique_structure_maximization():
    alphas = (2.05, 2.1, 2.2, 2.3, 2.41)
    checks = [verify.grid_oracle(alphas, 400), verify.dual_forms(alphas),
              verify.candidate_margins(alphas),
              verify.random_feasible_points(777, alphas, 100000)]
    grid, forms, cands, points = (c.values for c in checks)
    criterion("5 clique-structure maximization", checks,
              f"grid gap {grid['gap']:.2e}; dual forms {forms['error']:.2e}; "
              f"min candidate margin {cands['margin']:.2e} (1e-6 floor); "
              f"(9-a)/16 pair gap at alpha={alphas[-1]} {cands['pair_gap']:.3e}, "
              f"off the exact gap by {cands['pair_error']:.1e}; "
              f"max excess over maximum {points['excess']:.2e}; "
              f"flagged optimum off the maximum by {cands['optimum_error']:.1e}; "
              f"{sum(c.seconds for c in checks):.1f}s",
              max_seconds=120)


def test_criterion_6_membership_soundness():
    graphons, graphs = verify.membership_soundness(2024, 10000, 200)
    criterion("6 membership soundness", [graphons, graphs],
              f"graphon min slack {graphons.values['slack']:.2e}, "
              f"graph min slack {graphs.values['slack']:.2e}")


def test_criterion_7_limit_inequalities():
    identities = verify.graphon_identities(31415, 2000)
    inequalities = verify.limit_inequalities(31415, 2000)
    criterion("7 exact limit inequalities", [identities, inequalities],
              f"identity error {identities.values['identity']:.2e}, "
              f"min slack {inequalities.values['slack']:.2e} "
              f"({inequalities.values['tangent_lines']} tangent lines included), "
              f"complement error {identities.values['complement']:.2e}")


CONVERGENCE_CASES = [
    ("g0", {"x": 0.03}, (1, 2, 3)),
    ("g0", {"x": 0.2}, (0,)),
    ("g0", {"x": -0.1}, (0,)),
    ("g0", {"x": 0.08}, (0,)),
    ("g1", {"a": 0.3, "x": 0.2}, (0,)),
    ("g2", {"a": 0.3, "p": 0.6}, (1, 2, 3)),
    ("s12", {"a": 0.5, "p": 0.3}, (1, 2, 5)),
    ("multipartite", {"a": 0.29, "b": 0.8}, (0,)),
    ("min-triangle", {"de": 0.6}, (0,)),
    ("clique-isolated", {"a": 0.57, "complemented": 0}, (0,)),
]


def test_criterion_8_finite_convergence():
    conv = verify.finite_convergence(CONVERGENCE_CASES, (500, 1000, 2000),
                                     {500: 0.05, 2000: 0.02})
    worst = conv.values["worst"]
    criterion("8 finite-size convergence", [conv],
              f"max dev {worst[500]:.4f}@500 / {worst[2000]:.4f}@2000, "
              f"nonincreasing={conv.values['nonincreasing']}, {conv.seconds:.1f}s",
              max_seconds=120)


class TestCriterion9CLI:
    """Every stated subcommand example, its output and its exit code."""

    def run(self, capsys, *argv):
        code = cli_main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_cli_contract(self, capsys, tmp_path):
        checks = []

        def check(name, cond):
            checks.append((name, bool(cond)))

        # census of a five-cycle
        c5 = tmp_path / "c5.edges"
        c5.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, out, _ = self.run(capsys, "census", str(c5))
        check("census c5", code == 0 and "densities: 0,0.5,0.5,0" in out
              and "outside" not in out)

        # census of the two-equal-cliques graphon
        wb = tmp_path / "w.json"
        wb.write_text('{"sizes": [0.5, 0.5], "probs": [[1, 0], [0, 1]]}')
        code, out, _ = self.run(capsys, "census", str(wb), "--graphon")
        s13 = [ln for ln in out.splitlines() if ln.startswith("s13:")][0]
        check("census graphon", code == 0 and "boundary" in s13
              and "unit-sum" in s13)

        # malformed line rejected with its number
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n3 3\n")
        code, _, err = self.run(capsys, "census", str(bad))
        check("census self-loop", code == 2 and "line 2" in err)

        # boundary CSV with the three junctions within grid spacing
        bcsv = tmp_path / "b.csv"
        code, _, _ = self.run(capsys, "boundary", "--region", "s13",
                              "--samples", "1000", "--out", str(bcsv))
        lines = bcsv.read_text().splitlines()
        params = [float(ln.split(",")[0]) for ln in lines[1:]]
        spacing = 1.0 / 999
        check("boundary s13", code == 0 and lines[0] == "param,x,y,branch"
              and all(min(abs(p - j) for p in params) <= spacing
                      for j in (1 / 16, 1 / 9, 0.25)))

        code, out, _ = self.run(capsys, "boundary", "--region", "s12",
                                "--samples", "4")
        branches = {ln.rsplit(",", 1)[1] for ln in out.splitlines()[1:]}
        check("boundary s12 triangle",
              code == 0 and branches == {"d1=0", "d2=0", "d1+d2=3/4"})

        code, out, _ = self.run(capsys, "boundary", "--region", "s23",
                                "--samples", "4")
        rows = [ln.split(",") for ln in out.splitlines()[1:] if "curve" in ln]
        check("boundary s23 endpoints", code == 0
              and abs(float(rows[0][1]) - 0.75) <= 1e-9
              and abs(float(rows[-1][2]) - 1.0) <= 1e-9)

        code, _, _ = self.run(capsys, "boundary", "--region", "nope",
                              "--samples", "4")
        check("boundary unknown region", code == 1)

        # member verdicts
        code, out, _ = self.run(capsys, "member", "--region", "s12",
                                "--x", "0.5", "--y", "0.3")
        slack = float(out.splitlines()[1].split(":")[1])
        check("member outside", code == 0 and "outside" in out
              and abs(slack + 0.05) <= 1e-12)
        code, out, _ = self.run(capsys, "member", "--region", "s03",
                                "--x", "0.125", "--y", "0.125")
        check("member goodman", code == 0 and "boundary" in out
              and "goodman" in out)
        code, out, _ = self.run(capsys, "member", "--region", "s13",
                                "--x", "0.4", "--y", "0.01")
        slack = float(out.splitlines()[1].split(":")[1])
        check("member inside", code == 0 and "inside" in out
              and abs(slack - 0.005) <= 1e-12)

        # constructions
        out_path = tmp_path / "g0.edges"
        code, out, _ = self.run(capsys, "construct", "--family", "g0",
                                "--param", "x=0.2", "--n", "2000",
                                "--seed", "0", "--out", str(out_path))
        summary = json.loads((tmp_path / "g0.edges.summary.json").read_text())
        check("construct g0", code == 0 and summary["max_deviation"] <= 0.01)

        mp_path = tmp_path / "mp.edges"
        code, _, _ = self.run(capsys, "construct", "--family", "multipartite",
                              "--param", "a=0.333", "--param", "b=1",
                              "--n", "999", "--out", str(mp_path))
        d = tp.densities(tp.census_fast(tp.read_edge_list(mp_path)))
        v = tp.membership("s23", d.d2, d.d3, 0.01)
        check("construct multipartite", code == 0 and abs(v.slack) <= 0.01)

        g2_path = tmp_path / "g2.edges"
        code, _, _ = self.run(capsys, "construct", "--family", "g2",
                              "--param", "a=0", "--param", "p=1",
                              "--n", "100", "--out", str(g2_path))
        check("construct g2 empty", code == 0
              and tp.read_edge_list(g2_path).m == 0)

        code, _, err = self.run(capsys, "construct", "--family", "g0",
                                "--param", "x=9", "--n", "100",
                                "--out", str(tmp_path / "x.edges"))
        check("construct bad param", code == 1 and "must lie in" in err)

        # determinism: identical command, byte-identical output
        d1p, d2p = tmp_path / "d1.edges", tmp_path / "d2.edges"
        for pth in (d1p, d2p):
            self.run(capsys, "construct", "--family", "g2", "--param", "a=0.3",
                     "--param", "p=0.6", "--n", "300", "--seed", "5",
                     "--out", str(pth))
        check("construct deterministic", d1p.read_bytes() == d2p.read_bytes())

        # sweep: deviations decrease with n for each x
        code, out, _ = self.run(capsys, "sweep", "--family", "g0",
                                "--param-grid", "x=0.05,0.1,0.2",
                                "--n-list", "500,1000,2000", "--seeds", "1")
        by_param = {}
        for ln in out.splitlines()[1:]:
            cells = ln.split(",")
            by_param.setdefault(cells[1], []).append(float(cells[-1]))
        check("sweep decreasing", code == 0 and all(
            all(a >= b for a, b in zip(v, v[1:])) for v in by_param.values()))

        code, _, _ = self.run(capsys, "sweep", "--family", "g0",
                              "--param-grid", "x=0.1", "--n-list", "")
        check("sweep empty n-list", code == 1)

        # optimize
        code, out, _ = self.run(capsys, "optimize", "--alpha", "2.2")
        gap = abs(float([ln for ln in out.splitlines()
                         if ln.startswith("gap:")][0].split(":")[1]))
        check("optimize 2.2", code == 0 and gap <= 1e-6)
        code, _, _ = self.run(capsys, "optimize", "--alpha", "2.0")
        check("optimize rejects 2.0", code == 1)
        code, out, _ = self.run(capsys, "optimize", "--alpha", "2.41",
                                "--grid", "200")
        x_line = [ln for ln in out.splitlines() if ln.startswith("best_x")][0]
        xs = [float(v) for v in x_line.split(":")[1].split(",")]
        check("optimize 2.41 sigma near 1/4",
              code == 0 and abs(xs[0] - 0.251) <= 0.002
              and "corner x=(0,0,1)" in out and "x2=x3=1/2" in out)

        # verify suites
        for suite in ("census", "boundary", "optimizer"):
            code, out, _ = self.run(capsys, "verify", "--suite", suite)
            check(f"verify {suite}", code == 0 and "FAIL" not in out)

        failed = [name for name, ok in checks if not ok]
        with capsys.disabled():
            report("9 CLI contract", not failed,
                   f"{len(checks)} checks" + (f"; failed: {failed}" if failed else ""))
        assert not failed, failed
