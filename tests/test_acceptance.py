"""Acceptance gate: the package's end-to-end criteria at fixed tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Criterion 5 separates the flagged optimum from every other
stationary candidate: by at least 1e-6 in general, and, for the two
candidates of value (9-a)/16 that merge with the optimum at alpha = 1+sqrt(2),
by exactly -(a^2-2a-1)^3 / (144(a-1)) (about 8.3e-9 at alpha = 2.41),
evaluated in ``Fraction``.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import triprofile as tp
from triprofile.cli import main as cli_main


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' | ' + detail if detail else ''}")
    return ok


def max_dev(d, lim):
    return max(abs(u - v) for u, v in
               zip(d.profile + (d.d_e,), lim.profile + (lim.d_e,)))


def random_graphon(rng, max_blocks=4):
    b = int(rng.integers(1, max_blocks + 1))
    raw = rng.random(b) + 0.05
    sizes = raw / raw.sum()
    sizes[-1] = 1.0 - float(sizes[:-1].sum())
    u = rng.random((b, b))
    return tp.StepGraphon(sizes, np.triu(u) + np.triu(u, 1).T)


def region_slacks(d, tol):
    coords = (("s03", d.d0, d.d3), ("s12", d.d1, d.d2),
              ("s13", d.d1, d.d3), ("s23", d.d2, d.d3))
    return {r: tp.membership(r, x, y, tol).slack for r, x, y in coords}


def test_criterion_1_census_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(12345)
    probs = [0.05, 0.3, 0.5, 0.8, 1.0]
    checked = 0
    for k in range(1000):
        n = int(rng.integers(3, 61))
        p = probs[k % len(probs)]
        g = tp.sample_w_random_graph(tp.StepGraphon([1.0], [[p]]), n,
                                     int(rng.integers(2 ** 31)))
        fast = tp.census_fast(g)
        brute = tp.census_brute(g)
        assert fast == brute, (n, p, fast.counts, brute.counts)
        checked += 1
    elapsed = time.time() - start
    ok = checked == 1000 and elapsed <= 30.0
    assert report("1 census oracle equivalence", ok,
                  f"{checked} graphs, {elapsed:.1f}s")


def _clique_structure(sizes):
    sizes = [s for s in sizes if s > 1e-15]
    return tp.StepGraphon(sizes, np.eye(len(sizes)))


def test_criterion_2_closed_form_cross_checks():
    tol = 1e-12
    worst = 0.0

    # linked-cliques family on a 50-point sigma grid
    for sg in np.linspace(0.25, 1 / 3, 50):
        sg = float(sg)
        delta = tp.linked_cliques_cross_density(sg)
        w = (1 - 2 * sg) / 2
        P = np.eye(4)
        P[0, 1] = P[1, 0] = delta
        d = tp.graphon_densities(tp.StepGraphon([w, w, sg, sg], P))
        c1, c3 = tp.linked_cliques_profile(sg)
        worst = max(worst, abs(d.d1 - c1), abs(d.d3 - c3))

    # three-cliques family on a 50-point sigma grid
    for sg in np.linspace(1 / 3, 0.5, 50):
        sg = float(sg)
        d = tp.graphon_densities(_clique_structure([sg, sg, 1 - 2 * sg]))
        c1, c3 = tp.three_cliques_profile(sg)
        worst = max(worst, abs(d.d1 - c1), abs(d.d3 - c3))

    # dominating-clique family: its displayed boundary values
    for a in np.linspace(0.0, 1.0, 40):
        a = float(a)
        d1, d3 = tp.g1_profile(a, 0.25)
        worst = max(worst, abs(d1 - 0.75 * (1 - a) ** 3),
                    abs(d3 - (1 - 0.75 * (1 + a) * (1 - a) ** 2)))
        d1, d3 = tp.g1_profile(a, -0.25)
        worst = max(worst, abs(d1), abs(d3 - (a ** 3 + 3 * a * a * (1 - a))))
    for x in np.linspace(-0.25, 0.25, 20):
        worst = max(worst, abs(tp.g1_profile(1.0, float(x))[0]),
                    abs(tp.g1_profile(1.0, float(x))[1] - 1.0))
    for x in np.linspace(-0.25, 0.0, 20):
        x = float(x)
        d1, d3 = tp.g1_profile(0.0, x)
        worst = max(worst,
                    abs(d1 - 24 * (0.25 + x) ** 2 * (0.25 - x)), abs(d3))

    # two-block overlay family: both displayed polynomials
    for a in np.linspace(0.0, 1.0, 20):
        for p in np.linspace(0.0, 1.0, 20):
            a, p = float(a), float(p)
            d1, d3 = tp.g2_profile(a, p)
            q = 1 - p
            cc = (3 * (1 - a) ** 3 * p * p * q
                  + 3 * a * (1 - a) ** 2 * (q ** 3 + 2 * p * p * q)
                  + 3 * a * a * (1 - a) * q * q)
            tr = ((1 - a) ** 3 * q ** 3 + 3 * a * (1 - a) ** 2 * p * p * q
                  + 3 * a * a * (1 - a) * p * p + a ** 3)
            worst = max(worst, abs(d1 - cc), abs(d3 - tr))

    # within/across two-block family on a 20x20 grid
    for a in np.linspace(0.0, 1.0, 20):
        for p in np.linspace(0.0, 1.0, 20):
            a, p = float(a), float(p)
            d = tp.graphon_densities(tp.s12_graphon(a, p))
            cc = 3 * p * (1 - p) ** 2 + 3 * a * (1 - a) * p * (2 * p - 1)
            cr = 3 * p * p * (1 - p) + 3 * a * (1 - a) * (1 - p) * (1 - 2 * p)
            worst = max(worst, abs(d.d1 - cc), abs(d.d2 - cr))

    # isolated-mass scaling of the multipartite family
    for a in (0.0, 0.17, 1 / 3, 0.5):
        full = tp.graphon_densities(tp.s23_graphon(a, 1.0))
        for b in np.linspace(0.1, 1.0, 10):
            b = float(b)
            part = tp.graphon_densities(tp.s23_graphon(a, b))
            worst = max(worst, abs(part.d2 - b ** 3 * full.d2),
                        abs(part.d3 - b ** 3 * full.d3))

    # anchors
    anchors_ok = (
        tp.linked_cliques_profile(0.25) == (9 / 16, 1 / 16)
        and abs(tp.linked_cliques_profile(1 / 3)[0] - 2 / 3) <= tol
        and abs(tp.linked_cliques_profile(1 / 3)[1] - 1 / 9) <= tol
        and abs(tp.three_cliques_profile(1 / 3)[0] - 2 / 3) <= tol
        and abs(tp.three_cliques_profile(1 / 3)[1] - 1 / 9) <= tol
        and tp.three_cliques_profile(0.5) == (0.75, 0.25)
    )

    ok = worst <= tol and anchors_ok
    assert report("2 closed-form cross-checks", ok,
                  f"max |error| {worst:.2e}, anchors {'ok' if anchors_ok else 'BAD'}")


def test_criterion_3_edge_triangle_envelope_suite():
    worst_g3 = 0.0
    for de in np.linspace(0.5, 2 / 3, 1000):
        de = float(de)
        s = math.sqrt(4 - 6 * de)
        worst_g3 = max(worst_g3, abs(tp.min_triangle_density(de)
                                     - (1 - s) * (2 + s) ** 2 / 18))

    worst_jump = 0.0
    for k in range(2, 11):
        b = 1 - 1 / k
        worst_jump = max(worst_jump, abs(tp.min_triangle_density(b - 1e-8)
                                         - tp.min_triangle_density(b + 1e-8)))

    worst_rt = 0.0
    for t in np.linspace(0.0, 1.0, 500):
        t = float(t)
        worst_rt = max(worst_rt, abs(
            tp.min_triangle_density(tp.min_triangle_density_inverse(t)) - t))

    worst_attain = 0.0
    for de in np.linspace(0.5, 0.95, 50):
        de = float(de)
        d = tp.graphon_densities(tp.min_triangle_graphon(de))
        worst_attain = max(worst_attain, abs(d.d_e - de),
                           abs(d.d3 - tp.min_triangle_density(de)))

    ok = (worst_g3 <= 1e-12 and worst_jump <= 1e-6 and worst_rt <= 1e-9
          and worst_attain <= 1e-9)
    assert report("3 edge-triangle envelope suite", ok,
                  f"closed-form {worst_g3:.2e}, jump {worst_jump:.2e}, "
                  f"round-trip {worst_rt:.2e}, attainment {worst_attain:.2e}")


def test_criterion_4_s13_boundary_attainment():
    worst_slack = 0.0
    regimes = set()
    for x in np.linspace(0.0, 0.25, 100):
        x = float(x)
        d = tp.graphon_densities(tp.g0_graphon(x))
        v = tp.membership("s13", d.d1, d.d3, 1e-9)
        assert v.inside
        worst_slack = max(worst_slack, abs(v.slack))
        regimes.add(tp.s13_upper_piece(min(max(x, 0.0), 1.0)))
    covers = {"linear", "concave", "convex"} <= regimes

    worst_jump = 0.0
    for j in (1 / 16, 1 / 9, 0.25):
        worst_jump = max(worst_jump, abs(tp.s13_upper_bound(j - 1e-12)
                                         - tp.s13_upper_bound(j + 1e-12)))

    ok = worst_slack <= 1e-9 and covers and worst_jump <= 1e-9
    assert report("4 S13 boundary attainment", ok,
                  f"max |slack| {worst_slack:.2e}, junction jump {worst_jump:.2e}, "
                  f"regimes {sorted(regimes)}")


# the two candidates of value (9-a)/16, which merge with the optimum as
# alpha -> 1+sqrt(2)
MERGING_PAIR = ("one zero, x2=x3=1/2", "x1=x2=1/4, x3=1/2")


def merging_pair_gap(alpha):
    """closed_form_max(a) - (9-a)/16 = -(a^2-2a-1)^3 / (144(a-1)), exactly,
    at the float alpha itself."""
    a = Fraction(alpha)
    return -(a * a - 2 * a - 1) ** 3 / (144 * (a - 1))


def test_criterion_5_clique_structure_maximization():
    start = time.time()
    alphas = (2.05, 2.1, 2.2, 2.3, 2.41)
    failures = []
    details = []

    worst_gap = 0.0
    for a in alphas:
        res = tp.maximize_grid(a, grid=400, refine_tol=1e-10)
        worst_gap = max(worst_gap, abs(res.value - res.analytic_value))
    if worst_gap > 1e-6:
        failures.append(f"grid-vs-closed gap {worst_gap:.2e} > 1e-6")
    details.append(f"grid gap {worst_gap:.2e}")

    worst_forms = 0.0
    for a in alphas:
        v = tp.closed_form_max(a)
        sg = tp.optimal_sigma(a)
        d1, d3 = tp.linked_cliques_profile(sg)
        worst_forms = max(worst_forms, abs(v - (d1 - a * d3)))
    if worst_forms > 1e-12:
        failures.append(f"printed forms disagree by {worst_forms:.2e}")
    details.append(f"dual forms {worst_forms:.2e}")

    # every non-optimal candidate lies at least 1e-6 below the maximum,
    # except the (9-a)/16 pair, whose gap must equal its exact value
    worst_margin = math.inf
    margin_where = ""
    worst_pair_err = 0.0
    for a in alphas:
        m = tp.closed_form_max(a)
        pair_seen = set()
        for cand in tp.analytic_candidates(a):
            if cand.attains_max:
                continue
            margin = m - cand.value
            if cand.label in MERGING_PAIR:
                pair_seen.add(cand.label)
                exact = merging_pair_gap(a)
                err = abs(margin - float(exact))
                worst_pair_err = max(worst_pair_err, err)
                if not (margin > 0 and err <= 1e-12):
                    failures.append(
                        f"candidate margin {margin:.17g} at [alpha={a}, "
                        f"{cand.label}]: the exact gap -(a^2-2a-1)^3/(144(a-1)) "
                        f"there is {float(exact):.17g}")
            elif margin < worst_margin:
                worst_margin = margin
                margin_where = f"alpha={a}, {cand.label}"
        if pair_seen != set(MERGING_PAIR):
            failures.append(f"alpha={a}: missing candidates "
                            f"{sorted(set(MERGING_PAIR) - pair_seen)}")
    if not worst_margin >= 1e-6:
        failures.append(f"candidate margin {worst_margin:.3e} < 1e-6 "
                        f"at [{margin_where}]")
    details.append(f"min candidate margin {worst_margin:.2e} (1e-6 floor); "
                   f"(9-a)/16 pair gap at alpha={alphas[-1]} "
                   f"{float(merging_pair_gap(alphas[-1])):.3e}, "
                   f"off the exact gap by {worst_pair_err:.1e}")

    worst_over = -math.inf
    rng = np.random.default_rng(777)
    for a in alphas:
        m = tp.closed_form_max(a)
        xs = rng.dirichlet([1.0, 1.0, 1.0], size=100000)
        ys = 0.5 + 0.5 * rng.random((100000, 3))
        vals = np.sum(xs ** 3 * (3 - a - 3 * (3 - a) * ys
                                 - 3 * (a - 1) * ys ** 2) + 3 * xs ** 2 * ys,
                      axis=1)
        worst_over = max(worst_over, float(vals.max()) - m)
    if worst_over > 1e-9:
        failures.append(f"random point beats the maximum by {worst_over:.2e}")
    details.append(f"max excess over maximum {worst_over:.2e}")

    elapsed = time.time() - start
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.0f}s > 120s")
    details.append(f"{elapsed:.1f}s")

    ok = not failures
    report("5 clique-structure maximization", ok,
           "; ".join(details + failures))
    assert ok, " | ".join(failures)


def test_criterion_6_membership_soundness():
    rng = np.random.default_rng(2024)
    worst_graphon = math.inf
    for _ in range(10000):
        d = tp.graphon_densities(random_graphon(rng))
        worst_graphon = min(worst_graphon, min(region_slacks(d, 1e-9).values()))

    worst_graph = math.inf
    n = 200
    for k in range(200):
        p = 0.05 + 0.9 * (k % 20) / 19
        g = tp.sample_w_random_graph(tp.StepGraphon([1.0], [[p]]), n,
                                     int(rng.integers(2 ** 31)))
        d = tp.densities(tp.census_fast(g))
        worst_graph = min(worst_graph, min(region_slacks(d, 10 / n).values()))

    ok = worst_graphon >= -1e-9 and worst_graph >= -10.0 / n
    assert report("6 membership soundness", ok,
                  f"graphon min slack {worst_graphon:.2e}, "
                  f"graph min slack {worst_graph:.2e}")


def test_criterion_7_limit_inequalities():
    rng = np.random.default_rng(31415)
    xs = np.linspace(1 / 16, 1 / 9, 22)[1:-1]
    lines = [(tp.s13_upper_slope(float(x)),
              tp.s13_upper_bound(float(x)) - tp.s13_upper_slope(float(x)) * float(x))
             for x in xs]
    worst = math.inf
    worst_eq = 0.0
    for _ in range(2000):
        d = tp.graphon_densities(random_graphon(rng))
        worst_eq = max(worst_eq, abs(sum(d.profile) - 1.0))
        worst_eq = max(worst_eq, abs(d.d_e - (d.d1 + 2 * d.d2 + 3 * d.d3) / 3))
        worst = min(worst, d.d3 - d.d_e * (2 * d.d_e - 1))
        worst = min(worst, 3 * d.d3 + 0.375 - d.d1)
        for slope, intercept in lines:
            worst = min(worst, intercept - (d.d1 - slope * d.d3))
    ok = worst >= -1e-12 and worst_eq <= 1e-12
    assert report("7 exact limit inequalities", ok,
                  f"identity error {worst_eq:.2e}, min slack {worst:.2e} "
                  f"(20 tangent lines included)")


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
    start = time.time()
    sizes = (500, 1000, 2000)
    worst500 = worst2000 = 0.0
    mono_ok = True
    for family, params, seeds in CONVERGENCE_CASES:
        lim = tp.graphon_densities(tp.limit_graphon(tp.FamilySpec(family, params)))
        for seed in seeds:
            devs = []
            for n in sizes:
                spec = tp.FamilySpec(family, params, n=n, seed=seed)
                d = tp.densities(tp.census_fast(tp.realize(spec)))
                devs.append(max_dev(d, lim))
            worst500 = max(worst500, devs[0])
            worst2000 = max(worst2000, devs[-1])
            if not all(a >= b for a, b in zip(devs, devs[1:])):
                mono_ok = False
    elapsed = time.time() - start
    ok = worst500 <= 0.05 and worst2000 <= 0.02 and mono_ok and elapsed <= 120
    assert report("8 finite-size convergence", ok,
                  f"max dev {worst500:.4f}@500 / {worst2000:.4f}@2000, "
                  f"nonincreasing={mono_ok}, {elapsed:.1f}s")


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
