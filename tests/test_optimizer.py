import logging

import numpy as np
import pytest

from triprofile import (DomainError, analytic_candidates, closed_form_max,
                        linked_cliques_profile, maximize_grid, objective,
                        optimal_sigma, s13_upper_bound, s13_upper_slope,
                        stationarity_residual, stationary_y)
from triprofile import boundary, optimizer, verify
from triprofile.optimizer import ALPHA_HI, FeasiblePoint, _term, _term_slopes

ALPHAS = (2.05, 2.1, 2.2, 2.3, 2.41)


class TestObjective:
    def test_single_clique(self):
        for a in ALPHAS:
            assert abs(objective((1, 0, 0), (1, 1, 1), a) + a) <= 1e-14

    def test_single_component_half_degree(self):
        for a in ALPHAS:
            v = objective((1, 0, 0), (0.5, 1, 1), a)
            assert abs(v - (3 - a) / 4) <= 1e-14

    def test_two_halves(self):
        for a in ALPHAS:
            v = objective((0, 0.5, 0.5), (1, 0.5, 0.5), a)
            assert abs(v - (9 - a) / 16) <= 1e-14

    def test_matches_profile_difference(self):
        # x=(1,0,0), y1=1 is the complete graphon: d1 - a*d3 = -a
        assert objective((1, 0, 0), (1, 1, 1), 2.2) == pytest.approx(-2.2)


class TestStationaryY:
    def test_branch_continuity(self):
        for a in ALPHAS:
            lo = 1.0 / (a + 1.0)
            assert stationary_y(lo, a) == 1.0
            assert abs(stationary_y(lo + 1e-12, a) - 1.0) <= 1e-9
            assert stationary_y(0.5, a) == 0.5
            assert abs(stationary_y(0.5 - 1e-12, a) - 0.5) <= 1e-9

    def test_zero_mass(self):
        assert stationary_y(0.0, 2.2) == 1.0

    def test_partial_derivative_vanishes(self):
        a = 2.2
        xj = 0.35
        y = stationary_y(xj, a)
        assert 0.5 < y < 1.0
        grad = xj ** 3 * (-3 * (3 - a) - 6 * (a - 1) * y) + 3 * xj ** 2
        assert abs(grad) <= 1e-12


class TestClosedForm:
    def test_two_printed_forms_agree(self):
        for a in (2.05, 2.2, 2.41):
            v = closed_form_max(a)
            sg = optimal_sigma(a)
            d1, d3 = linked_cliques_profile(sg)
            assert abs(v - (d1 - a * d3)) <= 1e-12

    def test_dual_forms_reports_a_mismatch(self, monkeypatch):
        # verify.dual_forms is the one check of the closed form against the
        # linked-cliques profile; a wrong profile fails it and raises nowhere
        profile = boundary.linked_cliques_profile

        def shifted(sigma):
            d1, d3 = profile(sigma)
            return d1 + 1e-9, d3

        monkeypatch.setattr(boundary, "linked_cliques_profile", shifted)
        res = verify.dual_forms((2.2,))
        assert not res.passed
        assert res.detail == "max error 1.00e-09"

    def test_limit_at_left_endpoint(self):
        # as a -> 2+ the maximum tends to the tangent intercept at x = 1/9
        v = closed_form_max(2.0 + 1e-9)
        assert abs(v - (2 / 3 - 2 / 9)) <= 1e-6

    def test_limit_at_right_endpoint(self):
        # as a -> 1+sqrt(2) the optimum merges with the x=(1/4,1/4,1/2) point
        a = ALPHA_HI - 1e-6
        assert abs(closed_form_max(a) - (9 - a) / 16) <= 1e-9

    def test_domain(self):
        for bad in (2.0, ALPHA_HI, 1.5, 3.0):
            with pytest.raises(DomainError):
                closed_form_max(bad)

    def test_tangent_line_consistency(self):
        for x in (0.07, 0.08, 0.09, 0.1, 0.105):
            a = s13_upper_slope(x)
            want = s13_upper_bound(x) - a * x
            assert abs(closed_form_max(a) - want) <= 1e-9


class TestCandidates:
    def test_optimum_value_matches(self):
        for a in ALPHAS:
            cands = analytic_candidates(a)
            opt = [c for c in cands if c.label.startswith("interior optimum")]
            assert len(opt) == 1
            assert abs(opt[0].value - closed_form_max(a)) <= 1e-12
            sg = optimal_sigma(a)
            assert opt[0].point.x == (sg, sg, 1 - 2 * sg)
            assert opt[0].point.strictly_feasible

    def test_relaxed_twin_matches_max(self):
        for a in ALPHAS:
            twin = [c for c in analytic_candidates(a)
                    if "relaxed boundary" in c.label][0]
            assert twin.attains_max
            assert abs(twin.value - closed_form_max(a)) <= 1e-12
            assert not twin.point.strictly_feasible  # y3 = 1/2

    def test_non_optimal_below_max(self):
        for a in ALPHAS:
            m = closed_form_max(a)
            for c in analytic_candidates(a):
                if not c.attains_max:
                    assert c.value < m, (a, c.label)

    def test_margin_at_interior_alphas(self):
        for a in (2.05, 2.1, 2.2, 2.3):
            m = closed_form_max(a)
            for c in analytic_candidates(a):
                if not c.attains_max:
                    assert c.value <= m - 1e-6, (a, c.label)

    def test_infeasible_radical_branch_dropped(self):
        for a in ALPHAS:
            labels = [c.label for c in analytic_candidates(a)]
            assert not any("x3<1/2 (branch -)" in lab for lab in labels)
            assert any("x3<1/2 (branch +)" in lab for lab in labels)

    @pytest.mark.parametrize("a", [2.05, 2.2, 2.41])
    def test_drop_logged(self, caplog, a):
        # the one DEBUG record per call that perfbench counts as a dropped
        # candidate, e.g. "... alpha=2.2 (x1=0.164062, x3=0.523438)"
        caplog.set_level(logging.DEBUG, logger="triprofile.optimizer")
        analytic_candidates(a)
        (rec,) = [r for r in caplog.records if r.name == "triprofile.optimizer"]
        assert rec.msg.startswith("dropping")
        assert rec.getMessage().startswith(
            f"dropping infeasible radical branch - at alpha={a:g} (x1=")

    def test_points_feasible(self):
        for a in ALPHAS:
            for c in analytic_candidates(a):
                assert abs(sum(c.point.x) - 1) <= 1e-12
                assert min(c.point.x) >= 0
                assert all(0.5 <= y <= 1.0 for y in c.point.y)


class TestMaximizeGrid:
    def test_agrees_with_closed_form(self):
        for a in (2.1, 2.3):
            res = maximize_grid(a, grid=300, refine_tol=1e-10)
            assert abs(res.value - res.analytic_value) <= 1e-6

    def test_maximizer_is_analytic_point(self):
        res = maximize_grid(2.2, grid=400, refine_tol=1e-10)
        sg = optimal_sigma(2.2)
        want = (sg, sg, 1 - 2 * sg)
        assert max(abs(u - v) for u, v in zip(res.best.x, want)) <= 1e-4
        assert res.best.strictly_feasible

    def test_outside_domain_rejected(self):
        for bad in (2.0, 2.5, ALPHA_HI):
            with pytest.raises(DomainError):
                maximize_grid(bad)
        with pytest.raises(DomainError):
            maximize_grid(2.2, grid=10)
        with pytest.raises(DomainError, match="^grid must be an integer"):
            maximize_grid(2.2, grid=400.5)

    def test_grid_budget(self, monkeypatch):
        # 33 bytes for each of the 26^2 index points of grid 50: scanned at a
        # budget of exactly that, refused one byte below
        monkeypatch.setattr(optimizer, "_GRID_MAX_BYTES", 33 * 26 ** 2)
        assert maximize_grid(2.2, grid=50).value > 0
        monkeypatch.setattr(optimizer, "_GRID_MAX_BYTES", 33 * 26 ** 2 - 1)
        with pytest.raises(DomainError, match="^grid 50 too large: its scan would need "
                                              "2.23e"):
            maximize_grid(2.2, grid=50)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_refine_tol_validated(self, tol):
        # refused before the scan; unchecked, the polish ran to its
        # iteration cap and raised RuntimeError
        with pytest.raises(DomainError, match="^refine_tol must be a nonnegative"):
            maximize_grid(2.2, refine_tol=tol)

    def test_residual_at_analytic_optimum(self):
        for a in ALPHAS:
            opt = [c for c in analytic_candidates(a)
                   if c.label.startswith("interior optimum")][0]
            assert stationarity_residual(opt.point, a) <= 1e-8

    def test_residual_at_analytic_optimum_is_round_off(self):
        # the closed-form partials vanish there exactly; central differences
        # of the objective read up to 3.7e-11
        for a in ALPHAS:
            opt = [c for c in analytic_candidates(a)
                   if c.label.startswith("interior optimum")][0]
            assert stationarity_residual(opt.point, a) <= 1e-14

    @staticmethod
    def _central_difference_residual(point, a, h=1e-6):
        x, y = point.x, point.y

        def partial(k):
            # dF by the k-th of (x1, x2, x3, y1, y2, y3)
            up, down = list(x + y), list(x + y)
            up[k] += h
            down[k] -= h
            return (objective(up[:3], up[3:], a) - objective(down[:3], down[3:], a)) / (2 * h)

        support = [j for j in range(3) if x[j] > 1e-12]
        grads = [partial(j) for j in support]
        lam = sum(grads) / len(grads)
        residual = max(abs(g - lam) for g in grads)
        for j in support:
            gy = partial(3 + j)
            if y[j] >= 1.0 - 1e-9:
                residual = max(residual, -gy)
            elif y[j] <= 0.5 + 1e-9:
                residual = max(residual, gy)
            else:
                residual = max(residual, abs(gy))
        return residual

    def test_residual_matches_central_differences(self):
        rng = np.random.default_rng(18)
        for kind in ("interior", "stationary", "pinned at 1", "pinned at 1/2"):
            for _ in range(500):
                a = float(rng.uniform(2.0 + 1e-6, ALPHA_HI - 1e-6))
                x = rng.dirichlet([1, 1, 1])
                if kind == "stationary":
                    y = [stationary_y(v, a) for v in x]
                else:
                    y = list(0.5 + 0.5 * rng.uniform(0.01, 0.99, 3))
                    if kind != "interior":
                        y[int(rng.integers(3))] = 1.0 if kind == "pinned at 1" else 0.5
                point = FeasiblePoint(x=tuple(map(float, x)), y=tuple(map(float, y)))
                ref = self._central_difference_residual(point, a)
                assert abs(stationarity_residual(point, a) - ref) <= 1e-8, (kind, point, a)

    def test_domination_20_point_alpha_grid(self):
        rng = np.random.default_rng(41)
        for a in np.linspace(2.0 + 1e-6, ALPHA_HI - 1e-6, 20):
            a = float(a)
            m = closed_form_max(a)
            xs = rng.dirichlet([1, 1, 1], size=100000)
            ys = 0.5 + 0.5 * rng.random((100000, 3))
            vals = np.sum(xs ** 3 * (3 - a - 3 * (3 - a) * ys
                                     - 3 * (a - 1) * ys ** 2)
                          + 3 * xs ** 2 * ys, axis=1)
            assert float(vals.max()) <= m + 1e-9

    def test_suboptimality_margin_where_attainable(self):
        # candidates merge with the maximum at both ends of the interval
        # (the radical pair near 2, the (9-a)/16 pair near 1+sqrt(2)), so
        # the 1e-6 margin only holds on an interior window; outside it
        # only strictness survives (covered by test_non_optimal_below_max)
        for a in np.linspace(2.02, 2.38, 20):
            a = float(a)
            m = closed_form_max(a)
            for c in analytic_candidates(a):
                if not c.attains_max:
                    assert c.value <= m - 1e-6, (a, c.label)

    def test_scalar_term_matches_vectorized(self):
        # _term against the term and stationary_y's rule written out on
        # arrays, including at the junctions 1/(a+1) and 1/2 and at
        # round-off negatives, which take y = 1 (numpy's power may differ
        # from libm's in the last bit)
        for a in ALPHAS:
            xs = np.concatenate([[0.0, 1.0 / (a + 1.0), 0.5, -1e-17],
                                 np.linspace(0.0, 1.0, 4001)])
            with np.errstate(divide="ignore"):
                interior = (1.0 / xs - (3.0 - a)) / (2.0 * (a - 1.0))
            ys = np.where(xs <= 1.0 / (a + 1.0), 1.0,
                          np.where(xs >= 0.5, 0.5, interior))
            want = (xs ** 3 * (3 - a - 3 * (3 - a) * ys - 3 * (a - 1) * ys ** 2)
                    + 3 * xs ** 2 * ys)
            got = np.array([_term(float(x), a) for x in xs])
            assert np.max(np.abs(got - want)) <= 4e-16

    def test_slopes_match_central_differences(self):
        # the polish's Newton steps use _term_slopes; check both derivatives
        # against central differences of _term over [0, 1/2] and just either
        # side of the junctions, where the second derivative jumps
        for a in ALPHAS:
            junctions = (1.0 / (a + 1.0), 0.5)
            near = [j + s * d for j in junctions for s in (-1, 1)
                    for d in (1e-3, 3e-4)]
            for x in list(np.linspace(0.0, 0.5, 1001)) + near:
                x = float(x)
                first, second = _term_slopes(x, a)
                gap = min(abs(x - j) for j in junctions)
                h = 1e-6
                if gap >= 2 * h:
                    fd = (_term(x + h, a) - _term(x - h, a)) / (2 * h)
                    assert abs(first - fd) <= 1e-8, (a, x)
                if gap < 2e-4:
                    continue
                h = 1e-4
                fd = (_term(x + h, a) - 2 * _term(x, a) + _term(x - h, a)) / (h * h)
                assert abs(second - fd) <= 1e-6, (a, x)
            # the first derivative is continuous at both junctions
            for j in junctions:
                left = _term_slopes(j - 1e-12, a)[0]
                right = _term_slopes(j + 1e-12, a)[0]
                assert abs(left - right) <= 1e-10

    def test_line_searches_end_stationary(self, monkeypatch):
        # every line search ends where g'(t) is zero to round-off, or at an
        # end of its segment
        solve = boundary._solve
        ends = []

        def recorded(f, df, lo, hi, target, start):
            t = solve(f, df, lo, hi, target, start)
            ends.append((f(t), t, lo, hi))
            return t
        monkeypatch.setattr(boundary, "_solve", recorded)
        for a in ALPHAS:
            ends.clear()
            maximize_grid(a)
            assert ends
            for slope, t, lo, hi in ends:
                assert (abs(slope) <= 1e-14 or t - lo <= boundary.SOLVE_TOL
                        or hi - t <= boundary.SOLVE_TOL), (a, slope, t, lo, hi)

    def test_few_scalar_evaluations(self, monkeypatch):
        # the scan evaluates _term once at each of the grid+1 = 401 points
        # k/grid.  Newton line searches: the polish makes at most 600 term
        # evaluations (1 110 when it evaluated each taken point again), and
        # one maximize_grid(2.2) at most 4000 scalar term and slope
        # evaluations together (golden-section searches made 30 822)
        calls = {"_term": 0, "_term_slopes": 0}
        scanned = []
        polish = optimizer._polish

        def counted(fn):
            def g(x, a):
                calls[fn.__name__] += 1
                return fn(x, a)
            return g

        def first_polish(*args):
            if not scanned:
                scanned.append(calls["_term"])
            return polish(*args)
        monkeypatch.setattr(optimizer, "_term", counted(_term))
        monkeypatch.setattr(optimizer, "_term_slopes", counted(_term_slopes))
        monkeypatch.setattr(optimizer, "_polish", first_polish)
        maximize_grid(2.2)
        assert scanned == [401]
        assert 0 < calls["_term"] - scanned[0] <= 600
        assert 0 < calls["_term"] + calls["_term_slopes"] <= 4000

    def test_residual_across_alphas(self):
        # the largest stationarity residual over 9 alphas spanning the
        # interval, 1.107e-7 with golden-section searches
        worst = 0.0
        for a in np.linspace(2.0 + 1e-6, ALPHA_HI - 1e-6, 9):
            res = maximize_grid(float(a))
            assert res.best.strictly_feasible
            worst = max(worst, res.stationarity_residual)
        assert worst <= 1.11e-7

    @pytest.mark.parametrize("a,value", [
        (2.05, 0.43915636150380255),
        (2.2, 0.4260162962962963),
        (2.41, 0.4118750082996404),
    ])
    def test_value_unchanged_by_scalar_polish(self, a, value):
        # values of the array-based polish this one replaced
        assert abs(maximize_grid(a).value - value) <= 1e-12

    def test_relaxation_tightness(self):
        # the returned maximizer is strictly feasible: no y pinned at 1/2
        for a in ALPHAS:
            res = maximize_grid(a, grid=200, refine_tol=1e-10)
            assert min(res.best.y) > 0.5 + 1e-9


class TestFeasiblePoint:
    def test_validation(self):
        with pytest.raises(DomainError):
            FeasiblePoint((0.5, 0.5, 0.5), (1, 1, 1))
        with pytest.raises(DomainError):
            FeasiblePoint((0.5, 0.5, 0.0), (0.2, 1, 1))
        p = FeasiblePoint((0.25, 0.25, 0.5), (1, 1, 0.5))
        assert not p.strictly_feasible
