"""The benchmark's workloads: inputs made from a seed, ops, and output checks.

Each op enters the package the way a user does: ``triprofile.cli.main``
in-process with its output captured, or the public Python API.  Functions
are looked up on the package at call time, so a traced run sees them.  A
pass runs every op of the workload once; its checks run after the pass,
outside the timed region.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    key: str                  # names the input; its repeats give its median time
    kind: str
    call: Callable[[], object]
    check: Callable[[object, object], bool]   # check(expected, output)
    expected: object
    work: int = 0             # edges or profile queries the op processes


def _cli(pkg, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    latency_kind = ""         # op kind whose latencies give op_p50 / op_tail
    work_name = "edges"       # what Op.work counts
    probe = "mixed"           # the runner's probe kernel for this kind of work

    def __init__(self, seed: int, toy: bool, workdir: Path):
        # the loaded package, rebound by the runner after every fresh import
        self.pkg = SimpleNamespace(tp=None, cli=None)
        self.ops = []
        self.warm = None      # the op whose run completes set-up


# ---------------------------------------------------------------- census-files

def _random_edges(rng, n: int, m: int) -> tuple:
    """m distinct random pairs of 0..n-1, in random order and orientation."""
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        u = rng.integers(0, n, size=2 * m)
        v = rng.integers(0, n, size=2 * m)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.union1d(keys, (lo * n + hi)[lo != hi])
    keys = rng.permutation(keys)[:m]
    lo, hi = keys // n, keys % n
    flip = rng.random(m) < 0.5
    return np.where(flip, hi, lo), np.where(flip, lo, hi)


def _independent_counts(n: int, u: np.ndarray, v: np.ndarray) -> tuple:
    """Triple census from a sparse matrix product, without census_fast.

    Triangles are sum(A * A^2) / 6, taken over row chunks to bound memory;
    cherries-or-triangles centred at v are C(deg v, 2); every edge lies in
    n-2 triples.
    """
    from scipy import sparse

    ones = np.ones(u.size, dtype=np.int64)
    a = sparse.coo_matrix((ones, (u, v)), shape=(n, n)).tocsr()
    a = (a + a.T).tocsr()
    walks = 0
    for s in range(0, n, 500):
        rows = a[s:s + 500]
        walks += int((rows @ a).multiply(rows).sum())
    t = walks // 6
    deg = np.diff(a.indptr)
    m = u.size
    p2 = sum(int(d) * (int(d) - 1) // 2 for d in deg)
    c3 = t
    c2 = p2 - 3 * t
    c1 = m * (n - 2) - 2 * p2 + 3 * t
    c0 = math.comb(n, 3) - c1 - c2 - c3
    return n, m, (c0, c1, c2, c3)


def _write_edge_file(path: Path, n: int, u: np.ndarray, v: np.ndarray):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# seeded benchmark input\nn {n}\n")
        f.write("\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())))
        f.write("\n")


def _check_census(expected, output) -> bool:
    n, m, counts = expected
    code, text = output
    lines = text.splitlines()
    return (code == 0 and f"n: {n}" in lines and f"m: {m}" in lines
            and "counts: " + ",".join(map(str, counts)) in lines)


class CensusFiles(Workload):
    """``triprofile census FILE`` on seeded edge-list files.

    Two sparse n=40000 files (average degree 10) per dense n=5000 file, all
    with m=200000: the text parser and the n^2-memory bitset triangle count
    carry the time here, and both sides of an n/m-based algorithm choice
    are present.  The 2:1 mix keeps the median and tail inside the sparse
    mode.  The sizes stay large enough that the bitset's quadratic memory
    shows in peak RSS, and small enough to finish on 2 cores and 8 GB.
    """

    name = "census-files"
    latency_kind = "census"
    FULL = (("sparse", 40000, 200000), ("sparse", 40000, 200000), ("dense", 5000, 200000))
    TOY = (("sparse", 2000, 10000), ("sparse", 2000, 10000), ("dense", 300, 10000))

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        rng = np.random.default_rng(seed)
        for i, (kind, n, m) in enumerate(self.TOY if toy else self.FULL):
            u, v = _random_edges(rng, n, m)
            path = workdir / f"census-{i}-{kind}.edges"
            _write_edge_file(path, n, u, v)
            self.ops.append(Op(
                key=path.name, kind="census",
                call=functools.partial(_cli, self.pkg, ["census", str(path)]),
                check=_check_census, expected=_independent_counts(n, u, v), work=m))
        self.warm = next(op for op in self.ops if "dense" in op.key)


# ----------------------------------------------------------- convergence-sweep

def _check_sweep(expected, output) -> bool:
    """Golden finite columns, then the criterion-8 bounds on max_dev."""
    golden, sizes = expected
    code, text = output
    rows = [line.split(",") for line in text.splitlines()[1:]]
    if code != 0 or [",".join(r[:9]) for r in rows] != golden:
        return False
    devs = [float(r[-1]) for r in rows]
    return (devs[sizes.index(500)] <= 0.05 and devs[sizes.index(2000)] <= 0.02
            and all(a >= b for a, b in zip(devs, devs[1:])))


class ConvergenceSweep(Workload):
    """``triprofile sweep`` for one (family, params, seed) per op.

    The cases are the criterion-8 list, in its order; for each stochastic
    case the seed picks one of its graph seeds.  These are
    dense graphs from the package's own samplers, where CSR construction
    and row sampling carry the time.
    """

    name = "convergence-sweep"
    latency_kind = "sweep"
    SIZES = (500, 1000, 2000)
    WARM = ("g0", {"x": -0.1}, 0)
    TOY = (("g0", {"x": -0.1}), ("g0", {"x": 0.08}))

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        rng = np.random.default_rng(seed)
        doc = json.loads((HERE / "golden_sweep.json").read_text(encoding="utf-8"))
        by_case = {}
        for case in doc["cases"]:
            key = (case["family"], json.dumps(case["params"], sort_keys=True))
            by_case.setdefault(key, []).append(case)
        self.golden = {(c["family"], json.dumps(c["params"], sort_keys=True), c["seed"]):
                       c["rows"] for c in doc["cases"]}
        chosen = [cases[int(rng.integers(len(cases)))] for cases in by_case.values()]
        if toy:
            chosen = [c for c in chosen if (c["family"], c["params"]) in self.TOY]
        for case in chosen:
            self.ops.append(self._op(case["family"], case["params"], case["seed"]))
        self.warm = self._op(*self.WARM)

    def _op(self, family, params, seed) -> Op:
        argv = ["sweep", "--family", family]
        for k, v in params.items():
            argv += ["--param-grid", f"{k}={v!r}"]
        argv += ["--n-list", ",".join(map(str, self.SIZES)), "--seeds", str(seed)]
        golden = self.golden[(family, json.dumps(params, sort_keys=True), seed)]
        # the printed d_e is m / C(n,2) exactly, so it gives the edge count
        edges = sum(round(float(row.split(",")[8]) * math.comb(n, 2))
                    for row, n in zip(golden, self.SIZES))
        return Op(key=f"{family}:{params}:{seed}", kind="sweep",
                  call=functools.partial(_cli, self.pkg, argv),
                  check=_check_sweep, expected=(golden, self.SIZES), work=edges)


# --------------------------------------------------------------- limit-queries

def closed_form_max(alpha: float) -> float:
    """The paper's closed-form maximum, (-a^6+6a^5-9a^4-4a^3+96a-80)/(144(a-1))."""
    a = Fraction(alpha)
    return float((-a ** 6 + 6 * a ** 5 - 9 * a ** 4 - 4 * a ** 3 + 96 * a - 80)
                 / (144 * (a - 1)))


# boundary pieces that are curves; the rest are straight segments
CURVED = {"concave", "convex", "curve", "upper-clique", "upper-coclique"}


def _random_graphon(rng, max_blocks: int = 4) -> tuple:
    b = int(rng.integers(1, max_blocks + 1))
    raw = rng.random(b) + 0.05
    sizes = raw / raw.sum()
    sizes[-1] = 1.0 - float(sizes[:-1].sum())
    r = rng.random((b, b))
    return sizes, np.triu(r) + np.triu(r, 1).T


class LimitQueries(Workload):
    """Profile queries, boundary curves and the optimizer; no finite graph.

    All the time here is in scalar bisection and the optimizer: census and
    constructions are bypassed, so a change to them predicts no change here.
    """

    name = "limit-queries"
    latency_kind = "query"
    work_name = "queries"
    probe = "interpreter"

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        rng = np.random.default_rng(seed)
        queries, self.samples = (20, 20) if toy else (2000, 1000)
        alphas = (2.2,) if toy else (2.05, 2.2, 2.41)
        self._graphons = [_random_graphon(rng) for _ in range(queries)]
        self._verified_curves = {}
        for i in range(queries):
            self.ops.append(Op(key=f"query-{i}", kind="query",
                               call=functools.partial(self._query, i),
                               check=self._check_query, expected=-1e-9, work=1))
        for region in ("s03", "s12", "s13", "s23"):
            self.ops.append(Op(key=f"curve-{region}", kind="curve",
                               call=functools.partial(self._curve, region),
                               check=self._check_curve, expected=1e-9))
        for alpha in alphas:
            self.ops.append(Op(key=f"optimize-{alpha}", kind="optimize",
                               call=functools.partial(self._optimize, alpha),
                               check=self._check_optimize,
                               expected=closed_form_max(alpha)))
        self.warm = self.ops[0]

    def _query(self, i):
        tp = self.pkg.tp
        d = tp.graphon_densities(tp.StepGraphon(*self._graphons[i]))
        coords = (("s03", d.d0, d.d3), ("s12", d.d1, d.d2),
                  ("s13", d.d1, d.d3), ("s23", d.d2, d.d3))
        return [tp.membership(r, x, y) for r, x, y in coords]

    def _curve(self, region):
        return region, self.pkg.tp.sample_boundary(region, self.samples)

    def _optimize(self, alpha):
        return self.pkg.tp.maximize_grid(alpha)

    @staticmethod
    def _check_query(floor, verdicts) -> bool:
        return len(verdicts) == 4 and all(v.slack >= floor for v in verdicts)

    def _check_curve(self, tol, output) -> bool:
        region, rows = output
        if self._verified_curves.get((region, tol)) == rows:
            return True
        ok = bool(rows) and all(
            abs(self.pkg.tp.membership(region, x, y).slack) <= tol
            for _, x, y, branch in rows if branch in CURVED)
        if ok:
            self._verified_curves[(region, tol)] = rows
        return ok

    @staticmethod
    def _check_optimize(value, res) -> bool:
        return abs(res.value - value) <= 1e-6



WORKLOADS = {w.name: w for w in (CensusFiles, ConvergenceSweep, LimitQueries)}
