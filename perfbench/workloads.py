"""The four workloads: their items, inputs made from the seed, and checks.

An item is one unit of the closed loop: the benchmark calls it, waits for
it, and times it.  A round is the workload's fixed set of items; every
round of a run repeats the same inputs, so the work counts of one round
repeat exactly from run to run.  The seed picks inputs (offsets nu,
angles, RMT seeds, Stieltjes points, which fig1 rows get the exact check)
but never how many items of each kind a round holds, so the median item
always falls inside the same stratum.  Why each workload exists is in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from fctk import asymptotics, cli, contour, fuss_catalan, poly, zeros
from fctk.geometry import PhiCoordinate
from fctk.poly import ModelParams

import checks

ZEROS_TOL = Fraction(1, 10**12)
# no narrower than any initial Descartes bracket, so nothing is refined
ZEROS_COARSE_TOL = Fraction(2**64)


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list] = lambda out: []
    work: dict = field(default_factory=dict)  # counts known from the inputs


@dataclass
class Workload:
    items: list
    warmup: Item
    round_check: Callable[[list], list] = lambda outs: []
    # (label, run) pairs run with spans on after each traced round
    after_traced_round: list = field(default_factory=list)


def _cli(argv) -> str:
    """Run `fctk <argv>` in-process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fctk {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _nu_arg(nu) -> str:
    return ",".join(str(v) for v in nu)


# ---------------------------------------------------------------------------
# fig1: `fctk fig1` at its defaults, one row per item

FIG1_EXACT_ROWS = 8
FIG1_QUICK_ROWS = 12


def _fig1_row(params, phi):
    c = PhiCoordinate(params.r, phi)
    return asymptotics.normalized_poly(params, c), asymptotics.cosine_approximant(params, c)


def _fig1_exact_check(params, phi):
    def check(out):
        lm = asymptotics.pr_prefactor_log(params, PhiCoordinate(params.r, phi)).log_magnitude
        return checks.check_fig1_exact(params.r, params.nu, params.n, phi, out[0], lm)

    return check


def fig1(seed: int, quick: bool) -> Workload:
    params = asymptotics.FIG1_PARAMS
    count = asymptotics.FIG1_COUNT
    lo, hi = asymptotics.FIG1_PHI_LO, asymptotics.FIG1_PHI_HI
    step = (hi - lo) / (count - 1)
    grid = [lo + i * step for i in range(count)]  # as fig1_dataset spaces it
    if quick:
        grid = grid[:FIG1_QUICK_ROWS]
    rnd = random.Random(seed)
    exact_rows = set(rnd.sample(range(len(grid)), 2 if quick else FIG1_EXACT_ROWS))
    items = [
        Item(
            "fig1.row",
            lambda phi=phi: _fig1_row(params, phi),
            _fig1_exact_check(params, phi) if i in exact_rows else (lambda out: []),
        )
        for i, phi in enumerate(grid)
    ]

    def round_check(outs):
        return checks.check_fig1_rows(
            [(phi, *out) for phi, out in zip(grid, outs) if out is not None]
        )

    warmup = Item("fig1.row", lambda: _fig1_row(params, grid[0]))
    return Workload(items, warmup, round_check)


# ---------------------------------------------------------------------------
# zeros: many small isolations, a few `fctk zeros --ks` jobs at large n

# One small polynomial per (r, n), n = 4..25, and the 6 large jobs (about
# 50x dearer) stay above the median of the 66 small items.  Neither stratum
# takes nu from the seed, which only orders the items.  A small isolation
# costs about 1 ms per unit of n, and at fixed (r, n) its cost moves by up
# to 30 % with nu; a seeded nu moved the median item by 13 % (spread over
# ten seeds), half the bound of item_ms_p50.  So a small item's nu is the
# base-4 digits of n, which covers {0..3}^r across the stratum.  The large
# jobs use nu = 0 and nu = (1, ..., r): at n = 100 the cost of r = 3 ranges
# over 0.44-0.77 s across nu in {1..3}^3.
ZEROS_SMALL_N = range(4, 26)
ZEROS_LARGE_N = 100


def _small_nu(r, n):
    return tuple((n >> (2 * j)) & 3 for j in range(r))


def _isolate_small(params):
    rescaled = poly.rescale_arg(poly.build_f(params), params)
    return [(e.lo, e.hi) for e in zeros.isolate_zeros(rescaled, ZEROS_TOL)]


def _small_item(params) -> Item:
    return Item(
        "zeros.small",
        lambda: _isolate_small(params),
        lambda out: checks.check_enclosures(params.r, params.nu, params.n, out, ZEROS_TOL),
        {"roots_certified": params.n},
    )


def _large_item(params) -> Item:
    argv = ["zeros", "--r", str(params.r), "--nu", _nu_arg(params.nu),
            "--n", str(params.n), "--ks"]
    label = f"zeros --ks r={params.r} nu={params.nu} n={params.n}"
    return Item(
        "zeros.large",
        lambda: float(_cli(argv)),
        lambda out: checks.check_ks(label, out),
        {"roots_certified": params.n},
    )


def _coarse_isolation(params):
    return lambda: zeros.isolate_zeros(
        poly.rescale_arg(poly.build_f(params), params), ZEROS_COARSE_TOL
    )


def zeros_workload(seed: int, quick: bool) -> Workload:
    rnd = random.Random(seed)
    small = [
        ModelParams(r, _small_nu(r, n), n)
        for r in (1, 2, 3) for n in ((10,) if quick else ZEROS_SMALL_N)
    ]
    large = [ModelParams(1, (0,), ZEROS_LARGE_N)] if quick else [
        ModelParams(r, nu, ZEROS_LARGE_N)
        for r in (1, 2, 3) for nu in ((0,) * r, tuple(range(1, r + 1)))
    ]
    pairs = [(_small_item(p), p) for p in small] + [(_large_item(p), p) for p in large]
    rnd.shuffle(pairs)
    # the refinement baseline re-isolates the large jobs in the order they ran
    after = [("extra.coarse", _coarse_isolation(p)) for it, p in pairs if it.kind == "zeros.large"]
    warmup = _small_item(ModelParams(2, (1, 1), 13))
    return Workload([it for it, _ in pairs], warmup, after_traced_round=after)


# ---------------------------------------------------------------------------
# spectra: `fctk rmt` at n=200 with 50 trials, then as many draws from the law

RMT_R, RMT_NU, RMT_N, RMT_TRIALS = 2, (0, 0), 200, 50
SPECTRA_ITEMS = 2
# the warm-up item runs every code path of an item at a fifth of its cost;
# set-up is measured several times per run, so a full item there would
# add seconds to every run and nothing to what set-up measures
WARMUP_TRIALS = 10


def _spectra_item(rmt_seed: int, draw_seed: int, trials: int = RMT_TRIALS) -> Item:
    argv = ["rmt", "--r", str(RMT_R), "--nu", _nu_arg(RMT_NU), "--n", str(RMT_N),
            "--trials", str(trials), "--seed", str(rmt_seed)]
    count = RMT_N * trials
    label = f"rmt seed={rmt_seed}"

    def run():
        payload = json.loads(_cli(argv))
        draws = fuss_catalan.FussCatalanDist(RMT_R).sample(count, draw_seed)
        return payload, draws

    def check(out):
        payload, draws = out
        return (
            checks.check_ks(label, payload["ks"])
            + checks.check_moments(RMT_R, payload["moments"], count, label)
            + checks.check_dkw(RMT_R, draws, f"sample seed={draw_seed}")
        )

    work = {"draws": count, f"svd_calls_{RMT_N + RMT_NU[-1]}x{RMT_N}": trials}
    return Item("spectra.rmt", run, check, work)


def spectra(seed: int, quick: bool) -> Workload:
    rnd = random.Random(seed)
    items = [
        _spectra_item(rnd.randrange(2**31), rnd.randrange(2**31))
        for _ in range(1 if quick else SPECTRA_ITEMS)
    ]
    return Workload(items, _spectra_item(1, 2, WARMUP_TRIALS))


# ---------------------------------------------------------------------------
# oracles: `fctk oracle contour|msp|hmax`, Stieltjes values and moments
#
# Items per round and kind, cheapest first.  The 18 r=1 contour and hmax
# items take under 0.5 ms, the 15 msp items 1-3 ms and the other 21 items
# 2.5 ms to 0.2 s, so the median of the 54 falls at positions 9-10 of the
# msp stratum, and stays inside it if the 3 contour r=2 items drop below.

ORACLE_GRID = {1: 256, 2: 256, 3: 96}  # points per axis, as criteria 01/08 use
ORACLE_COUNTS = {
    "contour.r1": 9, "hmax.r1": 9, "msp": 5, "stieltjes": 1,
    "hmax.r2": 3, "contour.r2": 3, "hmax.r3": 3, "contour.r3": 3,
}
MSP_N = 40


def _contour_points(r):
    return (Fraction(1), Fraction(2), Fraction((r + 1) ** (r + 1), r**r) / 2)


def _contour_item(r, nu, n, x) -> Item:
    params = ModelParams(r, nu, n)
    m = ORACLE_GRID[r]
    label = f"contour r={r} nu={nu} n={n} x={x}"

    def run():
        approx = contour.contour_eval(params, float(x), contour.QuadratureGrid(r, m))
        exact = poly.eval_exact(poly.rescale_arg(poly.build_f(params), params), x)
        return approx, exact

    return Item(
        f"contour.r{r}",
        run,
        lambda out: checks.check_contour(label, out[0], out[1], r, nu, n, x),
        {"contour_nodes": m**r},
    )


def _contour_items(rnd, r, count) -> list:
    items = []
    points = _contour_points(r)
    for k in range(count):
        x = points[k % len(points)]
        while True:  # the relative check needs a nonzero exact value
            nu = tuple(rnd.randrange(3) for _ in range(r))
            n = rnd.randint(1, 6)
            if checks.exact_series(r, nu, n, x) != 0:
                break
        items.append(_contour_item(r, nu, n, x))
    return items


def _hmax_item(r, phi) -> Item:
    m = ORACLE_GRID[r]
    return Item(
        f"hmax.r{r}",
        lambda: contour.verify_h_max(PhiCoordinate(r, phi), m)[0],
        lambda out: checks.check_hmax(f"hmax r={r} phi={phi!r}", r, phi, m, out),
    )


def _msp_item(r, nu, phi) -> Item:
    params = ModelParams(r, nu, MSP_N)

    def run():
        c = PhiCoordinate(r, phi)
        return contour.msp_value(params, c), asymptotics.pr_approx(params, c).assembled

    return Item(
        "msp",
        run,
        lambda out: checks.check_msp(f"msp r={r} nu={nu} phi={phi!r}", out[0], out[1]),
    )


def _stieltjes_item(r, z, far) -> Item:
    return Item(
        "stieltjes",
        lambda: fuss_catalan.FussCatalanDist(r).stieltjes(z),
        lambda out: checks.check_stieltjes(f"stieltjes r={r} z={z!r}", r, z, out, far),
    )


def _near_point(rnd, r) -> complex:
    """A point at least 1 away from the cut [0, x_star]."""
    x_star = (r + 1) ** (r + 1) / r**r
    return complex(rnd.uniform(-5.0, x_star + 5.0), rnd.choice((-1, 1)) * rnd.uniform(1.0, 10.0))


def oracles(seed: int, quick: bool) -> Workload:
    rnd = random.Random(seed)
    counts = {kind: 1 for kind in ORACLE_COUNTS} if quick else ORACLE_COUNTS

    def phis(r, lo, hi, count):
        """One angle in each of `count` equal strata of (lo, hi) * pi/(r+1).

        The cost of msp_value depends on phi; stratified angles give every
        seed the same spread of costs, so the median item stays put.
        """
        width = (hi - lo) / count
        return [(lo + (k + rnd.random()) * width) * math.pi / (r + 1) for k in range(count)]

    items = []
    for r in (1, 2, 3):
        items += _contour_items(rnd, r, counts[f"contour.r{r}"])
        items += [_hmax_item(r, phi) for phi in phis(r, 0.001, 0.999, counts[f"hmax.r{r}"])]
        items += [
            _msp_item(r, tuple(rnd.randrange(3) for _ in range(r)), phi)
            for phi in phis(r, 0.05, 0.95, counts["msp"])
        ]
        for _ in range(counts["stieltjes"]):
            items.append(_stieltjes_item(r, _near_point(rnd, r), far=False))
            t = rnd.uniform(-math.pi, math.pi)
            items.append(_stieltjes_item(r, 1e6 * complex(math.cos(t), math.sin(t)), far=True))
        items.append(Item(
            "stieltjes_moments",
            lambda r=r: fuss_catalan.FussCatalanDist(r).stieltjes_moments(4),
            lambda out, r=r: checks.check_stieltjes_moments(f"stieltjes_moments r={r}", r, out),
        ))
    rnd.shuffle(items)
    warmup = _msp_item(2, (1, 1), 0.4 * math.pi / 3)
    return Workload(items, warmup)


WORKLOADS = {"fig1": fig1, "zeros": zeros_workload, "spectra": spectra, "oracles": oracles}
