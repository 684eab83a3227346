"""Spans and work counts around the benchmark's calls into fctk.

The tracer replaces each public function of fctk listed in TARGETS, in
every fctk namespace where a caller looks it up (``zeros`` binds
``rho_inv`` by name, ``fuss_catalan`` and ``contour`` go through
``geometry.rho_inv``), with a wrapper that records a span: name, start,
end, parent span and item id.  Spans are recorded only while an item runs
and are kept in memory until the run ends.  With ``timing`` off only the
COUNTED functions are wrapped, and their wrapper reads no clock and keeps
no span: that is how untraced rounds record the work counts only the
program can see (``eval_exact`` calls with their point sizes, trinomial
solves).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import fctk
from fctk import asymptotics, cli, contour, fuss_catalan, geometry, poly, rmt, rng, zeros

MODULES = (fctk, asymptotics, cli, contour, fuss_catalan, geometry, poly, rmt, rng, zeros)


def _point_bits(args, kwargs):
    x = Fraction(args[1] if len(args) > 1 else kwargs["x"])
    return {"bits": x.numerator.bit_length() + x.denominator.bit_length()}


def _grid(args, kwargs):
    grid = args[2]
    return {"r": grid.r, "nodes": grid.m**grid.r}


def _degree(args, kwargs):
    return {"degree": args[0].degree}


def _points(args, kwargs):
    return {"points": args[0].n}


def _draws(args, kwargs):
    return {"draws": args[1]}


def _shape(args, kwargs):
    params = args[0]
    return {"rows": params.n + params.nu[-1], "cols": params.n, "r": params.r,
            "n": params.n, "nu": list(params.nu)}


# (span name, owner, attribute, attributes recorded from the arguments)
TARGETS = (
    ("poly.build_f", poly, "build_f", None),
    ("poly.rescale_arg", poly, "rescale_arg", None),
    ("poly.eval_exact", poly, "eval_exact", _point_bits),
    ("geometry.rho_inv", geometry, "rho_inv", None),
    ("geometry.solve_trinomial", geometry, "solve_trinomial", None),
    ("asymptotics.normalized_poly", asymptotics, "normalized_poly", None),
    ("asymptotics.cosine_approximant", asymptotics, "cosine_approximant", None),
    ("asymptotics.pr_approx", asymptotics, "pr_approx", None),
    ("zeros.isolate_zeros", zeros, "isolate_zeros", _degree),
    ("zeros.ks_distance", zeros, "ks_distance", _points),
    ("fuss_catalan.cdf", fuss_catalan.FussCatalanDist, "cdf", None),
    ("fuss_catalan.sample", fuss_catalan.FussCatalanDist, "sample", _draws),
    ("fuss_catalan.stieltjes", fuss_catalan.FussCatalanDist, "stieltjes", None),
    ("fuss_catalan.stieltjes_moments", fuss_catalan.FussCatalanDist, "stieltjes_moments", None),
    ("contour.contour_eval", contour, "contour_eval", _grid),
    ("contour.verify_h_max", contour, "verify_h_max", None),
    ("contour.msp_value", contour, "msp_value", None),
    ("rmt.aggregate_measure", rmt, "aggregate_measure", None),
    ("rmt.sample_spectrum", rmt, "sample_spectrum", _shape),
    ("rng.complex_gaussians", rng, "complex_gaussians", None),
    ("cli.main", cli, "main", None),
)

# per-layer metrics and their units, in the order BENCHMARK.json lists them
UNITS = {
    "poly.eval_exact_ms": "ms",
    "poly.eval_exact_calls": "count",
    "poly.eval_point_bits": "count",
    "poly.build_ms": "ms",
    "asymptotics.normalized_poly_self_ms": "ms",
    "asymptotics.cosine_approximant_ms": "ms",
    "asymptotics.pr_approx_ms": "ms",
    "zeros.isolate_small_ms": "ms",
    "zeros.isolate_large_ms": "ms",
    "zeros.refine_large_ms": "ms",
    "zeros.roots_per_s": "1/s",
    "zeros.roots_certified": "count",
    "zeros.ks_us_per_point": "us",
    "fuss_catalan.cdf_us": "us",
    "fuss_catalan.cdf_calls": "count",
    "fuss_catalan.sample_ns_per_draw": "ns",
    "fuss_catalan.draws": "count",
    "fuss_catalan.stieltjes_ms": "ms",
    "fuss_catalan.stieltjes_moments_ms": "ms",
    "geometry.rho_inv_us": "us",
    "geometry.rho_inv_calls": "count",
    "geometry.solve_trinomial_us": "us",
    "geometry.solve_trinomial_calls": "count",
    "contour.contour_eval_ms.r1": "ms",
    "contour.contour_eval_ms.r2": "ms",
    "contour.contour_eval_ms.r3": "ms",
    "contour.ns_per_node": "ns",
    "contour.nodes": "count",
    "contour.verify_h_max_ms": "ms",
    "contour.msp_value_ms": "ms",
    "rmt.sample_spectrum_self_ms": "ms",
    "rmt.aggregate_self_ms": "ms",
    "rmt.product_gflop": "GFLOP-computed",
    "rmt.svd_calls": "count",
    "rmt.svd_rows": "count",
    "rmt.svd_cols": "count",
    "rng.complex_gaussians_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}

# counted in every round, traced or not: work only the program can see
COUNTED = ("poly.eval_exact", "geometry.solve_trinomial")


class Tracer:
    """Patches fctk, records spans [name, start, end, parent, item, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counted: list[tuple] = []  # (name, attrs) of calls made untraced
        self.item = None  # id of the running item; None records nothing
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.timing = False

    def install(self, timing: bool):
        """Wrap every target (timing) or only the counted ones (no clock)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.timing = timing
        for name, owner, attr, attrs in TARGETS:
            if not timing and name not in COUNTED:
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, attrs)
            holders = [owner] + [m for m in MODULES if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            item = self.item
            if item is None:
                return fn(*args, **kwargs)
            extra = attrs(args, kwargs) if attrs else None
            if not self.timing:
                self.counted.append((name, extra))
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, item, extra]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper


# ---------------------------------------------------------------------------
# work counts and per-layer metrics

def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def call_counts(calls) -> dict:
    """Work counts from (name, attrs) pairs of the COUNTED functions' calls."""
    bits = [extra["bits"] for name, extra in calls if name == "poly.eval_exact"]
    return {
        "eval_exact_calls": len(bits),
        "eval_point_bits": _median(bits, 0),
        "trinomial_solves": sum(1 for name, _ in calls if name == "geometry.solve_trinomial"),
    }


def layer_metrics(spans, rounds: int, item_kinds: dict) -> dict:
    """Per-layer metrics from the spans of `rounds` traced rounds.

    `item_kinds` maps an item id to its kind; ids that are not items
    (the coarse-tolerance isolations behind zeros.refine_large_ms) map to
    kinds starting with "extra.".  Times are medians per call unless the
    README says otherwise; counts are per round.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name, kinds=None):
        """Span indices of `name` in items of `kinds` (default: every timed item)."""
        return [i for i in by_name.get(name, ())
                if (item_kinds[spans[i][4]] in kinds if kinds
                    else not item_kinds[spans[i][4]].startswith("extra."))]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - child_time[i]

    def med(name, scale, kinds=None, fn=dur):
        return _median(fn(i) for i in calls(name, kinds)) * scale

    def total(name, kinds=None):
        return sum(dur(i) for i in calls(name, kinds))

    def per_item(names):
        by_item: dict = {}
        for name in names:
            for i in calls(name):
                by_item[spans[i][4]] = by_item.get(spans[i][4], 0.0) + dur(i)
        return by_item.values()

    def ratio(num, den):
        return num / den if den else 0.0

    counts = call_counts(
        [(s[0], s[5]) for s in spans if not item_kinds[s[4]].startswith("extra.")]
    )
    small, large = ("zeros.small",), ("zeros.large",)
    large_calls = calls("zeros.isolate_zeros", large)
    coarse_calls = calls("zeros.isolate_zeros", ("extra.coarse",))
    # after each traced round the large jobs are isolated again at the coarse
    # tolerance, in the order they ran, so the k-th of each list pair up
    refine = [dur(i) - dur(j) for i, j in zip(large_calls, coarse_calls)]
    contour_calls = calls("contour.contour_eval")
    draws = sum(spans[i][5]["draws"] for i in calls("fuss_catalan.sample"))
    ks_points = sum(spans[i][5]["points"] for i in calls("zeros.ks_distance"))
    svd = calls("rmt.sample_spectrum")
    gflop = [
        sum(8 * (s["n"] + s["nu"][j]) * (s["n"] + s["nu"][j - 1]) * s["n"]
            for j in range(1, s["r"])) / 1e9
        for s in (spans[i][5] for i in svd)
    ]
    return {
        "poly.eval_exact_ms": med("poly.eval_exact", 1e3),
        "poly.eval_exact_calls": counts["eval_exact_calls"] / rounds,
        "poly.eval_point_bits": counts["eval_point_bits"],
        "poly.build_ms": _median(per_item(("poly.build_f", "poly.rescale_arg"))) * 1e3,
        "asymptotics.normalized_poly_self_ms": med("asymptotics.normalized_poly", 1e3, fn=self_time),
        "asymptotics.cosine_approximant_ms": med("asymptotics.cosine_approximant", 1e3),
        "asymptotics.pr_approx_ms": med("asymptotics.pr_approx", 1e3),
        "zeros.isolate_small_ms": med("zeros.isolate_zeros", 1e3, small),
        "zeros.isolate_large_ms": med("zeros.isolate_zeros", 1e3, large),
        "zeros.refine_large_ms": _median(refine) * 1e3,
        "zeros.roots_per_s": ratio(sum(spans[i][5]["degree"] for i in large_calls),
                                   total("zeros.isolate_zeros", large)),
        "zeros.roots_certified": sum(
            spans[i][5]["degree"] for i in calls("zeros.isolate_zeros", small + large)
        ) / rounds,
        "zeros.ks_us_per_point": ratio(total("zeros.ks_distance"), ks_points) * 1e6,
        "fuss_catalan.cdf_us": med("fuss_catalan.cdf", 1e6),
        "fuss_catalan.cdf_calls": len(calls("fuss_catalan.cdf")) / rounds,
        "fuss_catalan.sample_ns_per_draw": ratio(total("fuss_catalan.sample"), draws) * 1e9,
        "fuss_catalan.draws": draws / rounds,
        "fuss_catalan.stieltjes_ms": med("fuss_catalan.stieltjes", 1e3),
        "fuss_catalan.stieltjes_moments_ms": med("fuss_catalan.stieltjes_moments", 1e3),
        "geometry.rho_inv_us": med("geometry.rho_inv", 1e6),
        "geometry.rho_inv_calls": len(calls("geometry.rho_inv")) / rounds,
        "geometry.solve_trinomial_us": med("geometry.solve_trinomial", 1e6),
        "geometry.solve_trinomial_calls": counts["trinomial_solves"] / rounds,
        "contour.contour_eval_ms.r1": _median(dur(i) for i in contour_calls if spans[i][5]["r"] == 1) * 1e3,
        "contour.contour_eval_ms.r2": _median(dur(i) for i in contour_calls if spans[i][5]["r"] == 2) * 1e3,
        "contour.contour_eval_ms.r3": _median(dur(i) for i in contour_calls if spans[i][5]["r"] == 3) * 1e3,
        "contour.ns_per_node": ratio(total("contour.contour_eval"),
                                     sum(spans[i][5]["nodes"] for i in contour_calls)) * 1e9,
        "contour.nodes": sum(spans[i][5]["nodes"] for i in contour_calls) / rounds,
        "contour.verify_h_max_ms": total("contour.verify_h_max") / rounds * 1e3,
        "contour.msp_value_ms": med("contour.msp_value", 1e3),
        "rmt.sample_spectrum_self_ms": med("rmt.sample_spectrum", 1e3, fn=self_time),
        "rmt.aggregate_self_ms": med("rmt.aggregate_measure", 1e3, fn=self_time),
        "rmt.product_gflop": _median(gflop),
        "rmt.svd_calls": len(svd) / rounds,
        "rmt.svd_rows": _median((spans[i][5]["rows"] for i in svd), 0),
        "rmt.svd_cols": _median((spans[i][5]["cols"] for i in svd), 0),
        "rng.complex_gaussians_ms": med("rng.complex_gaussians", 1e3),
        "cli.self_ms": med("cli.main", 1e3, fn=self_time),
    }
