"""Command-line surface: fctk <subcommand>.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on
computational failures, which are reported as a single JSON object on
stderr.  CSV output is header-first with 17-significant-digit decimals;
JSON output is a single object with stable key order.  Exact rational
inputs accept both 'p/q' and decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import mpmath as mp

from . import asymptotics, contour, fuss_catalan, poly, rmt, zeros
from .errors import FctkError
from .geometry import PhiCoordinate
from .poly import ModelParams

PHI_CLAMP_EPS = 1e-9


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _angle(text: str) -> float:
    # nan would pass the clamp of _clamp_phi unchanged; infinities are clamped
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an angle: {text!r} ({exc})")
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"angle must not be nan, got {text!r}")
    return value


def _nu_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad offset list {text!r} ({exc})")


def _params(parser: argparse.ArgumentParser, args) -> ModelParams:
    try:
        return ModelParams(r=args.r, nu=args.nu, n=args.n)
    except (ValueError, FctkError) as exc:
        parser.error(str(exc))


def _clamp_phi(r: int, phi: float) -> tuple[float, bool]:
    top = math.pi / (r + 1)
    clamped = min(max(phi, PHI_CLAMP_EPS), top - PHI_CLAMP_EPS)
    return clamped, clamped != phi


def _csv(rows, header: str) -> str:
    lines = [header]
    lines += [",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

def cmd_poly(parser, args) -> int:
    params = _params(parser, args)
    built = poly.build_p(params) if args.kind == "p" else poly.build_f(params)
    if args.rescaled:
        built = poly.rescale_arg(built, params)
    if args.eval_x is not None:
        value = poly.eval_exact(built, args.eval_x)
        _emit(f"{value}\n", args.out)
    else:
        _emit(poly.poly_to_json(params, built) + "\n", args.out)
    return 0


def cmd_zeros(parser, args) -> int:
    params = _params(parser, args)
    if args.tol <= 0:
        parser.error("tol must be positive")
    if args.ks:
        measure = zeros.rescaled_zero_measure(params, args.tol)
        dist = fuss_catalan.FussCatalanDist(params.r)
        _emit(_fmt(zeros.ks_distance(measure, dist)) + "\n", args.out)
        return 0
    rows = [
        (str(i), str(e.lo), str(e.hi), _fmt(e.mid))
        for i, e in enumerate(zeros.rescaled_zeros(params, args.tol))
    ]
    _emit(_csv(rows, "index,lo,hi,mid"), args.out)
    return 0


def cmd_fc(parser, args) -> int:
    dist = fuss_catalan.FussCatalanDist(args.r)
    action = args.action
    if action in ("density", "cdf"):
        func = dist.density_x if action == "density" else dist.cdf
        if args.x is not None:
            _emit(_fmt(func(float(args.x))) + "\n", args.out)
        elif args.grid:
            hi = dist.support[1]
            rows = []
            for i in range(1, args.grid + 1):
                x = hi * i / (args.grid + 1)
                rows.append((x, func(x)))
            _emit(_csv(rows, "x,value"), args.out)
        else:
            parser.error(f"fc {action} needs --x or --grid")
    elif action == "quantile":
        if args.p is None:
            parser.error("fc quantile needs --p")
        _emit(_fmt(dist.quantile(float(args.p))) + "\n", args.out)
    elif action == "moment":
        if args.k is None:
            parser.error("fc moment needs --k")
        if args.quadrature:
            _emit(_fmt(dist.moment_quadrature(args.k)) + "\n", args.out)
        else:
            _emit(f"{dist.moment_exact(args.k)}\n", args.out)
    elif action == "sample":
        if args.count is None:
            parser.error("fc sample needs --count")
        draws = dist.sample(args.count, args.seed)
        _emit("".join(_fmt(v) + "\n" for v in draws), args.out)
    elif action == "identity":
        if args.k is None:
            parser.error("fc identity needs --k")
        lhs, rhs = fuss_catalan.identity_check(args.r, args.k)
        payload = {"r": args.r, "n": args.k, "lhs": lhs, "rhs": str(rhs)}
        _emit(json.dumps(payload) + "\n", args.out)
    return 0


def cmd_fig1(parser, args) -> int:
    params = _params(parser, args)
    if args.count < 1 or params.n < 1:
        parser.error("count and n must be >= 1")
    lo, clamped_lo = _clamp_phi(params.r, args.phi_lo)
    hi, clamped_hi = _clamp_phi(params.r, args.phi_hi)
    if clamped_lo or clamped_hi:
        sys.stderr.write(
            json.dumps({"clamped": True, "phi_lo": lo, "phi_hi": hi}) + "\n"
        )
    if not lo < hi:
        parser.error("need phi_lo < phi_hi inside the angle interval")
    rows = asymptotics.fig1_dataset(params, lo, hi, args.count)
    _emit(_csv(rows, "phi,F_tilde,c_n"), args.out)
    return 0


def cmd_oracle(parser, args) -> int:
    # grid-size violations are usage errors, not computational failures
    least = 64 if args.probe == "hmax" else 8
    if args.m < least:
        parser.error(f"grid m={args.m} violates {least} <= m for oracle {args.probe}")
    if args.probe == "contour":
        params = _params(parser, args)
        grid = contour.QuadratureGrid(params.r, args.m)
        x = args.x
        approx = contour.contour_eval(params, float(x), grid)
        exact = poly.eval_exact(poly.rescale_arg(poly.build_f(params), params), x)
        rel = abs(approx - float(exact)) / max(abs(float(exact)), 5e-324)
        payload = {
            "x": str(x),
            "m": args.m,
            "exact": str(exact),
            "contour": approx,
            "rel_error": rel,
        }
    elif args.probe == "msp":
        params = _params(parser, args)
        phi, clamped = _clamp_phi(params.r, args.phi)
        c = PhiCoordinate(params.r, phi)
        msp = contour.msp_value(params, c)
        pr = asymptotics.pr_approx(params, c).assembled
        rel = float(abs(msp - pr) / abs(pr)) if pr != 0 else float("nan")
        payload = {
            "phi": phi,
            "clamped": clamped,
            "msp": mp.nstr(msp, 17),
            "pr": mp.nstr(pr, 17),
            "rel_diff": rel,
        }
    else:  # hmax
        phi, clamped = _clamp_phi(args.r, args.phi)
        c = PhiCoordinate(args.r, phi)
        argmax, dist = contour.verify_h_max(c, args.m)
        payload = {
            "phi": phi,
            "clamped": clamped,
            "argmax": [float(v) for v in argmax],
            "distance": dist,
            "cell_diagonal": 2 * math.pi * math.sqrt(args.r) / args.m,
        }
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def cmd_rmt(parser, args) -> int:
    params = _params(parser, args)
    if args.trials < 1 or params.n < 1:
        parser.error("trials and n must be >= 1")
    measure = rmt.aggregate_measure(params, args.trials, args.seed)
    dist = fuss_catalan.FussCatalanDist(params.r)
    payload = {
        "r": params.r,
        "nu": list(params.nu),
        "n": params.n,
        "trials": args.trials,
        "seed": args.seed,
        "ks": zeros.ks_distance(measure, dist),
        "moments": [rmt.mean_moment(measure, k) for k in (1, 2, 3)],
    }
    if args.values_out:
        _emit("".join(_fmt(v) + "\n" for v in measure.points), args.values_out)
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call, then reused."""
    parser = argparse.ArgumentParser(
        prog="fctk",
        description="Ginibre-product characteristic polynomials, their "
        "oscillatory asymptotics and zeros, and the Fuss-Catalan laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--r", type=int, required=True, help="number of factors")
        p.add_argument("--nu", type=_nu_list, required=True, help="comma list of offsets")
        p.add_argument("--n", type=int, required=True, help="polynomial degree")

    def add_out(p):
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("poly", help="build or evaluate the exact polynomials")
    add_model(p)
    p.add_argument("--kind", choices=("f", "p"), default="f")
    p.add_argument("--rescaled", action="store_true", help="substitute x -> n^r x")
    p.add_argument("--eval-x", type=_rational, help="exact evaluation point")
    add_out(p)

    p = sub.add_parser("zeros", help="isolate the zeros of F_n(n^r x)")
    add_model(p)
    p.add_argument("--tol", type=_rational, default=zeros.DEFAULT_TOL)
    p.add_argument("--ks", action="store_true", help="print only the KS distance")
    add_out(p)

    p = sub.add_parser("fc", help="Fuss-Catalan distribution queries")
    p.add_argument("action", choices=("density", "cdf", "quantile", "moment", "sample", "identity"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--x", type=_rational)
    p.add_argument("--p", type=_rational)
    p.add_argument("--k", type=int)
    p.add_argument("--quadrature", action="store_true", help="moment by quadrature")
    p.add_argument("--grid", type=int, help="table with this many interior points")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    p = sub.add_parser("fig1", help="normalized polynomial and cosine approximant grid")
    p.add_argument("--r", type=int, default=asymptotics.FIG1_PARAMS.r)
    p.add_argument("--nu", type=_nu_list, default=asymptotics.FIG1_PARAMS.nu)
    p.add_argument("--n", type=int, default=asymptotics.FIG1_PARAMS.n)
    p.add_argument("--phi-lo", type=_angle, default=asymptotics.FIG1_PHI_LO)
    p.add_argument("--phi-hi", type=_angle, default=asymptotics.FIG1_PHI_HI)
    p.add_argument("--count", type=int, default=asymptotics.FIG1_COUNT)
    add_out(p)

    p = sub.add_parser("oracle", help="independent numerical cross-checks")
    p.add_argument("probe", choices=("contour", "msp", "hmax"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--nu", type=_nu_list, default=(0,))
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--x", type=_rational, help="contour evaluation point")
    p.add_argument("--phi", type=_angle, help="angle for msp / hmax probes")
    p.add_argument("--m", type=int, default=256, help="grid points per axis")
    add_out(p)

    p = sub.add_parser("rmt", help="Ginibre-product spectrum simulation summary")
    add_model(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--values-out", help="write pooled spectra, one value per line")
    add_out(p)

    return parser


_DISPATCH = {
    "poly": cmd_poly,
    "zeros": cmd_zeros,
    "fc": cmd_fc,
    "fig1": cmd_fig1,
    "oracle": cmd_oracle,
    "rmt": cmd_rmt,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle":
        if args.probe == "contour" and args.x is None:
            parser.error("oracle contour needs --x")
        if args.probe in ("msp", "hmax") and args.phi is None:
            parser.error(f"oracle {args.probe} needs --phi")
    try:
        return _DISPATCH[args.command](parser, args)
    except FctkError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
