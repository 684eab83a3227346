"""Command-line surface: fctk <command> [<action>] [options].

Each handler returns the text that main prints to stdout or to --out.
Exit codes: 0 on success, 2 on usage errors (argparse, and an output
path that cannot be written), 1 on computational failures, which are
reported as a single JSON object on stderr.  CSV output is header-first
with 17-significant-digit decimals; JSON output is a single object with
stable key order.  Exact rational inputs accept both 'p/q' and decimal
strings.
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


def _int_at_least(least: int):
    # argparse reports a ValueError as "invalid integer value"
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


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

def cmd_poly(parser, args) -> str:
    params = _params(parser, args)
    built = poly.build_p(params) if args.kind == "p" else poly.build_f(params)
    if args.rescaled:
        built = poly.rescale_arg(built, params)
    if args.eval_x is not None:
        return f"{poly.eval_exact(built, args.eval_x)}\n"
    return poly.poly_to_json(params, built) + "\n"


def cmd_zeros(parser, args) -> str:
    params = _params(parser, args)
    if args.tol <= 0:
        parser.error("tol must be positive")
    if args.ks:
        measure = zeros.rescaled_zero_measure(params, args.tol)
        dist = fuss_catalan.FussCatalanDist(params.r)
        return _fmt(zeros.ks_distance(measure, dist)) + "\n"
    rows = [
        (str(i), str(e.lo), str(e.hi), _fmt(e.mid))
        for i, e in enumerate(zeros.rescaled_zeros(params, args.tol))
    ]
    return _csv(rows, "index,lo,hi,mid")


def cmd_fc_table(parser, args) -> str:
    dist = fuss_catalan.FussCatalanDist(args.r)
    func = dist.density_x if args.action == "density" else dist.cdf
    if args.x is not None:
        return _fmt(func(float(args.x))) + "\n"
    xs = [dist.support[1] * i / (args.grid + 1) for i in range(1, args.grid + 1)]
    return _csv([(x, func(x)) for x in xs], "x,value")


def cmd_fc_quantile(parser, args) -> str:
    # the rational p, not its double: quantile forms 1 - p exactly
    return _fmt(fuss_catalan.FussCatalanDist(args.r).quantile(args.p)) + "\n"


def cmd_fc_moment(parser, args) -> str:
    dist = fuss_catalan.FussCatalanDist(args.r)
    if args.quadrature:
        return _fmt(dist.moment_quadrature(args.k)) + "\n"
    return f"{dist.moment_exact(args.k)}\n"


def cmd_fc_sample(parser, args) -> str:
    draws = fuss_catalan.FussCatalanDist(args.r).sample(args.count, args.seed)
    return "".join(_fmt(v) + "\n" for v in draws)


def cmd_fc_identity(parser, args) -> str:
    lhs, rhs = fuss_catalan.identity_check(args.r, args.k)
    return json.dumps({"r": args.r, "n": args.k, "lhs": lhs, "rhs": str(rhs)}) + "\n"


def cmd_fig1(parser, args) -> str:
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
    return _csv(rows, "phi,F_tilde,c_n")


def cmd_oracle_contour(parser, args) -> str:
    params = _params(parser, args)
    approx = contour.contour_eval(params, float(args.x), contour.QuadratureGrid(params.r, args.m))
    exact = poly.eval_exact(poly.rescale_arg(poly.build_f(params), params), args.x)
    rel = abs(approx - float(exact)) / max(abs(float(exact)), 5e-324)
    payload = {
        "x": str(args.x),
        "m": args.m,
        "exact": str(exact),
        "contour": approx,
        "rel_error": rel,
    }
    return json.dumps(payload) + "\n"


def cmd_oracle_msp(parser, args) -> str:
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
    return json.dumps(payload) + "\n"


def cmd_oracle_hmax(parser, args) -> str:
    phi, clamped = _clamp_phi(args.r, args.phi)
    argmax, dist = contour.verify_h_max(PhiCoordinate(args.r, phi), args.m)
    payload = {
        "phi": phi,
        "clamped": clamped,
        "argmax": [float(v) for v in argmax],
        "distance": dist,
        "cell_diagonal": 2 * math.pi * math.sqrt(args.r) / args.m,
    }
    return json.dumps(payload) + "\n"


def cmd_rmt(parser, args) -> str:
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
    return json.dumps(payload) + "\n"


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call, then reused.

    Each parser that runs names its handler and itself with set_defaults,
    so that a usage error found after parsing prints that parser's usage,
    and declares only the arguments that handler reads.
    """
    parser = argparse.ArgumentParser(
        prog="fctk",
        description="Ginibre-product characteristic polynomials, their "
        "oscillatory asymptotics and zeros, and the Fuss-Catalan laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, handler, help):
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p)
        p.add_argument("--out", help="output path (default stdout)")
        return p

    def add_r(p):
        p.add_argument("--r", type=_int_at_least(1), required=True, help="number of factors")

    def add_model(p):
        add_r(p)
        p.add_argument("--nu", type=_nu_list, required=True, help="comma list of offsets")
        p.add_argument("--n", type=int, required=True, help="polynomial degree")

    p = add(sub, "poly", cmd_poly, "build or evaluate the exact polynomials")
    add_model(p)
    p.add_argument("--kind", choices=("f", "p"), default="f")
    p.add_argument("--rescaled", action="store_true", help="substitute x -> n^r x")
    p.add_argument("--eval-x", type=_rational, help="exact evaluation point")

    p = add(sub, "zeros", cmd_zeros, "isolate the zeros of F_n(n^r x)")
    add_model(p)
    p.add_argument("--tol", type=_rational, default=zeros.DEFAULT_TOL)
    p.add_argument("--ks", action="store_true", help="print only the KS distance")

    fc = sub.add_parser("fc", help="Fuss-Catalan distribution queries")
    actions = fc.add_subparsers(dest="action", required=True, help="options follow the action")
    for name in ("density", "cdf"):
        p = add(actions, name, cmd_fc_table, f"the {name} at one point or on a grid")
        add_r(p)
        where = p.add_mutually_exclusive_group(required=True)
        where.add_argument("--x", type=_rational)
        where.add_argument("--grid", type=_int_at_least(1), help="a table at GRID interior points")
    p = add(actions, "quantile", cmd_fc_quantile, "the x with cdf(x) = p")
    add_r(p)
    p.add_argument("--p", type=_rational, required=True)
    p = add(actions, "moment", cmd_fc_moment, "the k-th moment, exactly or by quadrature")
    add_r(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--quadrature", action="store_true", help="moment by quadrature")
    p = add(actions, "sample", cmd_fc_sample, "independent draws by inverse CDF")
    add_r(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p = add(actions, "identity", cmd_fc_identity, "the integral identity at order k")
    add_r(p)
    p.add_argument("--k", type=int, required=True)

    p = add(sub, "fig1", cmd_fig1, "normalized polynomial and cosine approximant grid")
    p.add_argument("--r", type=_int_at_least(1), default=asymptotics.FIG1_PARAMS.r)
    p.add_argument("--nu", type=_nu_list, default=asymptotics.FIG1_PARAMS.nu)
    p.add_argument("--n", type=int, default=asymptotics.FIG1_PARAMS.n)
    p.add_argument("--phi-lo", type=_angle, default=asymptotics.FIG1_PHI_LO)
    p.add_argument("--phi-hi", type=_angle, default=asymptotics.FIG1_PHI_HI)
    p.add_argument("--count", type=int, default=asymptotics.FIG1_COUNT)

    oracle = sub.add_parser("oracle", help="independent numerical cross-checks")
    probes = oracle.add_subparsers(dest="probe", required=True, help="options follow the probe")
    p = add(probes, "contour", cmd_oracle_contour, "torus contour sum against the exact value")
    add_model(p)
    p.add_argument("--x", type=_rational, required=True, help="evaluation point")
    p.add_argument("--m", type=_int_at_least(8), default=256, help="grid points per axis")
    p = add(probes, "msp", cmd_oracle_msp, "saddle-point value against the asymptotic formula")
    add_model(p)
    p.add_argument("--phi", type=_angle, required=True)
    p = add(probes, "hmax", cmd_oracle_hmax, "grid argmax of h against the saddle")
    add_r(p)
    p.add_argument("--phi", type=_angle, required=True)
    p.add_argument("--m", type=_int_at_least(64), default=256, help="grid points per axis")

    p = add(sub, "rmt", cmd_rmt, "Ginibre-product spectrum simulation summary")
    add_model(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--values-out", help="write pooled spectra, one value per line")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.handler(args.parser, args), args.out)
    except FctkError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    except OSError as exc:
        args.parser.error(f"cannot write the output: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
