"""Command-line front end.

Every numeric answer is printed as an exact ``num/den`` together with a
decimal approximation.  Exit codes: 0 success, 1 invalid input or a failed
verification, 2 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

from . import (DerivativeRequest, Limits, count_aut, count_hom, count_surj,
               cut_norm, enumerate_Hn, enumerate_Hnp, eval_quantum, extract_T,
               gateaux_exact, gateaux_numeric, graph_from_json,
               graph_signature, graph_to_json, kernel_from_json,
               kernel_to_json, labelled_density, lagrange_interpolate,
               pi_fiber_oracle, pi_formula, pins_from_json, quantum_from_json,
               quantum_to_json, sidorenko_star_check, tensor_product,
               verify_structure, whitney_matrix)
from .limits import CapExceeded, flag
from .series import PowerSeries, eval_series
from .stepkernel import StepKernel


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: Fraction) -> str:
    return f"{x} ({float(x):.10g})"


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _load_graph(path: str):
    return graph_from_json(_load_json(path))


def _load_kernel(path: str) -> StepKernel:
    return kernel_from_json(_load_json(path))


def _limits(args) -> Limits:
    return Limits(**{cap.name: getattr(args, cap.name)
                     for cap in fields(Limits)})


def _emit(args, payload: dict, table: str):
    try:
        print(json.dumps(payload, indent=2) if args.format == "json" else table,
              flush=True)
    except BrokenPipeError:
        # the reader has gone (`| head`): point stdout at the null device,
        # so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphon-calc",
                     description="exact densities, derivatives, and "
                                 "consistency checks for multigraphs")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    for cap in fields(Limits):
        parser.add_argument(flag(cap.name), type=int, default=cap.default)
    sub = parser.add_subparsers(dest="command", metavar="command")

    cmd = sub.add_parser("enumerate", help="list isomorphism classes")
    cmd.add_argument("-n", type=int, required=True, help="edge count")
    cmd.add_argument("-k", type=int, default=0, help="label count")
    cmd.add_argument("--pvertices", type=int,
                     help="fix the vertex count (isolated vertices allowed)")

    for name, help_text in (("hom", "count node-and-edge homomorphisms"),
                            ("surj", "count surjective morphisms")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--graph", required=True, help="source graph JSON")
        cmd.add_argument("--target", required=True, help="target graph JSON")

    cmd = sub.add_parser("aut", help="order of the automorphism group")
    cmd.add_argument("--graph", required=True)

    cmd = sub.add_parser("density", help="exact homomorphism density")
    cmd.add_argument("--graph", required=True)
    cmd.add_argument("--kernel", required=True)
    cmd.add_argument("--pins", help="pins JSON for labelled graphs")

    cmd = sub.add_parser("cutnorm", help="exact cut norm of a kernel")
    cmd.add_argument("--kernel", required=True)

    cmd = sub.add_parser("tensor", help="tensor product of two kernels")
    cmd.add_argument("--left", required=True)
    cmd.add_argument("--right", required=True)

    cmd = sub.add_parser("sidorenko", help="star density vs constant kernel")
    cmd.add_argument("-k", type=int, required=True, help="edges of the star")
    cmd.add_argument("--kernel", required=True)

    cmd = sub.add_parser("derivative", help="exact directional derivative")
    cmd.add_argument("--F", required=True, help="quantum graph JSON")
    cmd.add_argument("--base", required=True, help="base kernel JSON")
    cmd.add_argument("--dirs", nargs="*", default=[],
                     help="direction kernel JSON files")
    cmd.add_argument("--numeric", action="store_true",
                     help="also print the finite-difference cross-check")
    cmd.add_argument("--step", type=str, default="1/10000")

    cmd = sub.add_parser("extractT", help="derivative data at 0 on basis tuples")
    cmd.add_argument("--F", required=True)
    cmd.add_argument("-n", type=int, required=True)
    cmd.add_argument("-p", type=int, required=True)

    cmd = sub.add_parser("pi", help="scale-consistency matrix")
    cmd.add_argument("-n", type=int, required=True)
    cmd.add_argument("-k", type=int, required=True)
    cmd.add_argument("--oracle", action="store_true",
                     help="use the fiber enumeration instead of the formula")
    cmd.add_argument("-p", type=int, help="scale for the fiber oracle")

    cmd = sub.add_parser("verify", help="run a verification suite")
    cmd.add_argument("suite", choices=("consistency",))
    cmd.add_argument("-n", type=int, required=True)
    cmd.add_argument("-p", type=int, help="largest coarse scale p of the "
                     "derivative check, which reads p and k*p (default 2N)")
    cmd.add_argument("-k", type=int, default=3, help="largest split factor")

    cmd = sub.add_parser("taylor-recover",
                         help="recover coefficients from exact derivatives")
    cmd.add_argument("--F", required=True, help="quantum graph JSON (the "
                     "derivative oracle is built from it)")
    cmd.add_argument("-N", type=int, required=True, help="highest degree")
    cmd.add_argument("-p", type=int, help="parts (default 2N)")

    cmd = sub.add_parser("whitney", help="surjection matrix of labelled classes")
    cmd.add_argument("-n", type=int, required=True)
    cmd.add_argument("-k", type=int, default=0)
    cmd.add_argument("--pins", nargs="*", default=[],
                     help="pin values for labels 1..k, e.g. 1/3 2/3")
    cmd.add_argument("-p", type=int,
                     help="parts (default: smallest valid); at least 1, "
                          "with each pin inside a part of its own")

    cmd = sub.add_parser("interpolate",
                         help="quantum graph hitting given values at given kernels")
    cmd.add_argument("--points", nargs="+", required=True)
    cmd.add_argument("--values", nargs="+", required=True)

    cmd = sub.add_parser("series-eval", help="partial sums of a polynomial series")
    cmd.add_argument("--terms", required=True, help="quantum graph JSON")
    cmd.add_argument("--kernel", required=True)
    cmd.add_argument("-N", type=int, required=True, help="truncation degree")
    return parser


def _cmd_enumerate(args, limits) -> int:
    if args.pvertices is not None:
        if args.k:
            raise UsageError("--pvertices only applies to unlabelled classes")
        classes = enumerate_Hnp(args.n, args.pvertices, limits=limits)
    else:
        classes = enumerate_Hn(args.n, args.k, limits=limits)
    payload = {"count": len(classes),
               "classes": [graph_to_json(g) for g in classes]}
    _emit(args, payload, "\n".join(graph_signature(g) for g in classes))
    return 0


def _cmd_counting(args, limits) -> int:
    if args.command == "aut":
        value = count_aut(_load_graph(args.graph), limits=limits)
    else:
        h, g = _load_graph(args.graph), _load_graph(args.target)
        fn = count_hom if args.command == "hom" else count_surj
        value = fn(h, g, limits=limits)
    _emit(args, {"value": str(value)}, str(value))
    return 0


def _cmd_density(args, limits) -> int:
    g = _load_graph(args.graph)
    f = _load_kernel(args.kernel)
    pins = pins_from_json(_load_json(args.pins)) if args.pins else {}
    value = labelled_density(g, f, pins, limits=limits)
    _emit(args, {"value": str(value), "decimal": float(value)}, _fmt(value))
    return 0


def _cmd_cutnorm(args, limits) -> int:
    value = cut_norm(_load_kernel(args.kernel), limits=limits)
    _emit(args, {"value": str(value), "decimal": float(value)}, _fmt(value))
    return 0


def _cmd_tensor(args, limits) -> int:
    product = tensor_product(_load_kernel(args.left), _load_kernel(args.right),
                             limits=limits)
    payload = kernel_to_json(product)
    _emit(args, payload, json.dumps(payload))
    return 0


def _cmd_sidorenko(args, limits) -> int:
    result = sidorenko_star_check(args.k, _load_kernel(args.kernel),
                                  limits=limits)
    payload = {"star_density": str(result.star_density),
               "edge_density_power": str(result.edge_density_power),
               "holds": result.holds, "equality": result.equality,
               "row_means_constant": result.row_means_constant}
    table = (f"t(star) = {_fmt(result.star_density)}\n"
             f"c^k     = {_fmt(result.edge_density_power)}\n"
             f"holds: {result.holds}  equality: {result.equality}  "
             f"constant row means: {result.row_means_constant}")
    _emit(args, payload, table)
    return 0 if result.holds else 1


def _cmd_derivative(args, limits) -> int:
    F = quantum_from_json(_load_json(args.F))
    base = _load_kernel(args.base)
    dirs = tuple(_load_kernel(path) for path in args.dirs)
    request = DerivativeRequest(base, dirs)
    value = gateaux_exact(F, request, limits=limits)
    payload = {"order": request.order, "value": str(value),
               "decimal": float(value)}
    lines = [f"order {request.order}: {_fmt(value)}"]
    if args.numeric:
        approx = gateaux_numeric(F, request, Fraction(args.step), limits=limits)
        payload["numeric"] = approx
        lines.append(f"numeric cross-check: {approx:.12g}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_extract_T(args, limits) -> int:
    F = quantum_from_json(_load_json(args.F))
    vec = extract_T(F, args.n, args.p, limits=limits)
    items = vec.as_items()
    payload = {"n": vec.n, "p": vec.p,
               "entries": [{"class": graph_signature(h), "value": str(v)}
                           for h, v in items]}
    _emit(args, payload,
          "\n".join(f"{graph_signature(h):40s} {_fmt(v)}" for h, v in items))
    return 0


def _cmd_pi(args, limits) -> int:
    if args.oracle:
        p = args.p if args.p is not None else 2 * args.n
        matrix = pi_fiber_oracle(args.n, args.k, p, limits=limits)
    elif args.p is not None:
        raise UsageError("-p applies only with --oracle")
    else:
        matrix = pi_formula(args.n, args.k, limits=limits)
    names = [graph_signature(g) for g in matrix.classes]
    rows = matrix.rows()
    payload = {"n": matrix.n, "k": matrix.k, "classes": names, "rows": rows}
    lines = ["columns: " + " | ".join(names)]
    for name, row in zip(names, rows):
        lines.append(f"{name:32s} " + " ".join(map(str, row)))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify(args, limits) -> int:
    report = verify_structure(args.n, p_max=args.p, k_max=args.k,
                              limits=limits)
    payload = {"n": report.n, "passed": report.passed,
               "checks": [{"name": c.name, "passed": c.passed,
                           "detail": c.detail} for c in report.checks]}
    _emit(args, payload,
          report.summary() + ("\nPASS" if report.passed else "\nFAIL"))
    return 0 if report.passed else 1


def _cmd_taylor_recover(args, limits) -> int:
    from .series import taylor_recover

    F = quantum_from_json(_load_json(args.F))
    p = args.p if args.p is not None else max(2, 2 * args.N)

    def oracle(dirs):
        base = StepKernel.zero(dirs[0].parts if dirs else p)
        return gateaux_exact(F, DerivativeRequest(base, dirs), limits=limits)

    report = taylor_recover(oracle, args.N, p, limits=limits)
    recovered = report.as_quantum()
    payload = {"coefficients": quantum_to_json(recovered),
               "residuals_ok": report.all_residuals_ok,
               "matches_input": recovered == F}
    lines = [f"{graph_signature(g):40s} {c}" for g, c in recovered.terms()]
    lines.append(f"residuals ok: {report.all_residuals_ok}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_whitney(args, limits) -> int:
    pins = {i + 1: Fraction(x) for i, x in enumerate(args.pins)}
    W = whitney_matrix(args.n, args.k, pins, p=args.p, limits=limits)
    det = W.determinant()
    payload = {"n": W.n, "k": W.k, "p": W.p,
               "classes": [graph_signature(g) for g in W.classes],
               "rows": [[str(x) for x in row] for row in W.rows],
               "determinant": str(det)}
    lines = [f"p = {W.p}"]
    for g, row in zip(W.classes, W.rows):
        lines.append(f"{graph_signature(g):40s} " + " ".join(map(str, row)))
    lines.append(f"determinant: {_fmt(det)}")
    _emit(args, payload, "\n".join(lines))
    return 0 if det != 0 else 1


def _cmd_interpolate(args, limits) -> int:
    points = [_load_kernel(path) for path in args.points]
    values = [Fraction(v) for v in args.values]
    if len(points) != len(values):
        raise UsageError("need exactly one value per point")
    F = lagrange_interpolate(points, values, limits=limits)
    achieved = [str(eval_quantum(F, pt, limits=limits)) for pt in points]
    payload = {"quantum": quantum_to_json(F), "achieved": achieved}
    _emit(args, payload, json.dumps(payload["quantum"]))
    return 0


def _cmd_series_eval(args, limits) -> int:
    F = quantum_from_json(_load_json(args.terms))
    if F.k:
        raise UsageError("series-eval handles unlabelled polynomial series")
    series = PowerSeries.polynomial(F)
    f = _load_kernel(args.kernel)
    value, tail = eval_series(series, f, args.N, limits=limits)
    payload = {"value": str(value), "decimal": float(value),
               "tail_bound": str(tail)}
    _emit(args, payload, f"{_fmt(value)}  tail bound {_fmt(tail)}")
    return 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "hom": _cmd_counting,
    "surj": _cmd_counting,
    "aut": _cmd_counting,
    "density": _cmd_density,
    "cutnorm": _cmd_cutnorm,
    "tensor": _cmd_tensor,
    "sidorenko": _cmd_sidorenko,
    "derivative": _cmd_derivative,
    "extractT": _cmd_extract_T,
    "pi": _cmd_pi,
    "verify": _cmd_verify,
    "taylor-recover": _cmd_taylor_recover,
    "whitney": _cmd_whitney,
    "interpolate": _cmd_interpolate,
    "series-eval": _cmd_series_eval,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        return _HANDLERS[args.command](args, _limits(args))
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
