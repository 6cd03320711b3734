"""Command-line front end: verification suites and computations with JSON/CSV output.

Subcommands
    verify  -- relation suite and symbolic/matrix agreement for a mode count
    potts   -- chain partition function by one or all of the four routes
    repr    -- dump ladder representation matrices
    heat    -- discretized vs exact propagator for a diagonal Hamiltonian
    qgroup  -- quantum-group generator quadruple and its relation report

Output is deterministic for a fixed argument list: stable key order, no
timestamps, randomized sweeps driven by an explicit --seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import errors
from .dynamics import (
    build_hamiltonian,
    discretized_propagator,
    exact_propagator,
    hermiticity_check,
    step_kernel,
)
from .integration import (
    derivative_integral_checks,
    expq_addition_check,
    integral_via_derivatives,
    pairing_integral,
)
from .multimode import PGAlgebra, all_passed, build_multimode, check_relations, poly_matrix, word_matrix
from .potts import delta_expansion_check
from .qarith import complex_to_json, make_context
from .qgroup import build_glq2, build_slq2, check_glq2_relations
from .single_mode import build_rep
from . import potts as potts_mod


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from exc


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, allow_nan=False))


# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    ctx = make_context(args.p)
    rep = build_multimode(ctx, args.modes, cap=args.cap)
    checks = check_relations(rep)

    alg = PGAlgebra(ctx, args.modes)
    rng = random.Random(args.seed)
    symbols = [(kind, mode) for mode in range(1, args.modes + 1) for kind in ("theta", "tbar")]
    for w in range(args.words):
        length = rng.randint(1, 2 * ctx.p)
        word = [rng.choice(symbols) for _ in range(length)]
        ordered = alg.normal_order(word)
        agree = poly_matrix(rep, ordered) == word_matrix(rep, word)
        checks.append(
            {
                "name": f"word agreement #{w}",
                "passed": agree,
                "detail": " ".join(f"{k}{m}" for k, m in word),
            }
        )

    # integral calculus at this p
    table_ok = True
    for n in range(ctx.p + 1):
        for m in range(ctx.p + 1):
            f = [0] * n + [1] + [0] * (ctx.p - n)
            g = [0] * m + [1] + [0] * (ctx.p - m)
            want = ctx.q_factorial(n) if n == m else ctx.zero
            table_ok = table_ok and pairing_integral(ctx, f, g) == want
            table_ok = table_ok and integral_via_derivatives(ctx, f, g) == want
    checks.append(
        {"name": "pairing table (both routes)", "passed": table_ok,
         "detail": "delta_{n,m} (n)_q! on all monomial pairs"}
    )
    checks.extend(expq_addition_check(ctx))
    rand_coeffs = [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * ctx.p + 2)
    ]
    checks.extend(
        derivative_integral_checks(
            ctx, rand_coeffs[: ctx.p + 1], rand_coeffs[ctx.p + 1 :]
        )
    )
    checks.extend(delta_expansion_check(ctx))

    doc = {
        "params": {"p": args.p, "modes": args.modes, "cap": args.cap, "seed": args.seed},
        "results": {"dimension": rep.dim, "checks_total": len(checks)},
        "checks": checks,
    }
    _emit(doc)
    return 0 if all_passed(checks) else 1


def _cmd_potts(args) -> int:
    x = args.x if args.exact else float(args.x)
    inst = potts_mod.PottsInstance(args.p, args.sites, x)
    methods = ["closed", "transfer", "brute", "integral"] if args.method == "all" else [args.method]
    if "integral" in methods and not args.exact:
        if args.method == "integral":
            raise ValueError("the integral route requires --exact")
        methods.remove("integral")

    routes = {
        "closed": potts_mod.z_closed,
        "transfer": potts_mod.z_transfer,
        "brute": potts_mod.z_bruteforce,
        "integral": lambda i: potts_mod.z_paragrassmann(i, term_cap=args.cap),
    }
    values = {method: routes[method](inst) for method in methods}

    vals = list(values.values())
    if args.exact:
        agreement = all(v == vals[0] for v in vals)
    else:
        scale = max(abs(v) for v in vals) or 1.0
        agreement = all(abs(v - vals[0]) <= 1e-10 * scale for v in vals)

    if args.format == "csv":
        print("p,N,x,method,value_re,value_im")
        for method, v in values.items():
            print(f"{args.p},{args.sites},{args.x},{method},{float(v)!r},0.0")
        return 0 if agreement else 1

    doc = {
        "params": {
            "p": args.p,
            "sites": args.sites,
            "x": str(args.x),
            "exact": args.exact,
            "method": args.method,
        },
        "results": {
            **{m: (str(v) if args.exact else float(v)) for m, v in values.items()},
            "agreement": agreement,
        },
        "checks": [
            {"name": "route agreement", "passed": agreement,
             "detail": "exact" if args.exact else "relative 1e-10"}
        ],
    }
    _emit(doc)
    return 0 if agreement else 1


def _cmd_repr(args) -> int:
    ctx = make_context(args.p)
    rep = build_rep(ctx, args.beta)
    available = {
        "theta": rep.theta,
        "partial": rep.partial,
        "g": rep.g,
        "g_half": rep.g_half,
        "g_inv": rep.g_inv,
        "g_half_inv": rep.g_half_inv,
    }
    unknown = [name for name in args.dump if name not in available]
    if unknown:
        raise ValueError(f"unknown matrices {unknown}")
    doc = {
        "params": {
            "p": args.p,
            "beta": [str(b) for b in args.beta] if args.beta else None,
            "dump": args.dump,
        },
        "results": {name: available[name].to_json() for name in args.dump},
        "checks": [],
    }
    _emit(doc)
    return 0


def _cmd_heat(args) -> int:
    if not all(math.isfinite(v) for v in args.h):
        raise ValueError(f"--h values must be finite, got {args.h}")
    if not math.isfinite(args.time):
        raise ValueError(f"--time must be finite, got {args.time}")
    ctx = make_context(args.p)
    ham = build_hamiltonian(ctx, args.h)
    exact = exact_propagator(ham, args.time)
    disc = discretized_propagator(ham, args.time, args.steps, kernel=args.kernel, sign=args.sign)
    kern = step_kernel(ham, args.time / args.steps, sign=args.sign)
    max_error = float(max(abs(disc - exact)))

    results = {
        "energies": [complex_to_json(e) for e in ham.energies],
        "step_factors": [complex_to_json(v) for v in kern],
        "discretized": [complex_to_json(v) for v in disc],
        "exact": [complex_to_json(v) for v in exact],
        "max_error": max_error,
    }
    checks = hermiticity_check(ham)
    if args.convergence:
        ladder = []
        prev = None
        ok = True
        for steps in (16, 32, 64, 128):
            d = discretized_propagator(ham, args.time, steps, kernel="euler", sign=args.sign)
            err = float(max(abs(d - exact)))
            ratio = None if prev is None else err / prev
            if ratio is not None and ratio > 0.75:
                ok = False
            ladder.append({"steps": steps, "max_error": err, "ratio": ratio})
            prev = err
        results["convergence"] = ladder
        checks.append(
            {"name": "first-order convergence", "passed": ok,
             "detail": "error(2N) <= 0.75 error(N), euler kernel"}
        )

    doc = {
        "params": {
            "p": args.p,
            "h": list(args.h),
            "time": args.time,
            "steps": args.steps,
            "kernel": args.kernel,
            "sign": args.sign,
            "convergence": args.convergence,
        },
        "results": results,
        "checks": checks,
    }
    _emit(doc)
    return 0 if all_passed(checks) else 1


def _cmd_qgroup(args) -> int:
    ctx = make_context(args.p)
    if args.sl:
        rep = build_slq2(ctx, args.alpha, args.beta)
    else:
        rep = build_glq2(ctx, args.alpha, args.beta, args.gamma)
    checks = check_glq2_relations(rep)
    doc = {
        "params": {
            "p": args.p,
            "alpha": str(args.alpha),
            "beta": str(args.beta),
            "gamma": str(args.gamma) if not args.sl else None,
            "sl": args.sl,
        },
        "results": {
            "a": rep.a.to_json(),
            "b": rep.b.to_json(),
            "c": rep.c.to_json(),
            "d": rep.d.to_json(),
            "qdet": rep.qdet.to_json(),
        },
        "checks": checks,
    }
    _emit(doc)
    return 0 if all_passed(checks) else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pga",
        description="exact computations in nilpotent q-oscillator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="relation and agreement suite")
    p_verify.add_argument("--p", type=_positive_int, required=True)
    p_verify.add_argument("--modes", type=_positive_int, required=True)
    p_verify.add_argument("--cap", type=int, default=4096)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--words", type=int, default=12)
    p_verify.set_defaults(handler=_cmd_verify)

    p_potts = sub.add_parser("potts", help="chain partition function")
    p_potts.add_argument("--p", type=_positive_int, required=True)
    p_potts.add_argument("--sites", type=_positive_int, required=True)
    p_potts.add_argument("--x", type=_fraction, required=True)
    p_potts.add_argument(
        "--method",
        choices=["closed", "transfer", "brute", "integral", "all"],
        default="all",
    )
    p_potts.add_argument("--exact", action="store_true")
    p_potts.add_argument("--format", choices=["json", "csv"], default="json")
    p_potts.add_argument("--cap", type=int, default=200_000)
    p_potts.set_defaults(handler=_cmd_potts)

    p_repr = sub.add_parser("repr", help="dump representation matrices")
    p_repr.add_argument("--p", type=_positive_int, required=True)
    p_repr.add_argument("--beta", type=_fraction_list, default=None)
    p_repr.add_argument(
        "--dump",
        type=lambda s: [part for part in s.split(",") if part],
        default=["theta", "partial", "g"],
    )
    p_repr.add_argument("--format", choices=["json"], default="json")
    p_repr.set_defaults(handler=_cmd_repr)

    p_heat = sub.add_parser("heat", help="discretized heat kernel")
    p_heat.add_argument("--p", type=_positive_int, required=True)
    p_heat.add_argument("--h", type=_float_list, required=True)
    p_heat.add_argument("--time", type=float, required=True)
    p_heat.add_argument("--steps", type=_positive_int, required=True)
    p_heat.add_argument("--kernel", choices=["expm", "euler"], default="expm")
    p_heat.add_argument("--sign", type=int, choices=[1, -1], default=1)
    p_heat.add_argument("--convergence", action="store_true")
    p_heat.set_defaults(handler=_cmd_heat)

    p_qgroup = sub.add_parser("qgroup", help="quantum-group generators")
    p_qgroup.add_argument("--p", type=_positive_int, required=True)
    p_qgroup.add_argument("--alpha", type=_fraction, required=True)
    p_qgroup.add_argument("--beta", type=_fraction, required=True)
    p_qgroup.add_argument("--gamma", type=_fraction, default=Fraction(1))
    p_qgroup.add_argument("--sl", action="store_true")
    p_qgroup.add_argument("--format", choices=["json"], default="json")
    p_qgroup.set_defaults(handler=_cmd_qgroup)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (errors.PgaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
