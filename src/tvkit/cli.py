"""Command-line front end.

Every subcommand validates its flags before computing, writes a JSON report
(CSV on request) to stdout or ``--out``, and exits 0 on success / 2 on
validation errors with a one-line diagnostic on stderr.  Stochastic
subcommands require an explicit ``--seed`` and identical invocations produce
byte-identical reports.  Integrals of sampled pairs are exact (jump sum for
step completions, trapezoid sum for generated linear pairs), so no subcommand
refines a partition; ``integrate --tol`` only sets the certified tail of
``bound_S``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import __version__
from .approx import linear_approx, sandwich, step_approx
from .errors import TvkitError
from .integrate import (choose_sequences, improved_ly_check, irregularity_check,
                        rs_integral, young_bound_S)
from .paths import (NormKind, OperatorPath, SampledPath, gen_alpha_stable,
                    gen_fixture, path_to_json_dict, read_path_csv,
                    read_path_json, write_path_csv)
from .seminorm import p_tv_seminorm
from .variation import PhiSpec, p_variation, phi_variation, ttv

SUBCOMMANDS = ("ttv", "pvar", "phivar", "seminorm", "approx", "integrate",
               "ly-check", "irregularity", "gen")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tvkit", description=__doc__)
    top.add_argument("--version", action="version", version=f"tvkit {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, tol=False, trials=False):
        p.add_argument("--input", action="append", default=[],
                       help="path file (CSV: time,v1,..,vd; or JSON); repeat "
                            "for integrand+integrator pairs")
        p.add_argument("--fixture", help="built-in path: circle3|stepSplit|logSeq")
        p.add_argument("--gen", dest="generator", help="generator: alpha-stable")
        p.add_argument("--fixture-p", type=float, help="logSeq exponent (> 1)")
        p.add_argument("--fixture-n", type=int, help="logSeq spike count (>= 2)")
        p.add_argument("--alpha", type=float, default=1.8,
                       help="stability index for --gen alpha-stable (default 1.8)")
        p.add_argument("--n", type=int, default=256,
                       help="sample count for --gen (default 256)")
        p.add_argument("--scale", type=float, default=1.0,
                       help="scale for --gen (default 1.0)")
        p.add_argument("--horizon", type=float, default=1.0,
                       help="time horizon for --gen (default 1.0)")
        p.add_argument("--norm", default="euclidean",
                       help="euclidean|sup|l1 (default euclidean)")
        if tol:
            p.add_argument("--tol", type=float, default=1e-9,
                           help="tolerance of series tails and constants (default 1e-9)")
        p.add_argument("--seed", type=int, help="seed for stochastic subcommands "
                                                "(mandatory there; no wall-clock seeding)")
        if trials:
            p.add_argument("--trials", type=int, default=1,
                           help="independent seeded trials (default 1)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--out", help="write the report to this file instead of stdout")

    p = sub.add_parser("ttv", help="truncated variation at threshold c")
    p.add_argument("--c", type=float, required=True, help="threshold (>= 0, same units as values)")
    common(p)

    p = sub.add_parser("pvar", help="p-variation (the p-th power sum)")
    p.add_argument("--p", type=float, required=True, help="exponent (>= 1)")
    common(p)

    p = sub.add_parser("phivar", help="phi-variation for a built-in weight family")
    p.add_argument("--p", type=float, required=True, help="family exponent (> 1)")
    p.add_argument("--gamma", type=float, required=True, help="family log power (> 1)")
    p.add_argument("--kind", type=int, default=1, choices=(1, 2), help="family kind")
    common(p)

    p = sub.add_parser("seminorm", help="threshold-variation seminorm")
    p.add_argument("--p", type=float, required=True, help="exponent (>= 1)")
    common(p)

    p = sub.add_parser("approx", help="greedy approximant and sandwich bounds")
    p.add_argument("--c", type=float, required=True, help="uniform accuracy budget (> 0)")
    p.add_argument("--lambda", dest="lambdas", default="2",
                   help="comma list of lambda > 1 for the upper bound (default 2)")
    p.add_argument("--eps-cont", type=float, default=0.0,
                   help="continuity threshold for the linear approximant (default 0)")
    common(p)

    p = sub.add_parser("integrate", help="Riemann-Stieltjes integral of f dg")
    p.add_argument("--p", type=float, help="integrand variation exponent (enables bound_S)")
    p.add_argument("--q", type=float, help="integrator variation exponent (enables bound_S)")
    common(p, tol=True)

    p = sub.add_parser("ly-check", help="integral deviation vs. variation-product bound")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    common(p, tol=True, trials=True)

    p = sub.add_parser("irregularity", help="seminorm transfer to the indefinite integral")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    common(p, tol=True, trials=True)

    p = sub.add_parser("gen", help="emit a generated or built-in path")
    common(p)
    return top


def _load_file(name: str, norm: NormKind) -> SampledPath:
    if name.endswith(".json"):
        return read_path_json(name)
    return read_path_csv(name, norm)


def _single_path(args, seed=None) -> SampledPath:
    sources = [bool(args.input), args.fixture is not None, args.generator is not None]
    if sum(sources) != 1:
        raise TvkitError("give exactly one of --input, --fixture, --gen")
    norm = NormKind.parse(args.norm)
    if args.input:
        if len(args.input) != 1:
            raise TvkitError("this subcommand takes exactly one --input")
        return _load_file(args.input[0], norm)
    if args.fixture is not None:
        return gen_fixture(args.fixture, p=args.fixture_p, n=args.fixture_n)
    return _gen_path(args, seed if seed is not None else _require_seed(args))


def _require_seed(args):
    if args.seed is None:
        raise TvkitError("--seed is mandatory for stochastic subcommands")
    return args.seed


def _gen_path(args, seed) -> SampledPath:
    if args.generator != "alpha-stable":
        raise TvkitError(f"unknown generator {args.generator!r}; expected alpha-stable")
    return gen_alpha_stable(args.n, args.alpha, scale=args.scale, seed=seed,
                            horizon=args.horizon)


def _stagger(path: SampledPath) -> SampledPath:
    """Move every jump to an inter-sample midpoint, holding the final value.

    Keeps the interval endpoints and the value sequence; after staggering,
    the path jumps strictly between the original grid points, so a pair of
    generated paths gets disjoint jump times for step-semantics operations.
    """
    mids = 0.5 * (path.times[:-1] + path.times[1:])
    times = np.concatenate(([path.times[0]], mids, [path.times[-1]]))
    values = np.concatenate((path.values, path.values[-1:]))
    return SampledPath(times, values, path.norm)


def _integrand_pair(args, seed=None, stagger=False):
    """(f: OperatorPath, g: SampledPath, completion) for the integral subcommands."""
    norm = NormKind.parse(args.norm)
    if args.input:
        if len(args.input) != 2:
            raise TvkitError("integral subcommands need two --input files (f then g)")
        f_raw = _load_file(args.input[0], norm)
        g = _load_file(args.input[1], norm)
        f = (OperatorPath.from_scalar_path(f_raw) if f_raw.dim == 1
             else OperatorPath.from_flat_path(f_raw))
        if f.dim != g.dim:
            raise TvkitError("integrand and integrator dimensions do not match")
        return f, g, "step"
    if args.generator is not None:
        if isinstance(seed, np.random.SeedSequence):
            base = seed
        else:
            base = np.random.SeedSequence(_require_seed(args) if seed is None else seed)
        f_seed, g_seed = base.spawn(2)
        f_path = _gen_path(args, f_seed)
        g_path = _gen_path(args, g_seed)
        if stagger:
            return OperatorPath.from_scalar_path(f_path), _stagger(g_path), "step"
        return OperatorPath.from_scalar_path(f_path), g_path, "linear"
    raise TvkitError("give two --input files or --gen for integral subcommands")


def _round_trip(obj):
    """floats -> repr-faithful JSON scalars, arrays -> lists."""
    if isinstance(obj, dict):
        return {k: _round_trip(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_trip(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_trip(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(report, args) -> str:
    report = _round_trip(report)
    if args.fmt == "csv":
        buf = io.StringIO()
        flat = _flatten(report)
        buf.write("key,value\n")
        for k, v in flat:
            buf.write(f"{k},{json.dumps(v, allow_nan=False)}\n")
        return buf.getvalue()
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _with_trials(args, one_trial):
    """Run one_trial per derived seed; ordering is by trial index."""
    if args.trials < 1:
        raise TvkitError("--trials must be at least 1")
    if args.trials == 1:
        return one_trial(None)
    base = np.random.SeedSequence(_require_seed(args))
    seeds = base.spawn(args.trials)
    return {"trials": [one_trial(s) for s in seeds]}


def _cmd_ttv(args):
    path = _single_path(args)
    if not args.c >= 0.0:
        raise TvkitError("--c must be nonnegative")
    return {"op": "ttv", "c": args.c, "norm": path.norm.value,
            "value": ttv(path, args.c)}


def _cmd_pvar(args):
    path = _single_path(args)
    return {"op": "pvar", "p": args.p, "value": p_variation(path, args.p)}


def _cmd_phivar(args):
    path = _single_path(args)
    phi = PhiSpec.family(args.kind, args.p, args.gamma)
    return {"op": "phivar", "p": args.p, "gamma": args.gamma, "kind": args.kind,
            "value": phi_variation(path, phi)}


def _cmd_seminorm(args):
    path = _single_path(args)
    rep = p_tv_seminorm(path, args.p)
    try:
        value_pow_p = rep.value ** args.p
    except OverflowError:
        raise TvkitError(f"value^p overflows a float (value {rep.value!r}, p {args.p!r})") from None
    return {"op": "seminorm", "p": args.p, "value": rep.value,
            "value_pow_p": value_pow_p,
            "argmax_k": rep.argmax_k, "argmax_delta": rep.argmax_delta}


def _cmd_approx(args):
    path = _single_path(args)
    lams = tuple(float(x) for x in str(args.lambdas).split(",") if x)
    sw = sandwich(path, args.c, lams)
    step = step_approx(path, args.c)
    lin = linear_approx(path, args.c, eps_cont=args.eps_cont)
    report = {
        "op": "approx", "c": args.c, "lambdas": list(lams),
        "lower": sw.lower, "witness_tv": sw.witness_tv, "upper": sw.upper,
        "step": {"tv": step.tv, "sup_distance": step.sup_distance,
                 "taus": step.skeleton.taus, "branch": list(step.skeleton.branch)},
        "linear": {"tv": lin.tv, "sup_distance": lin.sup_distance},
    }
    return step.path if args.fmt == "csv" else report


def _cmd_integrate(args):
    f, g, completion = _integrand_pair(args)
    rep = rs_integral(f, g, tol=args.tol, completion=completion)
    report = {"op": "integrate", "value": rep.value, "levels": rep.refinement_levels,
              "cauchy_gap": rep.cauchy_gap}
    if args.p is not None and args.q is not None:
        seqs = choose_sequences(args.p, args.q, f, g)
        report["bound_S"] = young_bound_S(f, g, seqs, tail_tol=args.tol)
    return report


def _cmd_ly_check(args):
    def one(seed):
        f, g, completion = _integrand_pair(args, seed)
        rep = improved_ly_check(f, g, args.p, args.q, tol=args.tol,
                                completion=completion)
        seqs = choose_sequences(args.p, args.q, f, g)
        bound_s = young_bound_S(f, g, seqs, tail_tol=max(args.tol, 1e-9))
        return {"op": "ly-check", "value": rep.value, "bound_S": bound_s,
                "ly": {"lhs": rep.ly_lhs, "rhs": rep.ly_rhs,
                       "ratio": rep.ratio, "C_pq": rep.c_pq}}
    return _with_trials(args, one)


def _cmd_irregularity(args):
    # step semantics: generated pairs are staggered so their jumps stay disjoint
    def one(seed):
        f, g, _ = _integrand_pair(args, seed, stagger=True)
        rep = irregularity_check(f, g, args.p, args.q, tol=args.tol)
        return {"op": "irregularity", "lhs": rep.lhs, "rhs": rep.rhs,
                "ratio": rep.ratio, "D_pq": rep.d_pq}
    return _with_trials(args, one)


def _cmd_gen(args):
    path = _single_path(args)
    return path if args.fmt == "csv" else path_to_json_dict(path)


_HANDLERS = {
    "ttv": _cmd_ttv,
    "pvar": _cmd_pvar,
    "phivar": _cmd_phivar,
    "seminorm": _cmd_seminorm,
    "approx": _cmd_approx,
    "integrate": _cmd_integrate,
    "ly-check": _cmd_ly_check,
    "irregularity": _cmd_irregularity,
    "gen": _cmd_gen,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep its codes
        return int(exc.code or 0)
    try:
        report = _HANDLERS[args.subcommand](args)
        if isinstance(report, SampledPath):  # a path CSV, streamed a block of rows at a time
            write_path_csv(report, args.out or sys.stdout)
        elif args.out:
            text = _emit(report, args)
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(_emit(report, args))
    except (TvkitError, ValueError, OSError) as exc:
        print(f"tvkit: error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
