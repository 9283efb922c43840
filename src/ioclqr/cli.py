"""Command-line surface.

Five subcommands cover the batch workflows: forward (solve for one optimal
episode), generate (sample a dataset, optionally noisy), identify (rank and
certificate report), estimate (recover the state cost by one of four
methods), and bench (Monte-Carlo consistency study). Exit codes: 0 success,
1 file or parse trouble, 2 validation failure, 3 solver non-convergence or
a numerical failure (a floating-point overflow or a failed LAPACK call).
"""

import argparse
import functools
import os
import sys

import numpy as np

from .bench_harness import METHODS, BenchConfig, fit, run_benchmark
from .core_model import (
    DEFAULT_PHI,
    load_bundle,
    load_cost,
    load_system,
    read_json,
    save_bundle,
    write_json,
)
from .errors import IocError, NumericalFailure, SolverNotConverged
from .forward_lqr import add_noise, generate_bundle
from .identifiability import assess

DEFAULT_HORIZON = 50


def _x0_type(text):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad x0 {text!r}, want comma-separated floats")
    if not vals:
        raise argparse.ArgumentTypeError("x0 is empty")
    if not np.isfinite(vals).all():
        raise argparse.ArgumentTypeError(f"x0 {text!r} is not finite")
    return np.array(vals)


def _snr_type(text):
    if text.lower() == "none":
        return None
    try:
        snr = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR {text!r}, want a number of dB or 'none'")
    if not np.isfinite(snr):
        raise argparse.ArgumentTypeError(f"SNR {text!r} is not finite")
    return snr


def _seed_type(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {text!r} is negative")
    return seed


def _workers_type(text):
    workers, most = int(text), os.cpu_count() or 1
    if not 0 <= workers <= most:
        raise argparse.ArgumentTypeError(f"workers {text!r} is outside 0..{most}")
    return workers


def _glue_x0(argv):
    """`--x0 -1,2` -> `--x0=-1,2`: argparse takes a separate value that starts
    with '-' and is not a plain number for an option string."""
    out = []
    for tok in argv:
        if out and out[-1] == "--x0" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def cmd_forward(args):
    sys_ = load_system(args.system)
    cost = load_cost(args.cost)
    bundle = generate_bundle(sys_, cost, args.horizon, 1, init_sampler=lambda rng: args.x0)
    save_bundle(
        bundle,
        args.out,
        comments=[f"settings horizon={args.horizon} phi={cost.phi:g}"],
    )
    print(f"wrote {args.out} (N={args.horizon}, 1 episode)")


def cmd_generate(args):
    sys_ = load_system(args.system)
    cost = load_cost(args.cost)
    bundle = generate_bundle(sys_, cost, args.horizon, args.episodes, seed=args.seed)
    noisy = add_noise(
        bundle, args.snr_x, args.snr_u, seed=np.random.SeedSequence([args.seed, 1])
    )
    save_bundle(
        noisy,
        args.out,
        comments=[
            "settings horizon={} episodes={} seed={} phi={:g}".format(
                args.horizon, args.episodes, args.seed, cost.phi
            )
        ],
    )
    print(f"wrote {args.out} (kind={noisy.kind}, M={noisy.M})")


def cmd_identify(args):
    sys_ = load_system(args.system)
    bundle = load_bundle(args.bundle)
    report = assess(sys_, bundle)
    write_json(report.to_json(), args.out)
    print(f"verdict: {report.verdict} (rank {report.rank_AD}, kernel dim {report.kernel_dim})")


def cmd_estimate(args):
    sys_ = load_system(args.system)
    bundle = load_bundle(args.bundle)
    result = fit(sys_, bundle, args.mode.replace("-", "_"), args.phi)
    result.config.update({"N": bundle.N, "M": bundle.M})
    if not result.converged:
        raise SolverNotConverged(
            f"{result.method} stopped without meeting tolerances: {result.status} "
            f"after {result.n_iter} steps (final grad norm {result.grad_norm_final:.2e})"
        )
    write_json(result.to_json(), args.out)
    print(f"wrote {args.out} (method={result.method}, converged={result.converged})")


def cmd_bench(args):
    if args.config:
        config = BenchConfig.from_json(read_json(args.config), args.config)
    else:
        config = BenchConfig()
    run_benchmark(config, out_dir=args.out_dir, n_workers=args.workers or None)
    print(f"wrote trials.csv, summary.csv, timings.csv under {args.out_dir}")


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="ioclqr",
        description="Inverse optimal control for finite-horizon LQR: forward solves, "
        "identifiability checks, cost recovery, and consistency benchmarks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("forward", help="solve the LQR and simulate one episode")
    f.add_argument("--system", required=True, help="system JSON (A, B)")
    f.add_argument("--cost", required=True, help="cost JSON (Q, phi)")
    f.add_argument("--x0", required=True, type=_x0_type, help="comma-separated initial state")
    f.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help="horizon N (default %(default)s)")
    f.add_argument("--out", required=True, help="trajectory CSV to write")

    g = sub.add_parser("generate", help="sample a trajectory dataset, optionally noisy")
    g.add_argument("--system", required=True)
    g.add_argument("--cost", required=True)
    g.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    g.add_argument("--episodes", type=int, default=1, help="number of episodes M")
    g.add_argument("--seed", type=_seed_type, default=0)
    g.add_argument("--snr-x", type=_snr_type, default="none", help='state SNR in dB, or "none"')
    g.add_argument("--snr-u", type=_snr_type, default="none", help='input SNR in dB, or "none"')
    g.add_argument("--out", required=True)

    i = sub.add_parser("identify", help="identifiability report for an exact dataset")
    i.add_argument("--system", required=True)
    i.add_argument("--bundle", required=True, help="trajectory CSV")
    i.add_argument("--out", required=True, help="report JSON to write")

    e = sub.add_parser("estimate", help="recover the state cost from a dataset")
    e.add_argument("--system", required=True)
    e.add_argument("--bundle", required=True)
    e.add_argument(
        "--mode",
        required=True,
        choices=tuple(m.replace("_", "-") for m in ("exact", *METHODS)),
        help="estimator to run",
    )
    e.add_argument("--phi", type=float, default=DEFAULT_PHI, help="Frobenius ball radius squared")
    e.add_argument("--out", required=True, help="estimate JSON to write")

    b = sub.add_parser("bench", help="run the Monte-Carlo consistency benchmark")
    b.add_argument("--config", help="benchmark config JSON (defaults used if omitted)")
    b.add_argument("--out-dir", required=True)
    b.add_argument("--workers", type=_workers_type, default=0,
                   help="worker processes, 0..cpu count (default 0: cpu count, at most 4)")
    return p


def main(argv=None):
    args = build_parser().parse_args(_glue_x0(sys.argv[1:] if argv is None else argv))
    try:
        # an overflow or invalid operation is a numerical failure, not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            globals()[f"cmd_{args.command}"](args)
    except (FloatingPointError, np.linalg.LinAlgError) as e:
        # numpy's message names an operation, so name the files that fed it
        paths = (vars(args).get(k) for k in ("system", "cost", "bundle", "config"))
        inputs = ", ".join(filter(None, paths))
        print(f"error: numerical failure: {e}" + (f" (inputs: {inputs})" if inputs else ""),
              file=sys.stderr)
        return NumericalFailure.exit_code
    except (IocError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
