"""Seeded sweep of identifiability verdicts on exact data.

Instance s (`instance(s)`) draws from numpy's default_rng([2024, s]): n in
{2, 3}, a system from `random_system` (standard normal A scaled to spectral
radius 0.95, standard normal B, redrawn while LtiSystem refuses it), a rank
r in 1..n and Q_bar = G G' for a standard normal n x r G, scaled to
||Q_bar||_F = 0.8. Each instance runs at every (N, M) of GRID, its exact
bundle from `generate_bundle(..., seed=s)`. The tests draw their systems
and sweep instances from these two functions.

One CSV row per (s, N, M) on stdout: the verdict, the rank of the data
matrix A(x) E that `assess` reads off `identifiability._factor` (E's
columns the vec'd `_sym_basis`, Q's Frobenius-orthonormal coordinates), its
smallest singular value over its largest, the relative Frobenius distance
between A(x) E built from the banded solve and from the dense oracle solve
(an estimate of the data's own rounding), and the recovery's max-abs error
or the name of the exception it raised. The `bundle` column is a hash of
X, so two runs can be checked to have swept the same instances.

Run from the repository root:
    PYTHONPATH=src python tools/rank_sweep.py [--seeds 400] > verdicts.csv
"""

import argparse
import csv
import hashlib
import sys

import numpy as np
import scipy.linalg as sla

import ioclqr as io
from ioclqr.identifiability import _factor

GRID = ((6, 1), (8, 2), (30, 40), (50, 200))


def random_system(rng, n, m=1, rho=0.95):
    """Stable-ish controllable system with invertible A (rejection sampled)."""
    for _ in range(200):
        A = rng.standard_normal((n, n))
        lam = np.max(np.abs(np.linalg.eigvals(A)))
        if lam < 1e-9:
            continue
        A *= rho / lam
        B = rng.standard_normal((n, m))
        try:
            return io.LtiSystem(A, B)
        except io.InvalidSystem:
            continue
    raise RuntimeError("no valid system found")


def instance(s):
    """Instance s of the sweep: (system, Q_bar, rank r of Q_bar)."""
    rng = np.random.default_rng([2024, s])
    n = int(rng.integers(2, 4))
    sys_ = random_system(rng, n)
    r = int(rng.integers(1, n + 1))
    G = rng.standard_normal((n, r))
    return sys_, G @ G.T * (0.8 / np.linalg.norm(G @ G.T)), r


def dense_bundle(sys, Q, N, X0):
    """The same episodes from the dense boundary-value oracle."""
    pmp = io.build_pmp_system(sys, Q, N)
    Z = sla.lu_solve(sla.lu_factor(pmp.F_of_Q), pmp.A_tilde @ X0)
    Zb = Z.reshape(N - 1, 2 * sys.n, -1)
    X = np.concatenate([X0[None], Zb[:, : sys.n]]).transpose(2, 1, 0)
    U = -np.einsum("ji,tjm->mit", sys.B, Zb[:, sys.n :])
    return io.TrajectoryBundle(np.ascontiguousarray(X), np.ascontiguousarray(U))


def row(s, sys, Qbar, r, N, M):
    bundle = io.generate_bundle(sys, io.CostMatrix(Qbar, psd_tol=1e-3), N=N, M=M, seed=s)
    _, AE, _, sv, *_ = _factor(sys, bundle)  # the factorization `assess` reads
    dense = _factor(sys, dense_bundle(sys, Qbar, N, bundle.initial_states()))[1]
    rounding = np.linalg.norm(AE - dense) / np.linalg.norm(AE)
    report = io.assess(sys, bundle)
    try:
        Q = io.recover_exact(sys, bundle, report=report).Q
        recovery = "%.2e" % np.abs(Q - Qbar).max()
    except io.IocError as e:
        recovery = type(e).__name__
    digest = hashlib.sha256(bundle.X.tobytes()).hexdigest()[:12]
    ratio = sv[-1] / sv[0] if len(sv) == AE.shape[1] else 0.0  # a wide matrix has a kernel
    return [s, sys.n, r, N, M, report.verdict, report.rank_AD, "%.2e" % ratio,
            "%.1e" % rounding, recovery, digest]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=400, help="instances s = 0..seeds-1")
    args = p.parse_args(argv)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["s", "n", "r", "N", "M", "verdict", "rank", "sv_ratio", "rounding",
                  "recovery", "bundle"])
    for s in range(args.seeds):
        sys_, Qbar, r = instance(s)
        for N, M in GRID:
            out.writerow(row(s, sys_, Qbar, r, N, M))


if __name__ == "__main__":
    main()
