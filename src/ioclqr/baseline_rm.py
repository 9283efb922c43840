"""Residual-minimization baseline estimator.

Minimizes the stationarity residuals of the optimality conditions directly on
the noisy observations, jointly over Q and the per-episode adjoint sequences
(lambda_N = 0). The adjoints enter quadratically, so they are eliminated in
closed form through an orthogonal projector; what remains is a convex
quadratic in vech(Q), the data term of the fitting core the risk estimator
uses (same penalties, L-BFGS-B loop and final projection).
"""

import numpy as np

from .core_model import CostMatrix, DEFAULT_PHI, duplication_map, unvech
from .errors import DimensionMismatch
from .estimate_noisy import EstimateResult, _fit, _fit_config, _penalized


def _reduced_quadratic(sys, bundle):
    """Eliminate the adjoints: residual(Q, lambda) = H lambda + S_i vech(Q) + d_i
    per episode, with H shared. Partial minimization over lambda leaves
    g(q) = q'Wq + 2v'q + c0."""
    n, m, N = sys.n, sys.m, bundle.N
    A, B = sys.A, sys.B
    nl = (N - 2) * n  # unknowns lambda_2..lambda_{N-1}
    rows_adj = (N - 2) * n  # lambda_t - A'lambda_{t+1} - Q y_t, t = 2..N-1
    rows_u = (N - 1) * m  # mu_t + B'lambda_{t+1}, t = 1..N-1
    H = np.zeros((rows_adj + rows_u, nl))
    for t in range(2, N):
        rb = (t - 2) * n
        H[rb : rb + n, (t - 2) * n : (t - 1) * n] = np.eye(n)
        if t + 1 <= N - 1:
            H[rb : rb + n, (t - 1) * n : t * n] = -A.T
    for t in range(1, N):
        rb = rows_adj + (t - 1) * m
        if t + 1 <= N - 1:
            H[rb : rb + m, (t - 1) * n : t * n] = B.T
    # orthogonal projector onto the complement of range(H)
    Qh, _ = np.linalg.qr(H)
    nv = n * (n + 1) // 2
    M = bundle.M
    # C = [S d] for every episode, side by side: S's rows -(x_t' kron I) D
    # for t = 2..N-1 (kron(x', I) vec(Q) = Q x), d's rows the inputs
    Dr = duplication_map(n).reshape(n, n, nv)  # Dr[j, i] is row j*n + i
    X = np.stack([ep.x[:, 1 : N - 1] for ep in bundle.episodes])  # M x n x (N-2)
    C = np.zeros((rows_adj + rows_u, M, nv + 1))
    C[:rows_adj, :, :nv] = -np.einsum("mjt,jiv->timv", X, Dr).reshape(rows_adj, M, nv)
    C[rows_adj:, :, nv] = np.stack([ep.u.flatten(order="F") for ep in bundle.episodes], axis=1)
    # sum over episodes of C'(I - Qh Qh')C = C'C - (Qh'C)'(Qh'C)
    T = (Qh.T @ C.reshape(len(C), -1)).reshape(-1, nv + 1)
    Cf = C.reshape(-1, nv + 1)
    G = Cf.T @ Cf - T.T @ T
    return G[:nv, :nv], G[:nv, nv], float(G[nv, nv])


def estimate_rm(
    sys,
    bundle,
    phi=DEFAULT_PHI,
    epsilon=1e-3,
    penalty_weight=1e4,
    max_iters=2000,
    grad_tol=1e-7,
):
    """Residual-minimization estimate of Q.

    The scale of Q is pinned by the input residuals (the input cost weight is
    fixed at identity), so no normalization is imposed; downstream error
    metrics still apply an optimal rescaling, which can only favor this
    baseline. Zero-information data (all observations zero) makes every Q
    optimal; then Q = I is returned with degenerate=True.
    """
    config = _fit_config(phi, epsilon, penalty_weight, max_iters, grad_tol)
    if bundle.n != sys.n or bundle.m != sys.m:
        raise DimensionMismatch("bundle dimensions do not match the system")
    n = sys.n
    method = "residual_minimization"
    W, v, c0 = _reduced_quadratic(sys, bundle)
    data_scale = max(
        float(sum(np.sum(ep.x**2) + np.sum(ep.u**2) for ep in bundle.episodes)), 1.0
    )
    if np.linalg.norm(W) <= 1e-14 * data_scale and np.linalg.norm(v) <= 1e-14 * data_scale:
        return EstimateResult(
            CostMatrix(np.eye(n), phi=phi), method=method, degenerate=True, config=config
        )

    def residual(q, Qm):
        # W, v act on vech(Q) directly; the gradient goes back to matrix
        # form with halved off-diagonal entries, which Dmap' maps exactly
        # onto g (halving is exact)
        g = (W + W.T) @ q + 2.0 * v
        G = 0.5 * unvech(g, n)
        G[np.diag_indices(n)] *= 2.0
        return float(q @ W @ q + 2.0 * v @ q + c0), G

    return _fit(_penalized(residual, n, config), n, config, 1e-15, method)
