"""Residual-minimization baseline estimator.

Minimizes the stationarity residuals of the optimality conditions directly on
the noisy observations, jointly over Q and the per-episode adjoint sequences
(lambda_N = 0). The adjoints enter quadratically, so they are eliminated in
closed form through an orthogonal projector; what remains is a convex
quadratic in vech(Q) plus the same smoothed-eigenvalue PSD penalty used by
the risk estimator.
"""

import numpy as np
from scipy.optimize import minimize

from .core_model import CostMatrix, DEFAULT_PHI, duplication_map, unvech, vech
from .errors import DimensionMismatch
from .estimate_noisy import EstimateResult, _finalize_q, smoothed_max_eig


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
    if bundle.n != sys.n or bundle.m != sys.m:
        raise DimensionMismatch("bundle dimensions do not match the system")
    n = sys.n
    W, v, c0 = _reduced_quadratic(sys, bundle)
    data_scale = max(
        float(sum(np.sum(ep.x**2) + np.sum(ep.u**2) for ep in bundle.episodes)), 1.0
    )
    degenerate = np.linalg.norm(W) <= 1e-14 * data_scale and np.linalg.norm(v) <= 1e-14 * data_scale
    Dmap = duplication_map(n)
    if degenerate:
        Qm = np.eye(n)
        psd_margin = 1.0
        trace = []
        grad_norm = 0.0
        converged = True
        nit = 0
    else:
        def fun(q):
            # W, v act on vech(Q) directly; matrix space only for the penalties
            f = float(q @ W @ q + 2.0 * v @ q + c0)
            g = (W + W.T) @ q + 2.0 * v
            Qm = unvech(q, n)
            psd_val, psd_grad = smoothed_max_eig(-Qm, epsilon)
            if psd_val > 0:
                f += penalty_weight * psd_val**2
                g += Dmap.T @ (penalty_weight * 2.0 * psd_val * (-psd_grad)).flatten(order="F")
            ball = float(np.sum(Qm * Qm)) - phi
            if ball > 0:
                f += penalty_weight * ball**2
                g += Dmap.T @ (penalty_weight * 2.0 * ball * (2.0 * Qm)).flatten(order="F")
            return f, g

        q0 = vech(np.eye(n))
        res = minimize(
            fun,
            q0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iters, "gtol": grad_tol, "ftol": 1e-15},
        )
        Qm, psd_margin = _finalize_q(unvech(res.x, n), phi)
        trace = [(0, fun(q0)[0]), (int(res.nit), float(res.fun))]
        grad_norm = float(np.linalg.norm(res.jac, np.inf))
        converged = bool(res.success)
        nit = int(res.nit)
    return EstimateResult(
        Q_hat=CostMatrix(Qm, phi=phi),
        objective_trace=trace,
        grad_norm_final=grad_norm,
        constraint_activity={
            "psd_margin": psd_margin,
            "ball_margin": float(phi - np.sum(Qm * Qm)),
        },
        converged=converged,
        n_iter=nit,
        method="residual_minimization",
        degenerate=bool(degenerate),
        config={
            "phi": phi,
            "epsilon": epsilon,
            "penalty_weight": penalty_weight,
            "max_iters": max_iters,
            "grad_tol": grad_tol,
        },
    )
