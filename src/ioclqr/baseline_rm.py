"""Residual-minimization baseline estimator.

Minimizes the stationarity residuals of the optimality conditions directly on
the noisy observations, jointly over Q and the per-episode adjoint sequences
(lambda_N = 0). The adjoints enter quadratically, so they are eliminated in
closed form through the block-tridiagonal normal equations, factored once in
band storage (O(N) time and memory in the horizon); what remains is a convex
quadratic in Q's `_sym_basis` coordinates: the data term of the fitting core
(`estimate_noisy._barrier_fit`), with its exact gradient and Hessian.
"""

import numpy as np
import scipy.linalg as sla

from .core_model import CostMatrix, DEFAULT_PHI, _sym_basis
from .errors import DimensionMismatch
from .estimate_noisy import EstimateResult, _barrier_fit, _check_horizon, _fit_config
from .forward_lqr import _times


def _reduced_quadratic(sys, bundle):
    """Eliminate the adjoints: residual(Q, lambda) = H lambda + C_i [y; 1] per
    episode, y Q's `_sym_basis` coordinates, with H shared. Partial minimization over lambda leaves
    g(q) = q'Wq + 2v'q + c0, read off G = sum C'C - (H'C)'(H'H)^{-1}(H'C).

    H is never formed: H'H is block tridiagonal in lambda_2..lambda_{N-1}
    (diagonal I + BB' + AA', the first without AA'; superdiagonal -A'), so one
    band Cholesky makes this O(N n^3 + M N n^2 nv) with memory linear in N."""
    n, N, M = sys.n, bundle.N, bundle.M
    A, B = sys.A, sys.B
    K, nv = N - 2, n * (n + 1) // 2  # K block unknowns lambda_2..lambda_{N-1}
    # block column k of H'H is [-A'; D_k] on block rows k-1, k; its entry (r, b)
    # is row n-1+r-b of band column k*n + b (upper storage, half-bandwidth 2n-1)
    cols = np.tile(np.vstack([-A.T, np.eye(n) + B @ B.T + A @ A.T]), (K, 1, 1))
    cols[0, :n] = 0.0
    cols[0, n:] -= A @ A.T
    ab = np.zeros((2 * n, K, n))
    for b in range(n):
        ab[n - 1 - b :, :, b] = cols[:, : n + 1 + b, b].T
    cb = sla.cholesky_banded(ab.reshape(2 * n, K * n))
    # C's adjoint-row blocks: S's rows -(x_t' kron I) E for t = 2..N-1, E's columns the
    # vec'd basis (kron(x', I) vec(Q) = Q x); its input-row blocks: the inputs, column nv
    Er = _sym_basis(n).transpose(1, 2, 0)  # Er[j, i] is row j*n + i
    S = -np.einsum("mjt,jiv->timv", bundle.X[:, :, 1 : N - 1], Er)
    # block k of H'C is C_adj[k] - A C_adj[k-1] + B C_u[k], all episodes at once
    BU = np.einsum("ij,mjt->tim", B, bundle.U[:, :, :K])
    HtC = np.concatenate([S, BU[..., None]], axis=-1)
    HtC[1:, ..., :nv] -= _times(A, S[:-1].swapaxes(0, 1)).swapaxes(0, 1)
    Y = sla.cho_solve_banded((cb, False), HtC.reshape(K * n, -1))
    HtC, Y, Sf = HtC.reshape(-1, nv + 1), Y.reshape(-1, nv + 1), S.reshape(-1, nv)
    G = sla.block_diag(Sf.T @ Sf, np.sum(bundle.U**2)) - HtC.T @ Y
    return G[:nv, :nv], G[:nv, nv], float(G[nv, nv])


def estimate_rm(sys, bundle, phi=DEFAULT_PHI, max_iters=2000):
    """Residual-minimization estimate of Q.

    The scale of Q is pinned by the input residuals (the input cost weight is
    fixed at identity), so no normalization is imposed; downstream error
    metrics still apply an optimal rescaling, which can only favor this
    baseline. Zero-information data (all observations zero) makes every Q
    optimal; then Q = I is returned with degenerate=True. The fit runs the
    fitting core at its fixed GRAD_TOL.
    """
    config = _fit_config(phi, max_iters)
    if bundle.n != sys.n or bundle.m != sys.m:
        raise DimensionMismatch("bundle dimensions do not match the system")
    _check_horizon(bundle)
    n = sys.n
    method = "residual_minimization"
    W, v, c0 = _reduced_quadratic(sys, bundle)
    data_scale = float(np.sum(bundle.X**2) + np.sum(bundle.U**2)) or 1.0
    # scaled before the norms, which square W's entries (~ the data's squares)
    if np.linalg.norm(W / data_scale) <= 1e-14 and np.linalg.norm(v / data_scale) <= 1e-14:
        return EstimateResult(
            CostMatrix(np.eye(n), phi=phi), method=method, degenerate=True, config=config
        )
    W = 0.5 * (W + W.T)

    def residual(y):
        Wy = W @ y
        return float(y @ Wy + 2.0 * v @ y + c0), 2.0 * (Wy + v), 2.0 * W

    return _barrier_fit(residual, n, config, method, f_ref=data_scale / bundle.M)
