"""Residual-minimization baseline estimator."""

import numpy as np
import pytest

import scipy.linalg as sla

import ioclqr as io
from ioclqr import baseline_rm
from ioclqr.core_model import _sym_basis


def _pmp_residual(sys, bundle, Q):
    """Best-case stationarity residual at Q, minimizing over the adjoints.

    Built directly from the optimality conditions (lambda_N = 0):
        lambda_t - A' lambda_{t+1} - Q x_t = 0   for t = 2..N-1
        u_t + B' lambda_{t+1} = 0                for t = 1..N-1
    """
    n, m, N = sys.n, sys.m, bundle.N
    total = 0.0
    for ep in bundle.episodes:
        nl = (N - 2) * n
        rows = (N - 2) * n + (N - 1) * m
        H = np.zeros((rows, nl))
        rhs = np.zeros(rows)
        for t in range(2, N):
            rb = (t - 2) * n
            H[rb : rb + n, (t - 2) * n : (t - 1) * n] = np.eye(n)
            if t + 1 <= N - 1:
                H[rb : rb + n, (t - 1) * n : t * n] = -sys.A.T
            rhs[rb : rb + n] = Q @ ep.x[:, t - 1]
        for t in range(1, N):
            rb = (N - 2) * n + (t - 1) * m
            if t + 1 <= N - 1:
                H[rb : rb + m, (t - 1) * n : t * n] = sys.B.T
            rhs[rb : rb + m] = -ep.u[:, t - 1]
        lam = np.linalg.lstsq(H, rhs, rcond=None)[0]
        total += float(np.sum((H @ lam - rhs) ** 2))
    return total


def _instance(seed, N=12, M=4):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2, 2))
    A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
    sys = io.LtiSystem(A, rng.standard_normal((2, 1)))
    G = rng.standard_normal((2, 2))
    Qbar = G @ G.T
    Qbar *= 0.8 / np.linalg.norm(Qbar)
    return sys, Qbar, io.generate_bundle(sys, Qbar, N, M, seed=seed + 1)


class TestNoiseless:
    def test_recovers_truth(self):
        sys, Qbar, bundle = _instance(80)
        res = io.estimate_rm(sys, bundle)
        assert res.converged and not res.degenerate
        # input residuals pin the scale, so even the raw error is tight
        raw = np.linalg.norm(res.Q_hat.Q - Qbar) / np.linalg.norm(Qbar)
        assert raw < 1e-6
        c = np.sum(res.Q_hat.Q * Qbar) / np.sum(res.Q_hat.Q**2)
        assert np.linalg.norm(c * res.Q_hat.Q - Qbar) / np.linalg.norm(Qbar) < 1e-6

    def test_residual_near_zero(self):
        sys, Qbar, bundle = _instance(81)
        res = io.estimate_rm(sys, bundle)
        scale = sum(np.sum(ep.x**2) + np.sum(ep.u**2) for ep in bundle.episodes)
        assert _pmp_residual(sys, bundle, res.Q_hat.Q) <= 1e-12 * scale
        assert _pmp_residual(sys, bundle, Qbar) <= 1e-12 * scale

    def test_objective_non_increasing(self):
        sys, _, bundle = _instance(82)
        res = io.estimate_rm(sys, bundle)
        assert res.objective_trace[-1][1] <= res.objective_trace[0][1]


class TestDegenerate:
    def test_zero_data_returns_identity(self):
        sys, Qbar, _ = _instance(83)
        bundle = io.generate_bundle(
            sys, Qbar, N=8, M=2, seed=0, init_sampler=lambda rng: np.zeros(2)
        )
        res = io.estimate_rm(sys, bundle)
        assert res.degenerate
        assert res.converged
        np.testing.assert_allclose(res.Q_hat.Q, np.eye(2))
        assert res.n_iter == 0
        assert res.constraint_activity["psd_margin"] == 1.0

    def test_informative_data_not_flagged(self):
        sys, _, bundle = _instance(84)
        assert not io.estimate_rm(sys, bundle).degenerate


class TestNoisy:
    def test_converges_and_stays_feasible(self):
        sys, Qbar, bundle = _instance(85, N=20, M=10)
        noisy = io.add_noise(bundle, snr_db_x=15.0, snr_db_u=20.0, seed=9)
        res = io.estimate_rm(sys, noisy)
        assert res.converged
        w = np.linalg.eigvalsh(res.Q_hat.Q)
        assert w[0] >= -1e-12
        assert np.sum(res.Q_hat.Q**2) <= res.Q_hat.phi + 1e-12
        # noisy estimate should at least have the right shape
        c = np.sum(res.Q_hat.Q * Qbar) / max(np.sum(res.Q_hat.Q**2), 1e-12)
        assert np.linalg.norm(c * res.Q_hat.Q - Qbar) / np.linalg.norm(Qbar) < 1.0

    def test_beats_nothing_in_sample(self):
        # the minimizer's residual can only be <= the truth's on the same data
        sys, Qbar, bundle = _instance(86, N=16, M=6)
        noisy = io.add_noise(bundle, snr_db_x=15.0, snr_db_u=20.0, seed=2)
        res = io.estimate_rm(sys, noisy)
        assert _pmp_residual(sys, noisy, res.Q_hat.Q) <= _pmp_residual(
            sys, noisy, Qbar
        ) * (1.0 + 1e-6)


class TestResultContract:
    def test_metadata_and_json(self):
        sys, _, bundle = _instance(87)
        res = io.estimate_rm(sys, bundle)
        assert res.method == "residual_minimization"
        assert set(res.config) == {"phi", "max_iters", "grad_tol"}
        doc = res.to_json()
        assert set(doc) == {
            "Q",
            "objective_trace",
            "converged",
            "status",
            "constraint_activity",
            "grad_norm_final",
            "n_iter",
            "n_eval",
            "method",
            "degenerate",
            "config",
        }
        assert doc["method"] == "residual_minimization"

    def test_dimension_mismatch(self):
        sys, _, bundle = _instance(88)
        Ac = np.zeros((3, 3))
        Ac[:2, 1:] = np.eye(2)
        Ac[2] = [0.1, -0.2, 0.3]
        other = io.LtiSystem(Ac, np.array([[0.0], [0.0], [1.0]]))
        with pytest.raises(io.DimensionMismatch):
            io.estimate_rm(other, bundle)

    def test_phi_carried_through(self):
        sys, _, bundle = _instance(89)
        res = io.estimate_rm(sys, bundle, phi=7.5)
        assert res.Q_hat.phi == 7.5
        assert res.config["phi"] == 7.5

    def test_trace_per_iteration(self):
        sys, _, bundle = _instance(87)
        res = io.estimate_rm(sys, bundle)
        assert [i for i, _ in res.objective_trace] == list(range(res.n_iter + 1))

    @pytest.mark.parametrize("kwargs", [{"phi": -1.0}])
    def test_penalty_settings_checked_before_data(self, kwargs, monkeypatch):
        def untouched(*args):
            raise AssertionError("data reduced before the settings were checked")

        monkeypatch.setattr(baseline_rm, "_reduced_quadratic", untouched)
        sys, _, bundle = _instance(90)
        with pytest.raises(io.DimensionMismatch):
            io.estimate_rm(sys, bundle, **kwargs)


def _reduced_quadratic_loop(sys, bundle):
    """One kron per step and one projection per episode."""
    n, m, N = sys.n, sys.m, bundle.N
    rows_adj, rows_u = (N - 2) * n, (N - 1) * m
    H = np.zeros((rows_adj + rows_u, rows_adj))
    for t in range(2, N):
        rb = (t - 2) * n
        H[rb : rb + n, rb : rb + n] = np.eye(n)
        if t + 1 <= N - 1:
            H[rb : rb + n, rb + n : rb + 2 * n] = -sys.A.T
    for t in range(1, N):
        rb = rows_adj + (t - 1) * m
        if t + 1 <= N - 1:
            H[rb : rb + m, (t - 1) * n : t * n] = sys.B.T
    Qh, _ = np.linalg.qr(H)
    nv = n * (n + 1) // 2
    Emap = _sym_basis(n).reshape(nv, n * n).T  # vec of each basis matrix
    W, v, c0 = np.zeros((nv, nv)), np.zeros(nv), 0.0
    for ep in bundle.episodes:
        S = np.zeros((rows_adj + rows_u, nv))
        for t in range(2, N):
            rb = (t - 2) * n
            S[rb : rb + n, :] = -np.kron(ep.x[:, t - 1].reshape(1, n), np.eye(n)) @ Emap
        d = np.zeros(rows_adj + rows_u)
        d[rows_adj:] = ep.u.flatten(order="F")
        PS = S - Qh @ (Qh.T @ S)
        Pd = d - Qh @ (Qh.T @ d)
        W += S.T @ PS
        v += S.T @ Pd
        c0 += float(d @ Pd)
    return W, v, c0


@pytest.mark.parametrize("n,m,N,M", [(1, 1, 4, 2), (2, 1, 12, 4), (2, 2, 20, 7), (3, 1, 30, 3)])
def test_reduced_quadratic_matches_loop(n, m, N, M):
    from ioclqr.baseline_rm import _reduced_quadratic

    rng = np.random.default_rng(95 + n + N)
    A = rng.standard_normal((n, n))
    A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
    sys = io.LtiSystem(A, rng.standard_normal((n, m)))
    G = rng.standard_normal((n, n))
    exact = io.generate_bundle(sys, G @ G.T / n, N, M, seed=N)
    bundle = io.add_noise(exact, snr_db_x=15.0, snr_db_u=20.0, seed=N + 1)
    W, v, c0 = _reduced_quadratic(sys, bundle)
    W_ref, v_ref, c0_ref = _reduced_quadratic_loop(sys, bundle)
    scale = max(np.abs(W_ref).max(), np.abs(v_ref).max(), abs(c0_ref))
    np.testing.assert_allclose(W, W_ref, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(v, v_ref, rtol=1e-12, atol=1e-12 * scale)
    assert c0 == pytest.approx(c0_ref, rel=1e-12, abs=1e-12 * scale)


def _reduced_quadratic_qr(sys, bundle):
    """Dense route: form H, take its Householder QR and project C = [S d]
    onto the complement of range(H), all episodes side by side."""
    n, m, N, M = sys.n, sys.m, bundle.N, bundle.M
    rows_adj, rows_u = (N - 2) * n, (N - 1) * m
    H = np.zeros((rows_adj + rows_u, rows_adj))
    for t in range(2, N):
        rb = (t - 2) * n
        H[rb : rb + n, rb : rb + n] = np.eye(n)
        if t + 1 <= N - 1:
            H[rb : rb + n, rb + n : rb + 2 * n] = -sys.A.T
    for t in range(1, N - 1):
        rb = rows_adj + (t - 1) * m
        H[rb : rb + m, (t - 1) * n : t * n] = sys.B.T
    Qh, _ = np.linalg.qr(H)
    nv = n * (n + 1) // 2
    Er = _sym_basis(n).transpose(1, 2, 0)
    C = np.zeros((rows_adj + rows_u, M, nv + 1))
    X = bundle.X[:, :, 1 : N - 1]
    C[:rows_adj, :, :nv] = -np.einsum("mjt,jiv->timv", X, Er).reshape(rows_adj, M, nv)
    C[rows_adj:, :, nv] = bundle.U.transpose(2, 1, 0).reshape(rows_u, M)
    T = (Qh.T @ C.reshape(len(C), -1)).reshape(-1, nv + 1)
    Cf = C.reshape(-1, nv + 1)
    G = Cf.T @ Cf - T.T @ T
    return G[:nv, :nv], G[:nv, nv], float(G[nv, nv])


def _noisy_case(seed, n, m, N, M):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
    sys = io.LtiSystem(A, rng.standard_normal((n, m)))
    G = rng.standard_normal((n, n))
    exact = io.generate_bundle(sys, G @ G.T / n, N, M, seed=seed + 1)
    return sys, io.add_noise(exact, snr_db_x=15.0, snr_db_u=20.0, seed=seed + 2)


@pytest.mark.parametrize("n,m,N,M", [(1, 1, 3, 2), (2, 1, 50, 10), (2, 2, 120, 5), (3, 1, 400, 10)])
def test_reduced_quadratic_matches_dense_qr(n, m, N, M):
    # N = 3 leaves H a single block column
    from ioclqr.baseline_rm import _reduced_quadratic

    sys, bundle = _noisy_case(96 + n + N, n, m, N, M)
    W, v, c0 = _reduced_quadratic(sys, bundle)
    W_ref, v_ref, c0_ref = _reduced_quadratic_qr(sys, bundle)
    scale = max(np.abs(W_ref).max(), np.abs(v_ref).max(), abs(c0_ref))
    np.testing.assert_allclose(W, W_ref, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(v, v_ref, rtol=1e-12, atol=1e-12 * scale)
    assert c0 == pytest.approx(c0_ref, rel=1e-12, abs=1e-12 * scale)


def _reduced_quadratic_einsum(sys, bundle):
    """`baseline_rm._reduced_quadratic` with H'C's -A C_adj[k-1] term formed
    by one einsum over all blocks."""
    n, N = sys.n, bundle.N
    A, B = sys.A, sys.B
    K, nv = N - 2, n * (n + 1) // 2
    cols = np.tile(np.vstack([-A.T, np.eye(n) + B @ B.T + A @ A.T]), (K, 1, 1))
    cols[0, :n] = 0.0
    cols[0, n:] -= A @ A.T
    ab = np.zeros((2 * n, K, n))
    for b in range(n):
        ab[n - 1 - b :, :, b] = cols[:, : n + 1 + b, b].T
    cb = sla.cholesky_banded(ab.reshape(2 * n, K * n))
    Er = _sym_basis(n).transpose(1, 2, 0)
    S = -np.einsum("mjt,jiv->timv", bundle.X[:, :, 1 : N - 1], Er)
    BU = np.einsum("ij,mjt->tim", B, bundle.U[:, :, :K])
    HtC = np.concatenate([S, BU[..., None]], axis=-1)
    HtC[1:, ..., :nv] -= np.einsum("ij,tjmv->timv", A, S[:-1])
    Y = sla.cho_solve_banded((cb, False), HtC.reshape(K * n, -1))
    HtC, Y, Sf = HtC.reshape(-1, nv + 1), Y.reshape(-1, nv + 1), S.reshape(-1, nv)
    G = sla.block_diag(Sf.T @ Sf, np.sum(bundle.U**2)) - HtC.T @ Y
    return G[:nv, :nv], G[:nv, nv], float(G[nv, nv])


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
@pytest.mark.parametrize("M", [1, 10])
@pytest.mark.parametrize("N", [3, 4, 50, 400])  # N = 3: no block k - 1 to subtract
def test_reduced_quadratic_is_bit_equal_to_einsum(n, m, N, M):
    sys, bundle = _noisy_case(98 + n + N + M, n, m, N, M)
    got = baseline_rm._reduced_quadratic(sys, bundle)
    want = _reduced_quadratic_einsum(sys, bundle)
    for g, w in zip(got, want):
        assert np.array_equal(np.float64(g).view(np.uint64), np.float64(w).view(np.uint64))


def test_reduced_quadratic_memory_linear_in_horizon():
    import tracemalloc

    from ioclqr.baseline_rm import _reduced_quadratic

    sys, bundle = _noisy_case(97, 2, 1, 1600, 10)
    _reduced_quadratic(sys, bundle)  # warm-up: imports and caches stay out
    tracemalloc.start()
    try:
        _reduced_quadratic(sys, bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the dense H and its QR need about 438 MB
