"""Residual-minimization baseline estimator."""

import numpy as np
import pytest

import ioclqr as io
from ioclqr import baseline_rm


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
        assert set(res.config) == {
            "phi",
            "epsilon",
            "penalty_weight",
            "max_iters",
            "grad_tol",
        }
        doc = res.to_json()
        assert set(doc) == {
            "Q",
            "objective_trace",
            "converged",
            "constraint_activity",
            "grad_norm_final",
            "n_iter",
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

    @pytest.mark.parametrize("kwargs", [{"phi": -1.0}, {"epsilon": 0.0}])
    def test_penalty_settings_checked_before_data(self, kwargs, monkeypatch):
        def untouched(*args):
            raise AssertionError("data reduced before the settings were checked")

        monkeypatch.setattr(baseline_rm, "_reduced_quadratic", untouched)
        sys, _, bundle = _instance(90)
        with pytest.raises(io.DimensionMismatch):
            io.estimate_rm(sys, bundle, **kwargs)


def test_halved_matrix_gradient_is_exact():
    # the baseline hands the shared core its vech gradient g as a matrix with
    # halved off-diagonal entries; with both penalties active the core's
    # Dmap' vec(G + penalties) must equal g + Dmap' vec(penalties) bit for bit
    from ioclqr.estimate_noisy import _fit_config, _penalized, smoothed_max_eig

    rng = np.random.default_rng(91)
    for n in (1, 2, 3, 4):
        Dmap = io.duplication_map(n)
        config = _fit_config(0.5, 1e-3, 1e4, 10, 1e-7)
        nv = n * (n + 1) // 2
        g = rng.standard_normal(nv) * 10.0 ** rng.integers(-6, 6, nv)

        def term(q, Qm):
            G = 0.5 * io.unvech(g, n)
            G[np.diag_indices(n)] *= 2.0
            return 0.0, G

        for _ in range(20):
            Qm = rng.standard_normal((n, n))
            Qm = Qm + Qm.T  # indefinite and outside the ball
            q = io.vech(Qm)
            _, got = _penalized(term, n, config)(q)
            psd_val, psd_grad = smoothed_max_eig(-Qm, 1e-3)
            ref = g.copy()
            if psd_val > 0:
                ref += Dmap.T @ (1e4 * 2.0 * psd_val * (-psd_grad)).flatten(order="F")
            ball = float(np.sum(Qm * Qm)) - 0.5
            if ball > 0:
                ref += Dmap.T @ (1e4 * 2.0 * ball * (2.0 * Qm)).flatten(order="F")
            np.testing.assert_array_equal(got, ref)


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
    Dmap = io.duplication_map(n)
    nv = n * (n + 1) // 2
    W, v, c0 = np.zeros((nv, nv)), np.zeros(nv), 0.0
    for ep in bundle.episodes:
        S = np.zeros((rows_adj + rows_u, nv))
        for t in range(2, N):
            rb = (t - 2) * n
            S[rb : rb + n, :] = -np.kron(ep.x[:, t - 1].reshape(1, n), np.eye(n)) @ Dmap
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
    Dr = io.duplication_map(n).reshape(n, n, nv)
    C = np.zeros((rows_adj + rows_u, M, nv + 1))
    X = bundle.X[:, :, 1 : N - 1]
    C[:rows_adj, :, :nv] = -np.einsum("mjt,jiv->timv", X, Dr).reshape(rows_adj, M, nv)
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
