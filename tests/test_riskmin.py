"""Risk evaluation, adjoint gradients, smoothing, and the noisy estimator."""

import numpy as np
import pytest
from scipy.linalg import lapack

import ioclqr as io
from ioclqr import estimate_noisy, forward_lqr


def _noisy_problem(seed, mode="state_obs", n=2, N=10, M=3, **kw):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
    sys = io.LtiSystem(A, rng.standard_normal((n, 1)))
    G = rng.standard_normal((n, n))
    Qbar = G @ G.T
    Qbar *= 0.9 / np.linalg.norm(Qbar)
    exact = io.generate_bundle(sys, Qbar, N, M, seed=seed)
    noisy = io.add_noise(exact, snr_db_x=15.0, snr_db_u=20.0, seed=seed + 1)
    return sys, Qbar, exact, noisy, io.RiskProblem(sys, noisy, mode=mode, **kw)


class TestEvalRisk:
    def test_zero_at_truth_on_exact_data(self, random_system, random_psd):
        rng = np.random.default_rng(60)
        sys = random_system(rng, n=2, m=1)
        Qbar = random_psd(rng, 2, scale=0.8)
        bundle = io.generate_bundle(sys, Qbar, N=9, M=3, seed=4)
        for mode in ("state_obs", "input_obs"):
            prob = io.RiskProblem(sys, bundle, mode=mode)
            val, per = io.eval_risk(prob, Qbar)
            assert val < 1e-16
            assert len(per) == 3

    def test_matches_forward_simulation(self, random_system, random_psd):
        # independent route: predictions from the Riccati rollout
        rng = np.random.default_rng(61)
        sys = random_system(rng, n=3, m=1)
        Qbar = random_psd(rng, 3, scale=0.8)
        N, M = 8, 2
        bundle = io.generate_bundle(sys, Qbar, N, M, seed=7)
        Qtry = random_psd(rng, 3, scale=0.5)
        gains = io.solve_riccati(sys, Qtry, N)
        for mode in ("state_obs", "input_obs"):
            prob = io.RiskProblem(sys, bundle, mode=mode)
            val, per = io.eval_risk(prob, Qtry)
            ref = []
            for ep in bundle.episodes:
                pred = io.simulate(sys, gains, ep.x[:, 0])
                if mode == "state_obs":
                    ref.append(np.sum((pred.x[:, 1:] - ep.x[:, 1:]) ** 2))
                else:
                    ref.append(np.sum((pred.u - ep.u) ** 2))
            assert val == pytest.approx(np.mean(ref), rel=1e-9)
            np.testing.assert_allclose(per, ref, rtol=1e-9)

    def test_input_validation(self, random_system, random_psd):
        rng = np.random.default_rng(62)
        sys = random_system(rng, n=2, m=1)
        bundle = io.generate_bundle(sys, random_psd(rng, 2), N=6, M=2, seed=0)
        with pytest.raises(io.DimensionMismatch):
            io.RiskProblem(sys, bundle, mode="outputs")
        with pytest.raises(io.DimensionMismatch):
            io.RiskProblem(sys, bundle, phi=-1.0)
        other = random_system(rng, n=3, m=1)
        with pytest.raises(io.DimensionMismatch):
            io.RiskProblem(other, bundle)


class TestRiskGradient:
    def test_against_finite_differences(self):
        for seed in range(5):
            for mode in ("state_obs", "input_obs"):
                _, Qbar, _, _, prob = _noisy_problem(70 + seed, mode=mode, N=8, M=2)
                rng = np.random.default_rng(100 + seed)
                Q = Qbar + 0.05 * np.eye(2)
                G = io.risk_gradient(prob, Q)
                S = rng.standard_normal((2, 2))
                S = S + S.T
                h = 1e-6
                fp, _ = io.eval_risk(prob, Q + h * S)
                fm, _ = io.eval_risk(prob, Q - h * S)
                fd = (fp - fm) / (2 * h)
                an = float(np.sum(G * S))
                assert an == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_zero_at_global_minimum(self, random_system, random_psd):
        rng = np.random.default_rng(63)
        sys = random_system(rng, n=2, m=1)
        Qbar = random_psd(rng, 2, scale=0.8)
        bundle = io.generate_bundle(sys, Qbar, N=9, M=2, seed=9)
        for mode in ("state_obs", "input_obs"):
            G = io.risk_gradient(io.RiskProblem(sys, bundle, mode=mode), Qbar)
            assert np.linalg.norm(G) < 1e-8

    def test_linear_in_residual(self, random_system, random_psd):
        # doubling every residual at fixed Q doubles the gradient
        rng = np.random.default_rng(64)
        sys = random_system(rng, n=2, m=1)
        Qbar = random_psd(rng, 2, scale=0.8)
        N = 8
        bundle = io.generate_bundle(sys, Qbar, N, M=2, seed=11)
        noisy = io.add_noise(bundle, snr_db_x=15.0, seed=12)
        Qtry = random_psd(rng, 2, scale=0.5)
        pmp = io.build_pmp_system(sys, Qtry, N)
        moved = np.array(noisy.X)
        for ep, x in zip(noisy.episodes, moved):
            xs, _, _ = io.pmp_solve(pmp, ep.x[:, 0])
            # moving observations to 2*obs - pred doubles pred - obs
            x[:, 1:] = 2.0 * ep.x[:, 1:] - xs
        bundle2 = io.TrajectoryBundle(moved, noisy.U, "noisy_state", snr_db_x=15.0)
        g1 = io.risk_gradient(io.RiskProblem(sys, noisy, mode="state_obs"), Qtry)
        g2 = io.risk_gradient(io.RiskProblem(sys, bundle2, mode="state_obs"), Qtry)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-9)


class TestSmoothedMaxEig:
    def test_sandwich_bounds(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            S = rng.standard_normal((n, n))
            S = S + S.T
            top = np.linalg.eigvalsh(S)[-1]
            for eps in (1e-1, 1e-2, 1e-3):
                val, _ = io.smoothed_max_eig(S, eps)
                assert top <= val + 1e-12
                assert val <= top + eps * np.log(n) + 1e-12

    def test_gradient_structure_and_fd(self):
        rng = np.random.default_rng(66)
        S = rng.standard_normal((3, 3))
        S = S + S.T
        eps = 1e-2
        val, G = io.smoothed_max_eig(S, eps)
        assert np.trace(G) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        assert np.linalg.eigvalsh(G)[0] > -1e-12
        D = rng.standard_normal((3, 3))
        D = D + D.T
        h = 1e-6
        fp, _ = io.smoothed_max_eig(S + h * D, eps)
        fm, _ = io.smoothed_max_eig(S - h * D, eps)
        assert float(np.sum(G * D)) == pytest.approx((fp - fm) / (2 * h), rel=1e-5)

    def test_diagonal_closed_form(self):
        a, b, eps = 0.7, 0.3, 0.05
        val, _ = io.smoothed_max_eig(np.diag([a, b]), eps)
        ref = eps * np.log(np.exp(a / eps) + np.exp(b / eps))
        assert val == pytest.approx(ref, rel=1e-12)

    def test_rejects_bad_epsilon(self):
        # NaN passed an `epsilon <= 0` test and returned NaN; inf returned inf
        for eps in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(io.DimensionMismatch):
                io.smoothed_max_eig(np.eye(2), eps)


class TestEstimate:
    def test_noiseless_recovers_truth_both_modes(self, random_system, random_psd):
        # seed picked for a well-conditioned input-risk landscape; poorly
        # conditioned instances stall the input mode at risk ~1e-8 far from Q
        rng = np.random.default_rng(130)
        sys = random_system(rng, n=2, m=1)
        Qbar = random_psd(rng, 2, scale=0.8)
        bundle = io.generate_bundle(sys, Qbar, N=10, M=3, seed=13)
        exact = io.recover_exact(sys, bundle)
        for mode in ("state_obs", "input_obs"):
            res = io.estimate(io.RiskProblem(sys, bundle, mode=mode))
            assert res.converged
            rel = np.linalg.norm(res.Q_hat.Q - Qbar) / np.linalg.norm(Qbar)
            assert rel < 1e-6
            assert np.linalg.norm(res.Q_hat.Q - exact.Q) < 1e-6

    def test_noisy_smoke(self):
        sys, Qbar, _, _, prob = _noisy_problem(130, N=20, M=20)
        res = io.estimate(prob)
        assert res.converged
        # in-sample the fit must be at least as good as the truth's
        assert io.eval_risk(prob, res.Q_hat.Q)[0] <= io.eval_risk(prob, Qbar)[0] + 1e-9
        rel = np.linalg.norm(res.Q_hat.Q - Qbar) / np.linalg.norm(Qbar)
        assert rel < 1.0  # loose: M=20 leaves sizable statistical error
        w = np.linalg.eigvalsh(res.Q_hat.Q)
        assert w[0] >= -1e-12  # the barrier keeps every iterate PD
        assert np.sum(res.Q_hat.Q ** 2) <= prob.phi

    def test_result_metadata(self):
        _, _, _, _, prob = _noisy_problem(69, N=8, M=2)
        res = io.estimate(prob)
        assert res.method == "risk_x"
        assert res.n_iter > 0
        assert res.objective_trace[0][0] == 0
        assert len(res.objective_trace) >= 2
        # trace decreases overall
        assert res.objective_trace[-1][1] <= res.objective_trace[0][1]
        assert set(res.constraint_activity) == {"psd_margin", "ball_margin"}
        assert res.config["mode"] == "state_obs"
        assert res.status == "gap_met" and res.n_eval > res.n_iter
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

    def test_step_budget_is_reported(self):
        sys, _, _, noisy, prob = _noisy_problem(69, N=8, M=2, max_iters=1)
        for res in (io.estimate(prob), io.estimate_rm(sys, noisy, max_iters=1)):
            assert (res.status, res.converged, res.n_iter) == ("step_budget", False, 1)
            assert res.to_json()["status"] == "step_budget"

    def test_line_search_failure_is_reported(self):
        # a data term finite only at its start point: every backtracked
        # trial point is rejected, and the fit says so
        seen = []

        def term(y):
            seen.append(y.copy())
            f = 1.0 if np.array_equal(y, seen[0]) else np.inf
            return f, np.ones(3), np.eye(3)

        config = {"phi": 5.0, "max_iters": 100}
        res = estimate_noisy._barrier_fit(term, 2, config, "risk_x")
        assert res.status == "line_search_failed"
        assert res.converged is False
        assert res.n_iter == 0 and res.n_eval == len(seen) > 1

    def test_trace_can_be_disabled(self):
        _, _, _, _, prob = _noisy_problem(69, N=8, M=2, record_trace=False)
        res = io.estimate(prob)
        assert res.objective_trace == []

    def test_start_point_evaluated_once(self, monkeypatch):
        # trace point 0 is the core's own first evaluation, not a second one
        from ioclqr import baseline_rm

        points = []

        def spying(fit):
            def wrapped(term, *args, **kwargs):
                def spy(y):
                    points.append(y.copy())
                    return term(y)

                return fit(spy, *args, **kwargs)

            return wrapped

        spied = spying(estimate_noisy._barrier_fit)
        for mod in (estimate_noisy, baseline_rm):
            monkeypatch.setattr(mod, "_barrier_fit", spied)
        basis = estimate_noisy._sym_basis(2)
        sys, _, _, noisy, prob = _noisy_problem(69, N=8, M=2)
        for run in (lambda: io.estimate(prob), lambda: io.estimate_rm(sys, noisy)):
            points.clear()
            res = run()
            assert len(points) == res.n_eval
            np.testing.assert_array_equal(np.tensordot(points[0], basis, 1), np.eye(2))
            assert sum(np.array_equal(y, points[0]) for y in points) == 1
        y0 = points[0]
        res = io.estimate(prob)
        assert res.objective_trace[0][1] == estimate_noisy.penalized_objective(prob)(y0)[0]

    def test_horizon_below_3_refused(self):
        # at N = 2, u_1 = 0 whatever Q is: nothing to estimate from
        sys, _, _, noisy, prob = _noisy_problem(70, N=2, M=3)
        with pytest.raises(io.DimensionMismatch, match="N >= 3"):
            io.estimate(prob)
        with pytest.raises(io.DimensionMismatch, match="N >= 3"):
            io.estimate_rm(sys, noisy)

    def test_input_mode_method_name(self):
        _, _, _, _, prob = _noisy_problem(69, mode="input_obs", N=8, M=2)
        assert io.estimate(prob).method == "risk_u"


def _dense_risk(problem, Q):
    """The risk, per-episode terms and gradient by the dense route: F(Q) from
    build_pmp_system, LU-factored whole, selectors G_x / G_u."""
    import scipy.linalg as sla

    bundle = problem.bundle
    pmp = io.build_pmp_system(problem.sys, Q, bundle.N)
    G = pmp.G_x if problem.mode == "state_obs" else pmp.G_u
    lu = sla.lu_factor(pmp.F_of_Q)
    X0 = bundle.initial_states()
    M = X0.shape[1]
    Z = sla.lu_solve(lu, pmp.A_tilde @ X0)
    R = G @ Z - problem.observations()
    per = np.sum(R * R, axis=0)
    W = sla.lu_solve(lu, 2.0 * (G.T @ R), trans=1)
    n, nb = problem.sys.n, bundle.N - 1
    Wb = W.reshape(nb, 2 * n, M)
    Zb = Z.reshape(nb, 2 * n, M)
    grad = -np.einsum("rim,rjm->ij", Wb[1:, n:, :], Zb[:-1, :n, :]) / M
    return per.mean(), per, 0.5 * (grad + grad.T)


def _band_case(seed, n, m, N, M=3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
    sys = io.LtiSystem(A, rng.standard_normal((n, m)))
    G = rng.standard_normal((n, n))
    Qbar = G @ G.T / n
    exact = io.generate_bundle(sys, Qbar, N, M, seed=seed)
    noisy = io.add_noise(exact, snr_db_x=15.0, snr_db_u=20.0, seed=seed + 1)
    H = rng.standard_normal((n, n))
    return sys, noisy, Qbar + 0.1 * (H + H.T)


class TestBandRoute:
    @pytest.mark.parametrize("n,m,N", [(1, 1, 2), (2, 1, 3), (2, 2, 8), (3, 1, 15), (2, 1, 50)])
    def test_matches_dense_oracle(self, n, m, N):
        sys, noisy, Q = _band_case(400 + 10 * n + N, n, m, N)
        for mode in ("state_obs", "input_obs"):
            prob = io.RiskProblem(sys, noisy, mode=mode)
            val_d, per_d, grad_d = _dense_risk(prob, Q)
            val, per = io.eval_risk(prob, Q)
            grad = io.risk_gradient(prob, Q)
            assert val == pytest.approx(val_d, rel=1e-10)
            np.testing.assert_allclose(per, per_d, rtol=1e-10)
            np.testing.assert_allclose(grad, grad_d, rtol=1e-10, atol=1e-10 * np.abs(grad_d).max())

    def test_estimate_never_builds_dense_system(self, monkeypatch):
        from ioclqr import forward_lqr

        def boom(*args, **kwargs):
            raise AssertionError("dense F(Q) built on the estimator path")

        monkeypatch.setattr(forward_lqr, "build_pmp_system", boom)
        monkeypatch.setattr(io, "build_pmp_system", boom)
        for mode in ("state_obs", "input_obs"):
            _, _, _, _, prob = _noisy_problem(71, mode=mode, N=8, M=2)
            assert io.estimate(prob).n_iter > 0

    def test_memory_linear_in_horizon(self):
        import tracemalloc

        sys, noisy, Q = _band_case(81, 2, 1, 1000, M=10)
        prob = io.RiskProblem(sys, noisy)
        io.risk_gradient(prob, Q)  # warm-up: imports and caches stay out
        tracemalloc.start()
        try:
            io.risk_gradient(prob, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # the dense F(Q) alone is 128 MB

    def test_singular_factor_raises(self):
        # n = 1, N = 3: x_2 solves (1 + b^2 q) x_2 = a x_1, exactly singular
        # at q = -1/b^2, and the band LU meets an exact zero pivot
        sys = io.LtiSystem([[0.5]], [[1.0]])
        bundle = io.generate_bundle(sys, np.eye(1), 3, 2, seed=0)
        for mode in ("state_obs", "input_obs"):
            prob = io.RiskProblem(sys, bundle, mode=mode)
            with pytest.raises(io.SingularSystem):
                io.eval_risk(prob, -np.eye(1))
            with pytest.raises(io.SingularSystem):
                io.risk_gradient(prob, -np.eye(1))
            with pytest.raises(io.SingularSystem):
                io.eval_risk(prob, np.full((1, 1), np.nan))


def _put_band_fancy(ab, d, block, cols0):
    """Band storage through fancy indexing: `block` once per start column
    j0 in cols0, row p0 + a, column j0 + b landing in ab[d + a - b, j0 + b]."""
    for b in range(block.shape[1]):
        ab[d - b : d - b + block.shape[0], cols0 + b] = block[:, b, None]


class _PerCallBand(forward_lqr.BandedPmp):
    """`BandedPmp` as it was before the Q-free band was shared: the whole band
    assembled from blocks on every call, the sensitivities' right-hand side
    formed by einsum."""

    def __init__(self, sys, Q, N, band=None):
        n, nb = sys.n, N - 1
        A, B = sys.A, sys.B
        self.n, self.nb = n, nb
        self.kl = self.ku = 3 * n - 1
        size = 2 * n * nb
        d0 = self.kl + self.ku
        ab = np.zeros((2 * self.kl + self.ku + 1, size), order="F")
        I, Z = np.eye(n), np.zeros((n, n))
        BBt = B @ B.T
        _put_band_fancy(ab, d0, np.hstack([I, BBt]), np.array([0]))
        blk = np.block([[-A, Z, I, BBt], [np.asarray(Q, dtype=float), -I, Z, A.T]])
        _put_band_fancy(ab, d0 + n, blk, 2 * n * np.arange(nb - 1))
        _put_band_fancy(ab, d0, I, np.array([size - n]))
        self.lu, self.piv, info = lapack.dgbtrf(ab, self.kl, self.ku, overwrite_ab=1)
        assert info == 0

    def q_sensitivities(self, x, basis):
        n, nb = self.n, self.nb
        rhs = np.zeros((nb, 2 * n, len(basis), x.shape[2]))
        rhs[1:, :n] = -np.einsum("jab,rbm->rajm", basis, x[:-1])
        dZ, _ = lapack.dgbtrs(self.lu, self.kl, self.ku, rhs.reshape(2 * n * nb, -1), self.piv)
        dZ = dZ.reshape(rhs.shape).transpose(2, 0, 1, 3)
        return dZ[:, :, :n], dZ[:, :, n:]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# N = 4 is the first horizon with two Q blocks, spaced 2n columns apart
@pytest.mark.parametrize(
    "n,m,N", [(1, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 50), (3, 2, 40), (2, 1, 400)]
)
def test_shared_band_matches_per_call_assembly(n, m, N):
    sys, noisy, Q = _band_case(500 + 10 * n + N, n, m, N)
    band = forward_lqr.pmp_band(sys, N)
    AX0 = sys.A @ noisy.initial_states()
    basis = estimate_noisy._sym_basis(n)
    for pmp in (forward_lqr.BandedPmp(sys, Q, N, band), forward_lqr.BandedPmp(sys, Q, N)):
        ref = _PerCallBand(sys, Q, N)
        assert np.array_equal(_bits(pmp.lu), _bits(ref.lu))
        assert np.array_equal(pmp.piv, ref.piv)
        x = pmp.solve(AX0)[0]
        for got, want in zip(pmp.q_sensitivities(x, basis), ref.q_sensitivities(x, basis)):
            assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(band, forward_lqr.pmp_band(sys, N))  # the band is not changed


@pytest.mark.parametrize("mode", estimate_noisy.MODES)
def test_shared_band_fit_matches_per_call_assembly(monkeypatch, mode):
    _, _, _, _, prob = _noisy_problem(72, mode=mode, N=40, M=4)
    got = io.estimate(prob)
    monkeypatch.setattr(estimate_noisy, "BandedPmp", _PerCallBand)
    want = io.estimate(prob)
    assert np.array_equal(_bits(got.Q_hat.Q), _bits(want.Q_hat.Q))
    assert (got.n_iter, got.n_eval) == (want.n_iter, want.n_eval)


def test_only_fits_assemble_a_shared_band(monkeypatch):
    # observations() and one-off evaluations assemble no band to copy; a fit
    # assembles one for all its evaluations
    _, Qbar, _, _, prob = _noisy_problem(73, N=20, M=3)
    calls = []
    monkeypatch.setattr(
        estimate_noisy, "pmp_band", lambda *a: calls.append(a) or forward_lqr.pmp_band(*a)
    )
    prob.observations()
    io.eval_risk(prob, Qbar)
    io.risk_gradient(prob, Qbar)
    assert calls == []
    io.estimate(prob)
    assert len(calls) == 1


def test_every_acceptance_fit_converges_strictly_inside():
    # the acceptance benchmark's configuration (N=50, 15/20 dB, master seed
    # 0), 30 trials at M=10: all 90 fits close the barrier path, and every
    # estimate is strictly PD and strictly inside the ball
    from ioclqr import bench_harness as bh

    cfg = io.BenchConfig(n_trials=30, N=50, M_grid=(10,), master_seed=0)
    records, _ = bh.run_benchmark(cfg, n_workers=1)
    cells = {(rec.trial_id, method): c for rec in records for (_, method), c in rec.results.items()}
    assert len(cells) == 90
    assert [key for key, c in cells.items() if not c["converged"]] == []
    for c in cells.values():
        assert np.linalg.eigvalsh(c["Q_hat"])[0] > 0.0
        assert np.sum(c["Q_hat"] ** 2) < cfg.phi


def _per_episode_pieces(problem, Q):
    """The risk's pieces as evaluated before they were taken from the
    response to the unit initial states: every episode solved, its
    sensitivities to Q solved, and the residual Jacobian formed whole."""
    b, sys = problem.bundle, problem.sys
    state_obs = problem.mode == "state_obs"
    Y = (b.X[:, :, 1:] if state_obs else b.U).transpose(2, 1, 0).copy()
    AX0 = sys.A @ b.initial_states()
    pmp = forward_lqr.BandedPmp(sys, Q, b.N)
    x, lam = pmp.solve(AX0)
    R = (x if state_obs else -(sys.B.T @ lam)) - Y
    per_episode = np.sum(R * R, axis=(0, 1))
    dx, dlam = pmp.q_sensitivities(x, estimate_noisy._sym_basis(len(Q)))
    J = dx if state_obs else -np.einsum("ia,krim->kram", sys.B, dlam)
    J = J.reshape(len(J), -1)
    scale = 2.0 / AX0.shape[1]
    return per_episode.mean(), per_episode, scale * (J @ R.ravel()), scale * (J @ J.T)


@pytest.mark.parametrize(
    "n,m,N,M",
    [(1, 1, 3, 1), (2, 1, 3, 4), (2, 1, 50, 1), (2, 1, 50, 10), (2, 1, 400, 10),
     (2, 2, 20, 200), (3, 1, 12, 2), (3, 2, 3, 5), (4, 2, 20, 7)],
)
def test_unit_response_matches_per_episode_oracle(n, m, N, M):
    # M = 1 and M = 2 < n = 3 leave X0 X0' singular; N = 3 has one Q row
    sys, noisy, Q = _band_case(600 + 10 * n + N + M, n, m, N, M)
    for mode in estimate_noisy.MODES:
        prob = io.RiskProblem(sys, noisy, mode=mode)
        value, per, grad, gn = estimate_noisy._risk_pieces(
            prob, Q, True, estimate_noisy._stacked(prob)
        )
        want = _per_episode_pieces(prob, Q)
        assert value == pytest.approx(want[0], rel=1e-12)
        np.testing.assert_allclose(per, want[1], rtol=1e-12)
        for got, ref in ((grad, want[2]), (gn, want[3])):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        only = estimate_noisy._risk_pieces(prob, Q, False, estimate_noisy._stacked(prob))
        assert only[0] == value and np.array_equal(only[1], per)


@pytest.mark.parametrize("M", [1, 10, 200])
def test_one_evaluation_solves_n_columns(monkeypatch, M):
    # the band solves see the n unit initial states, never the M episodes
    sys, noisy, Q = _band_case(700 + M, 2, 1, 30, M)
    widths = {"solve": [], "q_sensitivities": []}

    def spying(name):
        method = getattr(forward_lqr.BandedPmp, name)

        def wrapped(self, arg, *rest):
            widths[name].append(arg.shape[-1])
            return method(self, arg, *rest)

        return wrapped

    for name in widths:
        monkeypatch.setattr(forward_lqr.BandedPmp, name, spying(name))
    for mode in estimate_noisy.MODES:
        prob = io.RiskProblem(sys, noisy, mode=mode)
        io.risk_gradient(prob, Q)
        estimate_noisy.penalized_objective(prob)(np.ones(3))
        io.eval_risk(prob, Q)
    assert widths == {"solve": [2] * 6, "q_sensitivities": [2] * 4}


def test_gradient_memory_independent_of_episode_count():
    # one risk_gradient's peak stays within a few copies of the data itself:
    # no array scales with M times the horizon times n(n+1)/2
    import tracemalloc

    sys, noisy, Q = _band_case(82, 2, 1, 50, M=2000)
    prob = io.RiskProblem(sys, noisy)
    io.risk_gradient(prob, Q)  # warm-up: imports and caches stay out
    tracemalloc.start()
    try:
        io.risk_gradient(prob, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (noisy.X.nbytes + noisy.U.nbytes)
