"""The shared log-barrier path against test-local copies of the two loops it
replaced: the noisy fits' own barrier loop and the dual certificate's damped
Newton path. Fits must agree bit for bit, certificates in their verdicts."""

import numpy as np
import pytest
from scipy.stats import ortho_group

import ioclqr as io
from ioclqr import baseline_rm, bench_harness, estimate_noisy, identifiability
from ioclqr.core_model import CostMatrix, numerical_rank, unvech, vech
from ioclqr.estimate_noisy import EstimateResult, _sym_basis
from ioclqr.identifiability import PROP2_GAP_TOL, _PathEnd
from conftest import _bits
from test_identifiability import _sweep_instance


def _barrier_reference(y, basis, phi, S0=0.0):
    """The barrier of S0 + sum_k y_k basis_k >= 0 in the ball, through
    numpy's linalg wrappers: (value, gradient, Hessian, C^-1) or None."""
    slack = phi - float(y @ y)
    if not slack > 0.0:
        return None
    try:
        C = np.linalg.cholesky(S0 + np.tensordot(y, basis, 1))
    except np.linalg.LinAlgError:
        return None
    Ci = np.linalg.inv(C)
    S = Ci @ basis @ Ci.T
    value = -2.0 * float(np.log(np.diag(C)).sum()) - np.log(slack)
    grad = 2.0 * y / slack - np.trace(S, axis1=1, axis2=2)
    hess = np.einsum("iab,jab->ij", S, S) + (2.0 / slack) * np.eye(len(y))
    return value, grad, hess + np.outer(y, y) * (4.0 / slack**2), Ci


def _barrier_fit_reference(data_term, n, config, method, record_trace=True, f_ref=1.0):
    """The fitting core with its own loop over Q(y) >= 0 and the ball, on
    f / u with u = 2^e for the e of np.frexp(f_ref) (1 unless f_ref is
    finite and nonzero)."""
    basis, phi, nu = _sym_basis(n), config["phi"], n + 1
    unit = 2.0 ** int(np.frexp(f_ref)[1]) if np.isfinite(f_ref) else 1.0
    y = np.tensordot(basis, min(1.0, np.sqrt(phi / (2.0 * n))) * np.eye(n), 2)

    def term(y):
        f, g, H = data_term(y)
        return f / unit, g / unit, H / unit

    (f, g, H), (b, gb, Hb, _) = term(y), _barrier_reference(y, basis, phi)
    tau, trace, n_eval, status = max(1.0, f) / nu, [(0, f)], 1, "step_budget"
    while True:
        grad = g + tau * gb
        step = -np.linalg.lstsq(H + tau * Hb, grad, rcond=None)[0]
        slope = float(grad @ step)
        if -slope < 0.25 * tau:
            if nu * tau <= config["grad_tol"] * max(1.0, f):
                status = "gap_met"
                break
            tau *= 0.1
            continue
        if len(trace) > config["max_iters"]:
            break
        for alpha in 0.5 ** np.arange(50):
            trial = y + alpha * step
            bar = _barrier_reference(trial, basis, phi)
            if bar is not None:
                point, n_eval = term(trial), n_eval + 1
                if point[0] + tau * bar[0] <= f + tau * b + 0.25 * alpha * slope:
                    break
        else:
            status = "line_search_failed"
            break
        y, (f, g, H), (b, gb, Hb, _) = trial, point, bar
        trace.append((len(trace), f))
    if status == "gap_met":
        trial = y - np.linalg.lstsq(H, g, rcond=None)[0]
        if _barrier_reference(trial, basis, phi) is not None:
            point, n_eval = term(trial), n_eval + 1
            if point[0] < f:
                y, (f, grad, _) = trial, point
                trace.append((len(trace), f))
    return EstimateResult(
        CostMatrix(np.tensordot(y, basis, 1), phi=phi),
        objective_trace=[(i, unit * v) for i, v in trace] if record_trace else [],
        grad_norm_final=unit * float(np.linalg.norm(grad, np.inf)),
        n_iter=len(trace) - 1,
        method=method,
        config=config,
        status=status,
        n_eval=n_eval,
    )


def _max_min_eig_reference(Q_prime, kernel_basis):
    """The certificate's own path: damped Newton steps on t/mu + log det S,
    unbounded when the Newton matrix is singular or ||alpha|| runs past
    ||Q'|| / PROP2_GAP_TOL."""
    Qp = np.asarray(Q_prime, dtype=float)
    n, k = Qp.shape[0], len(kernel_basis)
    A = np.stack([np.asarray(d, dtype=float) for d in kernel_basis] + [-np.eye(n)])
    scale = float(np.linalg.norm(Qp)) or 1.0
    y = np.zeros(k + 1)
    y[-1] = np.linalg.eigvalsh(Qp)[0] - scale
    mu, duals = scale, []
    for step in range(1, 501):
        Si = np.linalg.inv(Qp + np.tensordot(y, A, 1))
        SA = Si @ A
        g = np.trace(SA, axis1=1, axis2=2)
        g[-1] += 1.0 / mu
        H = np.einsum("iab,jba->ij", SA, SA)
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            return _PathEnd(False, y[:-1], y[-1], duals, np.inf, step, H[:-1, :-1])
        dy = np.linalg.solve(L.T, np.linalg.solve(L, g))
        dec = float(np.sqrt(max(g @ dy, 0.0)))
        if dec < 1.0:
            dS = np.tensordot(dy, A, 1)
            gap = mu * (n - float(np.sum(Si * dS)))
            duals.append((gap, mu * (Si - Si @ dS @ Si)))
            if gap <= PROP2_GAP_TOL * scale:
                return _PathEnd(True, y[:-1], y[-1], duals, gap, step, H[:-1, :-1])
            if dec < 0.5:
                mu *= 0.1
        y = y + dy / (1.0 + dec)
        if np.linalg.norm(y[:-1]) > scale / PROP2_GAP_TOL:
            return _PathEnd(False, y[:-1], y[-1], duals, np.inf, step, H[:-1, :-1])
    raise io.SolverNotConverged("barrier path did not close the duality gap in 500 Newton steps")


def _lmi_points(rng, S0, A, phi, unit):
    """Points y of each kind for the LMI S0 + sum_k y_k A_k >= 0 in the ball
    ||y||^2 < phi, where sum_k unit_k A_k = I: strictly feasible, within
    rounding of the PSD boundary on either side, not PD, outside the ball,
    NaN."""
    k = len(A)
    for _ in range(40):
        y = 0.3 * rng.standard_normal(k)
        lam = np.linalg.eigvalsh(S0 + np.tensordot(y, A, 1))[0]
        yield y + (rng.uniform(0.05, 0.5) - lam) * unit
        yield y + (rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 4.0) * 1e-16 - lam) * unit
        yield y - (rng.uniform(0.05, 0.5) + lam) * unit
        yield y * np.sqrt(2.0 * phi / (y @ y))
        y[rng.integers(k)] = np.nan
        yield y


def _barrier_lmis(rng):
    """(S0, A, phi, unit) of the fits' LMI (Q(y) >= 0, n = 1..4) and of the
    certificate's (Q'/s + sum_k alpha_k dQ_k - t I >= 0)."""
    for n in range(1, 5):
        basis = _sym_basis(n)
        yield np.zeros((n, n)), basis, 5.0, np.tensordot(basis, np.eye(n), 2)
        for k in (1, 2, 3):
            G, D = rng.standard_normal((n, n)), rng.standard_normal((k, n, n))
            Qp = G @ G.T if k != 2 else G + G.T
            A = np.concatenate([D + D.transpose(0, 2, 1), -np.eye(n)[None]])
            yield Qp / np.linalg.norm(Qp), A, 1e8, -np.eye(k + 1)[-1]


def test_barrier_is_bit_equal_to_numpy_linalg():
    # dpotrf's info is the feasibility test and dgesv(C, I) the inverse, as
    # inside np.linalg.cholesky and np.linalg.inv
    rng = np.random.default_rng(14)
    feasible = infeasible = 0
    for S0, A, phi, unit in _barrier_lmis(rng):
        for y in _lmi_points(rng, S0, A, phi, unit):
            got = estimate_noisy._barrier(y, S0, A, phi)
            want = _barrier_reference(y, A, phi, S0)
            assert (got is None) == (want is None)
            if want is None:
                infeasible += 1
                continue
            feasible += 1
            assert _bits(np.float64(got[0])) == _bits(np.float64(want[0]))
            for g, w in zip(got[1:], want[1:]):
                assert np.array_equal(_bits(g), _bits(w))
    assert feasible > 500 and infeasible > 1000


def test_least_squares_is_bit_equal_to_numpy_lstsq():
    rng = np.random.default_rng(15)
    for k in range(1, 11):
        for _ in range(20):
            G = rng.standard_normal((k, k))
            rank_deficient = G[:, : max(k - 1, 1)] @ rng.standard_normal((max(k - 1, 1), k))
            spd = G @ G.T + 1e-17 * rng.standard_normal((k, k))
            # singular values on both sides of numpy's cutoff eps k sigma_1
            U, _, Vt = np.linalg.svd(G)
            graded = (U * np.logspace(0, -17, k)) @ Vt
            for K in (G, rank_deficient, spd, graded, np.zeros((k, k))):  # H = 0: the polish step
                g = rng.standard_normal(k)
                want = np.linalg.lstsq(K, g, rcond=None)[0]
                assert np.array_equal(_bits(estimate_noisy._lstsq(K, g)), _bits(want))
    # a non-finite K: dgelsd refuses it with info < 0, and both must raise
    for bad in (np.inf, -np.inf, np.nan):
        K, g = np.array([[bad, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(K, g, rcond=None)
        with pytest.raises(np.linalg.LinAlgError):
            estimate_noisy._lstsq(K, g)


def _fits(sys_, noisy, **kw):
    out = [io.estimate_rm(sys_, noisy, **kw)]
    for mode in estimate_noisy.MODES:
        out.append(io.estimate(io.RiskProblem(sys_, noisy, mode=mode, **kw)))
    return out


@pytest.mark.parametrize(
    "N, M, trial, kw",
    [
        pytest.param(50, 10, 0, {}, id="10-0-kw0"),
        pytest.param(50, 200, 1, {}, id="200-1-kw1"),
        pytest.param(50, 10, 2, {"max_iters": 2}, id="10-2-kw2"),
        pytest.param(400, 10, 0, {"max_iters": 2}, id="N400-10-0-kw3"),  # long_horizon's shape
    ],
)
def test_fits_are_bit_equal_to_the_reference_loop(monkeypatch, N, M, trial, kw):
    cfg = io.BenchConfig(N=N, M_grid=(M,), master_seed=0)
    sys_, cost, init_ss, noise_ss = bench_harness.sample_instance(cfg, trial)
    exact = io.generate_bundle(sys_, cost, cfg.N, M, seed=init_ss)
    noisy = io.add_noise(exact, cfg.snr_db_x, cfg.snr_db_u, seed=noise_ss)
    got = _fits(sys_, noisy, **kw)
    for mod in (estimate_noisy, baseline_rm):
        monkeypatch.setattr(mod, "_barrier_fit", _barrier_fit_reference)
    want = _fits(sys_, noisy, **kw)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g.Q_hat.Q), _bits(w.Q_hat.Q))
        assert g.objective_trace == w.objective_trace
        assert (g.n_iter, g.n_eval, g.status) == (w.n_iter, w.n_eval, w.status)
        assert g.grad_norm_final == w.grad_norm_final
    if kw:
        assert {g.status for g in got} == {"step_budget"}


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_fits_do_not_depend_on_the_data_units(trial):
    # trajectories from s x0 are optimal for the same Q. The fits once ran
    # their path on the raw data term, whose stopping rule is absolute for
    # f < 1: at s = 1e-8 the risk fits met their gap at Q0 = I and
    # residual-min called the data uninformative.
    cfg = io.BenchConfig(N=50, M_grid=(10,), master_seed=0)
    sys_, cost, init_ss, noise_ss = bench_harness.sample_instance(cfg, trial)
    exact = io.generate_bundle(sys_, cost, cfg.N, 10, seed=init_ss)
    noisy = io.add_noise(exact, cfg.snr_db_x, cfg.snr_db_u, seed=noise_ss)

    def scaled(s):
        return _fits(sys_, io.TrajectoryBundle(noisy.X * s, noisy.U * s, noisy.kind, 15.0, 20.0))

    want = scaled(1.0)
    assert {w.status for w in want} == {"gap_met"}
    for k in (-60, -30, 30, 60):  # f, its derivatives and the unit scale by exactly 4^k
        for g, w in zip(scaled(2.0**k), want):
            assert np.array_equal(_bits(g.Q_hat.Q), _bits(w.Q_hat.Q)), (k, w.method)
            assert (g.status, g.n_iter) == (w.status, w.n_iter), (k, w.method)
    # 1e-8 is not a power of two: the same stop, within 4.8e-5 max-abs on 40
    # such trials (2.8e-5 on these three)
    for g, w in zip(scaled(1e-8), want):
        assert g.status == w.status, w.method
        assert np.abs(g.Q_hat.Q - w.Q_hat.Q).max() <= 1e-4, w.method


def test_fits_rotate_with_the_state_coordinates():
    # x -> T x with T orthogonal maps the cost Q to T Q T' and leaves the
    # inputs as they are, so each fit maps to T Q_hat T' up to where its path
    # stops: over trials 0-39 within 3.8e-12 of ||Q_hat|| for the risk fits,
    # and 3.1e-8 for residual-min, whose path may stop one step apart
    cfg = io.BenchConfig(N=50, M_grid=(10,), master_seed=0)
    for trial in range(10):
        sys_, cost, init_ss, noise_ss = bench_harness.sample_instance(cfg, trial)
        exact = io.generate_bundle(sys_, cost, cfg.N, 10, seed=init_ss)
        noisy = io.add_noise(exact, cfg.snr_db_x, cfg.snr_db_u, seed=noise_ss)
        T = ortho_group.rvs(sys_.n, random_state=np.random.default_rng([7, trial]))
        rotated = io.TrajectoryBundle(np.einsum("ij,mjt->mit", T, noisy.X), noisy.U, noisy.kind,
                                      noisy.snr_db_x, noisy.snr_db_u)
        got = _fits(io.LtiSystem(T @ sys_.A @ T.T, T @ sys_.B), rotated)
        for g, w in zip(got, _fits(sys_, noisy)):
            bound = 1e-7 if w.method == "residual_minimization" else 1e-11
            err = np.abs(T @ w.Q_hat.Q @ T.T - g.Q_hat.Q).max()
            assert err <= bound * np.linalg.norm(w.Q_hat.Q), (trial, w.method)


def _certificate_cases(random_system, example_instance):
    """(sys, bundle) of the worked example, the slow-sharp seeds and the
    never-certifies sweeps of the certificate and recovery tests."""
    yield example_instance["sys"], example_instance["bundle"]
    for s in (0, 1, 24, 25, 40, 60, 86, 88, 107, 111, 118, 141, 169, 172, 183, 184):
        rng = np.random.default_rng(s)
        sys_ = random_system(rng, 3)
        g = rng.standard_normal(3)
        Qbar = np.outer(g, g)
        yield sys_, io.generate_bundle(sys_, Qbar * 0.8 / np.linalg.norm(Qbar), N=6, M=1, seed=0)
    rng = np.random.default_rng(38)
    for _ in range(8):
        sys_ = random_system(rng, n=2, m=1)
        G = rng.standard_normal((2, 2))
        Q = G @ G.T + 0.3 * np.eye(2)
        Q *= 0.8 / np.linalg.norm(Q)
        yield sys_, io.generate_bundle(sys_, Q, N=4, M=1, seed=int(rng.integers(1 << 30)))
    rng = np.random.default_rng(39)
    hit = 0
    while hit < 10:
        sys_ = random_system(rng, n=3, m=1)
        G = rng.standard_normal((3, 2))
        Q = G @ G.T
        Q *= 0.8 / np.linalg.norm(Q)
        N = int(rng.integers(3, 8))
        seed = int(rng.integers(1 << 30))
        if N >= 4:
            hit += 1
            yield sys_, io.generate_bundle(sys_, Q, N=N, M=1, seed=seed)


def _path_or_error(q_prime, kernel):
    try:
        return identifiability._max_min_eig(q_prime, kernel)
    except io.SolverNotConverged as e:
        return e


def test_certificates_match_the_reference_path(monkeypatch, random_system, example_instance):
    n_dual = n_bounded = 0
    for sys_, bundle in _certificate_cases(random_system, example_instance):
        got = io.assess(sys_, bundle)
        if got.kernel_dim == 0 or got.q_prime is None:
            continue
        end = _path_or_error(got.q_prime, got.kernel_basis)
        with monkeypatch.context() as m:
            m.setattr(identifiability, "_max_min_eig", _max_min_eig_reference)
            want = io.assess(sys_, bundle)
            ref = _path_or_error(want.q_prime, want.kernel_basis)
        assert got.verdict == want.verdict
        assert (got.prop2 is None) == (want.prop2 is None)
        if got.prop2 is not None:
            assert got.prop2.rank_Phi == want.prop2.rank_Phi
            assert got.prop2.intersection_trivial == want.prop2.intersection_trivial
        assert type(end) is type(ref)
        if isinstance(end, _PathEnd):
            assert end.bounded == ref.bounded
        if isinstance(end, _PathEnd) and end.bounded:
            assert abs(end.lam - ref.lam) <= 1e-9 * np.linalg.norm(got.q_prime)
            n_bounded += 1
        n_dual += got.verdict == "unique_by_dual"
    assert n_dual == 17  # the worked example and the 16 slow-sharp seeds
    assert n_bounded >= n_dual


def _intersection_trivial_reference(kernel_basis, G2):
    """span{dQ_k} meets N_Phi = {G2 W G2'} only at 0: the vech columns of an
    r(r+1)/2-matrix basis of N_Phi and of the dQ_k are independent."""
    r = G2.shape[1]
    basis = [G2 @ unvech(e, r) @ G2.T for e in np.eye(r * (r + 1) // 2)]
    cols = np.stack([vech(B) for B in basis] + [vech(d) for d in kernel_basis]).T
    return numerical_rank(cols) == cols.shape[1]


def test_intersection_matches_the_basis_oracle(random_system, example_instance):
    cases = list(_certificate_cases(random_system, example_instance))
    cases += [_sweep_instance(s)[:2] for s in range(40)]
    seen = []
    for sys_, bundle in cases:
        report = io.assess(sys_, bundle)
        cert = report.prop2
        if cert is None:
            continue
        G2 = np.linalg.eigh(cert.Q_star)[1][:, cert.rank_Phi:]
        assert cert.intersection_trivial == _intersection_trivial_reference(report.kernel_basis, G2)
        seen.append(cert.intersection_trivial)
    assert len(seen) == 50 and sum(seen) == 20  # 30 at rank_Phi 0, all 20 trivial ones at 2


def test_a_direction_inside_N_Phi_is_not_read_as_independent():
    # dQ moves only the range of Q', so it lies in N_Phi: compression leaves
    # rounding (~1e-16), which a cut at its own sigma_1 read as rank 1
    for seed in range(20):
        T = ortho_group.rvs(3, random_state=np.random.default_rng(seed))
        Q_prime = T @ np.diag([1.0, 1.0, 0.0]) @ T.T
        dQ = T @ np.diag([1.0, -1.0, 0.0]) @ T.T / np.sqrt(2.0)
        cert = identifiability.prop2_certificate(Q_prime, [dQ])
        G2 = np.linalg.eigh(cert.Q_star)[1][:, cert.rank_Phi:]
        assert cert.rank_Phi == 1 and not cert.intersection_trivial, seed
        assert not _intersection_trivial_reference([dQ], G2), seed


def test_worked_example_recovers_the_reference_cost(monkeypatch, example_instance):
    sys_, bundle = example_instance["sys"], example_instance["bundle"]
    got = io.recover_with_kernel(sys_, bundle, io.assess(sys_, bundle))
    # recovery reads the path end of the report's certificate
    monkeypatch.setattr(identifiability, "_max_min_eig", _max_min_eig_reference)
    want = io.recover_with_kernel(sys_, bundle, io.assess(sys_, bundle))
    assert np.abs(got.Q - want.Q).max() <= 1e-9
