"""Data matrix construction, rank tests, and the dual certificate."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import ortho_group

import ioclqr as io
from ioclqr import identifiability
from ioclqr.core_model import _sym_basis, numerical_rank, rank_tol
from conftest import rank_sweep


def _build_A_matrix_loops(sys, bundle):
    """Reference data matrix: the double loop over s and t, per episode."""
    n, m, N = sys.n, sys.m, bundle.N
    At_pows = [np.linalg.matrix_power(sys.A.T, k) for k in range(N - 2)]
    blocks = []
    for ep in bundle.episodes:
        rows = np.zeros(((N - 2) * m, n * n))
        for s in range(2, N):  # state x_s, columns of ep.x are x_1..x_N
            Cs = np.zeros(((N - 2) * m, n))
            for t in range(1, s):
                Cs[(t - 1) * m : t * m, :] = sys.B.T @ At_pows[s - t - 1]
            rows += np.kron(ep.x[:, s - 1].reshape(1, n), Cs)
        blocks.append(rows)
    return np.vstack(blocks)


class TestDataMatrix:
    @pytest.mark.parametrize(
        "n, m, N, M", [(1, 1, 4, 1), (2, 1, 6, 3), (3, 2, 9, 4), (4, 2, 20, 5), (2, 1, 50, 200)]
    )
    def test_recursion_matches_double_loop(self, random_system, random_psd, n, m, N, M):
        # the costate recursion sums the same terms in another order
        rng = np.random.default_rng(1000 + 97 * n + 13 * m + N + M)
        sys = random_system(rng, n=n, m=m)
        bundle = io.generate_bundle(sys, random_psd(rng, n), N, M, seed=int(rng.integers(1 << 30)))
        got = io.build_A_matrix(sys, bundle)
        ref = _build_A_matrix_loops(sys, bundle)
        assert got.shape == ref.shape == (M * (N - 2) * m, n * n)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_scalar_closed_form(self):
        # n = m = 1, N = 4: the two rows are [b x_2 + a b x_3] and [b x_3]
        a, b = 1.1, 0.7
        sys = io.LtiSystem([[a]], [[b]])
        ep = io.simulate(sys, io.solve_riccati(sys, [[0.8]], 4), [2.0])
        Am = io.build_A_matrix(sys, io.TrajectoryBundle(ep.x[None], ep.u[None], "exact"))
        x2, x3 = ep.x[0, 1], ep.x[0, 2]
        np.testing.assert_allclose(Am, [[b * x2 + a * b * x3], [b * x3]], atol=1e-14)

    def test_true_cost_reproduces_inputs(self, random_system, random_psd):
        # -u_{1:N-2} = A(x) D vech(Q) must hold exactly on optimal data
        rng = np.random.default_rng(33)
        for n, m, M, N in [(2, 1, 1, 4), (2, 2, 3, 6), (3, 1, 2, 7)]:
            sys = random_system(rng, n=n, m=m)
            Q = random_psd(rng, n)
            bundle = io.generate_bundle(sys, Q, N, M, seed=int(rng.integers(1 << 30)))
            AD = io.build_A_matrix(sys, bundle) @ io.duplication_map(n)
            lhs = AD @ io.vech(Q)
            rhs = io.stacked_inputs_rhs(bundle)
            scale = max(1.0, np.abs(rhs).max())
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)

    def test_rhs_stacking_order(self):
        # episode-major, then column-major over the (m, N-2) input block
        x = np.zeros((1, 5))
        u1 = np.array([[1.0, 2.0, 3.0, 4.0]])
        u2 = np.array([[5.0, 6.0, 7.0, 8.0]])
        b = io.TrajectoryBundle(np.array([x, x]), np.array([u1, u2]), "exact")
        np.testing.assert_array_equal(
            io.stacked_inputs_rhs(b), [-1.0, -2.0, -3.0, -5.0, -6.0, -7.0]
        )

    def test_shape_and_guards(self, random_system, random_psd):
        rng = np.random.default_rng(34)
        sys = random_system(rng, n=2, m=2)
        bundle = io.generate_bundle(sys, random_psd(rng, 2), N=6, M=3, seed=0)
        assert io.build_A_matrix(sys, bundle).shape == (3 * 4 * 2, 4)
        short = io.generate_bundle(sys, random_psd(rng, 2), N=3, M=1, seed=0)
        with pytest.raises(io.DimensionMismatch):
            io.build_A_matrix(sys, short)
        other = random_system(rng, n=3, m=1)
        with pytest.raises(io.DimensionMismatch):
            io.build_A_matrix(other, bundle)


class TestRankCondition:
    def test_full_rank_instance(self, rich_instance):
        rank, full, kernel = io.check_rank_condition(rich_instance["sys"], rich_instance["bundle"])
        assert (rank, full, kernel) == (3, True, [])

    def test_single_episode_deficiency(self, example_instance):
        sys, bundle = example_instance["sys"], example_instance["bundle"]
        rank, full, kernel = io.check_rank_condition(sys, bundle)
        assert rank == 5 and not full and len(kernel) == 1
        # the kernel direction lines up with the known unidentifiable direction
        k, d = kernel[0], example_instance["dQ"]
        corr = abs(np.sum(k * d)) / (np.linalg.norm(k) * np.linalg.norm(d))
        assert corr > 0.999
        # and it really is annihilated by the data matrix
        A = io.build_A_matrix(sys, bundle)
        assert np.linalg.norm(A @ io.vec(k)) <= 1e-8 * np.linalg.norm(A)

    def test_kernel_is_orthonormal_and_sign_fixed(self, random_system, random_psd):
        rng = np.random.default_rng(35)
        sys = random_system(rng, n=2, m=1)
        bundle = io.generate_bundle(sys, random_psd(rng, 2), N=4, M=1, seed=3)
        rank, full, kernel = io.check_rank_condition(sys, bundle)
        assert not full and len(kernel) == 3 - rank >= 1
        # coordinates in the Frobenius-orthonormal basis the data matrix is written in
        V = np.stack([_sym_basis(2).reshape(3, -1) @ k.ravel() for k in kernel])
        np.testing.assert_allclose(V @ V.T, np.eye(len(kernel)), atol=1e-12)
        for v in V:
            assert v[np.argmax(np.abs(v))] > 0
        for k in kernel:
            np.testing.assert_allclose(k, k.T, atol=0)

    def test_explicit_tol_override(self):
        # the rank cutoff 1e-10 sigma_1 keeps a singular value of 1e-7 sigma_1
        sv = np.array([1.0, 1.0, 1e-7])
        assert numerical_rank(np.diag(sv)) == 3
        assert rank_tol(sv) == pytest.approx(1e-10, rel=1e-15)

    def test_thm3_implies_full_rank(self, random_system, random_psd):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            sys = random_system(rng, n=n, m=1)
            bundle = io.generate_bundle(
                sys, random_psd(rng, n), N=n + 3, M=n, seed=int(rng.integers(1 << 30))
            )
            if io.check_thm3(bundle):
                assert io.check_rank_condition(sys, bundle)[1]


class TestThm3:
    def test_holds_on_rich_instance(self, rich_instance):
        assert io.check_thm3(rich_instance["bundle"]) is True

    def test_fails_on_collinear_inits(self, random_system, random_psd):
        rng = np.random.default_rng(36)
        sys = random_system(rng, n=2, m=1)
        v = np.array([1.0, 2.0])
        bundle = io.generate_bundle(
            sys,
            random_psd(rng, 2),
            N=6,
            M=3,
            init_sampler=lambda r: v * r.uniform(0.5, 2.0),
            seed=5,
        )
        assert io.check_thm3(bundle) is False

    def test_hypotheses(self, random_system, random_psd):
        rng = np.random.default_rng(37)
        sys = random_system(rng, n=3, m=1)
        Q = random_psd(rng, 3)
        with pytest.raises(io.HypothesisUnmet):
            io.check_thm3(io.generate_bundle(sys, Q, N=4, M=3, seed=0))  # N < n+2
        with pytest.raises(io.HypothesisUnmet):
            io.check_thm3(io.generate_bundle(sys, Q, N=6, M=2, seed=0))  # M < n


class TestProp2Certificate:
    def test_worked_instance_certifies(self, example_instance):
        report = io.assess(example_instance["sys"], example_instance["bundle"])
        assert report.verdict == "unique_by_dual"
        rec = report.prop2
        assert rec.rank_Phi == 2
        assert rec.intersection_trivial
        assert rec.max_violation < 1e-6
        # data entries carry four decimals, so 0 is met only to ~1e-5
        assert abs(rec.dual_value) < 1e-4
        w = np.linalg.eigvalsh(rec.Phi_star)
        assert w.min() > -1e-9

    def test_zero_objective_trace_free_kernel(self):
        # tr(0 * Phi) with a trace-free constraint keeps Phi = I: full rank,
        # so the only matrix supported on its null space is 0
        d = np.array([[1.0, 0.0], [0.0, -1.0]]) / np.sqrt(2.0)
        rec = io.prop2_certificate(np.zeros((2, 2)), [d])
        np.testing.assert_allclose(rec.Phi_star, np.eye(2), atol=1e-9)
        assert rec.rank_Phi == 2
        assert rec.intersection_trivial
        assert rec.dual_value == pytest.approx(0.0, abs=1e-12)

    def test_empty_kernel_rejected(self):
        with pytest.raises(io.DimensionMismatch):
            io.prop2_certificate(np.eye(2), [])

    def test_trace_constraint_collapses_to_zero(self):
        # tr(Phi) = 0 with Phi >= 0 forces Phi = 0: rank 0, and the null space
        # is everything, so the intersection test cannot pass
        rec = io.prop2_certificate(np.eye(2), [np.eye(2) / np.sqrt(2.0)])
        assert np.linalg.norm(rec.Phi_star) < 1e-6
        assert rec.rank_Phi == 0
        assert not rec.intersection_trivial

    def test_unbounded_family_writes_no_gap(self):
        # a PSD kernel direction leaves the path without a finite duality gap;
        # the report JSON writes null there rather than a non-standard Infinity.
        # In the second basis I is a combination of the directions, though
        # neither direction is proportional to I
        D = np.diag([1.0, -1.0]) / np.sqrt(2.0)
        I2 = np.eye(2) / np.sqrt(2.0)
        for basis in ([I2], [(I2 + D) / np.sqrt(2.0), (I2 - D) / np.sqrt(2.0)]):
            rec = io.prop2_certificate(np.eye(2), basis)
            assert rec.gap == np.inf
            report = io.IdentifiabilityReport(
                rank_AD=3 - len(basis), kernel_basis=basis,
                thm3_holds=None, prop2=rec, verdict="not_determined",
            )
            assert report.to_json()["prop2"]["gap"] is None

    @pytest.mark.parametrize("Qp", [[[0, 0.1], [0.1, 0]], [[0, 1e-3], [1e-3, 0]], [[0, 1], [1, 1]]])
    def test_asymptotic_ray_certifies_nothing(self, Qp):
        # lam_min(Q' + alpha e11) rises toward its supremum as alpha grows but
        # never attains it: no finite maximizer, so no gap and no certificate
        e11 = np.diag([1.0, 0.0])
        rec = io.prop2_certificate(np.array(Qp, dtype=float), [e11])
        assert rec.rank_Phi == 0
        assert not rec.intersection_trivial
        assert rec.gap == np.inf

    def test_dual_value_matches_grid_search(self):
        # boundary objective diag(1, 0) with an off-diagonal constraint: the
        # feasible cone is the nonnegative diagonals, so min tr(Q' Phi) = 0
        Qp = np.diag([1.0, 0.0])
        d = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        rec = io.prop2_certificate(Qp, [d])
        best = np.inf
        for p in np.linspace(0.0, 2.0, 41):
            for s in np.linspace(0.0, 2.0, 41):
                for r in np.linspace(-1.0, 1.0, 41):
                    Phi = np.array([[p, r], [r, s]])
                    if np.linalg.eigvalsh(Phi)[0] < -1e-12:
                        continue
                    if abs(np.sum(d * Phi)) > 1e-9:
                        continue
                    best = min(best, float(np.sum(Qp * Phi)))
        assert best == pytest.approx(0.0, abs=1e-12)
        assert rec.dual_value == pytest.approx(best, abs=1e-6)
        # the certifying pair: Phi* supported on e2, kernel direction off-diagonal
        assert rec.rank_Phi == 1
        assert rec.intersection_trivial

    def test_never_certifies_ambiguous_instances(self, random_system):
        """Interior cost + rank-deficient data means several PSD costs fit the
        same trajectories, so the dual route must stay silent."""
        rng = np.random.default_rng(38)
        hit = 0
        for _ in range(8):
            sys = random_system(rng, n=2, m=1)
            G = rng.standard_normal((2, 2))
            Q = G @ G.T + 0.3 * np.eye(2)  # strictly PD: ambiguity is real
            Q *= 0.8 / np.linalg.norm(Q)
            bundle = io.generate_bundle(sys, Q, N=4, M=1, seed=int(rng.integers(1 << 30)))
            report = io.assess(sys, bundle)
            if report.kernel_dim > 0:
                hit += 1
                assert report.verdict == "not_determined"
        assert hit >= 5  # single short episodes are rank-deficient in practice

    def test_never_certifies_rank_two_costs(self, random_system, example_instance):
        """A rank-2 cost at n=3 seen in one episode leaves a one-dimensional
        kernel whose family holds strictly PD costs that reproduce the same
        trajectories, so none of these instances may be certified."""
        rng = np.random.default_rng(39)
        hit = 0
        while hit < 10:
            sys = random_system(rng, n=3, m=1)
            G = rng.standard_normal((3, 2))
            Q = G @ G.T
            Q *= 0.8 / np.linalg.norm(Q)
            N = int(rng.integers(3, 8))
            seed = int(rng.integers(1 << 30))
            if N < 4:
                continue
            report = io.assess(sys, io.generate_bundle(sys, Q, N=N, M=1, seed=seed))
            if report.kernel_dim == 1:
                hit += 1
                assert report.verdict != "unique_by_dual"
        # a certificate that stands must lead to a recovery that finds one point
        report = io.assess(example_instance["sys"], example_instance["bundle"])
        assert report.verdict == "unique_by_dual"
        io.recover_with_kernel(example_instance["sys"], example_instance["bundle"], report)

    def test_small_positive_eigenvalue_is_not_a_zero(self):
        # lam* = 0 at alpha = 0 by symmetry, and the slack there is
        # diag(1, 1e-3, 0). Every Q' + alpha d with alpha^2 <= 2e-3 is PSD,
        # so the cost is not unique: the dual optimum is e3 e3' (rank 1), and
        # the eigenvalue 1e-3 must not be read as a zero of the slack
        Qp = np.diag([1.0, 1e-3, 0.0])
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 1.0 / np.sqrt(2.0)
        assert np.linalg.eigvalsh(Qp + 0.04 * d)[0] >= 0.0
        rec = io.prop2_certificate(Qp, [d])
        assert rec.rank_Phi == 1
        assert not rec.intersection_trivial

    def test_family_below_data_precision_raises(self):
        # lam_min(diag(1, -1) + alpha d) = -(1 + alpha^2 / 2)^(1/2): the
        # maximum lam* = -1 says no PSD cost fits, so nothing is certified
        d = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        with pytest.raises(io.SolverNotConverged, match="below the data precision"):
            io.prop2_certificate(np.diag([1.0, -1.0]), [d])

    def test_worked_instance_takes_few_newton_steps(self, example_instance):
        rep = io.assess(example_instance["sys"], example_instance["bundle"])
        rec = io.prop2_certificate(rep.q_prime, rep.kernel_basis)
        assert 0 < rec.n_iter <= 100
        assert 0 < rec.gap <= 1e-10 * np.linalg.norm(rep.q_prime)


class TestAssess:
    def test_full_rank_verdict_and_solution(self, rich_instance):
        report = io.assess(rich_instance["sys"], rich_instance["bundle"])
        assert report.verdict == "unique_by_rank"
        assert report.full_column_rank and report.kernel_dim == 0
        assert report.prop2 is None
        assert np.linalg.norm(report.q_prime - rich_instance["Qbar"]) < 1e-6

    def test_thm3_fallback_when_rank_is_inconclusive(self, rich_instance, monkeypatch):
        # an absurd rank tolerance empties the rank route; the spanning test
        # still settles uniqueness
        monkeypatch.setattr("ioclqr.identifiability.rank_tol", lambda sv: 1e9)
        report = io.assess(rich_instance["sys"], rich_instance["bundle"])
        assert not report.full_column_rank
        assert report.thm3_holds is True
        assert report.verdict == "unique_by_thm3"

    @pytest.mark.parametrize("seed", [45, 46])
    def test_more_episodes_keep_the_rank_verdict(self, seed, random_system, random_psd):
        # sigma_3 / sigma_1 is 4.4e-9 (seed 45) and 8.0e-9 (seed 46) at every M;
        # a cutoff that grew with the row count read not_determined at M >= 200
        rng = np.random.default_rng(seed)
        sys = random_system(rng, 2)
        cost = io.CostMatrix(random_psd(rng, 2))
        for M in (20, 200, 2000):
            bundle = io.generate_bundle(sys, cost, N=50, M=M, seed=7)
            report = io.assess(sys, bundle)
            assert report.verdict == "unique_by_rank", M
            assert np.abs(io.recover_exact(sys, bundle, report=report).Q - cost.Q).max() < 1e-8

    def test_thm3_recorded_as_none_when_unmet(self, example_instance):
        report = io.assess(example_instance["sys"], example_instance["bundle"])
        assert report.thm3_holds is None  # M = 1 < n

    @pytest.mark.parametrize("seed", [122, 301])
    def test_thm3_does_not_vouch_for_a_truncated_solve(self, seed):
        # the states span, yet the data matrix's last singular value is
        # 1e-16..1e-14 of its first: the least-squares solve drops it and
        # returns the min-norm point, 0.13..0.18 max-abs away from Q
        sys, bundle, _ = _sweep_instance(seed, N=30, M=40)
        report = io.assess(sys, bundle)
        assert report.thm3_holds is True and not report.full_column_rank
        assert report.verdict == "not_determined"
        with pytest.raises(io.NotIdentifiable):
            io.recover_exact(sys, bundle, report=report)

    def test_no_psd_fit_leaves_no_certificate(self):
        # one exact episode of an indefinite cost: its solution family has a
        # 3-dimensional kernel but no PSD member, so the certificate raises
        # and assess records not_determined without one
        rng = np.random.default_rng(0)
        sys = io.LtiSystem(rng.standard_normal((3, 3)), rng.standard_normal((3, 1)))
        x0 = rng.uniform(-5, 5, size=3)
        xs, _, us = io.pmp_solve(io.build_pmp_system(sys, np.diag([1.0, 0.5, -0.5]), 5), x0)
        bundle = io.TrajectoryBundle(np.hstack([x0[:, None], xs])[None], us[None], "exact")
        report = io.assess(sys, bundle)
        assert report.q_prime is not None and report.kernel_dim > 0
        assert report.verdict == "not_determined"
        assert report.prop2 is None

    def test_rejects_noisy_bundle(self, rich_instance):
        noisy = io.add_noise(rich_instance["bundle"], snr_db_x=20.0, seed=1)
        with pytest.raises(io.DimensionMismatch):
            io.assess(rich_instance["sys"], noisy)

    def test_report_carries_solution_and_residual(self, rich_instance, example_instance):
        for inst in (rich_instance, example_instance):
            report = io.assess(inst["sys"], inst["bundle"])
            E = _sym_basis(inst["sys"].n)  # Frobenius-orthonormal coordinates of Q
            AE = io.build_A_matrix(inst["sys"], inst["bundle"]) @ E.reshape(len(E), -1).T
            rhs = io.stacked_inputs_rhs(inst["bundle"])
            sol, *_ = np.linalg.lstsq(AE, rhs, rcond=None)
            assert report.residual == pytest.approx(np.linalg.norm(AE @ sol - rhs), abs=1e-10)
            assert report.residual <= 1e-8 * max(1.0, np.linalg.norm(rhs))
            # same min-norm solution as lstsq, so kernel components are zero too
            np.testing.assert_allclose(
                np.tensordot(E, report.q_prime, 2), sol, rtol=1e-9, atol=1e-9 * np.linalg.norm(sol)
            )

    def test_inconsistent_data_leave_no_solution(self, rich_instance):
        X, U = rich_instance["bundle"].X, np.array(rich_instance["bundle"].U)
        U[0, 0, 1] += 0.5
        bad = io.TrajectoryBundle(X, U, "exact")
        report = io.assess(rich_instance["sys"], bad)
        assert report.q_prime is None
        assert report.residual > 1e-8 * max(1.0, np.linalg.norm(io.stacked_inputs_rhs(bad)))

    def test_memory_linear_in_data(self, random_system, random_psd):
        # n=2, N=50, M=2000: the data matrix is 96000 x 3 (2.3 MB); a full
        # SVD would ask for a 96000-square U (74 GB). This instance has full
        # rank, so no certificate runs.
        rng = np.random.default_rng(49)
        sys = random_system(rng, n=2, m=1)
        bundle = io.generate_bundle(sys, random_psd(rng, 2), N=50, M=2000, seed=7)
        tracemalloc.start()
        try:
            report = io.assess(sys, bundle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdict == "unique_by_rank"
        assert peak < 64 * 2**20

    def test_json_layout(self, rich_instance, example_instance):
        doc = io.assess(rich_instance["sys"], rich_instance["bundle"]).to_json()
        assert set(doc) == {"rank_AD", "verdict", "kernel_dim", "prop2"}
        assert doc["prop2"] is None
        doc = io.assess(example_instance["sys"], example_instance["bundle"]).to_json()
        assert set(doc) == {"rank_AD", "verdict", "kernel_dim", "prop2"}
        assert set(doc["prop2"]) == {
            "Phi_star",
            "rank_Phi",
            "intersection_trivial",
            "dual_value",
            "n_iter",
            "max_violation",
            "gap",
        }
        assert doc["rank_AD"] == 5 and doc["kernel_dim"] == 1


def _sweep_instance(s, N=50, M=200):
    """Instance s of tools/rank_sweep.py at (N, M): a rank-r cost scaled to ||Q_bar||_F = 0.8."""
    sys, Qbar, _ = rank_sweep.instance(s)
    bundle = io.generate_bundle(sys, io.CostMatrix(Qbar, psd_tol=1e-3), N=N, M=M, seed=s)
    return sys, bundle, Qbar


def _rotated(sys, bundle, s):
    """The instance in the state coordinates T x, T orthogonal, drawn from [7, s]."""
    T = ortho_group.rvs(sys.n, random_state=np.random.default_rng([7, s]))
    return (io.LtiSystem(T @ sys.A @ T.T, T @ sys.B),
            io.TrajectoryBundle(np.einsum("ij,mjt->mit", T, bundle.X), bundle.U, "exact"))


def test_dual_verdict_is_one_the_recovery_keeps():
    # instance 69 passes the dual certificate, but its max lam_min point is
    # not sharp, so uniqueness is not_determined; a unique_by_dual there
    # would be refuted by the recovery's AmbiguousSolution
    sys, bundle, _ = _sweep_instance(69)
    report = io.assess(sys, bundle)
    assert report.verdict == "not_determined"
    with pytest.raises(io.NotIdentifiable):
        io.recover_exact(sys, bundle, report=report)
    assert report.prop2.intersection_trivial and report.prop2.rank_Phi > 0
    assert report.prop2.ambiguity is not None
    n_dual = 0
    for s in [*range(40), 398]:
        sys, bundle, Qbar = _sweep_instance(s)
        report = io.assess(sys, bundle)
        if report.verdict == "unique_by_dual":
            n_dual += 1
            Q = io.recover_exact(sys, bundle, report=report)
            assert np.abs(Q.Q - Qbar).max() <= 1e-6
    assert n_dual == 4  # instances 22, 35, 39 and 398


@pytest.mark.parametrize("s, N, M", [(163, 30, 40), (288, 30, 40), (270, 50, 200), (276, 50, 200)])
def test_verdict_does_not_move_with_the_state_coordinates(s, N, M):
    # x -> T x with T orthogonal maps the cost Q to T Q T' and leaves the
    # inputs as they are; in vech coordinates, which are not
    # Frobenius-orthonormal, the rank cutoff read these four rotated copies
    # differently (rank <-> thm3, rank -> not_determined)
    sys, bundle, _ = _sweep_instance(s, N, M)
    rotated = io.assess(*_rotated(sys, bundle, s))
    report = io.assess(sys, bundle)
    assert (rotated.verdict, rotated.rank_AD) == (report.verdict, report.rank_AD)


@pytest.mark.parametrize("s, N, M", [(113, 50, 200), (199, 50, 200), (270, 50, 200), (276, 50, 200),
                                     (151, 30, 40), (163, 30, 40), (288, 30, 40)])
def test_rank_check_reads_the_factorization_assess_reads(s, N, M):
    # rows where a rank cutoff on A(x) D, in vech coordinates, moved under
    # this rotation; the public check and assess now read one factorization
    sys, bundle, _ = _sweep_instance(s, N, M)
    rank = io.assess(sys, bundle).rank_AD
    for inst in ((sys, bundle), _rotated(sys, bundle, s)):
        got, report = io.check_rank_condition(*inst), io.assess(*inst)
        assert got[:2] == (rank, report.full_column_rank)
        assert len(got[2]) == report.kernel_dim
        assert all(np.array_equal(k, r) for k, r in zip(got[2], report.kernel_basis))


def test_unique_verdict_recovers_at_the_solves_precision():
    # instances 1 and 269 solve to within 6.2e-8 of Q_bar, yet their lam_min
    # of -4.0e-8 and -1.4e-8 fall below the gate's 1e-8 ||Q||: a unique
    # verdict followed by PsdViolation. Their error_bound estimates are 6.4e-6 and 8.9e-7.
    for s, verdict in ((1, "unique_by_thm3"), (269, "unique_by_rank")):
        sys, bundle, Qbar = _sweep_instance(s)
        report = io.assess(sys, bundle)
        assert report.verdict == verdict
        Q = io.recover_exact(sys, bundle, report=report)
        assert Q.lam_min < -1e-8 and np.abs(Q.Q - Qbar).max() <= 1e-7


def test_an_unclosed_certificate_path_certifies_nothing(monkeypatch, example_instance):
    # a path that stops on its step budget at a bounded end gives no dual
    # point to trust: not_determined, never a false unique_by_dual
    path = identifiability._barrier_path

    def budget_stop(*args):
        y, g, trace, x, _, cuts = path(*args)
        return y, g, trace, x, "step_budget", cuts

    monkeypatch.setattr(identifiability, "_barrier_path", budget_stop)
    sys, bundle = example_instance["sys"], example_instance["bundle"]
    report = io.assess(sys, bundle)
    assert report.verdict == "not_determined" and report.prop2 is None
    with pytest.raises(io.NotIdentifiable):
        io.recover_exact(sys, bundle, report=report)
