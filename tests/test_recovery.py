"""Noiseless recovery: the linear solve, the kernel search, and error paths."""

import dataclasses
import json
from sys import modules

import numpy as np
import pytest

import ioclqr as io
from ioclqr import cli, identifiability
from ioclqr.core_model import psd_tol_for


def _recover_error(sys, Qbar, N, M, seed, phi=5.0):
    bundle = io.generate_bundle(sys, Qbar, N, M, seed=seed)
    Q = io.recover_exact(sys, bundle, phi=phi)
    return np.linalg.norm(Q.Q - Qbar) / np.linalg.norm(Qbar)


class TestFullRankRecovery:
    def test_identity_cost(self, random_system):
        rng = np.random.default_rng(50)
        sys = random_system(rng, n=2, m=1)
        assert _recover_error(sys, np.eye(2), N=8, M=3, seed=1) < 1e-8

    def test_random_sweep(self, random_system, random_psd):
        rng = np.random.default_rng(51)
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(2, 4))
            sys = random_system(rng, n=n, m=1)
            Qbar = random_psd(rng, n, scale=0.8)
            err = _recover_error(sys, Qbar, N=n + 5, M=n, seed=int(rng.integers(1 << 30)))
            worst = max(worst, err)
        assert worst < 1e-6

    def test_data_scale_invariance(self, random_system, random_psd):
        # both sides of the linear system are linear in the data
        rng = np.random.default_rng(52)
        sys = random_system(rng, n=2, m=1)
        Qbar = random_psd(rng, 2, scale=0.8)
        inits = [rng.uniform(-5, 5, size=2) for _ in range(3)]
        gains = io.solve_riccati(sys, Qbar, 8)
        qs = []
        for c in (1.0, 10.0):
            eps = [io.simulate(sys, gains, c * x0) for x0 in inits]
            b = io.TrajectoryBundle(
                np.array([e.x for e in eps]), np.array([e.u for e in eps]), "exact"
            )
            qs.append(io.recover_exact(sys, b).Q)
        assert np.linalg.norm(qs[0] - qs[1]) < 1e-8

    def test_phi_is_carried(self, rich_instance):
        Q = io.recover_exact(rich_instance["sys"], rich_instance["bundle"], phi=7.5)
        assert Q.phi == 7.5


class TestRecoveryErrors:
    def test_not_identifiable(self, random_system):
        # M=1, N=4, n=3: far too few equations for the 6 unknowns
        rng = np.random.default_rng(53)
        sys = random_system(rng, n=3, m=1)
        G = rng.standard_normal((3, 3))
        Qbar = G @ G.T + 0.3 * np.eye(3)
        Qbar *= 0.8 / np.linalg.norm(Qbar)
        bundle = io.generate_bundle(sys, Qbar, N=4, M=1, seed=2)
        assert io.assess(sys, bundle).verdict == "not_determined"
        with pytest.raises(io.NotIdentifiable):
            io.recover_exact(sys, bundle)

    def test_residual_too_large(self, rich_instance):
        # a bump in one input breaks optimality for every cost matrix at once
        # (scaling all inputs would not: c*u is optimal for c*Q)
        X, U = rich_instance["bundle"].X, np.array(rich_instance["bundle"].U)
        U[0, 0, 1] += 0.5
        corrupted = io.TrajectoryBundle(X, U, "exact")
        with pytest.raises(io.ResidualTooLarge):
            io.recover_exact(rich_instance["sys"], corrupted)
        # from a report, the error quotes the residual assess measured
        report = io.assess(rich_instance["sys"], corrupted)
        with pytest.raises(io.ResidualTooLarge, match=f"{report.residual:.3e}"):
            io.recover_exact(rich_instance["sys"], corrupted, report=report)

    def test_psd_violation_on_indefinite_source(self, random_system):
        # stationary trajectories of an indefinite cost satisfy the same
        # linear system, so the solve lands exactly on the indefinite matrix
        rng = np.random.default_rng(54)
        sys = random_system(rng, n=2, m=1)
        Qind = np.diag([1.0, -0.5])
        X, U = [], []
        for _ in range(3):
            x0 = rng.uniform(-5, 5, size=2)
            xs, _, us = io.pmp_solve(io.build_pmp_system(sys, Qind, 8), x0)
            X.append(np.hstack([x0[:, None], xs]))
            U.append(us)
        bundle = io.TrajectoryBundle(np.array(X), np.array(U), "exact")
        with pytest.raises(io.PsdViolation):
            io.recover_exact(sys, bundle)


def _rank_one_instance():
    """A full-rank n=2 instance with a rank-1 cost whose least-squares
    solution has lam_min of -8.1e-13: within the PSD tolerance, below 0.
    The seed is one whose lam_min sits well below 0 whichever coordinates
    of Q the solve uses (-4.4e-13 in vech coordinates), not a rounding away."""
    rng = np.random.default_rng(3)
    while True:
        try:
            sys = io.LtiSystem(rng.standard_normal((2, 2)), rng.standard_normal((2, 1)))
            break
        except io.InvalidSystem:
            continue
    g = rng.standard_normal(2)
    Qbar = np.outer(g, g)
    Qbar *= 0.8 / np.linalg.norm(Qbar)
    return sys, io.generate_bundle(sys, Qbar, N=8, M=3, seed=0)


class TestSingularCost:
    """CostMatrix is the one PSD gate: a tiny negative eigenvalue of the
    solution is kept and reported, never clamped (tests run with warnings
    as errors)."""

    def test_solution_returned_as_is(self):
        sys, bundle = _rank_one_instance()
        report = io.assess(sys, bundle)
        assert report.verdict == "unique_by_rank"
        assert -psd_tol_for(report.q_prime) < np.linalg.eigvalsh(report.q_prime)[0] < 0.0
        Q = io.recover_exact(sys, bundle, report=report)
        np.testing.assert_array_equal(Q.Q, report.q_prime)

    def test_cli_reports_the_margin(self, tmp_path, capsys):
        sys, bundle = _rank_one_instance()
        spath, bpath, out = (str(tmp_path / f) for f in ("sys.json", "data.csv", "est.json"))
        io.save_system(sys, spath)
        io.save_bundle(bundle, bpath)
        rc = cli.main(["estimate", "--system", spath, "--bundle", bpath, "--mode", "exact",
                       "--out", out])
        assert rc == 0
        assert capsys.readouterr().err == ""
        lam = np.linalg.eigvalsh(io.assess(sys, bundle).q_prime)[0]
        assert lam < 0.0
        with open(out) as fh:
            assert json.load(fh)["constraint_activity"]["psd_margin"] == lam


class TestKernelRecovery:
    def test_worked_instance(self, example_instance):
        report = io.assess(example_instance["sys"], example_instance["bundle"])
        assert report.verdict == "unique_by_dual"
        Q = io.recover_exact(example_instance["sys"], example_instance["bundle"], report=report)
        # printed entries carry 4 decimals, so 5e-5 absolute is the floor
        assert np.abs(Q.Q - example_instance["Qbar"]).max() < 5e-5
        # and the recovered cost regenerates the trajectories
        ep = io.simulate(
            example_instance["sys"],
            io.solve_riccati(example_instance["sys"], Q.Q, example_instance["N"]),
            example_instance["x0"],
        )
        ref = example_instance["bundle"].episodes[0]
        assert np.linalg.norm(ep.x - ref.x) <= 1e-6 * np.linalg.norm(ref.x)

    def test_known_alpha_star(self, example_instance):
        # shift q_prime three kernel steps away from the answer; the search
        # must walk back to the same cost matrix
        report = io.assess(example_instance["sys"], example_instance["bundle"])
        base = io.recover_with_kernel(
            example_instance["sys"], example_instance["bundle"], report
        )
        # the report's certificate belongs to the unshifted q_prime; without
        # one, recovery solves the path from the shifted point
        shifted = io.IdentifiabilityReport(
            rank_AD=report.rank_AD,
            kernel_basis=report.kernel_basis,
            thm3_holds=report.thm3_holds,
            prop2=None,
            verdict=report.verdict,
            q_prime=report.q_prime - 3.0 * report.kernel_basis[0],
        )
        moved = io.recover_with_kernel(
            example_instance["sys"], example_instance["bundle"], shifted
        )
        assert np.linalg.norm(base.Q - moved.Q) < 1e-6

    def test_eta_zero_delegates(self, rich_instance):
        report = io.assess(rich_instance["sys"], rich_instance["bundle"])
        assert report.kernel_dim == 0
        Q = io.recover_with_kernel(rich_instance["sys"], rich_instance["bundle"], report)
        assert np.linalg.norm(Q.Q - rich_instance["Qbar"]) < 1e-6

    def test_dual_verdict_without_kernel_is_least_squares(self, rich_instance):
        # with an empty kernel there is nothing to search: both entry points
        # return the unique least-squares solution rather than handing the
        # report back and forth
        report = io.assess(rich_instance["sys"], rich_instance["bundle"])
        forged = dataclasses.replace(report, verdict="unique_by_dual")
        assert forged.kernel_dim == 0
        for recover in (io.recover_exact, io.recover_with_kernel):
            Q = recover(rich_instance["sys"], rich_instance["bundle"], report=forged)
            assert np.linalg.norm(Q.Q - rich_instance["Qbar"]) < 1e-6

    def test_requires_dual_verdict(self, rich_instance):
        report = io.assess(rich_instance["sys"], rich_instance["bundle"])
        forged = io.IdentifiabilityReport(
            rank_AD=2,
            kernel_basis=[np.eye(2) / np.sqrt(2.0)],
            thm3_holds=None,
            prop2=None,
            verdict="not_determined",
            q_prime=report.q_prime,
        )
        with pytest.raises(io.NotIdentifiable):
            io.recover_with_kernel(rich_instance["sys"], rich_instance["bundle"], forged)

    def test_flat_face_is_flagged(self, rich_instance):
        # a whole ray of alphas keeps lam_min at 1; a (forged) uniqueness
        # verdict contradicts that, which must surface as AmbiguousSolution
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        forged = io.IdentifiabilityReport(
            rank_AD=2,
            kernel_basis=[e11],
            thm3_holds=None,
            prop2=None,
            verdict="unique_by_dual",
            q_prime=np.diag([2.0, 1.0]),
        )
        with pytest.raises(io.AmbiguousSolution):
            io.recover_with_kernel(rich_instance["sys"], rich_instance["bundle"], forged)

    @pytest.mark.parametrize("Qp", [[[0, 0.1], [0.1, 0]], [[0, 1e-3], [1e-3, 0]], [[0, 1], [1, 1]]])
    def test_asymptotic_ray_is_flagged(self, rich_instance, Qp):
        # lam_min(Q' + alpha e11) approaches its supremum only as alpha grows
        # without bound, so a (forged) uniqueness verdict has no point to return
        forged = io.IdentifiabilityReport(
            rank_AD=2,
            kernel_basis=[np.diag([1.0, 0.0])],
            thm3_holds=None,
            prop2=None,
            verdict="unique_by_dual",
            q_prime=np.array(Qp, dtype=float),
        )
        with pytest.raises(io.AmbiguousSolution):
            io.recover_with_kernel(rich_instance["sys"], rich_instance["bundle"], forged)

    def test_interior_ball_is_flagged(self, rich_instance):
        # two kernel directions and a PD point: a whole ellipsoid of alphas
        # is feasible, again contradicting a uniqueness verdict
        d1 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        d2 = np.diag([1.0, -1.0]) / np.sqrt(2.0)
        forged = io.IdentifiabilityReport(
            rank_AD=1,
            kernel_basis=[d1, d2],
            thm3_holds=None,
            prop2=None,
            verdict="unique_by_dual",
            q_prime=np.eye(2),
        )
        with pytest.raises(io.AmbiguousSolution):
            io.recover_with_kernel(rich_instance["sys"], rich_instance["bundle"], forged)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_oblique_segment_is_flagged(self, rich_instance, rotate):
        # lam_min(Q' + p F + q G) = min(-q, q - p^2 + ...): it falls linearly
        # in q but only quadratically in p, so at the width check's level a
        # segment of width ~2e-4 along F is feasible. The check must find it
        # also when the kernel basis is rotated 45 degrees, where every
        # coordinate axis leaves the segment at once
        F = np.zeros((3, 3))
        F[0, 1] = F[1, 0] = 1.0
        G = np.diag([0.0, 1.0, -1.0])
        basis = [(F + G) / 2.0, (F - G) / 2.0] if rotate else [F, G]
        forged = io.IdentifiabilityReport(
            rank_AD=4,
            kernel_basis=basis,
            thm3_holds=None,
            prop2=None,
            verdict="unique_by_dual",
            q_prime=np.diag([1.0, 0.0, 0.0]),
        )
        with pytest.raises(io.AmbiguousSolution):
            io.recover_with_kernel(rich_instance["sys"], rich_instance["bundle"], forged)

    def test_slow_sharp_maximum_is_not_flagged(self, random_system):
        # rank-1 costs at n = 3 with a two-dimensional kernel, each certified
        # unique_by_dual: lam_min falls off linearly but slowly from the true
        # cost, so the feasible alphas spread up to 7e-4 at the width check's
        # level and 100-fold less at a 100-fold tighter one. The slow slope
        # pins alpha* only to about gap / slope (9e-7 for seed 88)
        for s in (0, 1, 24, 25, 40, 60, 86, 88, 107, 111, 118, 141, 169, 172, 183, 184):
            rng = np.random.default_rng(s)
            sys = random_system(rng, 3)
            g = rng.standard_normal(3)
            Qbar = np.outer(g, g)
            Qbar *= 0.8 / np.linalg.norm(Qbar)
            bundle = io.generate_bundle(sys, Qbar, N=6, M=1, seed=0)
            report = io.assess(sys, bundle)
            assert report.verdict == "unique_by_dual" and report.kernel_dim == 2
            Q = io.recover_with_kernel(sys, bundle, report)
            assert np.linalg.norm(Q.Q - Qbar) <= 2e-6


def _interval_width_200(f, alpha_star, level, span=1e3):
    """The width search with a fixed 200 halvings per crossing."""

    def crossing(sign):
        lo, hi = 0.0, 1e-6
        while f(alpha_star + sign * hi) >= level:
            hi *= 2.0
            if hi > span:
                return span
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(alpha_star + sign * mid) >= level:
                lo = mid
            else:
                hi = mid
        return lo

    return crossing(1.0) + crossing(-1.0)


def test_widths_match_a_bisection_oracle(monkeypatch, example_instance, rich_instance, random_system):
    # every width read off the generalized eigenproblem agrees with 200
    # halvings on lam_min along the same line, at both levels and along each
    # curvature direction the recovery checks
    width = identifiability._feasible_width
    seen = []

    def checked(Q_star, E, level):
        got = width(Q_star, E, level)
        want = _interval_width_200(
            lambda s: np.linalg.eigvalsh(Q_star + s * E)[0], 0.0, -level,
            identifiability.WIDTH_SPAN,
        )
        assert abs(got - want) <= 1e-5 * want
        seen.append(got)
        return got

    monkeypatch.setattr(identifiability, "_feasible_width", checked)
    cases = TestKernelRecovery()
    cases.test_worked_instance(example_instance)
    cases.test_slow_sharp_maximum_is_not_flagged(random_system)
    cases.test_interior_ball_is_flagged(rich_instance)
    for rotate in (False, True):
        cases.test_oblique_segment_is_flagged(rich_instance, rotate)
    # 2 levels x (1 + 16 x 2 directions, then at least one per flagged family)
    assert len(seen) >= 2 * (1 + 32 + 3) and sum(w > 1e-6 for w in seen) >= 16


def _count_calls(monkeypatch, fn_name):
    """A list that grows by one at each call of identifiability.<fn_name>."""
    calls = []
    orig = getattr(identifiability, fn_name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    # rebind every module-level reference, wherever it was imported
    for name, mod in list(modules.items()):
        if name.split(".")[0] == "ioclqr" and getattr(mod, fn_name, None) is orig:
            monkeypatch.setattr(mod, fn_name, counted)
    return calls


class TestNoRebuild:
    """assess builds and factors the data matrix; recovery reuses its report."""

    @pytest.fixture
    def build_calls(self, monkeypatch):
        return _count_calls(monkeypatch, "build_A_matrix")

    def test_recovery_from_report_builds_nothing(self, build_calls, rich_instance, example_instance):
        for inst in (rich_instance, example_instance):
            report = io.assess(inst["sys"], inst["bundle"])
            assert len(build_calls) == 1
            io.recover_exact(inst["sys"], inst["bundle"], report=report)
            io.recover_with_kernel(inst["sys"], inst["bundle"], report)
            assert len(build_calls) == 1
            build_calls.clear()

    def test_cli_exact_estimate_builds_once(self, build_calls, rich_instance, tmp_path):
        spath, bpath = str(tmp_path / "sys.json"), str(tmp_path / "data.csv")
        io.save_system(rich_instance["sys"], spath)
        io.save_bundle(rich_instance["bundle"], bpath)
        rc = cli.main(
            ["estimate", "--system", spath, "--bundle", bpath, "--mode", "exact",
             "--out", str(tmp_path / "est.json")]
        )
        assert rc == 0
        assert len(build_calls) == 1


class TestOnePathPerReport:
    """The certificate in assess solves the max lam_min path once; kernel
    recovery reads that path's end off the report."""

    @pytest.fixture
    def path_calls(self, monkeypatch):
        return _count_calls(monkeypatch, "_max_min_eig")

    def test_cli_exact_estimate_runs_one_path(self, path_calls, example_instance, tmp_path):
        spath, bpath = str(tmp_path / "sys.json"), str(tmp_path / "data.csv")
        io.save_system(example_instance["sys"], spath)
        io.save_bundle(example_instance["bundle"], bpath)
        rc = cli.main(
            ["estimate", "--system", spath, "--bundle", bpath, "--mode", "exact",
             "--out", str(tmp_path / "est.json")]
        )
        assert rc == 0
        assert len(path_calls) == 1

    @pytest.mark.parametrize("recover", ["recover_exact", "recover_with_kernel"])
    def test_recovery_from_report_runs_no_path(self, path_calls, example_instance, recover):
        sys_, bundle = example_instance["sys"], example_instance["bundle"]
        report = io.assess(sys_, bundle)
        assert report.verdict == "unique_by_dual" and len(path_calls) == 1
        path_calls.clear()
        getattr(io, recover)(sys_, bundle, report=report)
        assert len(path_calls) == 0
