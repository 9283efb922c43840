"""Forward problem: Riccati recursion, simulation, and the two oracles."""

import os
import subprocess
import sys as sys_module

import numpy as np
import pytest

import ioclqr
from ioclqr import (
    AmbiguousSolution,  # noqa: F401  (import sanity for the package surface)
    DimensionMismatch,
    LtiSystem,
    SizeGuardExceeded,
    add_noise,
    build_pmp_system,
    cost_of,
    generate_bundle,
    pmp_solve,
    simulate,
    solve_qp_oracle,
    solve_riccati,
)
from ioclqr.bench_harness import BenchConfig, sample_instance
from conftest import rank_sweep


class TestRiccatiScalar:
    """Hand-computed scalar case a=1.2, b=0.5, q=2, N=3.

    Backward pass: P_3 = 0, so K_2 = 0 and P_2 = q = 2. Then
    G = b^2 P_2 + 1 = 1.5, K_1 = -a b P_2 / G = -0.8, and
    P_1 = a^2 P_2 + q - (a P_2 b)^2 / G = 4.88 - 0.96 = 3.92.
    """

    def setup_method(self):
        self.sys = LtiSystem([[1.2]], [[0.5]])
        self.Q = np.array([[2.0]])

    def test_gains_and_values(self):
        gains = solve_riccati(self.sys, self.Q, N=3)
        assert len(gains.K) == 2
        assert gains.N == 3
        assert gains.K_t(1)[0, 0] == pytest.approx(-0.8, abs=1e-14)
        assert gains.K_t(2)[0, 0] == 0.0
        assert gains.P_t(2)[0, 0] == pytest.approx(2.0, abs=1e-14)
        assert gains.P_t(3)[0, 0] == 0.0

    def test_trajectory_and_cost(self):
        gains = solve_riccati(self.sys, self.Q, N=3)
        ep = simulate(self.sys, gains, [1.0])
        # u_1 = -0.8, x_2 = 1.2 - 0.4 = 0.8, u_2 = 0, x_3 = 0.96
        np.testing.assert_allclose(ep.x[0], [1.0, 0.8, 0.96], atol=1e-14)
        np.testing.assert_allclose(ep.u[0], [-0.8, 0.0], atol=1e-14)
        # J* = u_1^2 + q(x_1^2 + x_2^2) = 0.64 + 2 * 1.64 = 3.92 = x_1' P_1 x_1
        assert cost_of(self.sys, self.Q, ep) == pytest.approx(3.92, abs=1e-13)

    def test_last_gain_is_always_zero(self, random_system, random_psd):
        rng = np.random.default_rng(5)
        for _ in range(5):
            sys = random_system(rng, n=3, m=2)
            gains = solve_riccati(sys, random_psd(rng, 3), N=6)
            assert np.all(gains.K_t(5) == 0.0)

    def test_rejects_bad_horizon_and_shape(self):
        with pytest.raises(DimensionMismatch):
            solve_riccati(self.sys, self.Q, N=1)
        with pytest.raises(DimensionMismatch):
            solve_riccati(self.sys, np.eye(2), N=3)
        with pytest.raises(DimensionMismatch, match="horizon must be at least 2"):
            build_pmp_system(self.sys, self.Q, N=1)
        with pytest.raises(DimensionMismatch, match="x_bar has 2 entries, wanted 1"):
            simulate(self.sys, solve_riccati(self.sys, self.Q, N=3), [1.0, 2.0])


class TestCostOf:
    def test_matches_loop(self, random_system, random_psd):
        rng = np.random.default_rng(7)
        sys = random_system(rng, n=3, m=2)
        Q = random_psd(rng, 3)
        ep = simulate(sys, solve_riccati(sys, Q, N=7), rng.normal(size=3))
        J = 0.0
        for t in range(6):
            J += ep.u[:, t] @ ep.u[:, t] + ep.x[:, t] @ Q @ ep.x[:, t]
        assert cost_of(sys, Q, ep) == pytest.approx(J, rel=1e-13)


class TestRouteEquivalence:
    """Riccati rollout, dense QP, and the boundary-value solve must agree."""

    def test_three_way_sweep(self, random_system, random_psd):
        rng = np.random.default_rng(42)
        for n, m, N in [(1, 1, 2), (1, 1, 5), (2, 1, 4), (2, 2, 6), (3, 1, 8), (4, 2, 5)]:
            sys = random_system(rng, n=n, m=m)
            Q = random_psd(rng, n)
            x0 = rng.uniform(-5, 5, size=n)
            ric = simulate(sys, solve_riccati(sys, Q, N), x0)
            qp = solve_qp_oracle(sys, Q, N, x0)
            xs, _, us = pmp_solve(build_pmp_system(sys, Q, N), x0)
            scale = max(1.0, np.abs(ric.x).max())
            np.testing.assert_allclose(qp.x, ric.x, atol=1e-8 * scale)
            np.testing.assert_allclose(qp.u, ric.u, atol=1e-8 * scale)
            np.testing.assert_allclose(xs, ric.x[:, 1:], atol=1e-8 * scale)
            np.testing.assert_allclose(us, ric.u, atol=1e-8 * scale)

    def test_riccati_cost_is_minimal(self, random_system, random_psd):
        # nudging any input coordinate can only raise the cost
        rng = np.random.default_rng(3)
        sys = random_system(rng, n=2, m=1)
        Q = random_psd(rng, 2)
        ep = simulate(sys, solve_riccati(sys, Q, N=6), [1.0, -2.0])
        J_star = cost_of(sys, Q, ep)
        for t in range(5):
            u = ep.u.copy()
            u[0, t] += 0.01
            x = np.zeros_like(ep.x)
            x[:, 0] = ep.x[:, 0]
            for s in range(5):
                x[:, s + 1] = sys.A @ x[:, s] + sys.B @ u[:, s]
            assert cost_of(sys, Q, type(ep)(x, u)) > J_star

    def test_horizon_two_input_is_zero(self, random_system, random_psd):
        # with x_1 fixed and no x_N term, the N=2 cost is u_1'u_1 + const
        rng = np.random.default_rng(9)
        sys = random_system(rng, n=2, m=1)
        Q = random_psd(rng, 2)
        x0 = np.array([3.0, -1.0])
        ric = simulate(sys, solve_riccati(sys, Q, 2), x0)
        qp = solve_qp_oracle(sys, Q, 2, x0)
        xs, _, us = pmp_solve(build_pmp_system(sys, Q, 2), x0)
        np.testing.assert_allclose(ric.u, 0.0, atol=1e-14)
        np.testing.assert_allclose(qp.u, 0.0, atol=1e-12)
        np.testing.assert_allclose(us, 0.0, atol=1e-12)
        np.testing.assert_allclose(xs[:, 0], sys.A @ x0, atol=1e-12)

    def test_qp_size_guard(self):
        sys = LtiSystem([[0.5]], [[1.0]])
        with pytest.raises(SizeGuardExceeded):
            solve_qp_oracle(sys, np.eye(1), N=2002, x_bar=[1.0])


_BUNDLE_SIZES = (1, 2, 3, 64)
_BUNDLE_SEEDS = (5, 6, 7, 8)

# generate_bundle at every seed and size above for the case saved in
# argv[1]/case.npz, stored as X<seed>_<M>, U<seed>_<M> in argv[1]/out.npz
_BUNDLE_SIZES_SCRIPT = f"""
import sys
import numpy as np
import ioclqr as io

case = np.load(sys.argv[1] + "/case.npz")
sys_ = io.LtiSystem(case["A"], case["B"])
out = {{}}
for seed in {_BUNDLE_SEEDS}:
    for M in {_BUNDLE_SIZES}:
        b = io.generate_bundle(sys_, case["Q"], N=30, M=M, seed=seed)
        out[f"X{{seed}}_{{M}}"], out[f"U{{seed}}_{{M}}"] = b.X, b.U
np.savez(sys.argv[1] + "/out.npz", **out)
"""


def _assert_prefixes_equal(arrays):
    """Every bundle X<seed>_<M>/U<seed>_<M> is the first M episodes of the
    largest bundle from its seed."""
    top = max(_BUNDLE_SIZES)
    for seed in _BUNDLE_SEEDS:
        for M in _BUNDLE_SIZES:
            for key in "XU":
                want = arrays[f"{key}{seed}_{top}"][:M]
                np.testing.assert_array_equal(arrays[f"{key}{seed}_{M}"], want)


def _assert_matches_riccati(sys, Q, bundle, rtol):
    """Each episode against the Riccati rollout from its x_1, relative to
    the episode's largest state and input."""
    gains = solve_riccati(sys, Q, bundle.N)
    for x, u in zip(bundle.X, bundle.U):
        ref = simulate(sys, gains, x[:, 0])
        assert np.abs(x - ref.x).max() <= rtol * np.abs(ref.x).max()
        assert np.abs(u - ref.u).max() <= rtol * np.abs(ref.u).max()


class TestGenerateBundle:
    def test_shape_kind_and_dynamics(self, random_system, random_psd):
        rng = np.random.default_rng(21)
        sys = random_system(rng, n=2, m=1)
        Q = random_psd(rng, 2)
        b = generate_bundle(sys, Q, N=6, M=4, seed=1)
        assert (b.M, b.N, b.kind) == (4, 6, "exact")
        b.check_dynamics(sys)
        # every episode must be the optimal rollout from its own x_1
        gains = solve_riccati(sys, Q, 6)
        for ep in b.episodes:
            ref = simulate(sys, gains, ep.x[:, 0])
            np.testing.assert_allclose(ep.u, ref.u, atol=1e-12)

    def test_seed_determinism(self, random_system, random_psd):
        rng = np.random.default_rng(22)
        sys = random_system(rng, n=2, m=1)
        Q = random_psd(rng, 2)
        b1 = generate_bundle(sys, Q, N=5, M=3, seed=7)
        b2 = generate_bundle(sys, Q, N=5, M=3, seed=7)
        b3 = generate_bundle(sys, Q, N=5, M=3, seed=8)
        for e1, e2 in zip(b1.episodes, b2.episodes):
            np.testing.assert_array_equal(e1.x, e2.x)
        assert not np.array_equal(b1.episodes[0].x, b3.episodes[0].x)

    def test_episodes_do_not_depend_on_bundle_size(self, random_system, random_psd, tmp_path):
        # the first M episodes of a larger bundle match bit for bit, also
        # with two BLAS threads: benchmark cells at several M share one
        # bundle, so their data must not depend on how many are generated
        rng = np.random.default_rng(25)
        sys = random_system(rng, n=3, m=2)
        Q = random_psd(rng, 3)
        got = {}
        for seed in _BUNDLE_SEEDS:
            for M in _BUNDLE_SIZES:
                b = generate_bundle(sys, Q, N=30, M=M, seed=seed)
                got[f"X{seed}_{M}"], got[f"U{seed}_{M}"] = b.X, b.U
        _assert_prefixes_equal(got)
        np.savez(tmp_path / "case.npz", A=sys.A, B=sys.B, Q=Q)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ioclqr.__file__))
        subprocess.run(
            [sys_module.executable, "-c", _BUNDLE_SIZES_SCRIPT, str(tmp_path)], env=env, check=True
        )
        with np.load(tmp_path / "out.npz") as out:
            two_threads = dict(out)
        _assert_prefixes_equal(two_threads)
        for key, value in got.items():
            np.testing.assert_array_equal(two_threads[key], value)
        # the Riccati rollout is an independent route, equal up to rounding
        ep = simulate(sys, solve_riccati(sys, Q, 30), got["X5_3"][1, :, 0])
        np.testing.assert_allclose(ep.x, got["X5_3"][1], rtol=1e-12)
        np.testing.assert_allclose(ep.u, got["U5_3"][1], rtol=1e-12)

    def test_custom_init_sampler(self, random_system, random_psd):
        rng = np.random.default_rng(23)
        sys = random_system(rng, n=2, m=1)
        b = generate_bundle(
            sys, random_psd(rng, 2), N=4, M=2, init_sampler=lambda r: np.ones(2), seed=0
        )
        for ep in b.episodes:
            np.testing.assert_array_equal(ep.x[:, 0], [1.0, 1.0])

    def test_rejects_empty(self, random_system, random_psd):
        rng = np.random.default_rng(24)
        sys = random_system(rng, n=2, m=1)
        with pytest.raises(DimensionMismatch):
            generate_bundle(sys, random_psd(rng, 2), N=4, M=0)

    @pytest.mark.parametrize("q_size", [2, 4])
    def test_rejects_cost_of_another_size(self, random_system, q_size):
        # a smaller Q would fill only the top-left of each n x n Q slot of the
        # band, that is generate data for [[Q, 0], [0, 0]]
        rng = np.random.default_rng(27)
        sys = random_system(rng, n=3, m=1)
        with pytest.raises(DimensionMismatch, match="Q shape"):
            generate_bundle(sys, np.eye(q_size), N=5, M=2)
        with pytest.raises(DimensionMismatch, match="Q shape"):
            ioclqr.forward_lqr.BandedPmp(sys, np.eye(q_size), 5)

    @pytest.mark.parametrize("N", [50, 400, 1600])
    def test_band_episodes_match_riccati(self, N):
        cfg = BenchConfig(N=N, M_grid=(4,), master_seed=N)
        for trial in range(3):
            sys, cost, init_ss, _ = sample_instance(cfg, trial)
            bundle = generate_bundle(sys, cost, N, 4, seed=init_ss)
            _assert_matches_riccati(sys, cost.Q, bundle, 1e-12)
            bundle.check_dynamics(sys)

    def test_band_episodes_match_riccati_unstable(self, random_system, random_psd):
        # rho(A) = 3: the open loop grows 3^N, the optimal closed loop does not
        rng = np.random.default_rng(26)
        for N in (50, 400):
            sys = random_system(rng, n=3, rho=3.0)
            Q = random_psd(rng, 3)
            bundle = generate_bundle(sys, Q, N, 4, seed=N)
            _assert_matches_riccati(sys, Q, bundle, 1e-10)
            bundle.check_dynamics(sys)


class TestAddNoise:
    def _bundle(self, seed=31):
        sys = rank_sweep.random_system(np.random.default_rng(seed), 2, rho=0.9)
        Q = np.diag([1.0, 0.5])
        return sys, generate_bundle(sys, Q, N=7, M=3, seed=seed)

    @staticmethod
    def _snr_db(clean, noisy):
        err = noisy - clean
        return 10.0 * np.log10(np.mean(clean**2) / np.mean(err**2))

    def test_realized_snr_is_exact_per_episode(self):
        _, b = self._bundle()
        nb = add_noise(b, snr_db_x=15.0, snr_db_u=20.0, seed=4)
        assert nb.kind == "noisy_both"
        assert (nb.snr_db_x, nb.snr_db_u) == (15.0, 20.0)
        for ep, nep in zip(b.episodes, nb.episodes):
            assert self._snr_db(ep.x[:, 1:], nep.x[:, 1:]) == pytest.approx(15.0, abs=1e-9)
            assert self._snr_db(ep.u, nep.u) == pytest.approx(20.0, abs=1e-9)

    def test_initial_state_stays_exact(self):
        _, b = self._bundle()
        nb = add_noise(b, snr_db_x=5.0, seed=2)
        assert nb.kind == "noisy_state"
        for ep, nep in zip(b.episodes, nb.episodes):
            np.testing.assert_array_equal(ep.x[:, 0], nep.x[:, 0])
            np.testing.assert_array_equal(ep.u, nep.u)
            assert not np.array_equal(ep.x[:, 1:], nep.x[:, 1:])

    def test_input_only_kind(self):
        _, b = self._bundle()
        nb = add_noise(b, snr_db_u=10.0, seed=2)
        assert nb.kind == "noisy_input"
        for ep, nep in zip(b.episodes, nb.episodes):
            np.testing.assert_array_equal(ep.x, nep.x)

    def test_none_passthrough(self):
        _, b = self._bundle()
        assert add_noise(b, snr_db_x=None, snr_db_u=None) is b

    def test_requires_exact_bundle(self):
        _, b = self._bundle()
        nb = add_noise(b, snr_db_x=15.0, seed=1)
        with pytest.raises(DimensionMismatch):
            add_noise(nb, snr_db_x=15.0, seed=1)

    def test_seed_determinism(self):
        _, b = self._bundle()
        n1 = add_noise(b, snr_db_x=12.0, seed=9)
        n2 = add_noise(b, snr_db_x=12.0, seed=9)
        n3 = add_noise(b, snr_db_x=12.0, seed=10)
        for e1, e2 in zip(n1.episodes, n2.episodes):
            np.testing.assert_array_equal(e1.x, e2.x)
        assert not np.array_equal(n1.episodes[0].x, n3.episodes[0].x)


def test_one_seed_object_gives_the_same_data_on_every_call():
    # SeedSequence.spawn advances a counter on the object it is called on,
    # so a second call with the same object drew other streams
    cfg = BenchConfig(N=20, M_grid=(3,))
    sys, cost, init_ss, noise_ss = sample_instance(cfg, 0)
    _, _, init_fresh, noise_fresh = sample_instance(cfg, 0)
    # the streams are those the first spawn of a fresh seed hands out
    x0 = [np.random.default_rng(ss).uniform(-5.0, 5.0, 2) for ss in init_fresh.spawn(3)]
    want = generate_bundle(sys, cost, 20, 3, seed=sample_instance(cfg, 0)[2])
    np.testing.assert_array_equal(want.X[:, :, 0], x0)
    want_noisy = add_noise(want, 15.0, 20.0, seed=noise_fresh)
    for _ in range(2):
        b = generate_bundle(sys, cost, 20, 3, seed=init_ss)
        nb = add_noise(b, 15.0, 20.0, seed=noise_ss)
        np.testing.assert_array_equal(b.X, want.X)
        np.testing.assert_array_equal(nb.X, want_noisy.X)
        np.testing.assert_array_equal(nb.U, want_noisy.U)


def _riccati_two_solves(sys, Q, N):
    """The recursion with the gain solve repeated inside the P update."""
    import scipy.linalg as sla

    A, B = sys.A, sys.B
    P = np.zeros((sys.n, sys.n))
    Ks, Ps = [None] * (N - 1), [None] * (N - 1)
    Ps[N - 2] = P
    for t in range(N - 1, 0, -1):
        cf = sla.cho_factor(B.T @ P @ B + np.eye(sys.m), lower=True)
        BtPA = B.T @ P @ A
        Ks[t - 1] = -sla.cho_solve(cf, BtPA)
        P = A.T @ P @ A + Q - BtPA.T @ sla.cho_solve(cf, BtPA)
        P = 0.5 * (P + P.T)
        if t >= 2:
            Ps[t - 2] = P
    return Ks, Ps


def test_riccati_reuses_gain_bit_for_bit(random_system, random_psd):
    rng = np.random.default_rng(90)
    for n, m, N in [(1, 1, 2), (2, 1, 9), (3, 2, 20), (4, 1, 60)]:
        sys = random_system(rng, n, m)
        Q = random_psd(rng, n)
        gains = solve_riccati(sys, Q, N)
        Ks, Ps = _riccati_two_solves(sys, Q, N)
        for got, want in zip(gains.K, Ks):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(gains.P, Ps):
            np.testing.assert_array_equal(got, want)
