"""Forward finite-horizon LQR with cost sum(u_t'u_t + x_t'Q x_t).

Three independent solution routes are provided: backward Riccati recursion,
the stacked two-point boundary-value linear system F(Q) Z = b, and a direct
dense QP over the inputs. They exist so they can cross-check each other.

The boundary-value system has two forms. `build_pmp_system`/`pmp_solve`
assemble F(Q) densely; they are the oracle the tests check against.
`BandedPmp` factors the same matrix in LAPACK band storage in O(N n^3) time
and O(N n^2) memory; `generate_bundle` (the CLI's forward and generate)
and the risk estimators solve on it. The Riccati rollout is the cross-check.
"""

import logging

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .core_model import MIN_SNR_DB, Episode, TrajectoryBundle, as_q
from .errors import (
    DimensionMismatch,
    NumericalFailure,
    SingularSystem,
    SizeGuardExceeded,
)

log = logging.getLogger(__name__)


class GainSchedule:
    """Time-varying feedback u_t = K_t x_t with the value matrices P_t.

    K[t-1] is K_t for t = 1..N-1; P[t-2] is P_t for t = 2..N (P_N = 0).
    """

    def __init__(self, K, P):
        self.K = K
        self.P = P
        self.N = len(K) + 1

    def K_t(self, t):
        return self.K[t - 1]

    def P_t(self, t):
        return self.P[t - 2]


def solve_riccati(sys, Q, N):
    """Backward Riccati recursion from P_N = 0.

    P_t = A'P_{t+1}A + Q - A'P_{t+1}B (B'P_{t+1}B + I)^{-1} B'P_{t+1}A,
    K_t = -(B'P_{t+1}B + I)^{-1} B'P_{t+1}A. P is re-symmetrized each step.
    """
    if N < 2:
        raise DimensionMismatch("horizon must be at least 2")
    A, B = sys.A, sys.B
    Qm = as_q(Q)
    if Qm.shape != (sys.n, sys.n):
        raise DimensionMismatch(f"Q shape {Qm.shape} != ({sys.n}, {sys.n})")
    P = np.zeros((sys.n, sys.n))
    Ks = [None] * (N - 1)
    Ps = [None] * (N - 1)
    Ps[N - 2] = P  # P_N
    for t in range(N - 1, 0, -1):
        # the LAPACK calls of cho_factor/cho_solve, without their per-step checks
        cf, info = lapack.dpotrf(B.T @ P @ B + np.eye(sys.m), lower=1, clean=0)
        if info != 0:  # pragma: no cover - PSD P keeps B'PB + I PD
            raise NumericalFailure(f"(B'PB + I) not positive definite at t={t}")
        BtPA = B.T @ P @ A
        Ks[t - 1] = -lapack.dpotrs(cf, BtPA, lower=1)[0]
        P = A.T @ P @ A + Qm + BtPA.T @ Ks[t - 1]
        P = 0.5 * (P + P.T)
        if t >= 2:
            Ps[t - 2] = P
    return GainSchedule(Ks, Ps)


def _times(Mat, Y):
    """Mat @ Y over Y's first axis, summed term by term rather than by BLAS,
    whose rounding depends on the width of Y: a column comes out bit for bit
    the same whatever number of columns it is computed with."""
    return sum(np.multiply.outer(Mat[:, j], Y[j]) for j in range(Mat.shape[1]))


def simulate(sys, gains, x_bar):
    """Closed-loop rollout x_1 = x_bar, u_t = K_t x_t."""
    x_bar = np.asarray(x_bar, dtype=float).reshape(-1)
    if x_bar.shape[0] != sys.n:
        raise DimensionMismatch(f"x_bar has {x_bar.shape[0]} entries, wanted {sys.n}")
    x, u = np.empty((sys.n, gains.N)), np.empty((sys.m, gains.N - 1))
    x[:, 0] = x_bar
    for t, K in enumerate(gains.K):
        u[:, t] = K @ x[:, t]
        x[:, t + 1] = sys.A @ x[:, t] + sys.B @ u[:, t]
    return Episode(x, u)


def cost_of(sys, Q, episode):
    """J = sum_{t=1}^{N-1} u_t'u_t + x_t'Q x_t."""
    Qm = as_q(Q)
    x, u = episode.x, episode.u
    return float(np.sum(u * u) + np.einsum("it,ij,jt->", x[:, :-1], Qm, x[:, :-1]))


def solve_qp_oracle(sys, Q, N, x_bar):
    """Direct minimization over the stacked inputs, states eliminated.

    x_t = A^{t-1} x_bar + sum_s A^{t-1-s} B u_s makes J a strictly convex
    quadratic in U = (u_1; ...; u_{N-1}); solve the normal equations. Meant
    as an independent oracle for the Riccati and boundary-value routes, so it
    shares no code with them.
    """
    n, m = sys.n, sys.m
    if m * (N - 1) > 2000:
        raise SizeGuardExceeded(f"m(N-1) = {m * (N - 1)} exceeds the dense-QP guard")
    Qm = as_q(Q)
    x_bar = np.asarray(x_bar, dtype=float).reshape(-1)
    Apow = [np.eye(n)]
    for _ in range(N - 1):
        Apow.append(sys.A @ Apow[-1])
    # x_t = free_t + Phi_t U with Phi_t columns A^{t-1-s} B for s < t
    nu = m * (N - 1)
    H = np.eye(nu)  # u'u part
    g = np.zeros(nu)
    for t in range(1, N):  # states x_1..x_{N-1} enter the cost
        free = Apow[t - 1] @ x_bar
        Phi = np.zeros((n, nu))
        for s in range(1, t):
            Phi[:, (s - 1) * m : s * m] = Apow[t - 1 - s] @ sys.B
        H += Phi.T @ Qm @ Phi
        g += Phi.T @ (Qm @ free)
    U = np.linalg.solve(0.5 * (H + H.T), -g)
    u = U.reshape(N - 1, m).T
    x = np.zeros((n, N))
    x[:, 0] = x_bar
    for t in range(N - 1):
        x[:, t + 1] = sys.A @ x[:, t] + sys.B @ u[:, t]
    return Episode(x, u)


class PmpSystem:
    """The stacked boundary-value system F(Q) Z = A_tilde x_bar.

    Z stacks z_t = (x_t, lambda_t) for t = 2..N. G_x extracts x_{2:N};
    G_u extracts u_{1:N-1} via u_t = -B' lambda_{t+1}.
    """

    def __init__(self, F_of_Q, A_tilde, G_x, G_u, sys, N):
        self.F_of_Q = F_of_Q
        self.A_tilde = A_tilde
        self.G_x = G_x
        self.G_u = G_u
        self.sys = sys
        self.N = N


def build_pmp_system(sys, Q, N):
    """Assemble F(Q) with blocks E, F, E-tilde, F-tilde.

    First block row (E-tilde at column 1, F-tilde at column N-1) carries the
    first dynamics step and the terminal condition lambda_N = 0; every later
    row k has -F at column k-1 and E at column k.
    """
    n, m = sys.n, sys.m
    if N < 2:
        raise DimensionMismatch("horizon must be at least 2")
    A, B = sys.A, sys.B
    Qm = as_q(Q)
    BBt = B @ B.T
    E = np.block([[np.eye(n), BBt], [np.zeros((n, n)), A.T]])
    F = np.block([[A, np.zeros((n, n))], [-Qm, np.eye(n)]])
    Et = np.block([[np.eye(n), BBt], [np.zeros((n, 2 * n))]])
    Ft = np.block([[np.zeros((n, 2 * n))], [np.zeros((n, n)), np.eye(n)]])
    nb = N - 1
    sz = 2 * n * nb
    Fm = np.zeros((sz, sz))
    Fm[: 2 * n, : 2 * n] = Et
    Fm[: 2 * n, (nb - 1) * 2 * n :] += Ft  # += so N=2 (one block) keeps both parts
    for r in range(1, nb):
        Fm[r * 2 * n : (r + 1) * 2 * n, (r - 1) * 2 * n : r * 2 * n] = -F
        Fm[r * 2 * n : (r + 1) * 2 * n, r * 2 * n : (r + 1) * 2 * n] = E
    A_tilde = np.zeros((sz, n))
    A_tilde[:n, :] = A
    G_x = np.kron(np.eye(nb), np.hstack([np.eye(n), np.zeros((n, n))]))
    G_u = np.kron(np.eye(nb), np.hstack([np.zeros((m, n)), -B.T]))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("F(Q) condition number: %.6e", np.linalg.cond(Fm))
    return PmpSystem(Fm, A_tilde, G_x, G_u, sys, N)


def pmp_solve(pmp, x_bar):
    """Solve the boundary-value system; returns (x_{2:N}, lambda_{2:N}, u_{1:N-1})."""
    n, m = pmp.sys.n, pmp.sys.m
    x_bar = np.asarray(x_bar, dtype=float).reshape(-1)
    b = pmp.A_tilde @ x_bar
    try:
        Z = sla.solve(pmp.F_of_Q, b)
    except (np.linalg.LinAlgError, sla.LinAlgError) as e:
        raise SingularSystem("F(Q) is singular; Q is not PSD or inputs are corrupt") from e
    nb = pmp.N - 1
    Zb = Z.reshape(nb, 2 * n).T
    xs = Zb[:n, :]
    lams = Zb[n:, :]
    us = np.zeros((m, nb))
    for t in range(nb):  # u_t = -B' lambda_{t+1}, lambda index t+1 -> column t
        us[:, t] = -pmp.sys.B.T @ lams[:, t]
    return xs, lams, us


def _put_band(ab, d, block, j0, count=1, stride=1):
    """Store `block` in band storage at the start columns j0, j0 + stride,
    ..., count of them. Row p0 + a, column j + b of the matrix lands in
    ab[d + a - b, j + b], where d = kl + ku + p0 - j is the same for every
    copy, so each block column is one strided slice.
    """
    rows, cols = block.shape
    for b in range(cols):
        ab[d - b : d - b + rows, j0 + b : j0 + b + count * stride : stride] = block[:, b, None]


def pmp_band(sys, N):
    """`BandedPmp`'s band storage of F(Q) with zeros in place of Q: the part
    that does not change with Q, assembled once for many factorizations."""
    n, nb, kl = sys.n, N - 1, 3 * sys.n - 1
    ab = np.zeros((3 * kl + 1, 2 * n * nb), order="F")
    I, Z, BBt = np.eye(n), np.zeros((n, n)), sys.B @ sys.B.T
    _put_band(ab, 2 * kl, np.hstack([I, BBt]), 0)  # row 2kl: the diagonal
    # block row r = 1..N-2 starts at row n + 2n(r-1) and column 2n(r-1);
    # for N = 2 there is none and only the first and terminal rows remain
    blk = np.block([[-sys.A, Z, I, BBt], [Z, -I, Z, sys.A.T]])
    _put_band(ab, 2 * kl + n, blk, 0, nb - 1, 2 * n)
    _put_band(ab, 2 * kl, I, 2 * n * nb - n)
    return ab


class BandedPmp:
    """F(Q) of `build_pmp_system`, LU-factored in LAPACK band storage.

    The unknowns keep their order z_t = (x_t, lambda_t), t = 2..N. The
    equations are reordered: first the n rows x_2 + BB' lambda_2 = A x_1,
    then the N-2 block rows [-F E], last the n terminal rows lambda_N = 0.
    In this order F(Q) is banded with kl = ku = 3n - 1, so the factorization
    costs O(N n^3) and the storage O(N n^2); the dense matrix is never
    formed. Partial pivoting only finds nonzero candidates inside the band,
    so this is the elimination a dense LU of the reordered F(Q) would do,
    without its zeros. `band`, when given, is `pmp_band(sys, N)`; it is
    copied, not changed.
    """

    def __init__(self, sys, Q, N, band=None):
        if N < 2:
            raise DimensionMismatch("horizon must be at least 2")
        n = sys.n
        Qm = as_q(Q)
        if Qm.shape != (n, n):
            raise DimensionMismatch(f"Q shape {Qm.shape} != ({n}, {n})")
        if not np.isfinite(Qm).all():
            raise SingularSystem("F(Q) has non-finite entries")
        self.n, self.nb = n, N - 1
        self.kl = self.ku = 3 * n - 1
        ab = pmp_band(sys, N) if band is None else band.copy(order="F")
        # Q sits n rows below the [-A 0 I BB'] rows of each block row
        _put_band(ab, 2 * self.kl + 2 * n, Qm, 0, self.nb - 1, 2 * n)
        self.lu, self.piv, info = lapack.dgbtrf(ab, self.kl, self.ku, overwrite_ab=1)
        if info != 0:
            raise SingularSystem(
                f"F(Q) is singular (LAPACK info {info}); Q is not PSD or inputs are corrupt"
            )

    def solve(self, AX0):
        """States x_{2:N} and costates lambda_{2:N}, each (N-1) x n x M, from
        AX0 = A X0 (n x M) for the initial states X0, all episodes in one solve."""
        n, nb = self.n, self.nb
        rhs = np.zeros((2 * n * nb, AX0.shape[1]), order="F")
        rhs[:n] = AX0
        Z, _ = lapack.dgbtrs(self.lu, self.kl, self.ku, rhs, self.piv, overwrite_b=1)
        Zb = Z.reshape(nb, 2 * n, -1)
        return Zb[:, :n], Zb[:, n:]

    def q_sensitivities(self, x, basis):
        """Derivatives of `solve`'s states and costates along the symmetric
        directions E_j of Q (basis: k x n x n with at most one nonzero per
        row, as `_sym_basis`), each k x (N-1) x n x M.

        F(Q) dZ_j = -(dF/dQ . E_j) Z, and Q enters F only in the costate rows
        lambda_t = Q x_t + A' lambda_{t+1}, t = 2..N-1; in the band order the
        row of block row r = t - 1 starts at n + 2n(r-1) + n = 2n r. One solve
        takes all k M right-hand sides; the risk passes the response to the
        n unit initial states, so M = n there, k n columns whatever the data.
        """
        n, nb = self.n, self.nb
        rhs = np.zeros((nb, 2 * n, len(basis), x.shape[2]))
        # row r of E_j x_t is E_j's one nonzero in row r times one row of x_t
        j, r, c = np.nonzero(basis)
        rhs[1:, r, j] = -basis[j, r, c][:, None] * x[:-1, c]
        dZ, _ = lapack.dgbtrs(self.lu, self.kl, self.ku, rhs.reshape(2 * n * nb, -1), self.piv)
        dZ = dZ.reshape(rhs.shape).transpose(2, 0, 1, 3)
        return dZ[:, :, :n], dZ[:, :, n:]


def inputs_from_states(sys, x):
    """Least-squares input reconstruction u_t = (B'B)^{-1} B'(x_{t+1} - A x_t).

    Returns (u, residuals); residuals[t-1] is the per-step equation-error norm
    so callers can see when the states did not come from these dynamics.
    """
    x = np.asarray(x, dtype=float)
    N = x.shape[1]
    dx = x[:, 1:] - sys.A @ x[:, :-1]
    u, *_ = np.linalg.lstsq(sys.B, dx, rcond=None)
    resid = np.linalg.norm(sys.B @ u - dx, axis=0)
    return u, resid


def _episode_rngs(seed, M):
    """One generator per episode from seed (anything SeedSequence takes, or
    a SeedSequence): child i is built as the first `spawn` would build it,
    but without advancing seed's spawn counter, so the same seed object
    gives the same streams on every call."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(np.random.SeedSequence(
        ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size)) for i in range(M)]


def generate_bundle(sys, Q, N, M, init_sampler=None, seed=0):
    """M exact episodes from i.i.d. initial states (default U[-5,5]^n), each
    drawn from its own child RNG stream, all from one `BandedPmp` solve:
    x_2..x_N are its states and u_t = -B' lambda_{t+1}. The products around
    the solve are summed term by term, so an episode's bits do not depend on
    M. `simulate(solve_riccati(...))` is the independent cross-check."""
    if M < 1:
        raise DimensionMismatch("M must be at least 1")
    pmp = BandedPmp(sys, Q, N)
    if init_sampler is None:
        init_sampler = lambda rng: rng.uniform(-5.0, 5.0, size=sys.n)
    draws = [init_sampler(rng) for rng in _episode_rngs(seed, M)]
    X0 = np.array(draws, dtype=float).reshape(M, -1).T
    if X0.shape[0] != sys.n:
        raise DimensionMismatch(f"x0 has {X0.shape[0]} entries, system has n={sys.n}")
    x, lam = pmp.solve(_times(sys.A, X0))
    X = np.concatenate([X0[None], x]).transpose(2, 1, 0).copy()
    U = -_times(sys.B.T, lam.transpose(1, 0, 2)).transpose(2, 0, 1).copy()
    return TrajectoryBundle(X, U)


def add_noise(bundle, snr_db_x=None, snr_db_u=None, seed=0):
    """White Gaussian noise at the requested per-episode SNR.

    y_t = x_t + v_t for t = 2..N (x_1 stays exact), mu_t = u_t + w_t for
    t = 1..N-1. Noise is rescaled so each episode's realized SNR matches the
    request exactly, with signal power averaged over all entries. Each SNR
    is a number of dB not below MIN_SNR_DB, or None to leave that component
    untouched.
    """
    snr_x, snr_u = (None if s is None else float(s) for s in (snr_db_x, snr_db_u))
    if any(s is not None and not s >= MIN_SNR_DB for s in (snr_x, snr_u)):
        raise DimensionMismatch(f"SNRs must be >= {MIN_SNR_DB:g} dB, got {snr_x} and {snr_u}")
    if snr_x is None and snr_u is None:
        return bundle
    if bundle.kind != "exact":
        raise DimensionMismatch("add_noise expects an exact bundle")
    if snr_x is not None and snr_u is not None:
        kind = "noisy_both"
    elif snr_x is not None:
        kind = "noisy_state"
    else:
        kind = "noisy_input"

    def _noisy(sig, snr_db, rng):
        v = rng.standard_normal(sig.shape)
        p_sig = float(np.mean(sig * sig))
        p_noise = float(np.mean(v * v))
        if p_sig == 0.0 or p_noise == 0.0:
            return sig
        v *= np.sqrt(p_sig * 10.0 ** (-snr_db / 10.0) / p_noise)
        return sig + v

    X, U = bundle.X.copy(), bundle.U.copy()
    for i, rng in enumerate(_episode_rngs(seed, bundle.M)):
        if snr_x is not None:
            X[i, :, 1:] = _noisy(bundle.X[i, :, 1:], snr_x, rng)
        if snr_u is not None:
            U[i] = _noisy(bundle.U[i], snr_u, rng)
    return TrajectoryBundle(X, U, kind=kind, snr_db_x=snr_x, snr_db_u=snr_u)
