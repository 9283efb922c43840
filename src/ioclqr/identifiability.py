"""Identifiability of Q from exact trajectories.

Chain of tests, cheapest first: full column rank of the stacked data matrix,
the second-last-state spanning condition, and finally a dual-SDP
non-degeneracy certificate for the rank-deficient case. The certificate
solves max lam_min(Q' + sum alpha_k dQ_k) once, on the noisy fits'
log-barrier path (`estimate_noisy._barrier_path`), reads its trace-normalized
dual off that path's tau cuts, and checks that the path's maximizer is one
point rather than a ray or a segment; kernel recovery in estimate_noiseless
only reads that record.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg as sla

from .core_model import duplication_map, numerical_rank, psd_tol_for, rank_tol, unvech, vech
from .errors import DimensionMismatch, HypothesisUnmet, SolverNotConverged
from .estimate_noisy import _barrier_path

VERDICTS = ("unique_by_rank", "unique_by_thm3", "unique_by_dual", "not_determined")

# Precisions of the dual certificate, relative to ||Q'||: the duality gap the
# barrier path closes, and how far below the PSD cone the best member of the
# solution family may sit and still fit the data (the worked example's
# 4-decimal cost dips 5.4e-4 ||Q'|| below it).
PROP2_GAP_TOL = 1e-10
PROP2_PRECISION = 1e-3
WIDTH_SPAN = 1e3  # cap on each side of a `_feasible_width`


@dataclass
class Prop2Record:
    """The dual certificate, read off one max lam_min path, and the maximizer
    Q_star = Q' + sum alpha*_k dQ_k that kernel recovery returns."""

    Phi_star: np.ndarray  # trace-n dual point where the path's gap first met the zero level
    rank_Phi: int
    intersection_trivial: bool
    # lam* + gap at the path's end: tighter than tr(Q' Phi_star) / n, which
    # is this plus the (larger) gap at the point Phi_star was taken
    dual_value: float
    max_violation: float
    n_iter: int  # Newton steps of the barrier path; 0 when I is in span{dQ_k}
    gap: float  # duality gap where the path stopped; inf when it found no bound
    Q_star: np.ndarray
    psd_tol: float  # the PSD tolerance Q_star is accepted at
    ambiguity: Optional[str]  # why Q_star is not one point (a ray or a wide set); None when sharp


class _PathEnd(NamedTuple):
    bounded: bool
    alpha: np.ndarray
    lam: float
    duals: list  # (gap, trace-1 dual point) at each tau cut of the path
    gap: float
    n_steps: int
    curvature: np.ndarray  # alpha block of the barrier's Hessian at the path's last tau cut


@dataclass
class IdentifiabilityReport:
    """What `assess` found; kernel_dim and full_column_rank derive from kernel_basis."""

    rank_AD: int
    kernel_basis: list  # symmetric n x n matrices, orthonormal in vech coords
    thm3_holds: Optional[bool]
    prop2: Optional[Prop2Record]
    verdict: str
    q_prime: Optional[np.ndarray] = None  # min-norm least-squares solution
    residual: float = float("nan")  # q_prime is None when this exceeds 1e-8 max(1, |rhs|)

    @property
    def kernel_dim(self):
        return len(self.kernel_basis)

    @property
    def full_column_rank(self):
        return self.kernel_dim == 0

    def to_json(self):
        doc = {
            "rank_AD": self.rank_AD,
            "verdict": self.verdict,
            "kernel_dim": self.kernel_dim,
            "prop2": None,
        }
        if self.prop2 is not None:
            doc["prop2"] = {
                "Phi_star": self.prop2.Phi_star.tolist(),
                "rank_Phi": self.prop2.rank_Phi,
                "intersection_trivial": self.prop2.intersection_trivial,
                "dual_value": self.prop2.dual_value,
                "n_iter": self.prop2.n_iter,
                "max_violation": self.prop2.max_violation,
                "gap": self.prop2.gap if np.isfinite(self.prop2.gap) else None,
            }
        return doc


def build_A_matrix(sys, bundle):
    """Stacked data matrix mapping vec(Q) to the negated inputs.

    Row block for episode i, time t (t = 1..N-2) is
    sum_{s=t+1}^{N-1} x_s^T kron (B' (A')^{s-t-1}), so that
    -u_t = [row block] vec(Q) at any optimal episode. Shape M(N-2)m x n^2.

    Built by the backward costate recursion L_{N-2} = x_{N-1}^T kron I,
    L_t = A' L_{t+1} + x_{t+1}^T kron I, row block t = B' L_t, for all
    episodes at once: O(M N n^4) work and memory linear in M N.
    """
    n, m, N = sys.n, sys.m, bundle.N
    if N < 4:
        raise DimensionMismatch("need N >= 4 for an informative data matrix")
    if bundle.n != n or bundle.m != m:
        raise DimensionMismatch("bundle dimensions do not match the system")
    X, M = bundle.X, bundle.M
    # L[k, e, j, k'] is row k, column j*n + k' of L_t for episode e; keeping the
    # contracted row index first makes each step one matmul over all episodes
    L = np.zeros((n, M, n, n))
    out = np.empty((M, N - 2, m, n * n))
    for t in range(N - 2, 0, -1):
        L = (sys.A.T @ L.reshape(n, -1)).reshape(n, M, n, n)
        for k in range(n):
            L[k, :, :, k] += X[:, :, t]  # + x_{t+1}^T kron I
        out[:, t - 1] = (sys.B.T @ L.reshape(n, -1)).reshape(m, M, n * n).transpose(1, 0, 2)
    return out.reshape(M * (N - 2) * m, n * n)


def stacked_inputs_rhs(bundle):
    """-vec of u_{1:N-2} stacked over episodes, the right-hand side paired
    with build_A_matrix."""
    return -bundle.U[:, :, : bundle.N - 2].transpose(0, 2, 1).ravel()


def _factor(AD):
    """SVD of A(x) D with its numerical rank and sign-fixed kernel basis.

    Thin, so U is p x q rather than p x p; the full Vt is kept only for a
    wide matrix (p < q), whose kernel rows a thin Vt would drop.
    """
    p, q = AD.shape
    U, sv, Vt = np.linalg.svd(AD, full_matrices=p < q)
    rank = int((sv > rank_tol(sv)).sum())
    K = Vt[rank:]  # kernel rows; flip each so its largest-magnitude entry is positive
    K = K * np.sign(K[np.arange(len(K)), np.abs(K).argmax(axis=1)])[:, None]
    return U, sv, Vt, rank, [unvech(v) for v in K]


def check_rank_condition(AD):
    """Numerical rank of A(x) D (rank_tol) and an orthonormal kernel basis.

    Kernel directions come back as symmetric matrices, orthonormal in vech
    coordinates, sign-fixed so each one's largest-magnitude entry is positive.
    """
    AD = np.asarray(AD, dtype=float)
    *_, rank, kernel = _factor(AD)
    return rank, rank == AD.shape[1], kernel


def check_thm3(bundle):
    """True iff the second-last states x_{N-1}^(i) span R^n.

    Raises HypothesisUnmet when N < n+2 or M < n, since the spanning test is
    only meaningful under those hypotheses.
    """
    n, N, M = bundle.n, bundle.N, bundle.M
    if N < n + 2 or M < n:
        raise HypothesisUnmet(f"need N >= n+2 and M >= n, got N={N}, M={M}, n={n}")
    return numerical_rank(bundle.X[:, :, N - 2]) == n


def _max_min_eig(Q_prime, kernel_basis):
    """max t s.t. S = Q' + sum_k alpha_k dQ_k - t I >= 0 on `_barrier_path`,
    scaled by s = ||Q'||: S0 = Q'/s, A = [dQ_1 .. dQ_k, -I], y = (alpha, t)/s,
    f(y) = -t, grad_tol PROP2_GAP_TOL and the ball ||y||^2 <= 1e8 (at radius
    1e5, phi - ||y||^2 keeps too few digits for the last tau cuts). Each tau
    cut with Newton step dy gives a dual point Phi = tau (S^-1 - S^-1 dS
    S^-1) >= 0 (the decrement bounds ||S^-1/2 dS S^-1/2||) of min tr(Q' Phi)
    s.t. Phi >= 0, tr Phi = 1, tr(dQ_k Phi) = 0, whose equalities hold up to
    the ball's O(tau ||y|| / phi) share, with gap s tau (n - tr(S^-1 dS)).
    bounded is False when I is in span{dQ_k} (lam_min does not fall along a
    whole ray; tested first, as the path's least-squares steps pass over the
    singular Newton matrix) or when the path ends past half the ball's radius
    (lam_min still rises to a supremum out where no data precision reaches).
    The curvature, the alpha block of the barrier's Hessian at the last cut
    (the ball adds < ~3e-8 at a bounded end), is least where lam_min falls slowest.
    """
    Qp = np.asarray(Q_prime, dtype=float)
    n, k = Qp.shape[0], len(kernel_basis)
    A = np.stack([np.asarray(d, dtype=float) for d in kernel_basis] + [-np.eye(n)])
    if numerical_rank(np.stack([vech(a) for a in A])) <= k:
        return _PathEnd(False, np.zeros(k), np.inf, [], np.inf, 0, None)
    scale = float(np.linalg.norm(Qp)) or 1.0
    t, H, phi = np.eye(k + 1)[-1], np.zeros((k + 1, k + 1)), 1e8
    y0 = (np.linalg.eigvalsh(Qp / scale)[0] - 1.0) * t  # S(y0) = Q'/s + (1 - lam_min) I
    y, _, trace, _, status, cuts = _barrier_path(
        lambda y: (-y[-1], -t, H), y0, (Qp / scale, A, phi), PROP2_GAP_TOL, 500
    )
    alpha, lam, n_steps = scale * y[:-1], scale * y[-1], len(trace) - 1
    if y @ y >= 0.25 * phi:  # at the ball the path may stall short of its gap
        return _PathEnd(False, alpha, lam, [], np.inf, n_steps, None)
    if status != "gap_met":
        raise SolverNotConverged(f"barrier path stopped without closing the duality gap: {status}")
    duals = []
    for tau, dy, (_, _, hess, Ci) in cuts:
        Si, dS = Ci.T @ Ci, np.tensordot(dy, A, 1)
        duals.append((scale * tau * (n - float(np.sum(Si * dS))), tau * (Si - Si @ dS @ Si)))
    return _PathEnd(True, alpha, lam, duals, duals[-1][0], n_steps, hess[:k, :k])


def _feasible_width(Q_star, E, level):
    """Width of {s : Q* + level I + s E >= 0}, each side capped at WIDTH_SPAN.

    The set is an interval whose ends are -1/mu for the extreme generalized
    eigenvalues mu of (E, Q* + level I) (the LMI step length, Vandenberghe &
    Boyd, SIAM Review 1996); it is empty when Q* + level I is not positive
    definite. The cap keeps an unbounded side finite, so that the two-level
    comparison in _ambiguity still reads it as wide.
    """
    try:
        mu = sla.eigh(E, Q_star + level * np.eye(len(Q_star)), eigvals_only=True)
    except np.linalg.LinAlgError:
        return 0.0
    up = -1.0 / mu[0] if mu[0] < 0 else WIDTH_SPAN
    down = 1.0 / mu[-1] if mu[-1] > 0 else WIDTH_SPAN
    return min(up, WIDTH_SPAN) + min(down, WIDTH_SPAN)


def _ambiguity(Q_star, end, kernel_basis, level):
    """Why the path's maximizer Q_star is not one point (alpha feasible when
    Q(alpha) is PSD within `level`), or None. Widths run along the end
    curvature's eigenvectors, where a feasible segment through alpha* lies
    whatever the kernel basis's rotation. A 100-fold tighter level shrinks a
    width 100-fold where lam_min falls off linearly (a sharp maximum),
    10-fold where it falls off quadratically, not at all along a flat
    segment; only the sharp maximum passes."""
    if not end.bounded:
        return "lam_min keeps its maximum along a ray or a segment of alphas"
    for k, e in enumerate(np.linalg.eigh(end.curvature)[1].T):
        E = np.tensordot(e, kernel_basis, 1)
        wide, tight = (_feasible_width(Q_star, E, lv) for lv in (level, 0.01 * level))
        if wide > 1e-6 and tight > wide / 30.0:
            return (f"feasible alphas spread over {wide:.3e} (> 1e-6) along curvature direction "
                    f"{k}, {tight:.3e} at a 100-fold tighter level")
    return None


def prop2_certificate(Q_prime, kernel_basis):
    """Dual-SDP non-degeneracy certificate for a rank-deficient data matrix.

    Solves max lam_min(Q' + sum alpha_k dQ_k) and its trace-normalized dual
    on one barrier path (_max_min_eig). The certificate collapses to rank 0,
    which certifies nothing, when the maximum is unbounded or lam* exceeds
    psd_tol_for(Q'): an open set of PSD costs then fits the data. lam* below
    -PROP2_PRECISION ||Q'|| means no PSD cost fits at the data's precision:
    SolverNotConverged. Otherwise rank_Phi counts the eigenvalues of the
    optimal slack S* = Q(alpha*) - lam* I at or below the zero level
    10 max(|lam*|, sqrt(PROP2_GAP_TOL) ||Q'||), the precision the path
    measured: |lam*| is how far the data's rounding moves the family off the
    PSD cone, and a zero eigenvalue without strict complementarity ends the
    path near sqrt(gap ||Q'||). With exact data only true zeros count.
    Phi_star is the path's dual point at the first gap under that level,
    scaled to trace n. The eigenvectors G2 of the remaining eigenvalues of
    S* span the null space of Phi* and define N_Phi = {G2 W G2'}; the
    certificate holds when N_Phi intersects span{dQ_k} only at 0.
    The record keeps the maximizer Q_star, its PSD tolerance (widened to
    1.5 |lam*| when data rounding leaves the family slightly indefinite) and
    the sharpness check's `ambiguity` at level psd_tol_for(Q'), or None.
    """
    if not kernel_basis:
        raise DimensionMismatch("kernel_basis must be nonempty")
    Qp = np.asarray(Q_prime, dtype=float)
    n, scale = len(Qp), float(np.linalg.norm(Qp)) or 1.0
    end = _max_min_eig(Qp, kernel_basis)
    Q_star = Qp + np.tensordot(end.alpha, kernel_basis, 1)
    if not end.bounded or end.lam > psd_tol_for(Qp):
        Phi, value, rank, G2 = np.zeros((n, n)), 0.0, 0, np.eye(n)
    elif end.lam < -PROP2_PRECISION * scale:
        raise SolverNotConverged(
            f"max lam_min {end.lam:.3e} of the solution family is below the data precision"
        )
    else:
        zero = 10.0 * max(abs(end.lam), np.sqrt(PROP2_GAP_TOL) * scale)
        Phi = n * next(P for gap, P in end.duals if gap <= zero)
        value = end.lam + end.gap
        w, V = np.linalg.eigh(Q_star - end.lam * np.eye(n))
        rank = int((w <= zero).sum())
        G2 = V[:, rank:]
    if rank == n:
        # no null space, N_Phi = {0}: trivially certified
        trivial = True
    else:
        r = n - rank
        basis = [G2 @ unvech(e, r) @ G2.T for e in np.eye(r * (r + 1) // 2)]
        cols = np.stack([vech(Bm) for Bm in basis] + [vech(d) for d in kernel_basis]).T
        # full column rank means beta = W = 0 is the only intersection
        trivial = numerical_rank(cols) == cols.shape[1]
    viol = np.array([np.sum(d * Phi) for d in kernel_basis])
    return Prop2Record(
        Phi_star=Phi,
        rank_Phi=rank,
        intersection_trivial=trivial,
        dual_value=value,
        max_violation=float(np.abs(viol).max()),
        n_iter=end.n_steps,
        gap=end.gap,
        Q_star=Q_star,
        psd_tol=max(psd_tol_for(Q_star), 1.5 * abs(min(end.lam, 0.0))),
        ambiguity=_ambiguity(Q_star, end, kernel_basis, psd_tol_for(Qp)),
    )


def assess(sys, bundle):
    """Full identifiability report for an exact bundle.

    Verdict: unique_by_rank on full column rank, else unique_by_thm3 when the
    second-last states span and the least-squares solve kept every singular
    value (a truncated solve returns the min-norm point, not Q), else
    unique_by_dual when the Prop2-style dual certificate passes and its
    maximizer is sharp (Prop2Record.ambiguity is None), else
    not_determined. The min-norm least-squares solution (q_prime, kept only
    when the data fit it) and its residual come from the same single
    factorization of the data matrix.
    """
    if bundle.kind != "exact":
        raise DimensionMismatch("identifiability analysis needs an exact bundle")
    AD = build_A_matrix(sys, bundle) @ duplication_map(sys.n)
    U, sv, Vt, rank, kernel = _factor(AD)
    try:
        thm3 = check_thm3(bundle)
    except HypothesisUnmet:
        thm3 = None
    # min-norm least-squares solution from the same factors, cut at eps max(p, q)
    # sigma_1 rather than rank_tol: np.linalg.lstsq(rcond=None)'s cutoff, and bits
    keep = sv > np.finfo(float).eps * max(AD.shape) * sv[0]
    rhs = stacked_inputs_rhs(bundle)
    sol = Vt[: sv.size][keep].T @ ((U[:, keep].T @ rhs) / sv[keep])
    resid = float(np.linalg.norm(AD @ sol - rhs))
    report = IdentifiabilityReport(
        rank_AD=rank,
        kernel_basis=kernel,
        thm3_holds=thm3,
        prop2=None,
        verdict="not_determined",
        residual=resid,
    )
    if resid <= 1e-8 * max(1.0, float(np.linalg.norm(rhs))):
        report.q_prime = unvech(sol, sys.n)
    if report.full_column_rank:
        report.verdict = "unique_by_rank"
        return report
    if thm3 and keep.sum() == AD.shape[1]:
        report.verdict = "unique_by_thm3"
        return report
    if report.q_prime is not None:
        try:
            report.prop2 = prop2_certificate(report.q_prime, kernel)
        except SolverNotConverged:
            return report  # not_determined, never a false certificate
        cert = report.prop2
        if cert.intersection_trivial and cert.rank_Phi > 0 and cert.ambiguity is None:
            report.verdict = "unique_by_dual"
    return report
