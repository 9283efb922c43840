"""Identifiability of Q from exact trajectories.

Chain of tests, cheapest first: full column rank of the stacked data matrix,
the second-last-state spanning condition, and finally a dual-SDP
non-degeneracy certificate for the rank-deficient case.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core_model import duplication_map, rank_tol, unvech, vech
from .errors import DimensionMismatch, HypothesisUnmet, SolverNotConverged

VERDICTS = ("unique_by_rank", "unique_by_thm3", "unique_by_dual", "not_determined")

# prop2_certificate's iteration budget, stationarity, collapse and rank tolerances
PROP2_MAX_ITERS = 50000
PROP2_STAT_TOL = 1e-9
PROP2_COLLAPSE_TOL = 1e-8
PROP2_RANK_EIG_TOL = 1e-6


@dataclass
class Prop2Record:
    Phi_star: np.ndarray
    rank_Phi: int
    intersection_trivial: bool
    dual_value: float
    max_violation: float
    n_iter: int


@dataclass
class IdentifiabilityReport:
    rank_AD: int
    full_column_rank: bool
    kernel_basis: list  # symmetric n x n matrices, orthonormal in vech coords
    thm3_holds: Optional[bool]
    prop2: Optional[Prop2Record]
    verdict: str
    q_prime: Optional[np.ndarray] = None  # min-norm least-squares solution
    residual: float = float("nan")  # q_prime is None when this exceeds 1e-8 max(1, |rhs|)

    @property
    def kernel_dim(self):
        return len(self.kernel_basis)

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


def _factor(AD, tol):
    """SVD of A(x) D with its numerical rank and sign-fixed kernel basis.

    Thin, so U is p x q rather than p x p; the full Vt is kept only for a
    wide matrix (p < q), whose kernel rows a thin Vt would drop.
    """
    p, q = AD.shape
    U, sv, Vt = np.linalg.svd(AD, full_matrices=p < q)
    thr = rank_tol(sv, AD.shape) if tol is None else tol
    rank = int((sv > thr).sum())
    K = Vt[rank:]  # kernel rows; flip each so its largest-magnitude entry is positive
    K = K * np.sign(K[np.arange(len(K)), np.abs(K).argmax(axis=1)])[:, None]
    return U, sv, Vt, rank, [unvech(v) for v in K]


def check_rank_condition(AD, tol=None):
    """Numerical rank of A(x) D and an orthonormal kernel basis.

    Kernel directions come back as symmetric matrices, orthonormal in vech
    coordinates, sign-fixed so each one's largest-magnitude entry is positive.
    """
    AD = np.asarray(AD, dtype=float)
    *_, rank, kernel = _factor(AD, tol)
    return rank, rank == AD.shape[1], kernel


def check_thm3(bundle):
    """True iff the second-last states x_{N-1}^(i) span R^n.

    Raises HypothesisUnmet when N < n+2 or M < n, since the spanning test is
    only meaningful under those hypotheses.
    """
    n, N, M = bundle.n, bundle.N, bundle.M
    if N < n + 2 or M < n:
        raise HypothesisUnmet(f"need N >= n+2 and M >= n, got N={N}, M={M}, n={n}")
    X = bundle.X[:, :, N - 2]  # M x n
    sv = np.linalg.svd(X, compute_uv=False)
    return int((sv > rank_tol(sv, X.shape)).sum()) == n


def prop2_certificate(Q_prime, kernel_basis):
    """Dual-SDP non-degeneracy certificate for a rank-deficient data matrix.

    Solves min tr(Q' Phi) over Phi >= 0 with tr(dQ_k Phi) = 0 by projected
    gradient: the linear term's gradient is projected onto the equality
    constraints' null space, feasibility is kept by a quadratic penalty
    (continuation over five increasing weights splits the iteration budget),
    and the PSD cone is enforced by eigenvalue clamping. Step 1/L with L from
    power iteration on the penalty quadratic. The final iterate is accepted
    only if it is an optimal dual point (feasible, objective ~ 0 at its own
    scale); otherwise SolverNotConverged. Then the near-null eigenvectors
    G2 of Phi* define N_Phi = {G2 W G2'}; the certificate holds when
    N_Phi intersects span{dQ_k} only at 0.
    """
    if not kernel_basis:
        raise DimensionMismatch("kernel_basis must be nonempty")
    Qp = np.asarray(Q_prime, dtype=float)
    n = Qp.shape[0]
    C = np.stack([np.asarray(d, dtype=float).ravel() for d in kernel_basis])  # k x n^2
    # Q' with span{dQ_k} removed in the trace inner product
    Cg = (Qp.ravel() - np.linalg.solve(C @ C.T, C @ Qp.ravel()) @ C).reshape(n, n)
    Cg = 0.5 * (Cg + Cg.T)

    # L of the penalty quadratic T(Phi) = sum tr(dQ_k Phi) dQ_k by power iteration
    rng = np.random.default_rng(0)
    V = rng.standard_normal((n, n))
    V = V + V.T
    lam_T = 0.0
    for _ in range(200):
        W = ((C @ V.ravel()) @ C).reshape(n, n)
        nv = float(np.linalg.norm(W))
        if nv < 1e-300:
            break
        lam_T, V = nv, W / nv
    if lam_T <= 0:
        raise SolverNotConverged("penalty quadratic has no positive curvature")

    scale = max(float(np.linalg.norm(Cg)), 1e-12)
    stages = scale * np.array([1e2, 1e4, 1e6, 1e8, 1e10])
    per_stage = PROP2_MAX_ITERS // len(stages)
    Phi = np.eye(n)
    total = 0
    for rho in stages:
        step = 1.0 / (rho * lam_T)
        for _ in range(per_stage):
            g = Cg + rho * ((C @ Phi.ravel()) @ C).reshape(n, n)
            Y = Phi - step * g
            w, V2 = np.linalg.eigh(0.5 * (Y + Y.T))
            Phi_new = (V2 * np.clip(w, 0.0, None)) @ V2.T
            total += 1
            moved = float(np.linalg.norm(Phi_new - Phi))
            Phi = Phi_new
            # gradient-mapping stationarity: moved/step is the projected
            # gradient norm. A raw movement test would pass anywhere once the
            # step shrinks with rho, declaring junk iterates optimal.
            if moved <= PROP2_STAT_TOL * step * max(1.0, scale):
                break
    w, V2 = np.linalg.eigh(Phi)
    viol = C @ Phi.ravel()
    wmax = float(w.max(initial=0.0))
    value = float(np.sum(Qp * Phi))
    vnorm = float(np.linalg.norm(Phi))
    if wmax <= PROP2_COLLAPSE_TOL:
        # Collapsed iterate: the only optimum is Phi = 0, whose null space is
        # all of S^n, so nothing can be certified. Without an absolute floor a
        # relative eigenvalue threshold would read the ~PROP2_STAT_TOL roundoff as
        # rank >= 1 and fabricate a certificate.
        rank = 0
    else:
        # A certificate needs an optimal dual point: feasible and at the
        # optimal value 0, relative to the iterate's own scale. Stationarity
        # of the penalized surrogate is the wrong acceptance signal here; at
        # a cone-boundary optimum the projected step leaves a small residual
        # slope whenever the data carry rounding error.
        qscale = max(float(np.linalg.norm(Qp)), 1e-12)
        if float(np.abs(viol).max(initial=0.0)) > 1e-6 * max(1.0, vnorm):
            raise SolverNotConverged(f"dual iterate infeasible after {total} iterations")
        if abs(value) > 1e-3 * qscale * vnorm:
            raise SolverNotConverged(f"dual iterate suboptimal after {total} iterations")
        rank = int((w > wmax * PROP2_RANK_EIG_TOL).sum())
    G2 = V2[:, : n - rank]
    if rank == n:
        # no null space, N_Phi = {0}: trivially certified
        trivial = True
    else:
        r = n - rank
        basis = [G2 @ unvech(e, r) @ G2.T for e in np.eye(r * (r + 1) // 2)]
        cols = np.stack([vech(Bm) for Bm in basis] + [vech(d) for d in kernel_basis]).T
        sv = np.linalg.svd(cols, compute_uv=False)
        # full column rank means beta = W = 0 is the only intersection
        trivial = bool(sv[-1] > rank_tol(sv, cols.shape)) and cols.shape[1] <= cols.shape[0]
    return Prop2Record(
        Phi_star=Phi,
        rank_Phi=rank,
        intersection_trivial=trivial,
        dual_value=value,
        max_violation=float(np.abs(viol).max(initial=0.0)),
        n_iter=total,
    )


def assess(sys, bundle, tol=None):
    """Full identifiability report for an exact bundle.

    Verdict: unique_by_rank on full column rank, else unique_by_thm3 when the
    second-last states span, else unique_by_dual when the Prop2-style dual
    certificate passes, else not_determined. The min-norm least-squares
    solution (q_prime, kept only when the data fit it) and its residual come
    from the same single factorization of the data matrix.
    """
    if bundle.kind != "exact":
        raise DimensionMismatch("identifiability analysis needs an exact bundle")
    AD = build_A_matrix(sys, bundle) @ duplication_map(sys.n)
    U, sv, Vt, rank, kernel = _factor(AD, tol)
    full = rank == AD.shape[1]
    try:
        thm3 = check_thm3(bundle)
    except HypothesisUnmet:
        thm3 = None
    # min-norm least-squares solution from the same factors, truncated where
    # np.linalg.lstsq(rcond=None) truncates, independently of the rank tol
    keep = sv > np.finfo(float).eps * max(AD.shape) * sv[0]
    rhs = stacked_inputs_rhs(bundle)
    sol = Vt[: sv.size][keep].T @ ((U[:, keep].T @ rhs) / sv[keep])
    resid = float(np.linalg.norm(AD @ sol - rhs))
    report = IdentifiabilityReport(
        rank_AD=rank,
        full_column_rank=full,
        kernel_basis=kernel,
        thm3_holds=thm3,
        prop2=None,
        verdict="not_determined",
        residual=resid,
    )
    if resid <= 1e-8 * max(1.0, float(np.linalg.norm(rhs))):
        report.q_prime = unvech(sol, sys.n)
    if full:
        report.verdict = "unique_by_rank"
        return report
    if thm3:
        report.verdict = "unique_by_thm3"
        return report
    if report.q_prime is not None:
        try:
            report.prop2 = prop2_certificate(report.q_prime, kernel)
        except SolverNotConverged:
            return report  # not_determined, never a false certificate
        if report.prop2.intersection_trivial and report.prop2.rank_Phi > 0:
            report.verdict = "unique_by_dual"
    return report
