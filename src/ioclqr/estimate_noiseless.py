"""Exact recovery of Q from noiseless optimal trajectories.

The stacked linear system ties vech(Q) to the observed inputs; with full
column rank a least-squares solve recovers Q directly, and in the certified
rank-deficient case the unique PSD point on the solution affine set is found
by maximizing the smallest eigenvalue along the kernel directions, on the
dual certificate's run of the noisy fits' log-barrier path.
"""

import numpy as np
import scipy.linalg as sla

from .core_model import CostMatrix, DEFAULT_PHI, psd_tol_for
from .errors import AmbiguousSolution, NotIdentifiable, ResidualTooLarge
from .identifiability import _max_min_eig, assess


def _fitted_solution(report):
    """The report's least-squares solution; assess leaves it unset when its
    residual shows that no Q with unit input cost fits the data."""
    if report.q_prime is None:
        raise ResidualTooLarge(
            f"linear-system residual {report.residual:.3e}; data not generated by this model class"
        )
    return report.q_prime


def recover_exact(sys, bundle, report=None, phi=DEFAULT_PHI):
    """Least-squares recovery of Q; delegates to the kernel search when the
    identifiability verdict rests on the dual certificate and the data matrix
    has a kernel (without one the least-squares solution is unique).

    Raises NotIdentifiable when the verdict is not_determined,
    ResidualTooLarge when no Q with unit input cost explains the data, and
    PsdViolation when the solution is clearly indefinite. The solution is the
    one `assess` recorded on the report, returned as it is: CostMatrix is the
    one PSD gate (psd_tol_for), and a tiny negative eigenvalue within it
    stays in Q, where EstimateResult's psd_margin reports it.
    """
    if report is None:
        report = assess(sys, bundle)
    if report.verdict == "not_determined":
        raise NotIdentifiable("identifiability verdict is not_determined")
    if report.verdict == "unique_by_dual" and report.kernel_dim:
        return recover_with_kernel(sys, bundle, report, phi=phi)
    return CostMatrix(_fitted_solution(report), phi=phi)


def _feasible_width(Q_star, E, level, span=1e3):
    """Width of {s : Q* + level I + s E >= 0}, each side capped at span.

    The set is an interval whose ends are -1/mu for the extreme generalized
    eigenvalues mu of (E, Q* + level I) (the LMI step length, Vandenberghe &
    Boyd, SIAM Review 1996); it is empty when Q* + level I is not positive
    definite. The cap keeps an unbounded side finite, so that the two-level
    comparison in recover_with_kernel still reads it as wide.
    """
    try:
        mu = sla.eigh(E, Q_star + level * np.eye(len(Q_star)), eigvals_only=True)
    except np.linalg.LinAlgError:
        return 0.0
    up = -1.0 / mu[0] if mu[0] < 0 else span
    down = 1.0 / mu[-1] if mu[-1] > 0 else span
    return min(up, span) + min(down, span)


def recover_with_kernel(sys, bundle, report, phi=DEFAULT_PHI):
    """Pick the unique PSD point on the solution affine set.

    Maximizes lam_min(Q' + sum alpha_k dQ_k) on the certificate's barrier
    path, re-solved from the report's q_prime. An AmbiguousSolution error
    means the maximum is unbounded or flat, or the feasible alpha set is
    wider along some direction than the certificate allows.
    """
    if report.kernel_dim == 0:
        return recover_exact(sys, bundle, report=report, phi=phi)
    if report.verdict != "unique_by_dual":
        raise NotIdentifiable(f"kernel recovery needs unique_by_dual, got {report.verdict}")
    q_prime = _fitted_solution(report)
    kernel = np.asarray(report.kernel_basis)
    end = _max_min_eig(q_prime, kernel)
    if not end.bounded:
        raise AmbiguousSolution("lam_min keeps its maximum along a ray or a segment of alphas")

    Q_star = q_prime + np.tensordot(end.alpha, kernel, 1)
    # alpha is feasible when Q(alpha) is PSD within amb_tol; the certificate
    # promises one such point. Data rounding may push the whole set slightly
    # below exact PSD-ness (empty at this level); the maximizer is still
    # unique then, and the cost tolerance is relaxed at construction below.
    amb_tol = 1e-8 * max(1.0, float(np.linalg.norm(q_prime)))
    # widths are measured along the eigenvectors of the path's end curvature
    # (`_max_min_eig`): a feasible segment through alpha* lies along its flattest
    # direction, oblique to the kernel coordinates or not. Each width is read
    # off one generalized eigenproblem (`_feasible_width`), so the barrier
    # path is nearly all of a recovery's cost. A 100-fold tighter level
    # shrinks the width 100-fold where lam_min falls off linearly (a sharp
    # maximum), 10-fold where it falls off quadratically, not at all along a
    # flat segment; only the sharp maximum passes
    for k, e in enumerate(np.linalg.eigh(end.curvature)[1].T):
        E = np.tensordot(e, kernel, 1)
        wide, tight = (_feasible_width(Q_star, E, level) for level in (amb_tol, 0.01 * amb_tol))
        if wide > 1e-6 and tight > wide / 30.0:
            raise AmbiguousSolution(
                f"feasible alphas spread over {wide:.3e} (> 1e-6) along curvature direction {k}, "
                f"{tight:.3e} at a 100-fold tighter level"
            )
    Qm = 0.5 * (Q_star + Q_star.T)
    # the achieved max lam_min certifies how PSD this data can get; accept it
    tol = max(psd_tol_for(Qm), 1.5 * abs(min(end.lam, 0.0)))
    return CostMatrix(Qm, phi=phi, psd_tol=tol)
