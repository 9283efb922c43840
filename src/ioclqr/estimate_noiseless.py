"""Exact recovery of Q from noiseless optimal trajectories.

The stacked linear system ties vech(Q) to the observed inputs; with full
column rank a least-squares solve recovers Q directly, and in the certified
rank-deficient case the unique PSD point on the solution affine set is found
by maximizing the smallest eigenvalue along the kernel directions, on the
dual certificate's run of the noisy fits' log-barrier path.
"""

import warnings

import numpy as np

from .core_model import CostMatrix, DEFAULT_PHI, psd_tol_for
from .errors import (
    AmbiguousSolution,
    NotIdentifiable,
    PsdViolation,
    ResidualTooLarge,
)
from .identifiability import _max_min_eig, assess


def _clamp_tiny_negatives(Qm, tol):
    w, V = np.linalg.eigh(Qm)
    if w[0] < -tol:
        raise PsdViolation(
            f"recovered Q has min eigenvalue {w[0]:.3e}; data is corrupted or non-optimal"
        )
    if w[0] < 0:
        warnings.warn(
            f"clamping tiny negative eigenvalues (min {w[0]:.2e}) of recovered Q",
            stacklevel=3,
        )
        w = np.clip(w, 0.0, None)
        Qm = (V * w) @ V.T
        Qm = 0.5 * (Qm + Qm.T)
    return Qm


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
    identifiability verdict rests on the dual certificate.

    Raises NotIdentifiable when the verdict is not_determined,
    ResidualTooLarge when no Q with unit input cost explains the data, and
    PsdViolation when the solution is clearly indefinite. The solution is the
    one `assess` recorded on the report; nothing is re-solved here.
    """
    if report is None:
        report = assess(sys, bundle)
    if report.verdict == "not_determined":
        raise NotIdentifiable("identifiability verdict is not_determined")
    if report.verdict == "unique_by_dual":
        return recover_with_kernel(sys, bundle, report, phi=phi)
    Qm = _fitted_solution(report)
    Qm = _clamp_tiny_negatives(Qm, psd_tol_for(Qm))
    return CostMatrix(Qm, phi=phi)


def _interval_width_at(f, alpha_star, level, span=1e3):
    """Width of {alpha : f(alpha) >= level} around the maximizer (f concave)."""

    def crossing(sign):
        lo, hi = 0.0, 1e-6
        while (f_hi := f(alpha_star + sign * hi)) >= level:
            hi *= 2.0
            if hi > span:
                return span
        # no later step moves a bound once they are adjacent doubles, nor lo
        # off 0 once f, concave, is below the chord through mid and hi = 2 mid
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if (f_mid := f(alpha_star + sign * mid)) >= level:
                lo = mid
            elif lo == 0.0 and 2.0 * f_mid - f_hi < level:
                break
            else:
                hi, f_hi = mid, f_mid
        return lo

    return crossing(1.0) + crossing(-1.0)


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

    def f(alpha):
        return float(np.linalg.eigvalsh(q_prime + np.tensordot(alpha, kernel, 1))[0])

    # alpha is feasible when Q(alpha) is PSD within amb_tol; the certificate
    # promises one such point. Data rounding may push the whole set slightly
    # below exact PSD-ness (empty at this level); the maximizer is still
    # unique then, and the cost tolerance is relaxed at construction below.
    amb_tol = 1e-8 * max(1.0, float(np.linalg.norm(q_prime)))
    # widths are measured along the eigenvectors of the path's end curvature
    # (`_max_min_eig`): a feasible segment through alpha* lies along its flattest
    # direction, oblique to the kernel coordinates or not. A 100-fold tighter
    # level shrinks the width 100-fold where lam_min falls off linearly (a
    # sharp maximum), 10-fold where it falls off quadratically, not at all
    # along a flat segment; only the sharp maximum passes
    for k, e in enumerate(np.linalg.eigh(end.curvature)[1].T):
        wide, tight = (
            _interval_width_at(lambda s: f(end.alpha + s * e), 0.0, -level)
            for level in (amb_tol, 0.01 * amb_tol)
        )
        if wide > 1e-6 and tight > wide / 30.0:
            raise AmbiguousSolution(
                f"feasible alphas spread over {wide:.3e} (> 1e-6) along curvature direction {k}, "
                f"{tight:.3e} at a 100-fold tighter level"
            )
    Qm = q_prime + np.tensordot(end.alpha, kernel, 1)
    Qm = 0.5 * (Qm + Qm.T)
    # the achieved max lam_min certifies how PSD this data can get; accept it
    tol = max(psd_tol_for(Qm), 1.5 * abs(min(end.lam, 0.0)))
    return CostMatrix(Qm, phi=phi, psd_tol=tol)
