"""Exact recovery of Q from noiseless optimal trajectories.

The stacked linear system ties vech(Q) to the observed inputs; with full
column rank a least-squares solve recovers Q directly, and in the certified
rank-deficient case the unique PSD point on the solution affine set is found
by maximizing the smallest eigenvalue along the kernel directions.
"""

import warnings

import numpy as np

from .core_model import CostMatrix, DEFAULT_PHI, psd_tol_for
from .errors import (
    AmbiguousSolution,
    NotIdentifiable,
    PsdViolation,
    ResidualTooLarge,
    SolverNotConverged,
)
from .identifiability import assess


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


def _maximize_scalar(f, max_expand=60):
    """Bracket then ternary-search the maximum of a concave scalar function."""
    a, fa = 0.0, f(0.0)
    h = 1.0
    grew = False
    for _ in range(max_expand):
        if f(a + h) > fa:
            a, fa = a + h, f(a + h)
            h *= 2.0
            grew = True
        else:
            break
    else:
        raise SolverNotConverged("bracketing ran away (kernel direction nearly PSD?)")
    if not grew:
        h = 1.0
        for _ in range(max_expand):
            if f(a - h) > fa:
                a, fa = a - h, f(a - h)
                h *= 2.0
            else:
                break
        else:
            raise SolverNotConverged("bracketing ran away (kernel direction nearly PSD?)")
    lo, hi = a - h, a + h
    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
        if hi - lo <= 1e-14 * max(1.0, abs(lo) + abs(hi)):
            break
    alpha = 0.5 * (lo + hi)
    return alpha, f(alpha)


def _interval_width_at(f, alpha_star, level, span=1e3):
    """Width of {alpha : f(alpha) >= level} around the maximizer (f concave)."""

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


def _maximize_polyak(f, subgrad, eta, rng, iters=5000):
    """Adaptive-target Polyak ascent for max of a concave non-smooth function."""
    alpha = np.zeros(eta)
    best_a, best_f = alpha.copy(), f(alpha)
    delta = max(1.0, abs(best_f))
    since_improve = 0
    for _ in range(iters):
        val = f(alpha)
        if val > best_f + 1e-15:
            best_a, best_f = alpha.copy(), val
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= 50:
                delta *= 0.5
                since_improve = 0
                if delta < 1e-15:
                    break
        s = subgrad(alpha)
        ns2 = float(s @ s)
        if ns2 < 1e-300:
            break
        target = best_f + delta
        alpha = alpha + max(target - val, 0.0) / ns2 * s
    return best_a, best_f


def recover_with_kernel(sys, bundle, report, phi=DEFAULT_PHI):
    """Pick the unique PSD point on the solution affine set.

    Maximizes lam_min(Q' + sum alpha_k dQ_k). One kernel direction gets an
    exact bracketed ternary search; more use subgradient ascent from several
    starts. An AmbiguousSolution error means the feasible alpha set is wider
    than the certificate allows.
    """
    if report.kernel_dim == 0:
        return recover_exact(sys, bundle, report=report, phi=phi)
    if report.verdict != "unique_by_dual":
        raise NotIdentifiable(f"kernel recovery needs unique_by_dual, got {report.verdict}")
    q_prime = _fitted_solution(report)
    kernel = report.kernel_basis
    eta = len(kernel)

    def Q_at(alpha):
        return q_prime + sum(a * d for a, d in zip(np.atleast_1d(alpha), kernel))

    def f(alpha):
        return float(np.linalg.eigvalsh(Q_at(alpha))[0])

    # alpha is feasible when Q(alpha) is PSD within amb_tol; the certificate
    # promises one such point. Data rounding may push the whole set slightly
    # below exact PSD-ness (empty at this level); the maximizer is still
    # unique then, and the cost tolerance is relaxed at construction below.
    amb_tol = 1e-8 * max(1.0, float(np.linalg.norm(q_prime)))
    if eta == 1:
        alpha_star, f_star = _maximize_scalar(f)
        width = _interval_width_at(f, alpha_star, -amb_tol)
        if width > 1e-6:
            raise AmbiguousSolution(
                f"feasible alpha interval has width {width:.3e} (> 1e-6)"
            )
        alphas = np.array([alpha_star])
    else:
        def subgrad(alpha):
            w, V = np.linalg.eigh(Q_at(alpha))
            v = V[:, 0]
            return np.array([v @ d @ v for d in kernel])

        rng = np.random.default_rng(0)
        sols = []
        for start in range(4):
            a0 = np.zeros(eta) if start == 0 else rng.standard_normal(eta)
            f0 = lambda a, a0=a0: f(a0 + a)
            g0 = lambda a, a0=a0: subgrad(a0 + a)
            a_best, f_best = _maximize_polyak(f0, g0, eta, rng)
            sols.append((a0 + a_best, f_best))
        alphas, f_star = max(sols, key=lambda t: t[1])
        feas = [a for a, fv in sols if fv >= -amb_tol]
        for i, a in enumerate(feas):
            for b in feas[i + 1 :]:
                if float(np.max(np.abs(a - b))) > 1e-6:
                    raise AmbiguousSolution(
                        "distinct ascent runs reached feasible alphas differing by "
                        f"{float(np.max(np.abs(a - b))):.3e} in a coordinate"
                    )
        for k in range(eta):
            gk = lambda s, k=k: f(alphas + s * np.eye(eta)[k])
            w_k = _interval_width_at(gk, 0.0, -amb_tol)
            if w_k > 1e-6:
                raise AmbiguousSolution(
                    f"feasible alphas spread over {w_k:.3e} along coordinate {k}"
                )
    Qm = Q_at(alphas)
    Qm = 0.5 * (Qm + Qm.T)
    # the achieved max lam_min certifies how PSD this data can get; accept it
    tol = max(psd_tol_for(Qm), 1.5 * abs(min(f_star, 0.0)))
    return CostMatrix(Qm, phi=phi, psd_tol=tol)
