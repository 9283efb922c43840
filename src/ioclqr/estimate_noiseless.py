"""Exact recovery of Q from noiseless optimal trajectories.

The stacked linear system ties Q's coordinates to the observed inputs; with
full column rank a least-squares solve recovers Q directly, and in the
certified rank-deficient case the unique PSD point on the solution affine
set is the maximizer of the smallest eigenvalue along the kernel
directions. The dual certificate decides that this maximizer is one point
and records it (`Prop2Record.Q_star`); recovery only reads that record.
"""

from .core_model import CostMatrix, DEFAULT_PHI, psd_tol_for
from .errors import AmbiguousSolution, NotIdentifiable, ResidualTooLarge
from .identifiability import assess, prop2_certificate


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
    one PSD gate, at psd_tol_for(Q) widened to 4 report.error_bound (the
    solve's rounding estimate, not a bound), and a tiny negative eigenvalue
    within it stays in Q, where EstimateResult's psd_margin reports it.
    """
    if report is None:
        report = assess(sys, bundle)
    if report.verdict == "not_determined":
        raise NotIdentifiable("identifiability verdict is not_determined")
    if report.verdict == "unique_by_dual" and report.kernel_dim:
        return recover_with_kernel(sys, bundle, report, phi=phi)
    Q = _fitted_solution(report)  # errors reach 0.17 error_bound where 4 error_bound gates
    return CostMatrix(Q, phi=phi, psd_tol=max(psd_tol_for(Q), 4.0 * report.error_bound))


def recover_with_kernel(sys, bundle, report, phi=DEFAULT_PHI):
    """The unique PSD point on the solution affine set, read off the report's
    certificate: its Q_star at its psd_tol, or its `ambiguity` raised as
    AmbiguousSolution. A report built without a certificate gets one from
    prop2_certificate, as assess would."""
    if report.kernel_dim == 0:
        return recover_exact(sys, bundle, report=report, phi=phi)
    if report.verdict != "unique_by_dual":
        raise NotIdentifiable(f"kernel recovery needs unique_by_dual, got {report.verdict}")
    cert = report.prop2 or prop2_certificate(_fitted_solution(report), report.kernel_basis)
    if cert.ambiguity is not None:
        raise AmbiguousSolution(cert.ambiguity)
    return CostMatrix(cert.Q_star, phi=phi, psd_tol=cert.psd_tol)
