"""Exact recovery of Q from noiseless optimal trajectories.

The stacked linear system ties Q's coordinates to the observed inputs; with
full column rank a least-squares solve recovers Q directly, and in the
certified rank-deficient case the unique PSD point on the solution affine
set is the maximizer of the smallest eigenvalue along the kernel
directions. The dual certificate in `assess` decides that this maximizer
is one point and records it (`Prop2Record.Q_star`); recovery reads only the
report."""

from .core_model import CostMatrix, DEFAULT_PHI, psd_tol_for
from .errors import AmbiguousSolution, NotIdentifiable, ResidualTooLarge
from .identifiability import assess


def recover_exact(sys, bundle, report=None, phi=DEFAULT_PHI):
    """Q read off the identifiability report (`assess`'s when none is given).

    unique_by_dual with a kernel: the certificate's Q_star at its psd_tol,
    or AmbiguousSolution with its `ambiguity` (NotIdentifiable when the
    report carries no certificate). Other unique verdicts: the least-squares
    solution `assess` recorded, as it is. CostMatrix is the one PSD gate, at
    psd_tol_for(Q) widened to 4 report.error_bound (the solve's rounding
    estimate, not a bound); a tiny negative eigenvalue within it stays in Q,
    where EstimateResult's psd_margin reports it. Raises NotIdentifiable on
    not_determined, ResidualTooLarge when no Q with unit input cost explains
    the data, and PsdViolation when the solution is clearly indefinite.
    """
    if report is None:
        report = assess(sys, bundle)
    if report.verdict == "not_determined":
        raise NotIdentifiable("identifiability verdict is not_determined")
    if report.verdict == "unique_by_dual" and report.kernel_dim:
        cert = report.prop2
        if cert is None:
            raise NotIdentifiable("unique_by_dual report carries no certificate")
        if cert.ambiguity is not None:
            raise AmbiguousSolution(cert.ambiguity)
        return CostMatrix(cert.Q_star, phi=phi, psd_tol=cert.psd_tol)
    Q = report.q_prime
    if Q is None:  # assess leaves it unset when no Q with unit input cost fits the data
        raise ResidualTooLarge(
            f"linear-system residual {report.residual:.3e}; data not generated by this model class"
        )
    # errors reach 0.17 error_bound where 4 error_bound gates
    return CostMatrix(Q, phi=phi, psd_tol=max(psd_tol_for(Q), 4.0 * report.error_bound))


def recover_with_kernel(sys, bundle, report, phi=DEFAULT_PHI):
    """`recover_exact` for a report whose data matrix may have a kernel:
    a kernel under any verdict but unique_by_dual raises NotIdentifiable."""
    if report.kernel_dim and report.verdict != "unique_by_dual":
        raise NotIdentifiable(f"kernel recovery needs unique_by_dual, got {report.verdict}")
    return recover_exact(sys, bundle, report=report, phi=phi)
