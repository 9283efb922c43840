"""Risk-minimizing estimation of Q from noisy trajectories.

The predicted trajectory for a candidate Q is the solution of the stacked
boundary-value system F(Q) Z = A_tilde x_bar; the empirical risk is the mean
squared discrepancy between predictions and observations, in either states
(state_obs) or inputs (input_obs). Each evaluation factors F(Q) once in band
storage (`forward_lqr.BandedPmp`), solves it for all episodes at once and
its transpose for the adjoint gradient, in O(N n^3) time and memory linear
in N; the dense `build_pmp_system` stays as the tests' oracle. Minimization
runs in vech coordinates with an adjoint-mode gradient, a smoothed
max-eigenvalue penalty keeping Q near the PSD cone, and a Frobenius-ball
penalty.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .core_model import (
    CostMatrix,
    DEFAULT_PHI,
    as_q,
    duplication_map,
    unvech,
    vech,
)
from .errors import DimensionMismatch
from .forward_lqr import BandedPmp

MODES = ("state_obs", "input_obs")


@dataclass
class RiskProblem:
    sys: object
    bundle: object
    mode: str = "state_obs"
    phi: float = DEFAULT_PHI
    epsilon: float = 1e-3
    penalty_weight: float = 1e4
    max_iters: int = 2000
    grad_tol: float = 1e-7
    record_trace: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise DimensionMismatch(f"mode must be one of {MODES}")
        if self.epsilon <= 0 or self.phi <= 0:
            raise DimensionMismatch("epsilon and phi must be positive")
        if self.bundle.n != self.sys.n or self.bundle.m != self.sys.m:
            raise DimensionMismatch("bundle dimensions do not match the system")

    def observations(self):
        """Stacked per-episode observation matrix (one column per episode)."""
        if self.mode == "state_obs":
            return np.stack(
                [ep.x[:, 1:].flatten(order="F") for ep in self.bundle.episodes], axis=1
            )
        return np.stack(
            [ep.u.flatten(order="F") for ep in self.bundle.episodes], axis=1
        )


@dataclass
class EstimateResult:
    Q_hat: CostMatrix
    objective_trace: list
    grad_norm_final: float
    constraint_activity: dict
    converged: bool
    n_iter: int = 0
    method: str = "risk_x"
    degenerate: bool = False
    config: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "Q": self.Q_hat.Q.tolist(),
            "objective_trace": [[int(i), float(v)] for i, v in self.objective_trace],
            "converged": self.converged,
            "constraint_activity": {
                k: float(v) for k, v in self.constraint_activity.items()
            },
            "grad_norm_final": float(self.grad_norm_final),
            "n_iter": int(self.n_iter),
            "method": self.method,
            "degenerate": self.degenerate,
            "config": self.config,
        }


def _stacked(problem):
    """Initial states (n x M) and observations ((N-1) x k x M), stacked once
    per fit rather than once per evaluation."""
    Y = problem.observations()
    return problem.bundle.initial_states(), Y.reshape(problem.bundle.N - 1, -1, Y.shape[1])


def _risk_pieces(problem, Qm, want_grad, data):
    """Shared evaluation: risk value, per-episode terms and (optionally) the
    adjoint-mode matrix gradient, all from one band factorization of F(Q).
    `data` is `_stacked(problem)`."""
    X0, Y = data
    B = problem.sys.B
    state_obs = problem.mode == "state_obs"
    pmp = BandedPmp(problem.sys, Qm, problem.bundle.N)
    x, lam = pmp.solve(X0)
    R = (x if state_obs else -(B.T @ lam)) - Y  # u_t = -B' lambda_{t+1}
    per_episode = np.sum(R * R, axis=(0, 1))
    value = float(per_episode.mean())
    if not want_grad:
        return value, per_episode, None
    if state_obs:
        gx, glam = 2.0 * R, np.zeros_like(lam)
    else:
        gx, glam = np.zeros_like(x), -2.0 * (B @ R)
    grad = pmp.q_gradient(gx, glam, x) / X0.shape[1]
    grad = 0.5 * (grad + grad.T)
    return value, per_episode, grad


def eval_risk(problem, Q):
    """Empirical risk at Q: mean over episodes of the squared observation
    mismatch. Returns (value, per_episode)."""
    value, per_episode, _ = _risk_pieces(problem, as_q(Q), False, _stacked(problem))
    return value, list(per_episode)


def risk_gradient(problem, Q):
    """Adjoint-mode gradient of the empirical risk, symmetrized, averaged
    over episodes."""
    _, _, grad = _risk_pieces(problem, as_q(Q), True, _stacked(problem))
    return grad


def smoothed_max_eig(Q_sym, epsilon):
    """Log-sum-exp smoothing of the largest eigenvalue and its gradient.

    value = sigma_1 + eps*log(sum exp((sigma_i - sigma_1)/eps)) stays finite
    for any spread of eigenvalues; the gradient is the softmax-weighted sum
    of eigenprojectors (symmetric PSD, unit trace).
    """
    if epsilon <= 0:
        raise DimensionMismatch("epsilon must be positive")
    Qs = np.asarray(Q_sym, dtype=float)
    w, V = np.linalg.eigh(Qs)
    shifted = (w - w[-1]) / epsilon
    e = np.exp(shifted)
    value = float(w[-1] + epsilon * np.log(e.sum()))
    soft = e / e.sum()
    grad = (V * soft) @ V.T
    return value, 0.5 * (grad + grad.T)


def penalized_objective(problem, Dmap):
    """Objective/gradient closure over vech(Q) for the quasi-Newton loop."""
    pw = problem.penalty_weight
    eps = problem.epsilon
    phi = problem.phi
    data = _stacked(problem)

    def fun(q):
        Qm = unvech(q, problem.sys.n)
        risk, _, grad_m = _risk_pieces(problem, Qm, True, data)
        f = risk
        g = grad_m.copy()
        psd_val, psd_grad = smoothed_max_eig(-Qm, eps)
        if psd_val > 0:
            f += pw * psd_val**2
            g += pw * 2.0 * psd_val * (-psd_grad)
        ball = float(np.sum(Qm * Qm)) - phi
        if ball > 0:
            f += pw * ball**2
            g += pw * 2.0 * ball * (2.0 * Qm)
        return f, Dmap.T @ g.flatten(order="F")

    return fun


def _finalize_q(Qm, phi):
    """Project the iterate back to a usable cost: clamp negative eigenvalues
    and re-enter the Frobenius ball.

    The quadratic penalty leaves a residual violation of order
    multiplier/penalty_weight, so the clamp must cover more than round-off;
    the pre-projection margin is reported in constraint_activity.
    """
    Qm = 0.5 * (Qm + Qm.T)
    w, V = np.linalg.eigh(Qm)
    psd_margin = float(w[0])
    if w[0] < 0:
        if w[0] < -1e-3 * max(1.0, float(np.abs(w).max())):
            warnings.warn(
                f"projected a clearly indefinite iterate (min eig {w[0]:.3e}) onto the PSD cone"
            )
        Qm = (V * np.clip(w, 0.0, None)) @ V.T
        Qm = 0.5 * (Qm + Qm.T)
    fro2 = float(np.sum(Qm * Qm))
    if fro2 > phi:
        Qm *= np.sqrt(phi / fro2) * (1.0 - 1e-12)
    return Qm, psd_margin


def estimate(problem):
    """Minimize the penalized empirical risk from Q0 = I.

    Limited-memory quasi-Newton (L-BFGS-B) over vech(Q); the PSD and ball
    constraints enter as squared-hinge penalties and any residual violation
    is cleaned up by a final eigenvalue clamp / rescale. Never raises on
    non-convergence; the result carries converged=False instead.
    """
    n = problem.sys.n
    Dmap = duplication_map(n)
    fun = penalized_objective(problem, Dmap)
    q0 = vech(np.eye(n))
    trace = []
    last = {"q": None, "f": None}

    def wrapped(q):
        f, g = fun(q)
        last["q"], last["f"] = q.copy(), f
        return f, g

    def callback(qk):
        if problem.record_trace:
            if last["q"] is not None and np.array_equal(last["q"], qk):
                trace.append((len(trace), last["f"]))
            else:
                trace.append((len(trace), wrapped(qk)[0]))

    f0 = wrapped(q0)[0]
    if problem.record_trace:
        trace.append((0, f0))
    res = minimize(
        wrapped,
        q0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": problem.max_iters, "gtol": problem.grad_tol, "ftol": 1e-14},
    )
    Qm, psd_margin = _finalize_q(unvech(res.x, n), problem.phi)
    result = EstimateResult(
        Q_hat=CostMatrix(Qm, phi=problem.phi),
        objective_trace=trace,
        grad_norm_final=float(np.linalg.norm(res.jac, np.inf)),
        constraint_activity={
            "psd_margin": psd_margin,
            "ball_margin": float(problem.phi - np.sum(Qm * Qm)),
        },
        converged=bool(res.success),
        n_iter=int(res.nit),
        method="risk_x" if problem.mode == "state_obs" else "risk_u",
        config={
            "mode": problem.mode,
            "phi": problem.phi,
            "epsilon": problem.epsilon,
            "penalty_weight": problem.penalty_weight,
            "max_iters": problem.max_iters,
            "grad_tol": problem.grad_tol,
        },
    )
    return result
