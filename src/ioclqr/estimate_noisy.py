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
penalty. The penalties, the L-BFGS-B loop, the final projection and the
result assembly are the fitting core that the residual-minimization
baseline shares; only the data term differs.
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
        self.config()  # checks phi and epsilon
        if self.bundle.n != self.sys.n or self.bundle.m != self.sys.m:
            raise DimensionMismatch("bundle dimensions do not match the system")

    def config(self):
        """The settings a fit reads and records in its result."""
        settings = _fit_config(
            self.phi, self.epsilon, self.penalty_weight, self.max_iters, self.grad_tol
        )
        return {"mode": self.mode, **settings}

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
    """One estimate, whichever estimator made it. Construction completes
    constraint_activity: ball_margin = phi - ||Q||_F^2 and, unless a fit
    passes the margin of its iterate before projection, psd_margin is the
    smallest eigenvalue of Q_hat."""

    Q_hat: CostMatrix
    objective_trace: list = field(default_factory=list)
    grad_norm_final: float = 0.0
    constraint_activity: dict = None
    converged: bool = True
    n_iter: int = 0
    method: str = "risk_x"
    degenerate: bool = False
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        Q = self.Q_hat.Q
        activity = dict(self.constraint_activity or {})
        if "psd_margin" not in activity:
            activity["psd_margin"] = float(np.linalg.eigvalsh(Q)[0])
        activity["ball_margin"] = float(self.Q_hat.phi - np.sum(Q * Q))
        self.constraint_activity = activity

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


def _fit_config(phi, epsilon, penalty_weight, max_iters, grad_tol):
    """The settings the fitting core reads, checked before any data are
    touched."""
    if epsilon <= 0 or phi <= 0:
        raise DimensionMismatch("epsilon and phi must be positive")
    return dict(phi=phi, epsilon=epsilon, penalty_weight=penalty_weight,
                max_iters=max_iters, grad_tol=grad_tol)


def _penalized(term, n, config):
    """Objective/gradient closure over vech(Q) for the quasi-Newton loop:
    the data term plus squared-hinge penalties on the smoothed largest
    eigenvalue of -Q and on ||Q||_F^2 - phi.

    term(q, Qm) returns the data term's value and its gradient as a
    symmetric matrix G whose vech gradient is Dmap' vec(G).
    """
    pw, eps, phi = config["penalty_weight"], config["epsilon"], config["phi"]
    Dmap = duplication_map(n)

    def fun(q):
        Qm = unvech(q, n)
        f, g = term(q, Qm)
        psd_val, psd_grad = smoothed_max_eig(-Qm, eps)
        if psd_val > 0:
            f += pw * psd_val**2
            g = g + pw * 2.0 * psd_val * (-psd_grad)
        ball = float(np.sum(Qm * Qm)) - phi
        if ball > 0:
            f += pw * ball**2
            g = g + pw * 2.0 * ball * (2.0 * Qm)
        return f, Dmap.T @ g.flatten(order="F")

    return fun


def penalized_objective(problem):
    """The penalized empirical risk of a RiskProblem, over vech(Q)."""
    data = _stacked(problem)

    def risk(q, Qm):
        value, _, grad = _risk_pieces(problem, Qm, True, data)
        return value, grad

    return _penalized(risk, problem.sys.n, problem.config())


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


def _fit(objective, n, config, ftol, method, record_trace=True):
    """The fitting core of both noisy estimators: L-BFGS-B over vech(Q)
    from Q0 = I on a `_penalized` objective, then `_finalize_q`."""
    trace = []
    last = {"q": None, "f": None}

    def wrapped(q):
        f, g = objective(q)
        last["q"], last["f"] = q.copy(), f
        return f, g

    def callback(qk):
        if record_trace:
            if last["q"] is not None and np.array_equal(last["q"], qk):
                trace.append((len(trace), last["f"]))
            else:
                trace.append((len(trace), wrapped(qk)[0]))

    q0 = vech(np.eye(n))
    f0 = wrapped(q0)[0]
    if record_trace:
        trace.append((0, f0))
    res = minimize(
        wrapped,
        q0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": config["max_iters"], "gtol": config["grad_tol"], "ftol": ftol},
    )
    Qm, psd_margin = _finalize_q(unvech(res.x, n), config["phi"])
    return EstimateResult(
        CostMatrix(Qm, phi=config["phi"]),
        objective_trace=trace,
        grad_norm_final=float(np.linalg.norm(res.jac, np.inf)),
        constraint_activity={"psd_margin": psd_margin},
        converged=bool(res.success),
        n_iter=int(res.nit),
        method=method,
        config=config,
    )


def estimate(problem):
    """Minimize the penalized empirical risk from Q0 = I.

    Limited-memory quasi-Newton (L-BFGS-B) over vech(Q); the PSD and ball
    constraints enter as squared-hinge penalties and any residual violation
    is cleaned up by a final eigenvalue clamp / rescale. Never raises on
    non-convergence; the result carries converged=False instead.
    """
    method = "risk_x" if problem.mode == "state_obs" else "risk_u"
    return _fit(
        penalized_objective(problem),
        problem.sys.n,
        problem.config(),
        1e-14,
        method,
        problem.record_trace,
    )
