"""Risk-minimizing estimation of Q from noisy trajectories.

The predicted trajectory for a candidate Q is the solution of the stacked
boundary-value system F(Q) Z = A_tilde x_bar; the empirical risk is the mean
squared discrepancy between predictions and observations, in either states
(state_obs) or inputs (input_obs). Each evaluation factors F(Q) once in band
storage (`forward_lqr.BandedPmp`) and solves it for the response to the n
unit initial states, then for that response's sensitivities to Q (the
risk's gradient and Gauss-Newton matrix): n (k + 1) right-hand sides,
k = n (n + 1) / 2, whatever the number of episodes M. The episodes enter
through the residuals and the Gram matrix of their initial states, O(N n M)
work. O(N n^3) time besides, memory linear in N. The dense
`build_pmp_system` stays as the tests' oracle. The fitting core, shared with
the residual-minimization baseline (only the data term f differs), follows
a log-barrier path for f(Q) - tau (log det Q + log(phi - ||Q||_F^2)), so
every iterate is strictly inside {Q >= 0, ||Q||_F^2 <= phi} and nothing is
projected afterwards. The path (`_barrier_path`) takes any affine LMI
S0 + sum_k y_k A_k >= 0 in a ball; `identifiability`'s certificate uses it.
Its small dense operations are single LAPACK calls (dpotrf, dgesv, dgelsd)
or plain products, each chosen to give the bits of the numpy routine it
stands for without that routine's Python-level wrapper.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .core_model import CostMatrix, DEFAULT_PHI, as_q, ball_radius_ok, unvech
from .errors import DimensionMismatch
from .forward_lqr import BandedPmp, pmp_band

MODES = ("state_obs", "input_obs")

GRAD_TOL = 1e-9  # a fit stops at nu tau <= GRAD_TOL max(1, f) (`_barrier_path`)

# least slack phi - |y|^2 `_barrier` admits: below it the Hessian's 4 / slack^2
# overflows. A fit starts at slack ~ phi / 2, so its phi must exceed 4 MIN_SLACK.
MIN_SLACK = 1e-150


@dataclass
class RiskProblem:
    """A noisy fit's data and settings; every fit stops at GRAD_TOL."""

    sys: object
    bundle: object
    mode: str = "state_obs"
    phi: float = DEFAULT_PHI
    max_iters: int = 2000
    record_trace: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise DimensionMismatch(f"mode must be one of {MODES}")
        self.config()  # checks phi
        if self.bundle.n != self.sys.n or self.bundle.m != self.sys.m:
            raise DimensionMismatch("bundle dimensions do not match the system")

    def config(self):
        """The settings a fit reads and records in its result."""
        return {"mode": self.mode, **_fit_config(self.phi, self.max_iters)}

    def observations(self):
        """Observation matrix, one column per episode: x_2..x_N (state_obs)
        or u_1..u_{N-1} (input_obs), stacked."""
        b = self.bundle
        Y = b.X[:, :, 1:] if self.mode == "state_obs" else b.U
        return Y.transpose(2, 1, 0).reshape(-1, b.M)


@dataclass
class EstimateResult:
    """One estimate, whichever estimator made it. constraint_activity reads
    the margins Q_hat's CostMatrix measured: psd_margin = lam_min(Q_hat) and
    ball_margin = phi - ||Q_hat||_F^2. status says how a fit stopped: "gap_met"
    (the barrier path closed to GRAD_TOL), "step_budget" (max_iters Newton
    steps taken) or "line_search_failed"; "direct" marks an estimate computed
    without iterating. converged follows from status. n_eval counts data-term
    evaluations."""

    Q_hat: CostMatrix
    objective_trace: list = field(default_factory=list)
    grad_norm_final: float = 0.0
    n_iter: int = 0
    method: str = "risk_x"
    degenerate: bool = False
    config: dict = field(default_factory=dict)
    status: str = "direct"
    n_eval: int = 0

    @property
    def constraint_activity(self):
        return {"psd_margin": self.Q_hat.lam_min, "ball_margin": self.Q_hat.phi - self.Q_hat.fro2}

    @property
    def converged(self):
        return self.status in ("gap_met", "direct")

    def to_json(self):
        return {
            "Q": self.Q_hat.Q.tolist(),
            "objective_trace": [[int(i), float(v)] for i, v in self.objective_trace],
            "converged": self.converged,
            "status": self.status,
            "constraint_activity": self.constraint_activity,
            "grad_norm_final": float(self.grad_norm_final),
            "n_iter": int(self.n_iter),
            "n_eval": int(self.n_eval),
            "method": self.method,
            "degenerate": self.degenerate,
            "config": self.config,
        }


@lru_cache(maxsize=None)
def _sym_basis(n):
    """Frobenius-orthonormal basis of the symmetric n x n matrices, in vech
    order: e_i e_i' and (e_i e_j' + e_j e_i') / sqrt(2). In its coordinates
    y, Q = sum_k y_k E_k and ||Q||_F = |y|."""
    E = np.array([unvech(e, n) for e in np.eye(n * (n + 1) // 2)])
    E /= np.linalg.norm(E, axis=(1, 2))[:, None, None]
    E.setflags(write=False)
    return E


def _stacked(problem, band=None):
    """The initial states X0 (n x M), their Gram matrix X0 X0', the
    observations (`RiskProblem.observations`) and `band` (a fit's shared
    `pmp_band`, or None)."""
    X0 = problem.bundle.initial_states()
    return X0, X0 @ X0.T, problem.observations(), band


def _risk_pieces(problem, Qm, want_gn, data):
    """Shared evaluation: risk value, per-episode terms and (optionally) the
    gradient and Gauss-Newton matrix in `_sym_basis` coordinates, all from
    one band factorization of F(Q). `data` is `_stacked(problem)`.

    Predictions and their sensitivities are linear in the initial state, so
    F(Q) is solved for the response S to the n unit initial states and for
    S's sensitivities T_j; episode e then predicts P S x0_e with Jacobian
    columns P T_j x0_e, P picking the observed rows. The episodes enter only
    through the residuals R = P S X0 - Y and the Gram matrix G = X0 X0'."""
    X0, G, Y, band = data
    B, n = problem.sys.B, len(Qm)
    state_obs = problem.mode == "state_obs"
    pmp = BandedPmp(problem.sys, Qm, problem.bundle.N, band)
    x, lam = pmp.solve(problem.sys.A)
    PS = x if state_obs else -(B.T @ lam)  # u_t = -B' lambda_{t+1}
    R = PS.reshape(-1, n) @ X0
    R -= Y
    per_episode = np.einsum("im,im->m", R, R)
    value = float(per_episode.mean())
    if not want_gn:
        return value, per_episode, None, None
    dx, dlam = pmp.q_sensitivities(x, _sym_basis(n))
    J = (dx if state_obs else -(B.T @ dlam)).reshape(len(dx), -1)  # row j: P T_j
    scale = 2.0 / X0.shape[1]
    grad = J @ (R @ X0.T).ravel()
    gn = (J.reshape(-1, n) @ G).reshape(J.shape) @ J.T
    return value, per_episode, scale * grad, scale * 0.5 * (gn + gn.T)


def eval_risk(problem, Q):
    """Empirical risk at Q: mean over episodes of the squared observation
    mismatch. Returns (value, per_episode)."""
    value, per_episode, _, _ = _risk_pieces(problem, as_q(Q), False, _stacked(problem))
    return value, list(per_episode)


def risk_gradient(problem, Q):
    """Gradient of the empirical risk as a symmetric matrix, averaged over
    episodes."""
    Qm = as_q(Q)
    grad = _risk_pieces(problem, Qm, True, _stacked(problem))[2]
    return np.tensordot(grad, _sym_basis(len(Qm)), 1)


def smoothed_max_eig(Q_sym, epsilon):
    """Log-sum-exp smoothing of the largest eigenvalue and its gradient.

    value = sigma_1 + eps*log(sum exp((sigma_i - sigma_1)/eps)) stays finite
    for any spread of eigenvalues; the gradient is the softmax-weighted sum
    of eigenprojectors (symmetric PSD, unit trace). A utility: the fitting
    core keeps Q PSD with a log-det barrier instead.
    """
    if not 0 < epsilon < np.inf:
        raise DimensionMismatch(f"epsilon must be positive and finite, got {epsilon!r}")
    Qs = np.asarray(Q_sym, dtype=float)
    w, V = np.linalg.eigh(Qs)
    shifted = (w - w[-1]) / epsilon
    e = np.exp(shifted)
    value = float(w[-1] + epsilon * np.log(e.sum()))
    soft = e / e.sum()
    grad = (V * soft) @ V.T
    return value, 0.5 * (grad + grad.T)


def _check_horizon(bundle):
    """Both estimators refuse N < 3: at N = 2 the only input is
    u_1 = -B' lambda_2 = 0 whatever Q is, so the data say nothing about Q."""
    if bundle.N < 3:
        raise DimensionMismatch(f"need a horizon N >= 3 to estimate Q, got N={bundle.N}")


def _fit_config(phi, max_iters):
    """The fitting core's settings, checked before any data are touched."""
    if not (ball_radius_ok(phi) and phi > 4.0 * MIN_SLACK):
        raise DimensionMismatch(f"phi must exceed {4 * MIN_SLACK:g} with a finite square: {phi!r}")
    return dict(phi=phi, max_iters=max_iters, grad_tol=GRAD_TOL)


def penalized_objective(problem):
    """The data term of a RiskProblem for the fitting core: y -> (risk, its
    gradient, its Gauss-Newton matrix) in `_sym_basis` coordinates. The
    log-barrier is the core's interior penalty."""
    data = _stacked(problem, pmp_band(problem.sys, problem.bundle.N))
    basis = _sym_basis(problem.sys.n)

    def risk(y):
        Q = (y @ basis.reshape(len(y), -1)).reshape(basis.shape[1:])
        value, _, grad, gn = _risk_pieces(problem, Q, True, data)
        return value, grad, gn

    return risk


def _barrier(y, S0, A, phi):
    """-log det S(y) - log(phi - |y|^2), S(y) = S0 + sum_k y_k A_k, with its
    gradient and Hessian in y and the inverse Cholesky factor C^-1 of S(y),
    or None unless S(y) is positive definite and y inside the ball by more
    than MIN_SLACK."""
    slack = phi - float(y @ y)
    if not slack > MIN_SLACK:
        return None
    k = len(y)
    # np.tensordot, np.linalg.cholesky and np.linalg.inv without their wrappers
    C, info = lapack.dpotrf(S0 + (y @ A.reshape(k, -1)).reshape(S0.shape), lower=1, clean=1)
    if info != 0:
        return None
    Ci = lapack.dgesv(C, np.eye(len(C)))[2]
    S = Ci @ A @ Ci.T  # C^-1 A_k C^-T: tr S_k = tr(S(y)^-1 A_k)
    value = -2.0 * float(np.log(np.diag(C)).sum()) - np.log(slack)
    grad = 2.0 * y / slack - np.trace(S, axis1=1, axis2=2)
    hess = np.einsum("iab,jab->ij", S, S)
    hess.flat[:: k + 1] += 2.0 / slack
    return value, grad, hess + np.outer(y, y) * (4.0 / slack**2), Ci


@lru_cache(maxsize=None)
def _lstsq_args(k):
    """dgelsd's workspace sizes for a k x k system with one right-hand side
    and numpy's rcond=None cutoff, eps k."""
    cond = np.finfo(float).eps * k
    work, iwork, _ = lapack.dgelsd_lwork(k, k, 1, cond)
    return int(work), iwork, cond


def _lstsq(K, g):
    """np.linalg.lstsq(K, g, rcond=None)[0] for a square K: the same dgelsd
    call at the same cutoff, without the wrapper. Like numpy, raises
    LinAlgError on any nonzero info: a non-finite K gives info < 0."""
    x, _, _, info = lapack.dgelsd(K, g[:, None], *_lstsq_args(len(g)))
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:, 0]


_HALVINGS = 0.5 ** np.arange(50)


def _barrier_path(term, y, lmi, grad_tol, max_iters):
    """The one log-barrier path: damped Gauss-Newton steps on f + tau b from
    the strictly feasible y, where term(y) = (f, gradient g, Gauss-Newton
    matrix H) and b is `_barrier` of lmi = (S0, A, phi). Each step
    backtracks (Armijo) to a strictly feasible point that lowers f + tau b.
    Once the scaled Newton decrement (g' K^-1 g / tau)^(1/2), K = H + tau
    b'', is below 1/2 (a tau cut), the path stops if nu tau <= grad_tol
    max(1, f), nu = dim S + 1 being the barrier's parameter (for convex f
    this bounds the suboptimality), and cuts tau tenfold otherwise. Returns
    (y, final gradient, trace, n_eval, status, cuts), at most max_iters
    steps, cuts holding (tau, Newton step, `_barrier`'s tuple) at each cut."""
    (f, g, H), bar = term(y), _barrier(y, *lmi)
    nu = len(lmi[0]) + 1
    tau, trace, n_eval, status, cuts = max(1.0, f) / nu, [(0, f)], 1, "step_budget", []
    while True:
        grad = g + tau * bar[1]
        # next to the boundary tau b'' can make K singular in floating point
        step = -_lstsq(H + tau * bar[2], grad)
        slope = float(grad @ step)
        if -slope < 0.25 * tau:
            cuts.append((tau, step, bar))
            if nu * tau <= grad_tol * max(1.0, f):
                status = "gap_met"
                break
            tau *= 0.1
            continue
        if len(trace) > max_iters:
            break
        for alpha in _HALVINGS:
            trial = y + alpha * step
            new = _barrier(trial, *lmi)
            if new is not None:
                point, n_eval = term(trial), n_eval + 1
                if point[0] + tau * new[0] <= f + tau * bar[0] + 0.25 * alpha * slope:
                    break
        else:
            status = "line_search_failed"
            break
        y, (f, g, H), bar = trial, point, new
        trace.append((len(trace), f))
    if status == "gap_met":
        # the barrier holds an interior minimizer O(tau) away from itself;
        # one undamped Gauss-Newton step on f alone removes that offset when
        # it stays strictly inside the set and lowers f (H = 0: no step)
        trial = y - _lstsq(H, g)
        if _barrier(trial, *lmi) is not None:
            point, n_eval = term(trial), n_eval + 1
            if point[0] < f:
                y, (f, grad, _) = trial, point
                trace.append((len(trace), f))
    return y, grad, trace, n_eval, status, cuts


def _barrier_fit(term, n, config, method, record_trace=True, f_ref=1.0):
    """The fitting core of both noisy estimators: `_barrier_path` over the
    `_sym_basis` coordinates y of Q (S(y) = Q, the ball ||Q||_F^2 <= phi)
    from Q0 = I, shrunk to ||Q0||_F^2 = phi / 2 when n > phi / 2. The path
    runs on f / u, u the power of two just above f_ref, the data term's size
    (1 when f_ref is zero or not finite, at most 2^1023): data multiplied by
    2^k scale f and f_ref by 4^k, so Q_hat keeps its bits. The trace and the
    final gradient norm are u times the path's: f's own bits."""
    basis, phi = _sym_basis(n), config["phi"]
    unit = math.ldexp(1.0, min(math.frexp(f_ref)[1], 1023))
    y = np.tensordot(basis, min(1.0, np.sqrt(phi / (2.0 * n))) * np.eye(n), 2)
    y, grad, trace, n_eval, status, _ = _barrier_path(
        lambda y: tuple(v / unit for v in term(y)),
        y, (np.zeros((n, n)), basis, phi), GRAD_TOL, config["max_iters"]
    )
    return EstimateResult(
        CostMatrix(np.tensordot(y, basis, 1), phi=phi),
        objective_trace=[(i, unit * f) for i, f in trace] if record_trace else [],
        grad_norm_final=unit * float(np.linalg.norm(grad, np.inf)),
        n_iter=len(trace) - 1,
        method=method,
        config=config,
        status=status,
        n_eval=n_eval,
    )


def estimate(problem):
    """Minimize the empirical risk over {Q >= 0, ||Q||_F^2 <= phi} from
    Q0 = I on the fitting core's barrier path. Never raises on
    non-convergence; the result's status says how the fit stopped."""
    _check_horizon(problem.bundle)
    method = "risk_x" if problem.mode == "state_obs" else "risk_u"
    Y = problem.observations()  # the risk of predicting 0 sets the data term's size
    return _barrier_fit(
        penalized_objective(problem), problem.sys.n, problem.config(), method,
        problem.record_trace, float(np.sum(Y**2)) / problem.bundle.M,
    )
