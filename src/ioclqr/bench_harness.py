"""Monte-Carlo consistency benchmark.

Random second-order continuous-time systems are discretized by matrix
exponential, a random PSD cost inside the Frobenius ball is drawn, exact
trajectories are generated and corrupted with white noise at fixed SNR, and
each estimator runs over a grid of dataset sizes M. Errors land in CSV files
for plotting. Everything is reproducible from the master seed; wall-clock
times go to a separate file so the result CSVs are byte-stable.
"""

import csv
import hashlib
import io
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
import scipy
import scipy.linalg as sla

from .baseline_rm import estimate_rm
from .core_model import CostMatrix, FLOAT_FMT, LtiSystem, write_json
from .errors import InvalidSystem, ParseError, RejectionBudgetExceeded
from .estimate_noisy import RiskProblem, estimate
from .forward_lqr import add_noise, generate_bundle

METHODS = ("risk_x", "risk_u", "residual_min")


@dataclass
class BenchConfig:
    n_trials: int = 30
    N: int = 50
    M_grid: tuple = (10, 50, 100, 200)
    snr_db_x: float = 15.0
    snr_db_u: float = 20.0
    phi: float = 5.0
    dt: float = 0.1
    master_seed: int = 0
    system: object = None  # optional fixed LtiSystem; None samples per trial

    def __post_init__(self):
        for name in ("n_trials", "N", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_trials < 1 or self.N < 3 or self.master_seed < 0:
            raise ValueError(f"need n_trials >= 1, N >= 3 and master_seed >= 0, got "
                             f"{self.n_trials}, {self.N} and {self.master_seed}")
        for name in ("phi", "dt", "snr_db_x", "snr_db_u"):
            value = getattr(self, name)
            if value is None and name.startswith("snr"):
                continue  # no noise on that component, as in add_noise
            real = not isinstance(value, bool) and isinstance(value, (int, float, np.number))
            positive = name in ("phi", "dt")
            if not real or not np.isfinite(value) or (positive and value <= 0):
                raise ValueError(f"{name} must be a finite {'positive ' * positive}real, got {value!r}")
        if not self.M_grid:
            raise ValueError("M_grid must be nonempty")
        for m in self.M_grid:
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
                raise ValueError(f"M_grid entries must be integers >= 1, got {m!r}")
        if len(set(self.M_grid)) < len(self.M_grid):
            raise ValueError(f"M_grid repeats an entry: {list(self.M_grid)!r}")
        self.M_grid = tuple(sorted(int(m) for m in self.M_grid))

    @classmethod
    def from_json(cls, doc):
        """Config from a parsed JSON document; a document of the wrong shape
        raises ParseError."""
        if not isinstance(doc, dict):
            raise ParseError("benchmark config must be a JSON object")
        kwargs = {f.name: doc[f.name] for f in fields(cls) if f.name != "system" and f.name in doc}
        try:
            if doc.get("system") is not None:
                s = doc["system"]
                kwargs["system"] = LtiSystem(np.array(s["A"]), np.array(s["B"]))
            return cls(**kwargs)
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed benchmark config ({type(e).__name__}: {e})") from e


@dataclass
class TrialRecord:
    trial_id: int
    system_hash: str
    Q_bar: np.ndarray
    results: dict = field(default_factory=dict)  # (M, method) -> row dict


def discretize(A_hat, B_hat, dt):
    """Zero-order-hold discretization via one matrix exponential.

    expm([[A_hat, B_hat], [0, 0]] * dt) has the discrete A in its top-left
    block and the input integral B in the top-right.
    """
    A_hat = np.asarray(A_hat, dtype=float)
    B_hat = np.asarray(B_hat, dtype=float)
    if B_hat.ndim == 1:
        B_hat = B_hat.reshape(-1, 1)
    n, m = B_hat.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A_hat
    aug[:n, n:] = B_hat
    E = sla.expm(aug * dt)
    return LtiSystem(E[:n, :n], E[:n, n:])


def sample_instance(config, trial_id):
    """Deterministic (system, cost, initial-state sampler) for one trial.

    Companion-form continuous dynamics with feedthrough coefficients from
    U[-3,3], discretized at config.dt; Q_bar = Q1 Q1' with Q1 entries from
    U[-1,1], redrawn until ||Q_bar||_F^2 <= phi. All streams derive from
    (master_seed, trial_id).
    """
    ss = np.random.SeedSequence([config.master_seed, trial_id])
    sys_ss, q_ss, init_ss, noise_ss = ss.spawn(4)
    sys_rng = np.random.default_rng(sys_ss)
    if config.system is not None:
        sys = config.system
    else:
        sys = None
        for _ in range(1000):
            a1, a2 = sys_rng.uniform(-3.0, 3.0, size=2)
            A_hat = np.array([[0.0, 1.0], [a1, a2]])
            B_hat = np.array([[0.0], [1.0]])
            try:
                sys = discretize(A_hat, B_hat, config.dt)
                break
            except InvalidSystem:
                continue
        if sys is None:
            raise RejectionBudgetExceeded("no valid system in 1000 draws")
    q_rng = np.random.default_rng(q_ss)
    n = sys.n
    for _ in range(1000):
        Q1 = q_rng.uniform(-1.0, 1.0, size=(n, n))
        Qbar = Q1 @ Q1.T
        if float(np.sum(Qbar * Qbar)) <= config.phi:
            cost = CostMatrix(Qbar, phi=config.phi)
            break
    else:
        raise RejectionBudgetExceeded("no Q_bar inside the ball in 1000 draws")
    return sys, cost, init_ss, noise_ss


def _realized_snr(exact, noisy, which):
    if which == "x":
        sigs, obs = exact.X[:, :, 1:], noisy.X[:, :, 1:]
    else:
        sigs, obs = exact.U, noisy.U
    num = 0.0
    den = 0.0
    # summed episode by episode: one sum over the stack rounds differently
    # and would change the last digits in trials.csv
    for sig, y in zip(sigs, obs):
        err = y - sig
        num += float(np.sum(sig * sig))
        den += float(np.sum(err * err))
    if den == 0.0:
        return float("inf")
    return 10.0 * np.log10(num / den)


def run_trial(config, trial_id):
    """All (M, method) estimates for one trial; failures recorded per cell."""
    sys, cost, init_ss, noise_ss = sample_instance(config, trial_id)
    Qbar = cost.Q
    nrm = float(np.linalg.norm(Qbar))
    sys_hash = hashlib.sha256(sys.A.tobytes() + sys.B.tobytes()).hexdigest()[:16]
    record = TrialRecord(trial_id=trial_id, system_hash=sys_hash, Q_bar=Qbar)
    Mmax = max(config.M_grid)
    exact = generate_bundle(
        sys, cost, config.N, Mmax, seed=init_ss,
    )
    noisy = add_noise(exact, config.snr_db_x, config.snr_db_u, seed=noise_ss)
    for M in config.M_grid:
        sub = noisy.subset(M)
        sub_exact = exact.subset(M)
        snr_x = _realized_snr(sub_exact, sub, "x")
        snr_u = _realized_snr(sub_exact, sub, "u")
        for method in METHODS:
            t0 = time.perf_counter()
            try:
                if method == "residual_min":
                    res = estimate_rm(sys, sub, phi=config.phi)
                else:
                    mode = "state_obs" if method == "risk_x" else "input_obs"
                    prob = RiskProblem(
                        sys, sub, mode=mode, phi=config.phi, record_trace=False
                    )
                    res = estimate(prob)
                err = float(np.linalg.norm(res.Q_hat.Q - Qbar)) / nrm
                row = {
                    "rel_error": err,
                    "converged": bool(res.converged),
                    "failed": False,
                    "Q_hat": res.Q_hat.Q,
                }
            except Exception as e:  # record, never abort the sweep
                row = {
                    "rel_error": float("nan"),
                    "converged": False,
                    "failed": True,
                    "Q_hat": None,
                    "error": f"{type(e).__name__}: {e}",
                }
            row["wall_ms"] = (time.perf_counter() - t0) * 1e3
            row["snr_x_realized"] = snr_x
            row["snr_u_realized"] = snr_u
            record.results[(M, method)] = row
    return record


def _fmt(x):
    return FLOAT_FMT % x if isinstance(x, float) else str(x)


def summarize(records, M_grid):
    """Median and quartiles of the finite errors per (M, method), how many
    of those fits converged, and how many failed with an exception (a failed
    fit never converged)."""
    rows = []
    for M in M_grid:
        for method in METHODS:
            cells = [c for c in (rec.results.get((M, method)) for rec in records) if c]
            errs = [c["rel_error"] for c in cells if np.isfinite(c["rel_error"])]
            if errs:
                q25, med, q75 = np.percentile(errs, [25.0, 50.0, 75.0])
            else:
                q25 = med = q75 = float("nan")
            rows.append(
                {
                    "M": M,
                    "method": method,
                    "median": float(med),
                    "q25": float(q25),
                    "q75": float(q75),
                    "n_ok": len(errs),
                    "n_converged": sum(bool(c["converged"]) for c in cells),
                    "n_failed": sum(bool(c["failed"]) for c in cells),
                }
            )
    return rows


def _cells(records, M_grid):
    """(trial_id, M, method, cell) for every recorded cell, sorted by trial
    id, then M in M_grid's order, then method in METHODS' order."""
    for rec in sorted(records, key=lambda r: r.trial_id):
        for M in M_grid:
            for method in METHODS:
                cell = rec.results.get((M, method))
                if cell is not None:
                    yield rec.trial_id, M, method, cell


def _csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def trials_csv(records, M_grid):
    return _csv(
        ["trial_id", "M", "method", "rel_error", "converged", "snr_x_realized", "snr_u_realized"],
        ([t, M, method, _fmt(c["rel_error"]), str(bool(c["converged"])).lower(),
          _fmt(c["snr_x_realized"]), _fmt(c["snr_u_realized"])]
         for t, M, method, c in _cells(records, M_grid)),
    )


def summary_csv(summary_rows):
    keys = ["M", "method", "median", "q25", "q75", "n_ok", "n_converged", "n_failed"]
    return _csv(keys, ([_fmt(row[k]) for k in keys] for row in summary_rows))


def timings_csv(records, M_grid):
    return _csv(
        ["trial_id", "M", "method", "wall_ms"],
        ([t, M, method, "%.3f" % c["wall_ms"]] for t, M, method, c in _cells(records, M_grid)),
    )


def _worker(args):
    config, trial_id = args
    return run_trial(config, trial_id)


def default_workers():
    return min(os.cpu_count() or 1, 4)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def numeric_environment():
    """What the results and timings depend on besides the config: the
    Python, numpy and scipy versions, the BLAS numpy was built against and
    the thread-count variables that are set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }


def run_benchmark(config, out_dir=None, n_workers=None):
    """Run every trial, write trials/summary/timings CSVs, return the records.

    Deterministic for a fixed config and master seed: per-trial RNG streams
    are independent of scheduling and records are aggregated sorted by
    trial_id. Timing data never enters trials.csv.
    """
    if n_workers is None:
        n_workers = default_workers()
    jobs = [(config, t) for t in range(config.n_trials)]
    if n_workers > 1 and config.n_trials > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(_worker, jobs))
    else:
        records = [run_trial(config, t) for t in range(config.n_trials)]
    records.sort(key=lambda r: r.trial_id)
    summary_rows = summarize(records, config.M_grid)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "trials.csv"), "w", newline="") as fh:
            fh.write(trials_csv(records, config.M_grid))
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            fh.write(summary_csv(summary_rows))
        with open(os.path.join(out_dir, "timings.csv"), "w", newline="") as fh:
            fh.write(timings_csv(records, config.M_grid))
        cfg_doc = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "system"}
        cfg_doc["environment"] = numeric_environment()
        if config.system is not None:
            cfg_doc["system"] = {"A": config.system.A.tolist(), "B": config.system.B.tolist()}
        write_json(cfg_doc, os.path.join(out_dir, "config.json"))
    return records, summary_rows
