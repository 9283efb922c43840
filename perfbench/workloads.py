"""The benchmark's workloads: inputs made from a seed, one op, its checks.

Every workload builds a pool of op inputs in `setup`, runs one pool item per
`run_op` and returns an `Outcome`: the op's digest entries (the facts that
must repeat exactly) and the problems its correctness checks found. Library
functions are looked up on their modules at call time, so the tracer's
wrappers are the ones called.
"""

import contextlib
import copy
import io as textio
import json
import os
from dataclasses import dataclass, field

import numpy as np

import ioclqr as ioc
import ioclqr.cli
from ioclqr import bench_harness as bh
from ioclqr.core_model import psd_tol_for

PHI = 5.0
METHODS = bh.METHODS  # risk_x, risk_u, residual_min


@dataclass
class Fit:
    method: str
    M: int
    converged: bool
    n_iter: int
    rel_error: float  # ||Q_hat - Q_bar||_F / ||Q_bar||_F, as run_trial scores it
    scored_error: float  # residual_min at its optimal scalar rescaling


@dataclass
class Outcome:
    digest: list  # JSON-able entries that must repeat exactly
    problems: list = field(default_factory=list)
    fits: list = field(default_factory=list)


def check_estimate(Q_hat, phi):
    """An estimate must be PSD within the CostMatrix tolerance every result
    already passed at construction, and inside the Frobenius ball."""
    problems = []
    lam = float(np.linalg.eigvalsh(Q_hat)[0])
    if lam < -psd_tol_for(Q_hat):
        problems.append(f"estimate not PSD: min eigenvalue {lam:.3e}")
    fro2 = float(np.sum(Q_hat * Q_hat))
    if fro2 > phi * (1 + 1e-9):
        problems.append(f"estimate outside the ball: ||Q||_F^2 = {fro2:.6g} > {phi}")
    return problems


class NoisyTrials:
    """One op is one Monte-Carlo trial of bench_harness at a single M:
    generate M exact episodes, add noise at 15/20 dB, fit every estimator.

    The pool holds `seconds / nominal_op_s` trials (at least 2), sampled by
    `sample_instance` from master seed `seed`, so a run's work is fixed by
    its arguments and never by the machine's speed.
    """

    def __init__(self, seed, seconds, N, M, nominal_op_s, max_iters=None, dense_ops=False):
        self.config = bh.BenchConfig(N=N, M_grid=(M,), phi=PHI, master_seed=seed)
        self.dense_ops = dense_ops  # calibrate with the dense-LU kernel
        self.M = M
        self.n_ops = max(2, int(seconds / nominal_op_s))
        self.fit_kwargs = {} if max_iters is None else {"max_iters": max_iters}

    def setup(self, workdir):
        return [(t,) + bh.sample_instance(self.config, t) for t in range(self.n_ops)]

    def label(self, item):
        return f"trial {item[0]}"

    def run_op(self, item, tick):
        cfg, M = self.config, self.M
        trial_id, sys_, cost, init_ss, noise_ss = item
        # sample_instance's seed sequences are consumed by spawn(); copies keep
        # every op, first or repeated, on the streams run_trial would use
        exact = ioc.generate_bundle(sys_, cost, cfg.N, M, seed=copy.deepcopy(init_ss))
        noisy = ioc.add_noise(exact, cfg.snr_db_x, cfg.snr_db_u, seed=copy.deepcopy(noise_ss))
        tick()
        Qbar = cost.Q
        nrm = float(np.linalg.norm(Qbar))
        out = Outcome(digest=[])
        for method in METHODS:
            if method == "residual_min":
                res = ioc.estimate_rm(sys_, noisy, phi=cfg.phi, **self.fit_kwargs)
            else:
                mode = "state_obs" if method == "risk_x" else "input_obs"
                prob = ioc.RiskProblem(sys_, noisy, mode=mode, phi=cfg.phi, record_trace=False, **self.fit_kwargs)
                res = ioc.estimate(prob)
            tick()
            Q_hat = res.Q_hat.Q
            err = float(np.linalg.norm(Q_hat - Qbar)) / nrm
            scored = err
            if method == "residual_min":
                c = float(np.sum(Q_hat * Qbar)) / max(float(np.sum(Q_hat * Q_hat)), 1e-300)
                scored = float(np.linalg.norm(c * Q_hat - Qbar)) / nrm
            fit = Fit(method, M, bool(res.converged), int(res.n_iter), err, scored)
            out.fits.append(fit)
            out.digest.append([trial_id, method, M, fit.converged, fit.n_iter, f"{err:.8f}"])
            if not np.isfinite(err):
                out.problems.append(f"{method}: non-finite error")
            out.problems += [f"{method}: {p}" for p in check_estimate(Q_hat, cfg.phi)]
        return out

    def reference(self, pool, first):
        """The first and last trials must reproduce, bit for bit, the M cells
        of bench_harness.run_trial at the acceptance configuration (M_grid
        10 and 200; the first M episodes of a trial do not depend on M_max).
        Returns {pool index: [problems]}. run_trial has no iteration budget,
        so a budgeted workload has no reference."""
        bad = {}
        if self.fit_kwargs:
            return bad
        cfg = bh.BenchConfig(N=self.config.N, M_grid=(10, 200), phi=PHI,
                             master_seed=self.config.master_seed)
        for i in sorted({0, len(pool) - 1}):
            if first[i] is None:
                continue
            rec = bh.run_trial(cfg, pool[i][0])
            for fit in first[i].fits:
                cell = rec.results[(fit.M, fit.method)]
                if cell["rel_error"] != fit.rel_error or cell["converged"] != fit.converged:
                    bad.setdefault(i, []).append(
                        f"{fit.method}: run_trial gives {cell['rel_error']!r}/"
                        f"{cell['converged']}, benchmark {fit.rel_error!r}/{fit.converged}"
                    )
        return bad

    def quality(self, first):
        """Median error per estimator and non-converged counts, first pass."""
        fits = [f for o in first if o is not None for f in o.fits]
        out = {}
        for method in METHODS:
            errs = [f.scored_error for f in fits if f.method == method]
            if errs:
                out[f"rel_error_p50.{method}.M{self.M}"] = float(np.median(errs))
        out["fits"] = len(fits)
        out["nonconverged"] = sum(not f.converged for f in fits)
        out["nonconverged_frac"] = out["nonconverged"] / max(len(fits), 1)
        return out


# Worked example with a one-dimensional data-matrix kernel (the same instance
# as the example_instance test fixture). Its cost is printed to four decimals,
# so it sits just outside the PSD cone and needs psd_tol 1e-4.
EXAMPLE_A = [[-0.1922, -0.2490, 1.2347], [-0.2741, -1.0642, -0.2296], [1.5301, 1.6035, -1.5062]]
EXAMPLE_B = [[-0.4446], [-0.1559], [0.2761]]
EXAMPLE_Q = [[0.0068, -0.0116, -0.0102], [-0.0116, 0.0197, 0.0174], [-0.0102, 0.0174, 0.0154]]
# `--x0=` form: argparse reads a separate leading "-25..." as an option flag.
EXAMPLE_X0 = "--x0=-25.0136,-18.9592,-14.8221"
EXAMPLE_N = 15


class CliFailure(Exception):
    pass


class ExactCli:
    """One op is two CLI round trips driven in-process through cli.main:
    a fresh full-rank n=2 instance (generate, identify, estimate --mode
    exact at N=50, M=200) and the rank-deficient worked example (forward,
    identify, estimate --mode exact)."""

    N = 50
    M = 200
    nominal_op_s = 11.0
    dense_ops = False

    def __init__(self, seed, seconds):
        self.seed = seed
        self.config = bh.BenchConfig(N=self.N, M_grid=(self.M,), phi=PHI, master_seed=seed)
        self.n_ops = max(2, int(seconds / self.nominal_op_s))

    def setup(self, workdir):
        pool = []
        ex_sys = os.path.join(workdir, "example_system.json")
        ex_cost = os.path.join(workdir, "example_cost.json")
        with open(ex_sys, "w") as fh:
            json.dump({"n": 3, "m": 1, "A": EXAMPLE_A, "B": EXAMPLE_B}, fh)
        with open(ex_cost, "w") as fh:
            json.dump({"n": 3, "phi": PHI, "Q": EXAMPLE_Q, "psd_tol": 1e-4}, fh)
        for i in range(self.n_ops):
            sys_, cost, _, _ = bh.sample_instance(self.config, i)
            paths = {k: os.path.join(workdir, f"{k}_{i}.json") for k in ("system", "cost")}
            ioc.save_system(sys_, paths["system"])
            ioc.save_cost(cost, paths["cost"])
            gen_seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
            pool.append((i, paths, cost.Q, gen_seed, ex_sys, ex_cost, workdir))
        return pool

    def label(self, item):
        return f"instance {item[0]}"

    def run_op(self, item, tick):
        i, paths, Qbar, gen_seed, ex_sys, ex_cost, workdir = item
        f = {k: os.path.join(workdir, f"{k}.{ext}") for k, ext in
             (("data", "csv"), ("report", "json"), ("est", "json"),
              ("traj", "csv"), ("ex_report", "json"), ("ex_est", "json"))}

        def cli(*argv):
            buf = textio.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = ioclqr.cli.main(list(argv))
            tick()
            if code != 0:
                raise CliFailure(f"ioclqr {argv[0]} exited {code}: {buf.getvalue().strip()}")

        cli("generate", "--system", paths["system"], "--cost", paths["cost"],
            "--horizon", str(self.N), "--episodes", str(self.M), "--seed", str(gen_seed),
            "--out", f["data"])
        cli("identify", "--system", paths["system"], "--bundle", f["data"], "--out", f["report"])
        cli("estimate", "--system", paths["system"], "--bundle", f["data"], "--mode", "exact",
            "--out", f["est"])
        cli("forward", "--system", ex_sys, "--cost", ex_cost, EXAMPLE_X0,
            "--horizon", str(EXAMPLE_N), "--out", f["traj"])
        cli("identify", "--system", ex_sys, "--bundle", f["traj"], "--out", f["ex_report"])
        cli("estimate", "--system", ex_sys, "--bundle", f["traj"], "--mode", "exact",
            "--out", f["ex_est"])

        def load(key):
            with open(f[key]) as fh:
                return json.load(fh)

        rep, est, ex_rep, ex_est = load("report"), load("est"), load("ex_report"), load("ex_est")
        Q = np.array(est["Q"])
        err = float(np.linalg.norm(Q - Qbar) / np.linalg.norm(Qbar))
        Qx = np.array(ex_est["Q"])
        ex_err = float(np.abs(Qx - np.array(EXAMPLE_Q)).max())
        rank_phi = (ex_rep.get("prop2") or {}).get("rank_Phi")
        out = Outcome(digest=[
            ["full_rank", i, rep["verdict"], rep["rank_AD"], rep["kernel_dim"], f"{err:.8f}",
             [f"{v:.8e}" for v in Q.flat]],
            ["example", ex_rep["verdict"], ex_rep["rank_AD"], rank_phi, f"{ex_err:.8f}",
             [f"{v:.8e}" for v in Qx.flat]],
        ])
        if rep["verdict"] != "unique_by_rank":
            out.problems.append(f"full-rank verdict {rep['verdict']}")
        if not err <= 1e-6:
            out.problems.append(f"full-rank relative error {err:.3e} > 1e-6")
        if ex_rep["verdict"] != "unique_by_dual":
            out.problems.append(f"worked-example verdict {ex_rep['verdict']}")
        if rank_phi != 2:
            out.problems.append(f"worked-example rank_Phi {rank_phi} != 2")
        if not ex_err <= 5e-5:
            out.problems.append(f"worked-example entrywise error {ex_err:.3e} > 5e-5")
        out.problems += [f"full rank: {p}" for p in check_estimate(Q, PHI)]
        return out

    def reference(self, pool, first):
        return {}

    def quality(self, first):
        return {}


def make(name, seed, seconds):
    if name == "noisy_fit":
        return NoisyTrials(seed, seconds, N=50, M=10, nominal_op_s=0.2)
    if name == "long_horizon":
        # a 2-iteration budget per fit keeps the work per op nearly fixed;
        # unbudgeted fits at N=400 take 2.5-25 s per trial, too few per run
        return NoisyTrials(seed, seconds, N=400, M=10, nominal_op_s=1.5, max_iters=2, dense_ops=True)
    if name == "exact_cli":
        return ExactCli(seed, seconds)
    raise KeyError(name)
