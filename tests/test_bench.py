"""Benchmark harness: discretization, instance sampling, sweep mechanics."""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

import ioclqr as io
from ioclqr import bench_harness as bh
from ioclqr import cli
from ioclqr.core_model import MIN_SNR_DB


def _taylor_expm(A, terms=50):
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


class TestDiscretize:
    def test_zero_dynamics(self):
        sys = bh.discretize(np.zeros((2, 2)), np.eye(2), dt=0.3)
        np.testing.assert_allclose(sys.A, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(sys.B, 0.3 * np.eye(2), atol=1e-15)

    def test_scalar_closed_form(self):
        a, dt = -0.7, 0.1
        sys = bh.discretize(np.array([[a]]), np.array([[2.0]]), dt)
        assert sys.A[0, 0] == pytest.approx(np.exp(a * dt), rel=1e-14)
        assert sys.B[0, 0] == pytest.approx((np.exp(a * dt) - 1.0) / a * 2.0, rel=1e-13)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = rng.integers(2, 4)
            A_hat = rng.standard_normal((n, n))
            A_hat -= (np.max(np.real(np.linalg.eigvals(A_hat))) + 0.5) * np.eye(n)
            B_hat = rng.standard_normal((n, 1))
            dt = 0.1
            sys = bh.discretize(A_hat, B_hat, dt)
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = A_hat
            aug[:n, n:] = B_hat
            E = _taylor_expm(aug * dt)
            np.testing.assert_allclose(sys.A, E[:n, :n], atol=1e-12)
            np.testing.assert_allclose(sys.B, E[:n, n:], atol=1e-12)

    def test_vector_b_reshaped(self):
        A_hat = np.array([[0.0, 1.0], [-0.5, -0.2]])
        sys = bh.discretize(A_hat, np.array([0.0, 1.0]), dt=0.2)
        assert sys.B.shape == (2, 1)


class TestSampleInstance:
    def test_deterministic(self):
        cfg = bh.BenchConfig(n_trials=1)
        s1, c1, _, _ = bh.sample_instance(cfg, 3)
        s2, c2, _, _ = bh.sample_instance(cfg, 3)
        np.testing.assert_array_equal(s1.A, s2.A)
        np.testing.assert_array_equal(s1.B, s2.B)
        np.testing.assert_array_equal(c1.Q, c2.Q)

    def test_trials_differ(self):
        cfg = bh.BenchConfig(n_trials=2)
        s1, c1, _, _ = bh.sample_instance(cfg, 0)
        s2, c2, _, _ = bh.sample_instance(cfg, 1)
        assert not np.array_equal(s1.A, s2.A)
        assert not np.array_equal(c1.Q, c2.Q)

    def test_cost_inside_ball_and_psd(self):
        cfg = bh.BenchConfig(n_trials=1, phi=5.0)
        for t in range(20):
            _, cost, _, _ = bh.sample_instance(cfg, t)
            assert float(np.sum(cost.Q**2)) <= 5.0
            assert np.linalg.eigvalsh(cost.Q)[0] >= -1e-12

    def test_rejection_budget(self):
        cfg = bh.BenchConfig(n_trials=1, phi=1e-9)
        with pytest.raises(io.RejectionBudgetExceeded):
            bh.sample_instance(cfg, 0)

    def test_fixed_system_passthrough(self):
        sys = bh.discretize(np.array([[0.0, 1.0], [-1.0, -0.4]]), [0.0, 1.0], 0.1)
        cfg = bh.BenchConfig(n_trials=1, system=sys)
        got, _, _, _ = bh.sample_instance(cfg, 5)
        assert got is sys

    def test_sampled_systems_rarely_invalid(self):
        # companion draws essentially always discretize to a valid system
        rng = np.random.default_rng(17)
        ok = 0
        for _ in range(1000):
            a1, a2 = rng.uniform(-3.0, 3.0, size=2)
            try:
                bh.discretize(np.array([[0.0, 1.0], [a1, a2]]), [0.0, 1.0], 0.1)
                ok += 1
            except io.InvalidSystem:
                pass
        assert ok >= 990


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    cfg = bh.BenchConfig(n_trials=2, N=20, M_grid=(5, 10), master_seed=7)
    out = tmp_path_factory.mktemp("bench")
    records, summary = bh.run_benchmark(cfg, out_dir=out, n_workers=1)
    return cfg, out, records, summary


class TestRunBenchmark:
    def test_outputs_exist(self, smoke_run):
        _, out, _, _ = smoke_run
        for name in ("trials.csv", "summary.csv", "timings.csv", "config.json"):
            assert (out / name).exists()

    def test_trials_schema(self, smoke_run):
        cfg, out, _, _ = smoke_run
        rows = _read_csv(out / "trials.csv")
        assert rows[0] == [
            "trial_id",
            "M",
            "method",
            "rel_error",
            "converged",
            "snr_x_realized",
            "snr_u_realized",
        ]
        assert len(rows) - 1 == cfg.n_trials * len(cfg.M_grid) * len(bh.METHODS)
        for row in rows[1:]:
            assert float(row[3]) >= 0.0
            assert row[4] in ("true", "false")
            # noise injection hits the requested SNR almost exactly
            assert abs(float(row[5]) - cfg.snr_db_x) < 0.1
            assert abs(float(row[6]) - cfg.snr_db_u) < 0.1

    def test_summary_matches_trials(self, smoke_run):
        cfg, out, _, summary = smoke_run
        rows = _read_csv(out / "trials.csv")[1:]
        for srow in summary:
            errs = [
                float(r[3])
                for r in rows
                if int(r[1]) == srow["M"] and r[2] == srow["method"]
                and np.isfinite(float(r[3]))
            ]
            assert srow["n_ok"] == len(errs)
            q25, med, q75 = np.percentile(errs, [25.0, 50.0, 75.0])
            assert srow["median"] == pytest.approx(med, rel=1e-12)
            assert srow["q25"] == pytest.approx(q25, rel=1e-12)
            assert srow["q75"] == pytest.approx(q75, rel=1e-12)
        sfile = _read_csv(out / "summary.csv")
        assert sfile[0] == [
            "M", "method", "median", "q25", "q75", "n_ok", "n_converged", "n_failed"
        ]
        assert len(sfile) - 1 == len(summary)

    def test_summary_counts_converged(self, smoke_run):
        _, out, _, summary = smoke_run
        rows = _read_csv(out / "trials.csv")[1:]
        sfile = _read_csv(out / "summary.csv")[1:]
        for srow, frow in zip(summary, sfile):
            want = sum(
                1 for r in rows
                if int(r[1]) == srow["M"] and r[2] == srow["method"] and r[4] == "true"
            )
            assert srow["n_converged"] == want
            assert int(frow[6]) == want

    def test_errors_recomputable_from_record(self, smoke_run):
        _, _, records, _ = smoke_run
        for rec in records:
            nrm = np.linalg.norm(rec.Q_bar)
            for cell in rec.results.values():
                if cell["failed"]:
                    continue
                err = np.linalg.norm(cell["Q_hat"] - rec.Q_bar) / nrm
                assert err == pytest.approx(cell["rel_error"], abs=1e-12)

    def test_cell_recomputable_from_seed(self, smoke_run):
        # rebuild trial 0's M=5 risk_x estimate from scratch; the M=5 data
        # must be the prefix of the M=10 bundle for errors to be comparable
        cfg, out, _, _ = smoke_run
        sys, cost, init_ss, noise_ss = bh.sample_instance(cfg, 0)
        exact = io.generate_bundle(sys, cost, cfg.N, max(cfg.M_grid), seed=init_ss)
        noisy = io.add_noise(exact, cfg.snr_db_x, cfg.snr_db_u, seed=noise_ss)
        sub = noisy.subset(5)
        for a, b in zip(sub.episodes, noisy.episodes[:5]):
            np.testing.assert_array_equal(a.x, b.x)
        res = io.estimate(
            io.RiskProblem(sys, sub, mode="state_obs", phi=cfg.phi, record_trace=False)
        )
        want = np.linalg.norm(res.Q_hat.Q - cost.Q) / np.linalg.norm(cost.Q)
        rows = _read_csv(out / "trials.csv")[1:]
        got = [
            float(r[3]) for r in rows if r[0] == "0" and r[1] == "5" and r[2] == "risk_x"
        ]
        assert got == [pytest.approx(want, abs=1e-12)]

    @pytest.mark.parametrize("method", bh.METHODS)
    def test_cell_is_bit_equal_to_the_cli_estimate(self, smoke_run, tmp_path, method):
        # a cell and `ioclqr estimate` on the same data, saved as a CSV, both
        # run bench_harness.fit
        cfg, _, records, _ = smoke_run
        sys, cost, init_ss, noise_ss = bh.sample_instance(cfg, 1)
        exact = io.generate_bundle(sys, cost, cfg.N, max(cfg.M_grid), seed=init_ss)
        noisy = io.add_noise(exact, cfg.snr_db_x, cfg.snr_db_u, seed=noise_ss)
        spath, bpath, out = tmp_path / "sys.json", tmp_path / "data.csv", tmp_path / "est.json"
        io.save_system(sys, spath)
        io.save_bundle(noisy.subset(5), bpath)
        assert cli.main(["estimate", "--system", str(spath), "--bundle", str(bpath), "--mode",
                         method.replace("_", "-"), "--phi", repr(cfg.phi), "--out", str(out)]) == 0
        Q = np.array(json.loads(out.read_text())["Q"])
        cell = records[1].results[(5, method)]["Q_hat"]
        assert np.array_equal(Q.view(np.uint64), cell.view(np.uint64))

    def test_fit_refuses_an_unknown_method(self):
        sys, cost, init_ss, _ = bh.sample_instance(bh.BenchConfig(), 0)
        bundle = io.generate_bundle(sys, cost, 6, 2, seed=init_ss)
        assert bh.fit(sys, bundle, "exact", 5.0).method == "exact"
        for method in ("risk-x", "residual_minimization", "Exact", ""):
            with pytest.raises(io.DimensionMismatch, match="method must be"):
                bh.fit(sys, bundle, method, 5.0)

    def test_rerun_byte_identical(self, smoke_run, tmp_path):
        cfg, out, _, _ = smoke_run
        bh.run_benchmark(cfg, out_dir=tmp_path, n_workers=1)
        for name in ("trials.csv", "summary.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_parallel_matches_serial(self, smoke_run, tmp_path):
        cfg, out, _, _ = smoke_run
        bh.run_benchmark(cfg, out_dir=tmp_path, n_workers=2)
        assert (tmp_path / "trials.csv").read_bytes() == (out / "trials.csv").read_bytes()

    def test_pool_never_exceeds_the_trials(self, smoke_run, tmp_path, monkeypatch):
        # a pool forks all max_workers processes at its first submit; this
        # in-process stand-in records the size it was asked for and starts none
        cfg, out, _, _ = smoke_run
        sizes = []

        class FakePool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(bh, "ProcessPoolExecutor", FakePool)
        bh.run_benchmark(cfg, out_dir=tmp_path, n_workers=64)
        assert sizes == [cfg.n_trials] == [2]
        assert (tmp_path / "trials.csv").read_bytes() == (out / "trials.csv").read_bytes()
        bh.run_benchmark(bh.BenchConfig(n_trials=1, N=6, M_grid=(3,)), n_workers=64)
        assert sizes == [2]  # one trial runs serially

    def test_pool_workers_keep_the_callers_error_state(self, monkeypatch):
        # spawn (macOS's default) and forkserver (Linux's from Python 3.14)
        # start workers under numpy's default error state; only fork copies it
        seen = []

        class SpawnPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, mp_context=get_context("spawn"), **kwargs)

            def map(self, fn, jobs):
                seen.append(self.submit(np.geterr).result(timeout=60))
                return super().map(fn, jobs)

        monkeypatch.setattr(bh, "ProcessPoolExecutor", SpawnPool)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            want = np.geterr()
            bh.run_benchmark(bh.BenchConfig(n_trials=2, N=6, M_grid=(3,)), n_workers=2)
        assert seen == [want]

    def test_noise_free_component_reads_infinite_snr(self, tmp_path):
        cfg = bh.BenchConfig.from_json({"n_trials": 1, "N": 6, "M_grid": [3], "snr_db_x": None})
        bh.run_benchmark(cfg, out_dir=tmp_path, n_workers=1)
        rows = _read_csv(tmp_path / "trials.csv")[1:]
        assert {r[5] for r in rows} == {"inf"}
        assert all(abs(float(r[6]) - cfg.snr_db_u) < 0.1 for r in rows)

    def test_timings_schema(self, smoke_run):
        cfg, out, _, _ = smoke_run
        rows = _read_csv(out / "timings.csv")
        assert rows[0] == ["trial_id", "M", "method", "wall_ms"]
        assert len(rows) - 1 == cfg.n_trials * len(cfg.M_grid) * len(bh.METHODS)
        assert all(float(r[3]) > 0 for r in rows[1:])

    def test_config_roundtrip(self, smoke_run):
        cfg, out, _, _ = smoke_run
        with open(out / "config.json") as fh:
            doc = json.load(fh)
        back = bh.BenchConfig.from_json(doc)
        assert back == cfg

    def test_config_roundtrip_fixed_system(self, tmp_path):
        sys, _, _, _ = bh.sample_instance(bh.BenchConfig(master_seed=5), 0)
        cfg = bh.BenchConfig(n_trials=1, N=6, M_grid=(3,), master_seed=5, system=sys)
        bh.run_benchmark(cfg, out_dir=tmp_path, n_workers=1)
        with open(tmp_path / "config.json") as fh:
            doc = json.load(fh)
        back = bh.BenchConfig.from_json(doc)
        assert back == cfg
        assert back.system is not sys
        assert back != bh.BenchConfig(n_trials=1, N=6, M_grid=(3,), master_seed=5)

    @pytest.mark.parametrize("doc", [{"n_trails": 100},
                                     {"N": 6, "system": {"A": [[0.5]], "B": [[1.0]], "C": 1}}],
                             ids=["field", "system"])
    def test_config_refuses_unknown_keys(self, doc):
        # a misspelt key was read as absent: "n_trails": 100 ran 30 trials
        with pytest.raises(io.ParseError, match="unknown keys"):
            bh.BenchConfig.from_json(doc)

    def test_config_records_environment(self, smoke_run, monkeypatch):
        import platform

        import scipy

        _, out, _, _ = smoke_run
        with open(out / "config.json") as fh:
            env = json.load(fh)["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "threads"}
        assert (env["python"], env["numpy"], env["scipy"]) == (
            platform.python_version(), np.__version__, scipy.__version__
        )
        assert set(env["blas"]) == {"name", "version"} and env["blas"]["name"]
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        threads = bh.numeric_environment()["threads"]
        assert threads["OMP_NUM_THREADS"] == "3" and "MKL_NUM_THREADS" not in threads


class TestFailureHandling:
    def test_estimator_exception_recorded(self, tmp_path, monkeypatch):
        def boom(prob):
            raise io.SolverNotConverged("stalled")

        monkeypatch.setattr(bh, "estimate", boom)
        cfg = bh.BenchConfig(n_trials=1, N=12, M_grid=(4,), master_seed=3)
        records, summary = bh.run_benchmark(cfg, out_dir=tmp_path, n_workers=1)
        rec = records[0]
        for method in ("risk_x", "risk_u"):
            cell = rec.results[(4, method)]
            assert cell["failed"]
            assert np.isnan(cell["rel_error"])
            assert "SolverNotConverged" in cell["error"]
        assert not rec.results[(4, "residual_min")]["failed"]
        rows = _read_csv(tmp_path / "trials.csv")[1:]
        nan_rows = [r for r in rows if r[3] == "nan"]
        assert len(nan_rows) == 2
        by_method = {s["method"]: s for s in summary}
        assert [by_method[m]["n_failed"] for m in bh.METHODS] == [1, 1, 0]
        assert _read_csv(tmp_path / "summary.csv")[1][7] == "1"
        assert by_method["risk_x"]["n_ok"] == 0
        assert np.isnan(by_method["risk_x"]["median"])
        assert by_method["residual_min"]["n_ok"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bh.BenchConfig(M_grid=())
        with pytest.raises(ValueError):
            bh.BenchConfig(dt=0.0)
        with pytest.raises(ValueError):
            bh.BenchConfig(phi=float("nan"))
        with pytest.raises(ValueError):
            bh.BenchConfig(master_seed=True)
        # M_grid entries are checked like the other integer fields, not truncated
        for grid in ((10.7, 20), ("10", True), (0, -3), (10, 10), (2.9,), "10"):
            with pytest.raises(ValueError):
                bh.BenchConfig(M_grid=grid)
        with pytest.raises(io.ParseError):
            bh.BenchConfig.from_json({"M_grid": [2.9]})
        assert bh.BenchConfig(M_grid=(np.int64(20), 10)).M_grid == (10, 20)
        # a null SNR leaves that component noise-free, as in add_noise
        assert bh.BenchConfig(snr_db_x=None).snr_db_x is None
        # add_noise's floor; below it the noise power overflows
        assert bh.BenchConfig(snr_db_u=MIN_SNR_DB).snr_db_u == MIN_SNR_DB
        for snr in ({"snr_db_x": -3000.5}, {"snr_db_u": -1e308}):
            with pytest.raises(ValueError, match="-3000 dB"):
                bh.BenchConfig(**snr)
