"""Command-line interface, exercised in process through main(argv)."""

import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

import ioclqr as io
from ioclqr import bench_harness, cli, errors


def _write_instance(tmp_path, sys, cost, tag="a"):
    spath = tmp_path / f"sys_{tag}.json"
    cpath = tmp_path / f"cost_{tag}.json"
    io.save_system(sys, spath)
    io.save_cost(cost, cpath)
    return str(spath), str(cpath)


@pytest.fixture()
def stable_instance(tmp_path):
    rng = np.random.default_rng(130)
    A = rng.standard_normal((2, 2))
    A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
    sys = io.LtiSystem(A, rng.standard_normal((2, 1)))
    G = rng.standard_normal((2, 2))
    Qbar = G @ G.T
    Qbar *= 0.8 / np.linalg.norm(Qbar)
    cost = io.CostMatrix(Qbar)
    spath, cpath = _write_instance(tmp_path, sys, cost)
    return sys, cost, spath, cpath


class TestForward:
    def test_matches_library_solve(self, stable_instance, tmp_path):
        sys, cost, spath, cpath = stable_instance
        out = str(tmp_path / "traj.csv")
        rc = cli.main(
            [
                "forward",
                "--system", spath,
                "--cost", cpath,
                "--x0", "1.0,-0.5",
                "--horizon", "12",
                "--out", out,
            ]
        )
        assert rc == 0
        bundle = io.load_bundle(out)
        assert bundle.N == 12 and bundle.M == 1 and bundle.kind == "exact"
        gains = io.solve_riccati(sys, cost, 12)
        ref = io.simulate(sys, gains, np.array([1.0, -0.5]))
        np.testing.assert_allclose(bundle.episodes[0].x, ref.x, atol=1e-12)
        np.testing.assert_allclose(bundle.episodes[0].u, ref.u, atol=1e-12)

    def test_zero_x0_gives_zero_trajectory(self, stable_instance, tmp_path):
        _, _, spath, cpath = stable_instance
        out = str(tmp_path / "zero.csv")
        rc = cli.main(
            ["forward", "--system", spath, "--cost", cpath, "--x0", "0,0", "--out", out]
        )
        assert rc == 0
        bundle = io.load_bundle(out)
        assert np.all(bundle.episodes[0].x == 0.0)
        assert np.all(bundle.episodes[0].u == 0.0)

    def test_example_episode(self, example_instance, tmp_path):
        spath, cpath = _write_instance(
            tmp_path, example_instance["sys"], example_instance["cost"], "ex"
        )
        out = str(tmp_path / "ex.csv")
        x0 = ",".join(str(v) for v in example_instance["x0"])
        rc = cli.main(
            ["forward", "--system", spath, "--cost", cpath, f"--x0={x0}",
             "--horizon", "15", "--out", out]
        )
        assert rc == 0
        bundle = io.load_bundle(out)
        ref = example_instance["bundle"].episodes[0]
        np.testing.assert_allclose(bundle.episodes[0].x, ref.x, rtol=1e-10)
        np.testing.assert_allclose(bundle.episodes[0].u, ref.u, rtol=1e-10)

    def test_example_episode_separate_negative_x0(self, example_instance, tmp_path):
        # "--x0 -25.0136,..." as two tokens: argparse alone reads the value
        # as an option string because it is not a plain negative number
        spath, cpath = _write_instance(
            tmp_path, example_instance["sys"], example_instance["cost"], "ex"
        )
        out = str(tmp_path / "ex.csv")
        x0 = ",".join(str(v) for v in example_instance["x0"])
        assert x0.startswith("-") and "," in x0
        rc = cli.main(
            ["forward", "--system", spath, "--cost", cpath, "--x0", x0,
             "--horizon", "15", "--out", out]
        )
        assert rc == 0
        bundle = io.load_bundle(out)
        ref = example_instance["bundle"].episodes[0]
        np.testing.assert_allclose(bundle.episodes[0].x, ref.x, rtol=1e-10)
        np.testing.assert_allclose(bundle.episodes[0].u, ref.u, rtol=1e-10)
        # the separate form is still validated
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["forward", "--system", spath, "--cost", cpath, "--x0", "-1,zz,0",
                 "--out", out]
            )
        assert exc.value.code == 2

    def test_x0_dimension_mismatch_exits_2(self, stable_instance, tmp_path):
        _, _, spath, cpath = stable_instance
        rc = cli.main(
            ["forward", "--system", spath, "--cost", cpath, "--x0", "1,2,3",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2

    def test_missing_system_file_exits_1(self, stable_instance, tmp_path):
        _, _, _, cpath = stable_instance
        rc = cli.main(
            ["forward", "--system", str(tmp_path / "nope.json"), "--cost", cpath,
             "--x0", "1,0", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1

    def test_malformed_x0_exits_2(self, stable_instance, tmp_path, capsys):
        _, _, spath, cpath = stable_instance
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["forward", "--system", spath, "--cost", cpath, "--x0", "1,zz",
                 "--out", str(tmp_path / "x.csv")]
            )
        assert exc.value.code == 2

    def test_empty_x0_exits_2(self, stable_instance, tmp_path, capsys):
        _, _, spath, cpath = stable_instance
        with pytest.raises(SystemExit) as exc:
            cli.main(["forward", "--system", spath, "--cost", cpath, "--x0", ",",
                      "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "x0 is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", ["nan,1", "inf,1"])
    def test_non_finite_x0_exits_2(self, stable_instance, tmp_path, capsys, x0):
        # exited 0 with a CSV that load_bundle refuses ("non-finite value")
        _, _, spath, cpath = stable_instance
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["forward", "--system", spath, "--cost", cpath, f"--x0={x0}",
                      "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "is not finite" in capsys.readouterr().err


class TestGenerate:
    def test_seed_determinism(self, stable_instance, tmp_path):
        _, _, spath, cpath = stable_instance
        args = ["generate", "--system", spath, "--cost", cpath, "--horizon", "10",
                "--episodes", "3", "--seed", "5", "--snr-x", "15", "--snr-u", "20"]
        out1, out2 = str(tmp_path / "d1.csv"), str(tmp_path / "d2.csv")
        assert cli.main(args + ["--out", out1]) == 0
        assert cli.main(args + ["--out", out2]) == 0
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    def test_snr_none_passthrough(self, stable_instance, tmp_path):
        sys, cost, spath, cpath = stable_instance
        out = str(tmp_path / "exact.csv")
        rc = cli.main(
            ["generate", "--system", spath, "--cost", cpath, "--horizon", "10",
             "--episodes", "2", "--seed", "3", "--out", out]
        )
        assert rc == 0
        bundle = io.load_bundle(out)
        assert bundle.kind == "exact"
        ref = io.generate_bundle(sys, cost, 10, 2, seed=3)
        np.testing.assert_allclose(bundle.episodes[0].u, ref.episodes[0].u, atol=1e-12)

    def test_realized_snr_near_nominal(self, stable_instance, tmp_path):
        sys, cost, spath, cpath = stable_instance
        out = str(tmp_path / "noisy.csv")
        rc = cli.main(
            ["generate", "--system", spath, "--cost", cpath, "--horizon", "20",
             "--episodes", "4", "--seed", "9", "--snr-x", "15", "--snr-u", "20",
             "--out", out]
        )
        assert rc == 0
        noisy = io.load_bundle(out)
        assert noisy.kind == "noisy_both"
        exact = io.generate_bundle(sys, cost, 20, 4, seed=9)
        for ep_n, ep_e in zip(noisy.episodes, exact.episodes):
            px = np.mean(ep_e.x[:, 1:] ** 2)
            ex = np.mean((ep_n.x[:, 1:] - ep_e.x[:, 1:]) ** 2)
            assert abs(10 * np.log10(px / ex) - 15.0) < 0.5
            pu = np.mean(ep_e.u**2)
            eu = np.mean((ep_n.u - ep_e.u) ** 2)
            assert abs(10 * np.log10(pu / eu) - 20.0) < 0.5


    @pytest.mark.parametrize("command", ["generate", "forward"])
    def test_cost_of_another_size_exits_2(self, stable_instance, tmp_path, command):
        _, _, spath, _ = stable_instance
        cpath = tmp_path / "cost3.json"
        io.save_cost(io.CostMatrix(np.eye(3)), cpath)
        out = tmp_path / "d.csv"
        argv = [command, "--system", spath, "--cost", str(cpath), "--out", str(out)]
        if command == "forward":
            argv += ["--x0", "1,0"]
        assert cli.main(argv) == 2 and not out.exists()

    def test_forward_reproduces_generated_episode(self, stable_instance, tmp_path):
        # forward and generate share one route: from a generated episode's
        # x_1, forward writes that episode again, bit for bit
        _, _, spath, cpath = stable_instance
        data, traj = str(tmp_path / "d.csv"), str(tmp_path / "t.csv")
        assert cli.main(["generate", "--system", spath, "--cost", cpath, "--horizon", "30",
                         "--episodes", "3", "--seed", "4", "--out", data]) == 0
        ep = io.load_bundle(data).episodes[2]
        x0 = ",".join(repr(float(v)) for v in ep.x[:, 0])
        assert cli.main(["forward", "--system", spath, "--cost", cpath, f"--x0={x0}",
                         "--horizon", "30", "--out", traj]) == 0
        got = io.load_bundle(traj).episodes[0]
        np.testing.assert_array_equal(got.x, ep.x)
        np.testing.assert_array_equal(got.u, ep.u)

    @pytest.mark.parametrize(
        "kind,edit,code",
        [("system", lambda d: d["A"][0].__setitem__(0, float("nan")), 2),
         # NaN off the diagonal passed the PSD gate; generate then exited 3
         ("cost", lambda d: d.update(Q=[[0.5, float("nan")], [float("nan"), 0.5]]), 2),
         # an indefinite Q behind a NaN tolerance used to generate data
         ("cost", lambda d: d.update(Q=[[1.0, 0.0], [0.0, -0.5]], psd_tol=float("nan")), 2),
         ("cost", lambda d: d.update(phi=float("nan")), 2),
         ("system", lambda d: d.update(n=float("inf")), 1),
         ("cost", lambda d: d.update(n=float("inf")), 1)],
        ids=["nan_in_A", "nan_in_Q", "nan_psd_tol", "nan_phi",
             "huge_system_n", "huge_cost_n"],
    )
    def test_bad_json_value_exits(self, stable_instance, tmp_path, capsys, kind, edit, code):
        # json writes inf as Infinity, which it reads back as 1e3082 would be
        _, _, spath, cpath = stable_instance
        path = spath if kind == "system" else cpath
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = tmp_path / "d.csv"
        rc = cli.main(["generate", "--system", spath, "--cost", cpath, "--out", str(out)])
        assert rc == code and not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag,value", [("--snr-x", "abc"), ("--snr-u", "nan")])
    def test_bad_snr_exits_2(self, stable_instance, tmp_path, flag, value):
        _, _, spath, cpath = stable_instance
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--system", spath, "--cost", cpath, flag, value,
                      "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2


class TestIdentify:
    def test_rich_bundle_unique_by_rank(self, rich_instance, tmp_path):
        spath, _ = _write_instance(
            tmp_path, rich_instance["sys"], rich_instance["cost"], "rich"
        )
        bpath = str(tmp_path / "rich.csv")
        io.save_bundle(rich_instance["bundle"], bpath)
        out = str(tmp_path / "report.json")
        rc = cli.main(["identify", "--system", spath, "--bundle", bpath, "--out", out])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["verdict"] == "unique_by_rank"
        assert set(doc) == {"rank_AD", "verdict", "kernel_dim", "prop2"}

    def test_example_unique_by_dual(self, example_instance, tmp_path):
        spath, _ = _write_instance(
            tmp_path, example_instance["sys"], example_instance["cost"], "ex"
        )
        bpath = str(tmp_path / "ex.csv")
        io.save_bundle(example_instance["bundle"], bpath)
        out = str(tmp_path / "report.json")
        rc = cli.main(["identify", "--system", spath, "--bundle", bpath, "--out", out])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["verdict"] == "unique_by_dual"
        assert doc["kernel_dim"] == 1
        assert doc["prop2"]["rank_Phi"] == 2
        assert doc["prop2"]["intersection_trivial"] is True

    def test_tiny_bundle_not_determined(self, tmp_path):
        rng = np.random.default_rng(40)
        A = rng.standard_normal((3, 3))
        A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
        sys = io.LtiSystem(A, rng.standard_normal((3, 1)))
        G = rng.standard_normal((3, 3))
        Qbar = G @ G.T
        Qbar *= 0.8 / np.linalg.norm(Qbar)
        spath, _ = _write_instance(tmp_path, sys, io.CostMatrix(Qbar), "tiny")
        bpath = str(tmp_path / "tiny.csv")
        io.save_bundle(io.generate_bundle(sys, Qbar, N=4, M=1, seed=2), bpath)
        out = str(tmp_path / "report.json")
        rc = cli.main(["identify", "--system", spath, "--bundle", bpath, "--out", out])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["verdict"] == "not_determined"

    @pytest.mark.parametrize(
        "rows",
        ["1,1,0.5,0.1,0.2,9\n1,2,0.4,0.3,\n",  # a field past the header
         "1,1,0.5,0.1,0.2\n1,1,0.5,0.1,0.2\n1,2,0.4,0.3,\n",  # repeated step
         "1,1,0.5,inf,0.2\n1,2,0.4,0.3,\n"],
        ids=["field_count", "duplicate_step", "non_finite"],
    )
    def test_malformed_bundle_exits_1(self, stable_instance, tmp_path, rows, capsys):
        _, _, spath, _ = stable_instance
        bad = tmp_path / "bad.csv"
        bad.write_text("episode,t,x1,x2,u1\n" + rows)
        rc = cli.main(["identify", "--system", spath, "--bundle", str(bad),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "bad.csv" in capsys.readouterr().err


class TestEstimate:
    @pytest.fixture()
    def dataset(self, stable_instance, tmp_path):
        sys, cost, spath, cpath = stable_instance
        bundle = io.generate_bundle(sys, cost, 10, 3, seed=13)
        bpath = str(tmp_path / "data.csv")
        io.save_bundle(bundle, bpath)
        return sys, cost, spath, bpath

    def test_exact_mode_recovers_truth(self, dataset, tmp_path):
        sys, cost, spath, bpath = dataset
        out = str(tmp_path / "est.json")
        rc = cli.main(
            ["estimate", "--system", spath, "--bundle", bpath, "--mode", "exact",
             "--out", out]
        )
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        Q = np.array(doc["Q"])
        assert np.linalg.norm(Q - cost.Q) / np.linalg.norm(cost.Q) < 1e-6
        assert doc["method"] == "exact"
        assert doc["config"]["N"] == 10 and doc["config"]["M"] == 3
        assert doc["constraint_activity"]["ball_margin"] == doc["config"]["phi"] - np.sum(Q * Q)
        # the same result type as the fits
        orx = str(tmp_path / "rx.json")
        assert cli.main(["estimate", "--system", spath, "--bundle", bpath,
                         "--mode", "risk-x", "--out", orx]) == 0
        with open(orx) as fh:
            rx = json.load(fh)
        assert set(doc) == set(rx)
        assert set(doc["constraint_activity"]) == set(rx["constraint_activity"])

    def test_risk_x_matches_exact_mode(self, dataset, tmp_path):
        _, _, spath, bpath = dataset
        oe, orx = str(tmp_path / "e.json"), str(tmp_path / "rx.json")
        assert cli.main(["estimate", "--system", spath, "--bundle", bpath,
                         "--mode", "exact", "--out", oe]) == 0
        assert cli.main(["estimate", "--system", spath, "--bundle", bpath,
                         "--mode", "risk-x", "--out", orx]) == 0
        with open(oe) as fh:
            Qe = np.array(json.load(fh)["Q"])
        with open(orx) as fh:
            doc = json.load(fh)
        assert np.linalg.norm(np.array(doc["Q"]) - Qe) < 1e-6
        assert doc["method"] == "risk_x"
        assert doc["config"]["mode"] == "state_obs"

    def test_residual_min_runs(self, dataset, tmp_path):
        _, cost, spath, bpath = dataset
        out = str(tmp_path / "rm.json")
        rc = cli.main(
            ["estimate", "--system", spath, "--bundle", bpath,
             "--mode", "residual-min", "--out", out]
        )
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["method"] == "residual_minimization"
        Q = np.array(doc["Q"])
        assert np.linalg.norm(Q - cost.Q) / np.linalg.norm(cost.Q) < 1e-4

    def test_bad_mode_exits_2(self, dataset, tmp_path):
        _, _, spath, bpath = dataset
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--system", spath, "--bundle", bpath,
                      "--mode", "magic", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_corrupt_bundle_exits_1(self, dataset, tmp_path):
        _, _, spath, _ = dataset
        bad = tmp_path / "bad.csv"
        bad.write_text("episode,t,x1\n0,1,not-a-number\n")
        rc = cli.main(["estimate", "--system", spath, "--bundle", str(bad),
                       "--mode", "exact", "--out", str(tmp_path / "x.json")])
        assert rc == 1

    @pytest.mark.parametrize("mode", ["exact", "risk-x", "risk-u", "residual-min"])
    @pytest.mark.parametrize("phi", ["nan", "1e300", "inf"])
    def test_bad_phi_exits_2(self, dataset, tmp_path, capsys, mode, phi):
        # nan raised TypeError and 1e300 OverflowError; inf wrote "phi":
        # Infinity (residual-min) or stalled the risk fits
        _, _, spath, bpath = dataset
        out = tmp_path / "x.json"
        rc = cli.main(["estimate", "--system", spath, "--bundle", bpath, "--mode", mode,
                       "--phi", phi, "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "phi" in capsys.readouterr().err

    def test_solver_failure_exits_3(self, dataset, tmp_path, monkeypatch, capsys):
        _, _, spath, bpath = dataset
        real = bench_harness.estimate

        def stalled(prob):
            return dataclasses.replace(real(prob), status="step_budget")

        monkeypatch.setattr(bench_harness, "estimate", stalled)
        rc = cli.main(["estimate", "--system", spath, "--bundle", bpath,
                       "--mode", "risk-x", "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "step_budget" in capsys.readouterr().err


class TestBench:
    def test_smoke_and_determinism(self, tmp_path):
        cfg = {"n_trials": 1, "N": 12, "M_grid": [4], "master_seed": 3}
        cpath = tmp_path / "bench.json"
        cpath.write_text(json.dumps(cfg))
        d1, d2 = tmp_path / "out1", tmp_path / "out2"
        for d in (d1, d2):
            rc = cli.main(["bench", "--config", str(cpath), "--out-dir", str(d),
                           "--workers", "1"])
            assert rc == 0
        for name in ("trials.csv", "summary.csv", "timings.csv", "config.json"):
            assert (d1 / name).exists()
        assert (d1 / "trials.csv").read_bytes() == (d2 / "trials.csv").read_bytes()

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cpath = tmp_path / "bad.json"
        cpath.write_text("{not json")
        rc = cli.main(["bench", "--config", str(cpath), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert str(cpath) in capsys.readouterr().err

    def test_binary_config_exits_1(self, tmp_path, capsys):
        cpath = tmp_path / "bin.json"
        cpath.write_bytes(b"\xff\xfe\x00\x81{")
        rc = cli.main(["bench", "--config", str(cpath), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert str(cpath) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], {"M_grid": []}, {"dt": 0}, {"system": {"B": [[0.0], [1.0]]}},
         {"n_trials": "x", "N": 12, "M_grid": [4]}, {"n_trials": 0, "N": 12, "M_grid": [4]},
         {"n_trials": 1, "N": 2, "M_grid": [4]},
         {"n_trials": 1, "N": 12, "M_grid": [4], "phi": "x"},
         {"n_trials": 1, "N": 12, "M_grid": [4], "phi": -1},
         {"n_trials": 1, "N": 12, "M_grid": [4], "phi": 1e300},
         {"n_trials": 1, "N": 12, "M_grid": [4], "snr_db_x": "x"},
         {"n_trials": 1, "N": 12, "M_grid": [4], "master_seed": -1}],
        ids=["list", "empty_M_grid", "zero_dt", "system_without_A", "string_n_trials",
             "zero_trials", "horizon_2", "string_phi", "negative_phi", "huge_phi", "string_snr",
             "negative_seed"],
    )
    def test_wrong_shape_config_exits_1(self, tmp_path, capsys, doc):
        cpath = tmp_path / "shape.json"
        cpath.write_text(json.dumps(doc))
        rc = cli.main(["bench", "--config", str(cpath), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cpath}: ")

    @pytest.mark.parametrize("workers", ["-1", "cpu+1", "x"])
    def test_workers_outside_range_exits_2(self, capsys, workers):
        # only parses: a pool forks all max_workers processes at its first submit
        most = os.cpu_count() or 1
        workers = str(most + 1) if workers == "cpu+1" else workers
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["bench", "--out-dir", "o", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_range_ends_parse(self):
        most = os.cpu_count() or 1
        for workers in (0, most):
            args = cli.build_parser().parse_args(["bench", "--out-dir", "o", f"--workers={workers}"])
            assert args.workers == workers


def _error_classes():
    return [c for _, c in inspect.getmembers(errors, inspect.isclass)
            if issubclass(c, errors.IocError) and c is not errors.IocError]


class TestNumericEdges:
    """Inputs the seeded mutation test (test_fuzz_inputs.py) found escaping
    as tracebacks or numpy warnings."""

    def test_negative_seed_is_refused(self, stable_instance, tmp_path):
        # SeedSequence raised ValueError
        _, _, spath, cpath = stable_instance
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--system", spath, "--cost", cpath, "--seed=-1",
                      "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2

    def test_snr_whose_noise_power_overflows_exits_2(self, stable_instance, tmp_path, capsys):
        # 10 ** (1e308 / 10) raised OverflowError
        _, _, spath, cpath = stable_instance
        out = tmp_path / "d.csv"
        rc = cli.main(["generate", "--system", spath, "--cost", cpath, "--snr-x=-1e308",
                       "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_phi_too_small_for_the_barrier_exits_2(self, stable_instance, tmp_path, capsys):
        # the barrier's 4 / slack^2 raised ZeroDivisionError at phi = 1e-300
        sys, cost, spath, _ = stable_instance
        bpath = str(tmp_path / "d.csv")
        io.save_bundle(io.generate_bundle(sys, cost, 8, 2, seed=0), bpath)
        rc = cli.main(["estimate", "--system", spath, "--bundle", bpath, "--mode", "risk-x",
                       "--phi=1e-300", "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: phi must exceed")

    def test_system_entry_with_overflowing_square_exits_2(self, tmp_path, capsys):
        # B B' overflowed with a warning in the forward solve
        spath, cpath = tmp_path / "s.json", tmp_path / "c.json"
        spath.write_text(json.dumps({"n": 2, "m": 1, "A": [[0.9, 0.2], [-0.1, 0.8]],
                                     "B": [[1e198], [1.0]]}))
        cpath.write_text(json.dumps({"n": 2, "Q": [[1.0, 0.0], [0.0, 0.5]]}))
        rc = cli.main(["forward", "--system", str(spath), "--cost", str(cpath), "--x0=1,2",
                       "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: A and B must have finite entries")

    def test_overflow_in_a_fit_is_a_numerical_failure(self, stable_instance, tmp_path, capsys):
        # a 1e200 observation overflowed the baseline's quadratic with warnings
        sys, cost, spath, _ = stable_instance
        b = io.add_noise(io.generate_bundle(sys, cost, 8, 2, seed=0), 20.0, None, seed=1)
        X = b.X.copy()
        X[0, 0, 3] = 1e200
        bpath = str(tmp_path / "d.csv")
        io.save_bundle(io.TrajectoryBundle(X, b.U, b.kind, 20.0, None), bpath)
        rc = cli.main(["estimate", "--system", spath, "--bundle", bpath,
                       "--mode", "residual-min", "--out", str(tmp_path / "e.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: numerical failure: overflow")

    @pytest.mark.parametrize("command", [["identify"], ["estimate", "--mode", "exact"]],
                             ids=["identify", "exact"])
    def test_numerical_failure_names_the_inputs(self, stable_instance, tmp_path, capsys, command):
        # a 1e200 input in an exact CSV overflowed in a dot product, and the
        # message named no file
        sys, cost, spath, _ = stable_instance
        b = io.generate_bundle(sys, cost, 8, 2, seed=0)
        U = b.U.copy()
        U[0, 0, 2] = 1e200
        bpath = str(tmp_path / "d.csv")
        io.save_bundle(io.TrajectoryBundle(b.X, U), bpath)
        argv = [*command, "--system", spath, "--bundle", bpath, "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert f"(inputs: {spath}, {bpath})" in err

    def test_fits_data_whose_size_is_near_the_float_maximum(self, tmp_path, capsys):
        # data_scale / M = 1.7e308 > 2^1023: the fit's unit, the power of two
        # above it, would overflow; it stops at 2^1023. The risk fits' polish
        # step landed far outside the ball, whose test squared it (exit 3)
        sys_ = io.LtiSystem([[0.9, 0.2], [-0.1, 0.8]], [[0.0], [1.0]])
        exact = io.generate_bundle(sys_, io.CostMatrix([[1.0, 0.2], [0.2, 0.5]]), 8, 1, seed=0)
        b = io.add_noise(exact, 20.0, 25.0, seed=1)
        X = b.X.copy()
        X[0, 0, 3] = 1.3e154
        spath, bpath = tmp_path / "s.json", tmp_path / "d.csv"
        io.save_system(sys_, spath)
        io.save_bundle(io.TrajectoryBundle(X, b.U, b.kind, 20.0, 25.0), bpath)
        for mode in ("risk-x", "risk-u", "residual-min"):
            out = tmp_path / f"{mode}.json"
            rc = cli.main(["estimate", "--system", str(spath), "--bundle", str(bpath),
                           "--mode", mode, "--out", str(out)])
            assert rc == 0 and out.exists(), (mode, capsys.readouterr().err)

    @pytest.mark.parametrize("value", [1e100, 1e150])
    def test_residual_min_fits_where_the_risk_fits_do(self, tmp_path, capsys, value):
        # the zero-information test's norm squared W's entries and overflowed
        # (exit 3) on the n=2 system of test_fuzz_inputs.py
        sys_ = io.LtiSystem([[0.9, 0.2], [-0.1, 0.8]], [[0.0], [1.0]])
        exact = io.generate_bundle(sys_, io.CostMatrix([[1.0, 0.2], [0.2, 0.5]]), 8, 3, seed=0)
        b = io.add_noise(exact, 20.0, 25.0, seed=1)
        X = b.X.copy()
        X[1, 0, 3] = value
        spath, bpath = tmp_path / "s.json", tmp_path / "d.csv"
        io.save_system(sys_, spath)
        io.save_bundle(io.TrajectoryBundle(X, b.U, b.kind, 20.0, 25.0), bpath)
        for mode in ("risk-x", "risk-u", "residual-min"):
            out = tmp_path / f"{mode}.json"
            rc = cli.main(["estimate", "--system", str(spath), "--bundle", str(bpath),
                           "--mode", mode, "--out", str(out)])
            assert rc == 0 and out.exists(), (mode, capsys.readouterr().err)


class TestExitCodes:
    def test_every_error_has_one_base(self):
        bases = (io.ParseError, io.ValidationError, io.SolverError)
        assert [io.ParseError.exit_code, io.ValidationError.exit_code,
                io.SolverError.exit_code] == [1, 2, 3]
        classes = _error_classes()
        assert len(classes) >= 17  # the three bases and the 14 errors under them
        for cls in classes:
            assert sum(issubclass(cls, b) for b in bases) == 1, cls.__name__

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_main_returns_exit_code(self, cls, monkeypatch, tmp_path):
        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_identify", fail)
        rc = cli.main(["identify", "--system", "s.json", "--bundle", "b.csv",
                       "--out", str(tmp_path / "r.json")])
        assert rc == cls.exit_code


class TestHelp:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ("forward", "generate", "identify", "estimate", "bench"):
            assert name in text
