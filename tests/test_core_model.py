import csv
import json
import tracemalloc
from io import StringIO

import numpy as np
import pytest

import ioclqr as io
from ioclqr.core_model import (
    KINDS, TrajectoryBundle, ball_radius_ok, duplication_map, unvech, vec, vech,
)


def test_vec_is_column_major():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(M), [1.0, 3.0, 2.0, 4.0])


def test_vec_kron_identity():
    # vec(A X B) = (B' ⊗ A) vec(X) pins down the stacking order
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4))
    X = rng.standard_normal((4, 2))
    B = rng.standard_normal((2, 5))
    lhs = vec(A @ X @ B)
    rhs = np.kron(B.T, A) @ vec(X)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_vech_order_and_roundtrip():
    S = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert np.array_equal(vech(S), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(unvech(vech(S), 3), S)
    # n can be inferred from the length
    assert np.array_equal(unvech(vech(S)), S)


def test_vech_rejects_asymmetric():
    with pytest.raises(io.AsymmetricInput):
        vech(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_vech_and_unvech_reject_wrong_shapes():
    with pytest.raises(io.DimensionMismatch):
        vech(np.ones((2, 3)))
    with pytest.raises(io.DimensionMismatch):
        unvech(np.ones(4))  # not n(n+1)/2 for any n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_duplication_matrix_against_vec(n):
    rng = np.random.default_rng(n)
    D = duplication_map(n)
    assert D.shape == (n * n, n * (n + 1) // 2)
    assert set(np.unique(D)) <= {0.0, 1.0}
    for _ in range(5):
        G = rng.standard_normal((n, n))
        S = G + G.T
        assert np.allclose(D @ vech(S), vec(S), rtol=0, atol=1e-14)


def test_duplication_map_object():
    D = duplication_map(3)
    assert np.array_equal(D, duplication_map(3))
    with pytest.raises(ValueError):
        D[0, 0] = 7.0  # read-only


class TestLtiSystem:
    def test_valid(self):
        sys = io.LtiSystem(np.array([[0.9, 0.2], [-0.1, 0.95]]), np.array([[0.0], [1.0]]))
        assert sys.n == 2 and sys.m == 1
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0

    def test_singular_A(self):
        with pytest.raises(io.InvalidSystem) as exc:
            io.LtiSystem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[0.0], [1.0]]))
        assert exc.value.flag == "not_invertible"

    def test_rank_deficient_B(self):
        with pytest.raises(io.InvalidSystem) as exc:
            io.LtiSystem(np.eye(2) * 0.9, np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert exc.value.flag == "rank_deficient_B"

    def test_uncontrollable(self):
        with pytest.raises(io.InvalidSystem) as exc:
            io.LtiSystem(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))
        assert exc.value.flag == "uncontrollable"

    def test_vector_B_promoted(self):
        sys = io.LtiSystem(np.array([[0.0, 1.0], [0.3, 0.1]]), np.array([0.0, 1.0]))
        assert sys.B.shape == (2, 1)

    def test_shapes_checked(self):
        with pytest.raises(io.DimensionMismatch):
            io.LtiSystem(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(io.DimensionMismatch):
            io.LtiSystem(np.eye(2), np.ones((3, 1)))

    @pytest.mark.parametrize("where", ["A", "B"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, where, value):
        # checked before any LAPACK call, which raised LinAlgError or read
        # an inf as not_invertible or rank_deficient_B
        A, B = np.array([[0.0, 1.0], [0.3, 0.1]]), np.array([[0.0], [1.0]])
        (A if where == "A" else B)[0, 0] = value
        with pytest.raises(io.InvalidSystem) as exc:
            io.LtiSystem(A, B)
        assert exc.value.flag == "non_finite"

    def test_rejects_overflowing_controllability_matrix(self):
        # A^2 B overflows: numpy warned "overflow encountered in matmul"
        # while the controllability matrix was built
        with pytest.raises(io.InvalidSystem) as exc:
            io.LtiSystem(np.diag([1e200, 2e200, 3e200]), np.ones((3, 1)))
        assert exc.value.flag == "non_finite"


class TestCostMatrix:
    def test_roundtrip_and_symmetry(self):
        Q = np.array([[1.5, 0.5], [0.5, 1.0]])
        c = io.CostMatrix(Q)
        assert np.allclose(c.Q, Q, atol=1e-15)
        assert c.n == 2
        assert len(c.vh) == 3

    def test_rejects_indefinite(self):
        with pytest.raises(io.PsdViolation):
            io.CostMatrix(np.diag([1.0, -0.5]))

    def test_rejects_asymmetric(self):
        with pytest.raises(io.AsymmetricInput):
            io.CostMatrix(np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_ball_bound(self):
        with pytest.raises(io.InvalidCost):
            io.CostMatrix(np.eye(3) * 2.0, phi=5.0)  # ||Q||_F^2 = 12 > 5
        io.CostMatrix(np.eye(3) * 1.29, phi=5.0)  # 4.99 is fine

    def test_psd_tol_override(self):
        Q = np.diag([1.0, -1e-5])
        with pytest.raises(io.PsdViolation):
            io.CostMatrix(Q)
        c = io.CostMatrix(Q, psd_tol=1e-4)
        assert c.Q[1, 1] == -1e-5

    @pytest.mark.parametrize("psd_tol", [np.nan, -1.0, np.inf])
    def test_rejects_bad_psd_tol(self, psd_tol):
        # a NaN tolerance used to pass an indefinite Q through the PSD gate
        for Q in (np.diag([1.0, 1.0, -0.5]), 0.5 * np.eye(3)):
            with pytest.raises(io.InvalidCost):
                io.CostMatrix(Q, psd_tol=psd_tol)

    @pytest.mark.parametrize("phi", [0.0, -1.0, np.nan, np.inf, 1e300])
    def test_rejects_bad_phi(self, phi):
        with pytest.raises(io.InvalidCost):
            io.CostMatrix(0.5 * np.eye(2), phi=phi)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        Q = 0.5 * np.eye(3)
        Q[1, 1] = value
        with pytest.raises(io.InvalidCost):
            io.CostMatrix(Q)

    @pytest.mark.parametrize("value", [1.5e154, 1e200, 1e308])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_huge_entries_before_squaring_them(self, value, where):
        # the symmetry tolerance's norm overflowed with a numpy warning
        Q = 0.5 * np.eye(2)
        Q[where], Q[where[::-1]] = value, value
        with pytest.raises(io.InvalidCost):
            io.CostMatrix(Q)


def test_ball_radius_rule():
    # positive with a finite square: the barrier squares phi - ||y||^2
    assert ball_radius_ok(5.0) and ball_radius_ok(1e150) and ball_radius_ok(np.float64(1e-300))
    for phi in (0.0, -1.0, np.nan, np.inf, 1e300, np.float64(1e300)):
        assert not ball_radius_ok(phi)


class TestBundle:
    def test_shapes_and_subset(self, rich_instance):
        b = rich_instance["bundle"]
        assert b.M == 4 and b.N == 9 and b.n == 2 and b.m == 1
        assert b.initial_states().shape == (2, 4)
        sub = b.subset(2)
        assert sub.M == 2
        assert np.shares_memory(sub.X, b.X) and np.array_equal(sub.X, b.X[:2])
        assert np.shares_memory(sub.U, b.U) and np.array_equal(sub.U, b.U[:2])
        with pytest.raises(io.DimensionMismatch):
            b.subset(9)

    def test_stacked_arrays(self, rich_instance):
        b = rich_instance["bundle"]
        assert b.X.shape == (4, 2, 9) and b.U.shape == (4, 1, 8)
        for i, ep in enumerate(b.episodes):
            assert np.shares_memory(ep.x, b.X) and np.array_equal(ep.x, b.X[i])
            assert np.shares_memory(ep.u, b.U) and np.array_equal(ep.u, b.U[i])
        X, U = np.array(b.X), np.array(b.U)
        b2 = io.TrajectoryBundle(X, U, "noisy_state", 10.0, None)
        assert (b2.M, b2.n, b2.N, b2.m, b2.kind) == (4, 2, 9, 1, "noisy_state")
        assert b2.X is X and not X.flags.writeable and not b2.episodes[0].x.flags.writeable
        for bad in ((X[0], U), (X, U[:, :, 1:]), (X, U[:3]), (X[:0], U[:0])):
            with pytest.raises(io.DimensionMismatch):
                io.TrajectoryBundle(*bad)
        with pytest.raises(io.DimensionMismatch):
            io.TrajectoryBundle(np.array(b.X), np.array(b.U), "sorta_noisy")

    def test_non_finite_entries_refused(self, rich_instance):
        b, sys = rich_instance["bundle"], rich_instance["sys"]
        for bad, where in ((np.nan, "X"), (np.inf, "X"), (-np.inf, "U")):
            X, U = np.array(b.X), np.array(b.U)
            {"X": X, "U": U}[where][1, 0, 3] = bad
            with pytest.raises(io.DimensionMismatch, match="finite"):
                io.TrajectoryBundle(X, U)
        # a library caller's non-finite initial state stops at the bundle,
        # before save_bundle can write a file that load_bundle refuses
        with pytest.raises(io.DimensionMismatch, match="finite"):
            io.generate_bundle(sys, rich_instance["cost"], N=8, M=2,
                               init_sampler=lambda rng: np.array([np.nan, 1.0]))

    def test_check_dynamics(self, rich_instance):
        b, sys = rich_instance["bundle"], rich_instance["sys"]
        b.check_dynamics(sys)
        ep = b.episodes[0]
        broken = io.TrajectoryBundle((ep.x + 0.01)[None], ep.u[None], "exact")
        with pytest.raises(io.DimensionMismatch):
            broken.check_dynamics(sys)

    def test_kind_validation(self, rich_instance):
        ep = rich_instance["bundle"].episodes[0]
        with pytest.raises(io.DimensionMismatch):
            io.TrajectoryBundle(ep.x[None], ep.u[None], "sorta_noisy")


class TestStorage:
    def test_system_roundtrip(self, tmp_path, rich_instance):
        path = tmp_path / "sys.json"
        io.save_system(rich_instance["sys"], path)
        sys2 = io.load_system(path)
        assert np.array_equal(sys2.A, rich_instance["sys"].A)
        assert np.array_equal(sys2.B, rich_instance["sys"].B)

    def test_cost_roundtrip(self, tmp_path):
        path = tmp_path / "cost.json"
        Q = np.array([[1.0 / 3.0, 0.1], [0.1, 2.0 / 7.0]])
        io.save_cost(io.CostMatrix(Q, phi=4.0), path)
        c2 = io.load_cost(path)
        assert np.array_equal(c2.Q, Q)  # 17 significant digits survive
        assert c2.phi == 4.0
        with open(path) as fh:
            assert set(json.load(fh)) == {"n", "phi", "Q"}

    def test_cost_roundtrip_loose_psd_tol(self, tmp_path):
        # matrices known to a few decimals can dip slightly below the cone;
        # the widened tolerance has to survive save/load
        path = tmp_path / "cost.json"
        Q = np.array([[1e-2, 0.0], [0.0, -1e-5]])
        io.save_cost(io.CostMatrix(Q, psd_tol=1e-4), path)
        c2 = io.load_cost(path)
        assert c2.psd_tol == 1e-4
        with open(path) as fh:
            doc = json.load(fh)
        del doc["psd_tol"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(io.PsdViolation):
            io.load_cost(path)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(io.ParseError):
            io.load_system(p)
        with pytest.raises(io.ParseError):
            io.load_cost(p)

    def test_dim_mismatch_in_file(self, tmp_path):
        p = tmp_path / "sys.json"
        p.write_text(json.dumps({"n": 3, "m": 1, "A": [[1.0]], "B": [[1.0]]}))
        with pytest.raises(io.ParseError):
            io.load_system(p)
        p.write_text(json.dumps({"n": 2, "phi": 5.0, "Q": [[1.0]]}))
        with pytest.raises(io.ParseError):
            io.load_cost(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"n": 1, "m": 1, "A": [[0.5]]}))
        with pytest.raises(io.ParseError):
            io.load_system(p)
        p.write_text(json.dumps({"n": 1, "phi": 5.0}))
        with pytest.raises(io.ParseError):
            io.load_cost(p)

    @pytest.mark.parametrize("load,doc", [
        (io.load_system, {"n": 1, "m": 1, "A": [[0.5]], "B": [[1.0]], "b": [[2.0]]}),
        (io.load_cost, {"n": 1, "phy": 0.5, "Q": [[1.0]]}),
        (io.load_cost, {"n": 1, "Q": [[1.0]], "psd_tol": 0.0, "psdtol": 1.0}),
    ], ids=["system", "cost_phi", "cost_psd_tol"])
    def test_unknown_key_is_refused(self, tmp_path, load, doc):
        # a misspelt key was read as absent: "phy": 0.5 ran with phi = 5
        p = tmp_path / "x.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(io.ParseError, match=r"x.json: unknown keys \['(b|phy|psdtol)'\]"):
            load(p)

    def test_vector_B_in_file(self, tmp_path):
        p = tmp_path / "sys.json"
        p.write_text(json.dumps({"n": 2, "m": 1, "A": [[0.0, 1.0], [0.3, 0.1]], "B": [0.0, 1.0]}))
        assert io.load_system(p).B.shape == (2, 1)

    @pytest.mark.parametrize("key", ["n", "m"])
    @pytest.mark.parametrize("text", ["1e3082", "1.7", "true", '"1"'])
    def test_dims_must_be_json_integers(self, tmp_path, key, text):
        # 1e3082 parses to inf (int() raised OverflowError); 1.7 and true
        # were read as 1
        p = tmp_path / "x.json"
        if key == "n":
            p.write_text(f'{{"n": {text}, "phi": 5.0, "Q": [[0.5]]}}')
            with pytest.raises(io.ParseError):
                io.load_cost(p)
        p.write_text(f'{{"n": 1, "m": 1, "A": [[0.5]], "B": [[1.0]], "{key}": {text}}}')
        with pytest.raises(io.ParseError):
            io.load_system(p)

    @pytest.mark.parametrize(
        "key, text",
        [
            ("psd_tol", "true"),  # read as 1.0: diag(1, -0.5) passed the PSD gate
            ("phi", "true"),  # read as 1
            ("phi", '"5"'),  # read as 5
            ("Q", "[[true, 0], [0, 0.5]]"),
            ("Q", '[[1, "0"], ["0", 0.5]]'),
            ("Q", "[[1, null], [null, 0.5]]"),
        ],
    )
    def test_cost_numbers_must_be_json_numbers(self, tmp_path, key, text):
        doc = {"n": 2, "Q": [[1.0, 0.0], [0.0, -0.5 if key == "psd_tol" else 0.5]]}
        doc[key] = json.loads(text)
        p = tmp_path / "cost.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(io.ParseError):
            io.load_cost(p)

    @pytest.mark.parametrize(
        "key, text", [("A", "[[true, 0], [0, 0.5]]"), ("A", '[[1, "0"], [0, 0.5]]'), ("B", "[[false], [1]]")]
    )
    def test_system_entries_must_be_json_numbers(self, tmp_path, key, text):
        doc = {"n": 2, "m": 1, "A": [[1.0, 0.0], [0.0, 0.5]], "B": [[0.0], [1.0]]}
        doc[key] = json.loads(text)
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(io.ParseError):
            io.load_system(p)

    def test_bundle_roundtrip_exact(self, tmp_path, rich_instance):
        path = tmp_path / "b.csv"
        b = rich_instance["bundle"]
        io.save_bundle(b, path)
        b2 = io.load_bundle(path)
        assert b2.kind == "exact" and b2.M == b.M and b2.N == b.N
        for e1, e2 in zip(b.episodes, b2.episodes):
            assert np.array_equal(e1.x, e2.x)
            assert np.array_equal(e1.u, e2.u)

    def test_bundle_roundtrip_noisy(self, tmp_path, rich_instance):
        b = io.add_noise(rich_instance["bundle"], 18.0, None, seed=5)
        path = tmp_path / "n.csv"
        io.save_bundle(b, path, comments=["settings seed=5"])
        b2 = io.load_bundle(path)
        assert b2.kind == "noisy_state"
        assert b2.snr_db_x == 18.0 and b2.snr_db_u is None
        assert np.array_equal(b2.episodes[0].x, b.episodes[0].x)

    def test_bundle_parse_errors(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(io.ParseError):
            io.load_bundle(p)
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(io.ParseError):
            io.load_bundle(p)
        p.write_text("episode,t,x1,u1\n")
        with pytest.raises(io.ParseError, match="no data rows"):
            io.load_bundle(p)
        p.write_text(
            "# kind=noisy_state,snr_db_x=loud,snr_db_u=none\nepisode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n"
        )
        with pytest.raises(io.ParseError, match="metadata"):
            io.load_bundle(p)
        # input missing before the final step
        p.write_text("episode,t,x1,u1\n1,1,0.5,\n1,2,0.4,0.0\n")
        with pytest.raises(io.ParseError):
            io.load_bundle(p)
        # ragged horizons across episodes
        p.write_text(
            "episode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n2,1,0.2,0.3\n2,2,0.1,0.0\n2,3,0.0,\n"
        )
        with pytest.raises(io.ParseError):
            io.load_bundle(p)

    @pytest.mark.parametrize(
        "text",
        [
            # states and inputs swapped against the required column order
            b"episode,t,u1,x1\n1,1,0.1,0.5\n1,2,0.4,\n",
            # fields past the header's width
            b"episode,t,x1,u1\n1,1,0.5,0.1,99,98\n1,2,0.4,\n",
            # a repeated (episode, t) row
            b"episode,t,x1,u1\n1,1,0.5,0.1\n1,1,0.7,0.2\n1,2,0.4,\n",
            b"episode,t,x1,u1\n1,1,nan,0.1\n1,2,0.4,\n",
            b"episode,t,x1,u1\n1,1,0.5,-inf\n1,2,0.4,\n",
            # overflows to inf
            b"episode,t,x1,u1\n1,1,0.5,0.1\n1,2,1e400,\n",
            # a nan where the input at t=N belongs must not pass for empty
            b"episode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,nan\n",
            b"episode,t,x1,u1\n1.5,1,0.5,0.1\n1.5,2,0.4,\n",
            b"episode,t,x1,u1\n1,1,0.5,0.1\n1,2.0,0.4,\n",
            b"episode,t,x1,u1\n1,1,0.5,0.1\n1,2,\xff,\n",
            # SNR metadata: NaN, below MIN_SNR_DB, or on a component kind keeps exact
            b"# kind=noisy_state,snr_db_x=nan,snr_db_u=-inf\nepisode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n",
            b"# kind=exact,snr_db_x=15\nepisode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n",
            b"# kind=noisy_input,snr_db_u=-inf\nepisode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n",
        ],
        ids=["swapped_header", "extra_fields", "duplicate_step", "nan", "inf",
             "overflow", "nan_at_t_N", "non_integer_episode", "non_integer_t",
             "not_utf8", "nan_snr", "snr_on_exact", "snr_below_floor"],
    )
    def test_bundle_rejects_malformed_rows(self, tmp_path, text):
        p = tmp_path / "x.csv"
        p.write_bytes(text)
        with pytest.raises(io.ParseError, match="x.csv"):
            io.load_bundle(p)

    @pytest.mark.parametrize("meta", [b"# kind=noisy_sttae,snr_db_x=15,snr_db_u=none\n",
                                      b"# kind=noisy_state\n# kind=bogus\n", b"# kind=\n"])
    def test_bundle_refuses_unknown_kind(self, tmp_path, meta):
        p = tmp_path / "x.csv"
        p.write_bytes(meta + b"episode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n")
        with pytest.raises(io.ParseError, match="x.csv: unknown kind"):
            io.load_bundle(p)

    def test_bundle_metadata_later_key_wins(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"# kind=noisy_both,snr_db_x=15,snr_db_u=20\n# free text, snr_db_x = none\n"
                      b"# kind=noisy_input\nepisode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n")
        b = io.load_bundle(p)
        assert (b.kind, b.snr_db_x, b.snr_db_u) == ("noisy_input", None, 20.0)

    def test_noisy_kind_of_unknown_snr_loads(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"# kind=noisy_both,snr_db_x=none\nepisode,t,x1,u1\n1,1,0.5,0.1\n1,2,0.4,\n")
        b = io.load_bundle(p)
        assert (b.kind, b.snr_db_x, b.snr_db_u) == ("noisy_both", None, None)

    def test_bundle_snr_must_fit_the_kind(self):
        X, U = np.zeros((1, 1, 2)), np.zeros((1, 1, 1))
        floor = io.core_model.MIN_SNR_DB
        for kind, snr_x, snr_u in [("noisy_state", floor, None), ("noisy_input", None, np.inf),
                                   ("noisy_both", 15.0, -20.0), ("exact", None, None)]:
            b = TrajectoryBundle(X, U, kind, snr_x, snr_u)
            assert (b.snr_db_x, b.snr_db_u) == (snr_x, snr_u)
        for kind, snr_x, snr_u in [("exact", 15.0, None), ("exact", None, 20.0),
                                   ("noisy_state", None, 20.0), ("noisy_input", 15.0, None),
                                   ("noisy_both", np.nan, 20.0), ("noisy_both", 15.0, -np.inf),
                                   ("noisy_state", np.nextafter(floor, -np.inf), None)]:
            with pytest.raises(io.DimensionMismatch, match="SNR"):
                TrajectoryBundle(X, U, kind, snr_x, snr_u)

    def test_bundle_reads_unterminated_last_row_and_crlf(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"# kind=exact\r\nepisode,t,x1,u1\r\n1,1,0.5,0.1\r\n\r\n1,2,0.4,")
        b = io.load_bundle(p)
        assert b.X.tolist() == [[[0.5, 0.4]]] and b.U.tolist() == [[[0.1]]]

    def test_load_bundle_memory_linear(self, tmp_path):
        # n=2, m=1, N=50, M=2000: a 6.4 MB file whose arrays take 2.4 MB;
        # a per-row dict of lists took 80 MB
        rng = np.random.default_rng(50)
        b = TrajectoryBundle(
            rng.standard_normal((2000, 2, 50)), rng.standard_normal((2000, 1, 49)), "exact"
        )
        path = tmp_path / "big.csv"
        io.save_bundle(b, path)
        tracemalloc.start()
        try:
            b2 = io.load_bundle(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(b2.X, b.X) and np.array_equal(b2.U, b.U)
        assert peak < 40 * 2**20

    def test_save_bundle_memory_bounded_per_episode(self, tmp_path):
        # n=2, m=1, N=50, M=2000: the stacked records take 3.8 MB; filling the
        # template for the whole file at once peaked at 32 MB
        rng = np.random.default_rng(51)
        b = TrajectoryBundle(
            rng.standard_normal((2000, 2, 50)), rng.standard_normal((2000, 1, 49)), "exact"
        )
        path = tmp_path / "big.csv"
        io.save_bundle(b, path)  # warm-up: imports and caches stay out
        tracemalloc.start()
        try:
            io.save_bundle(b, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20


def _oracle_save_bundle(bundle, path, comments=()):
    """The row-by-row csv.writer version the whole-array writer replaced."""
    fmt = "%.17g"
    n, m, N = bundle.n, bundle.m, bundle.N
    with open(path, "w", newline="") as fh:
        sx = "none" if bundle.snr_db_x is None else fmt % bundle.snr_db_x
        su = "none" if bundle.snr_db_u is None else fmt % bundle.snr_db_u
        fh.write(f"# kind={bundle.kind},snr_db_x={sx},snr_db_u={su}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(
            ["episode", "t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)]
        )
        for i, (x, u) in enumerate(zip(bundle.X, bundle.U), start=1):
            for t in range(1, N + 1):
                us = [fmt % v for v in u[:, t - 1]] if t < N else [""] * m
                w.writerow([str(i), str(t)] + [fmt % v for v in x[:, t - 1]] + us)


def _oracle_load_bundle(path):
    """The row-by-row csv.reader version the whole-array reader replaced."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    kind, snr_x, snr_u = "exact", None, None
    while lines and lines[0].startswith("#"):
        for part in lines[0].lstrip("# ").strip().split(","):
            if "=" not in part:
                continue
            key, val = (s.strip() for s in part.split("=", 1))
            if key == "kind" and val in KINDS:
                kind = val
            elif key == "snr_db_x" and val != "none":
                snr_x = float(val)
            elif key == "snr_db_u" and val != "none":
                snr_u = float(val)
        lines = lines[1:]
    reader = csv.reader(StringIO("\n".join(lines)))
    header = next(reader)
    n = sum(1 for h in header if h.startswith("x"))
    m = sum(1 for h in header if h.startswith("u"))
    rows = {}
    for row in reader:
        if row:
            xs = [float(v) for v in row[2 : 2 + n]]
            us = [float(v) for v in row[2 + n : 2 + n + m] if v != ""]
            rows.setdefault(int(row[0]), {})[int(row[1])] = (xs, us)
    N = max(rows[min(rows)])
    X = np.empty((len(rows), n, N))
    U = np.empty((len(rows), m, N - 1))
    for e, epi in enumerate(sorted(rows)):
        for t in range(1, N + 1):
            xs, us = rows[epi][t]
            X[e, :, t - 1] = xs
            if t < N:
                U[e, :, t - 1] = us
    return TrajectoryBundle(X, U, kind=kind, snr_db_x=snr_x, snr_db_u=snr_u)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n,m,N,M", [(1, 1, 2, 1), (2, 1, 50, 200), (3, 2, 15, 3)])
@pytest.mark.parametrize("noise", [("exact", None, None), ("noisy_both", 18.5, 1.0 / 3.0),
                                   ("noisy_state", 18.5, None), ("noisy_input", None, 1.0 / 3.0)])
@pytest.mark.parametrize("comments", [(), ("settings seed=5", "free text, with a comma")])
def test_bundle_io_matches_row_by_row_oracle(tmp_path, n, m, N, M, noise, comments):
    rng = np.random.default_rng(n * 1000 + N + M)
    X = rng.standard_normal((M, n, N)) * 10.0 ** rng.integers(-8, 8, (M, n, N))
    U = rng.standard_normal((M, m, N - 1))
    special = [-0.0, 1e-310, 1e300, -1e300]
    X.flat[: len(special)] = special[: X.size]
    U.flat[: len(special)] = special[::-1][: U.size]
    b = TrajectoryBundle(X, U, *noise)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    io.save_bundle(b, new, comments=comments)
    _oracle_save_bundle(b, old, comments=comments)
    assert new.read_bytes() == old.read_bytes()
    got, want = io.load_bundle(new), _oracle_load_bundle(old)
    assert (got.kind, got.snr_db_x, got.snr_db_u) == noise
    assert (want.kind, want.snr_db_x, want.snr_db_u) == noise
    assert got.X.shape == want.X.shape and got.U.shape == want.U.shape
    assert np.array_equal(_bits(got.X), _bits(want.X))
    assert np.array_equal(_bits(got.U), _bits(want.U))
    assert np.array_equal(_bits(got.X), _bits(X)) and np.array_equal(_bits(got.U), _bits(U))
