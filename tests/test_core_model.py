import csv
import json
import tracemalloc
from io import StringIO

import numpy as np
import pytest

import ioclqr as io
from ioclqr.core_model import KINDS, TrajectoryBundle, duplication_map, unvech, vec, vech


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


class TestBundle:
    def test_shapes_and_subset(self, rich_instance):
        b = rich_instance["bundle"]
        assert b.M == 4 and b.N == 9 and b.n == 2 and b.m == 1
        assert b.initial_states().shape == (2, 4)
        sub = b.subset(2)
        assert sub.M == 2
        assert sub.episodes[0] is b.episodes[0]
        assert sub.episodes[1] is b.episodes[1]
        with pytest.raises(io.DimensionMismatch):
            b.subset(9)

    def test_from_arrays(self, rich_instance):
        b = rich_instance["bundle"]
        assert b.X.shape == (4, 2, 9) and b.U.shape == (4, 1, 8)
        for i, ep in enumerate(b.episodes):
            assert np.shares_memory(ep.x, b.X) and np.array_equal(ep.x, b.X[i])
            assert np.shares_memory(ep.u, b.U) and np.array_equal(ep.u, b.U[i])
        X, U = np.array(b.X), np.array(b.U)
        b2 = io.TrajectoryBundle.from_arrays(X, U, "noisy_state", 10.0, None)
        assert (b2.M, b2.n, b2.N, b2.m, b2.kind) == (4, 2, 9, 1, "noisy_state")
        assert b2.X is X and not X.flags.writeable and not b2.episodes[0].x.flags.writeable
        for bad in ((X[0], U), (X, U[:, :, 1:]), (X, U[:3]), (X[:0], U[:0])):
            with pytest.raises(io.DimensionMismatch):
                io.TrajectoryBundle.from_arrays(*bad, "exact", None, None)
        with pytest.raises(io.DimensionMismatch):
            io.TrajectoryBundle.from_arrays(np.array(b.X), np.array(b.U), "sorta_noisy", None, None)

    def test_check_dynamics(self, rich_instance):
        b, sys = rich_instance["bundle"], rich_instance["sys"]
        b.check_dynamics(sys)
        ep = b.episodes[0]
        bad = io.Episode(ep.x + 0.01, ep.u)
        broken = io.TrajectoryBundle([bad], b.N, kind="exact")
        with pytest.raises(io.DimensionMismatch):
            broken.check_dynamics(sys)

    def test_kind_validation(self, rich_instance):
        ep = rich_instance["bundle"].episodes[0]
        with pytest.raises(io.DimensionMismatch):
            io.TrajectoryBundle([ep], 9, kind="sorta_noisy")


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
        with pytest.raises(io.PsdViolation):
            io.load_cost(path, psd_tol=1e-8)

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
        ],
        ids=["swapped_header", "extra_fields", "duplicate_step", "nan", "inf",
             "overflow", "nan_at_t_N", "non_integer_episode", "non_integer_t",
             "not_utf8"],
    )
    def test_bundle_rejects_malformed_rows(self, tmp_path, text):
        p = tmp_path / "x.csv"
        p.write_bytes(text)
        with pytest.raises(io.ParseError, match="x.csv"):
            io.load_bundle(p)

    def test_bundle_reads_unterminated_last_row_and_crlf(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"# kind=exact\r\nepisode,t,x1,u1\r\n1,1,0.5,0.1\r\n\r\n1,2,0.4,")
        b = io.load_bundle(p)
        assert b.X.tolist() == [[[0.5, 0.4]]] and b.U.tolist() == [[[0.1]]]

    def test_load_bundle_memory_linear(self, tmp_path):
        # n=2, m=1, N=50, M=2000: a 6.4 MB file whose arrays take 2.4 MB;
        # a per-row dict of lists took 80 MB
        rng = np.random.default_rng(50)
        b = TrajectoryBundle.from_arrays(
            rng.standard_normal((2000, 2, 50)), rng.standard_normal((2000, 1, 49)),
            "exact", None, None,
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
        b = TrajectoryBundle.from_arrays(
            rng.standard_normal((2000, 2, 50)), rng.standard_normal((2000, 1, 49)),
            "exact", None, None,
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
    return TrajectoryBundle.from_arrays(X, U, kind=kind, snr_db_x=snr_x, snr_db_u=snr_u)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n,m,N,M", [(1, 1, 2, 1), (2, 1, 50, 200), (3, 2, 15, 3)])
@pytest.mark.parametrize("noise", [("exact", None, None), ("noisy_both", 18.5, 1.0 / 3.0)])
@pytest.mark.parametrize("comments", [(), ("settings seed=5", "free text, with a comma")])
def test_bundle_io_matches_row_by_row_oracle(tmp_path, n, m, N, M, noise, comments):
    rng = np.random.default_rng(n * 1000 + N + M)
    X = rng.standard_normal((M, n, N)) * 10.0 ** rng.integers(-8, 8, (M, n, N))
    U = rng.standard_normal((M, m, N - 1))
    special = [-0.0, 1e-310, 1e300, -1e300]
    X.flat[: len(special)] = special[: X.size]
    U.flat[: len(special)] = special[::-1][: U.size]
    b = TrajectoryBundle.from_arrays(X, U, *noise)
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
