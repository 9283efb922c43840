"""Shared domain types, vectorization algebra and dataset I/O.

Conventions used everywhere: vec() is column-major, vech() stacks the lower
triangle column-major, and the duplication matrix D satisfies
vec(S) = D @ vech(S) for symmetric S.
"""

import copy
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    InvalidCost,
    InvalidSystem,
    ParseError,
    PsdViolation,
)

DEFAULT_PHI = 5.0

# 17 significant digits round-trips doubles exactly
FLOAT_FMT = "%.17g"


def sym_tol(S):
    return 1e-10 * max(1.0, float(np.linalg.norm(S)))


def psd_tol_for(Q):
    return 1e-8 * max(1.0, float(np.linalg.norm(Q)))


def rank_tol(singular_values, shape):
    """Default numerical-rank threshold: max(p,q) * sigma_max * 1e-12."""
    if len(singular_values) == 0:
        return 0.0
    return max(shape) * float(singular_values[0]) * 1e-12


def numerical_rank(Mtx):
    """Count of Mtx's singular values above rank_tol."""
    Mtx = np.asarray(Mtx, dtype=float)
    sv = np.linalg.svd(Mtx, compute_uv=False)
    return int((sv > rank_tol(sv, Mtx.shape)).sum())


def vec(Mtx):
    """Column-major vectorization of a p x q matrix."""
    return np.asarray(Mtx, dtype=float).flatten(order="F")


def vech_indices(n):
    """(row, col) pairs of the lower triangle, column-major order."""
    return [(i, j) for j in range(n) for i in range(j, n)]


def vech(S):
    """Half-vectorization: lower triangle of a symmetric matrix, column-major.

    Raises AsymmetricInput when max|S - S^T| exceeds the scale-relative
    symmetry tolerance.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {S.shape}")
    if np.abs(S - S.T).max(initial=0.0) > sym_tol(S):
        raise AsymmetricInput("matrix is not symmetric within tolerance")
    n = S.shape[0]
    rows, cols = zip(*vech_indices(n))
    return S[list(rows), list(cols)].astype(float)


def unvech(v, n=None):
    """Inverse of vech: rebuild the full symmetric matrix."""
    v = np.asarray(v, dtype=float)
    if n is None:
        # solve k = n(n+1)/2 for n
        n = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    if n * (n + 1) // 2 != v.size:
        raise DimensionMismatch(f"vector of length {v.size} is not a vech of any n")
    S = np.zeros((n, n))
    for k, (i, j) in enumerate(vech_indices(n)):
        S[i, j] = v[k]
        S[j, i] = v[k]
    return S


def duplication_map(n):
    """The read-only n^2 x n(n+1)/2 binary matrix D with vec(S) = D vech(S)."""
    idx = vech_indices(n)
    D = np.zeros((n * n, len(idx)))
    for k, (i, j) in enumerate(idx):
        D[i + j * n, k] = 1.0
        D[j + i * n, k] = 1.0  # same entry when i == j
    D.setflags(write=False)
    return D


class LtiSystem:
    """Discrete-time pair (A, B) with x_{t+1} = A x_t + B u_t.

    Validated on construction: A invertible, B full column rank,
    (A, B) controllable.
    """

    def __init__(self, A, B):
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch(f"B rows {B.shape[0]} != n {A.shape[0]}")
        n, m = B.shape
        if numerical_rank(A) < n:
            raise InvalidSystem("not_invertible", "A is singular to working precision")
        if numerical_rank(B) < m:
            raise InvalidSystem("rank_deficient_B", "B does not have full column rank")
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if numerical_rank(ctrb) < n:
            raise InvalidSystem("uncontrollable", "(A, B) is not controllable")
        A.setflags(write=False)
        B.setflags(write=False)
        self.A = A
        self.B = B
        self.n = n
        self.m = m

    def __repr__(self):
        return f"LtiSystem(n={self.n}, m={self.m})"

    def __eq__(self, other):
        if not isinstance(other, LtiSystem):
            return NotImplemented
        return np.array_equal(self.A, other.A) and np.array_equal(self.B, other.B)

    def __hash__(self):  # A and B are read-only
        return hash((self.A.shape, self.A.tobytes(), self.B.tobytes()))


class CostMatrix:
    """Symmetric PSD state-cost matrix inside the Frobenius ball ||Q||_F^2 <= phi.

    Stored as its half-vectorization so the full matrix view is exactly
    symmetric. psd_tol may be overridden for data known only to a few
    printed decimals.
    """

    def __init__(self, Q, phi=DEFAULT_PHI, psd_tol=None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch(f"Q must be square, got {Q.shape}")
        if np.abs(Q - Q.T).max(initial=0.0) > sym_tol(Q):
            raise AsymmetricInput("Q is not symmetric within tolerance")
        if phi <= 0:
            raise InvalidCost("phi must be positive")
        vh = vech(0.5 * (Q + Q.T))
        Qv = unvech(vh, Q.shape[0])
        tol = psd_tol_for(Qv) if psd_tol is None else float(psd_tol)
        lam_min = float(np.linalg.eigvalsh(Qv)[0]) if Q.shape[0] else 0.0
        if lam_min < -tol:
            raise PsdViolation(f"min eigenvalue {lam_min:.3e} < -{tol:.3e}")
        fro2 = float(np.sum(Qv * Qv))
        if fro2 > phi * (1 + 1e-9):
            raise InvalidCost(f"||Q||_F^2 = {fro2:.6g} exceeds phi = {phi:.6g}")
        self._vh = vh
        self._vh.setflags(write=False)
        self.n = Q.shape[0]
        self.phi = float(phi)
        self.psd_tol = tol

    @property
    def Q(self):
        return unvech(self._vh, self.n)

    @property
    def vh(self):
        return self._vh

    def __repr__(self):
        return f"CostMatrix(n={self.n}, phi={self.phi})"


def as_q(Q):
    """Plain ndarray view of a CostMatrix or array-like cost."""
    if isinstance(Q, CostMatrix):
        return Q.Q
    return np.asarray(Q, dtype=float)


@dataclass(frozen=True)
class Episode:
    x: np.ndarray  # n x N, columns x_1..x_N
    u: np.ndarray  # m x (N-1), columns u_1..u_{N-1}


KINDS = ("exact", "noisy_state", "noisy_input", "noisy_both")


class TrajectoryBundle:
    """M episodes of states and inputs over a shared horizon N.

    The data are two stacked read-only arrays, X (M x n x N, columns
    x_1..x_N) and U (M x m x (N-1)); `episodes` are `Episode` views into
    them. kind records whether (and where) noise was injected; exact
    bundles are checked against the dynamics when a system is supplied.
    """

    def __init__(self, episodes, N, kind="exact", snr_db_x=None, snr_db_u=None):
        if not episodes:
            raise DimensionMismatch("bundle needs at least one episode")
        n, m = np.shape(episodes[0].x)[0], np.shape(episodes[0].u)[0]
        for ep in episodes:
            xs, us = np.shape(ep.x), np.shape(ep.u)
            if xs != (n, N) or us != (m, N - 1):
                raise DimensionMismatch(
                    f"episode shapes {xs}, {us} do not match (n={n}, N={N}, m={m})"
                )
        X = np.array([ep.x for ep in episodes], dtype=float)
        self._adopt(X, np.array([ep.u for ep in episodes], dtype=float), kind, snr_db_x, snr_db_u)

    @classmethod
    def from_arrays(cls, X, U, kind, snr_db_x, snr_db_u):
        """Bundle over stacked states X (M x n x N) and inputs U (M x m x (N-1)),
        which are kept without a copy and made read-only."""
        out = cls.__new__(cls)
        out._adopt(X, U, kind, snr_db_x, snr_db_u)
        return out

    def _adopt(self, X, U, kind, snr_db_x, snr_db_u):
        if kind not in KINDS:
            raise DimensionMismatch(f"kind must be one of {KINDS}")
        X, U = np.asarray(X, dtype=float), np.asarray(U, dtype=float)
        M = len(X) if X.ndim == 3 else 0
        if not M or U.ndim != 3 or U.shape != (M, U.shape[1], X.shape[2] - 1):
            raise DimensionMismatch(
                f"stacked shapes {X.shape}, {U.shape} are not M x n x N and M x m x (N-1)"
            )
        X.setflags(write=False)
        U.setflags(write=False)
        self.X, self.U = X, U
        self.episodes = tuple(Episode(x, u) for x, u in zip(X, U))
        _, self.n, self.N = X.shape
        self.m = U.shape[1]
        self.kind, self.snr_db_x, self.snr_db_u = kind, snr_db_x, snr_db_u

    @property
    def M(self):
        return len(self.X)

    def initial_states(self):
        return self.X[:, :, 0].T.copy()  # n x M

    def check_dynamics(self, sys, dyn_tol=1e-8):
        """Max dynamics residual over the bundle; raises for exact bundles."""
        pred = sys.A @ self.X[:, :, :-1] + sys.B @ self.U
        worst = float(np.abs(pred - self.X[:, :, 1:]).max(initial=0.0))
        if self.kind == "exact" and worst > dyn_tol:
            raise DimensionMismatch(
                f"exact bundle violates dynamics: residual {worst:.3e} > {dyn_tol:.1e}"
            )
        return worst

    def subset(self, M):
        """First M episodes as a new bundle (shared arrays and episodes)."""
        if not 1 <= M <= self.M:
            raise DimensionMismatch(f"M={M} outside 1..{self.M}")
        out = copy.copy(self)
        out.X, out.U, out.episodes = self.X[:M], self.U[:M], self.episodes[:M]
        return out


def _fmt(x):
    return FLOAT_FMT % x


def _matrix_out(Mtx):
    return [[float(_fmt(v)) for v in row] for row in np.asarray(Mtx, dtype=float)]


def save_system(sys, path):
    doc = {"n": sys.n, "m": sys.m, "A": _matrix_out(sys.A), "B": _matrix_out(sys.B)}
    write_json(doc, path)


def write_json(doc, path):
    """Write doc to path as JSON with a one-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path):
    """The JSON document at path; text that does not decode or parse raises
    ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e


def load_system(path):
    doc = read_json(path)
    try:
        A = np.array(doc["A"], dtype=float)
        B = np.array(doc["B"], dtype=float)
        n, m = int(doc["n"]), int(doc["m"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: missing or malformed field ({e})") from e
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if A.shape != (n, n) or B.shape != (n, m):
        raise ParseError(f"{path}: declared dims (n={n}, m={m}) do not match matrices")
    return LtiSystem(A, B)


def save_cost(cost, path):
    doc = {"n": cost.n, "phi": float(_fmt(cost.phi)), "Q": _matrix_out(cost.Q)}
    # non-default tolerance must survive the round trip (matrices printed to
    # a few decimals sit slightly outside the cone); default stays implicit
    if cost.psd_tol != psd_tol_for(cost.Q):
        doc["psd_tol"] = float(_fmt(cost.psd_tol))
    write_json(doc, path)


def load_cost(path, psd_tol=None):
    doc = read_json(path)
    try:
        Q = np.array(doc["Q"], dtype=float)
        n = int(doc["n"])
        phi = float(doc.get("phi", DEFAULT_PHI))
        if psd_tol is None and "psd_tol" in doc:
            psd_tol = float(doc["psd_tol"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: missing or malformed field ({e})") from e
    if Q.shape != (n, n):
        raise ParseError(f"{path}: Q shape {Q.shape} does not match n={n}")
    return CostMatrix(Q, phi=phi, psd_tol=psd_tol)


def _csv_header(n, m):
    return ["episode", "t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)]


def save_bundle(bundle, path, comments=()):
    """Trajectory CSV: header `episode,t,x1..xn,u1..um`, CRLF-terminated rows,
    u columns empty at t=N.

    A comment line carries kind and SNR metadata so noisy bundles round-trip;
    extra comment lines (settings echoes) are skipped by the loader.
    """
    n, m, N, M = bundle.n, bundle.m, bundle.N, bundle.M
    sx = "none" if bundle.snr_db_x is None else _fmt(bundle.snr_db_x)
    su = "none" if bundle.snr_db_u is None else _fmt(bundle.snr_db_u)
    head = f"# kind={bundle.kind},snr_db_x={sx},snr_db_u={su}\n"
    head += "".join(f"# {line}\n" for line in comments)
    row = "%d,%d" + ("," + FLOAT_FMT) * n
    episode = (row + ("," + FLOAT_FMT) * m + "\r\n") * (N - 1) + row + "," * m + "\r\n"
    # one (episode, t, x, u) record per row; the last row's u slots stay
    # unset and are cut off with the last m entries of each episode
    rec = np.empty((M, N, 2 + n + m))
    rec[:, :, 0] = np.arange(1, M + 1)[:, None]
    rec[:, :, 1] = np.arange(1, N + 1)
    rec[:, :, 2 : 2 + n] = bundle.X.transpose(0, 2, 1)
    rec[:, :-1, 2 + n :] = bundle.U.transpose(0, 2, 1)
    with open(path, "w", newline="") as fh:
        fh.write(head + ",".join(_csv_header(n, m)) + "\r\n")
        for values in rec.reshape(M, -1)[:, :-m]:
            fh.write(episode % tuple(values.tolist()))


def load_bundle(path):
    """Inverse of save_bundle. Raises ParseError, naming the file, unless the
    header is exactly `episode,t,x1..xn,u1..um`, every row has that many
    fields, episode and t are integers, each episode holds t = 1..N once,
    every value is finite and inputs are empty exactly at t = N."""
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from e
    if not text or text.isspace():
        raise ParseError(f"{path}: empty file")
    kind, snr_x, snr_u = "exact", None, None
    start = 0
    while True:
        end = text.find("\n", start) + 1 or len(text)
        line = text[start:end].rstrip("\n")
        if not line.startswith("#"):
            break
        for part in line.lstrip("# ").strip().split(","):
            if "=" not in part:
                continue
            key, val = part.split("=", 1)
            key, val = key.strip(), val.strip()
            if key == "kind" and val in KINDS:
                kind = val
            elif key in ("snr_db_x", "snr_db_u") and val != "none":
                try:
                    v = float(val)
                except ValueError:
                    raise ParseError(f"{path}: bad metadata value {val!r}")
                if key == "snr_db_x":
                    snr_x = v
                else:
                    snr_u = v
        start = end
    header = line.split(",")
    n = sum(h.startswith("x") for h in header)
    m = len(header) - 2 - n
    if n < 1 or m < 1 or header != _csv_header(n, m):
        raise ParseError(f"{path}: header {header!r} is not episode,t,x1..xn,u1..um")
    body = (text[end:] + "\n").encode()  # the last row may lack its newline
    del text
    if body.isspace():
        raise ParseError(f"{path}: no data rows")
    # the m empty input fields at t=N become NaN; any other NaN was in the file
    last = b"," * m + b"\n"
    n_last = body.count(last)
    try:
        rows = np.loadtxt(io.BytesIO(body.replace(last, b",nan" * m + b"\n")), delimiter=",",
                          dtype=[("episode", "i8"), ("t", "i8"), ("v", "f8", (n + m,))],
                          comments=None, ndmin=1)
    except ValueError as e:
        raise ParseError(f"{path}: bad row ({str(e).split(';')[0]})") from e
    order = np.lexsort((rows["t"], rows["episode"]))
    epi, t, V = rows["episode"][order], rows["t"][order], rows["v"][order]
    _, first, counts = np.unique(epi, return_index=True, return_counts=True)
    Ns = t[first + counts - 1]
    if np.any(Ns != Ns[0]):
        raise ParseError(f"{path}: episodes disagree on horizon: {np.unique(Ns).tolist()}")
    N, M = int(Ns[0]), len(first)
    if np.any(counts != N) or np.any(t != np.tile(np.arange(1, N + 1), M)):
        raise ParseError(f"{path}: an episode misses or repeats a time step of 1..{N}")
    V = V.reshape(M, N, n + m)
    nan = np.isnan(V)
    if nan.sum() != m * n_last or np.isinf(V).any():
        raise ParseError(f"{path}: non-finite value")
    if n_last != M or not nan[:, -1, n:].all():
        raise ParseError(f"{path}: inputs must be empty at t=N and only there")
    X = np.ascontiguousarray(V[:, :, :n].transpose(0, 2, 1))
    U = np.ascontiguousarray(V[:, :-1, n:].transpose(0, 2, 1))
    return TrajectoryBundle.from_arrays(X, U, kind=kind, snr_db_x=snr_x, snr_db_u=snr_u)
