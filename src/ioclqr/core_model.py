"""Shared domain types, vectorization algebra and dataset I/O.

Conventions used everywhere: vec() is column-major, vech() stacks the lower
triangle column-major, and the duplication matrix D satisfies
vec(S) = D @ vech(S) for symmetric S. Every solver writes Q in the one
Frobenius-orthonormal `_sym_basis`; vech and D are public helpers and the
tests' oracles, and no loader, writer or solver calls them.
"""

import io
import json
from dataclasses import dataclass
from functools import lru_cache

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

DYN_TOL = 1e-8  # largest dynamics residual an exact bundle may show

MIN_SNR_DB = -3000.0  # least SNR: a noise power 10^(-snr/10) times the signal's stays finite

# 17 significant digits round-trips doubles exactly
FLOAT_FMT = "%.17g"


def sym_tol(S):
    return 1e-10 * max(1.0, float(np.linalg.norm(S)))


def psd_tol_for(Q):
    return 1e-8 * max(1.0, float(np.linalg.norm(Q)))


def ball_radius_ok(phi):
    """The one rule for the ball ||Q||_F^2 <= phi: phi > 0 with phi * phi
    finite, as the fitting core's barrier squares phi - ||y||^2. NaN fails."""
    phi = float(phi)
    return phi > 0.0 and bool(np.isfinite(phi * phi))


def rank_tol(singular_values):
    """The numerical-rank threshold 1e-10 sigma_1, whatever the shape.

    A rank read as full promises a least-squares solve, whose error grows
    like eps ||Q|| sigma_1 / sigma_min (at most 0.36 times that on the
    full-rank readings of tools/rank_sweep.py where this exceeds 1e-12). The
    cutoff bounds that ratio, which more rows of the same data leave as it
    is, and 1e-10 ~ eps / 1e-6 keeps a full-rank solve to about six digits.
    It sits between the 3.4e-12 of a data matrix that must read deficient
    and the 4.4e-9 of one that must read full (README, "One rank rule").
    """
    return 1e-10 * float(singular_values[0]) if len(singular_values) else 0.0


def numerical_rank(Mtx):
    """Count of Mtx's singular values above rank_tol."""
    sv = np.linalg.svd(np.asarray(Mtx, dtype=float), compute_uv=False)
    return int((sv > rank_tol(sv)).sum())


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


@lru_cache(maxsize=None)
def _sym_basis(n):
    """Frobenius-orthonormal basis of the symmetric n x n matrices, in vech
    order: e_i e_i' and (e_i e_j' + e_j e_i') / sqrt(2). In its coordinates
    y, Q = sum_k y_k E_k and ||Q||_F = |y|."""
    E = np.array([unvech(e, n) for e in np.eye(n * (n + 1) // 2)])
    E /= np.linalg.norm(E, axis=(1, 2))[:, None, None]
    E.setflags(write=False)
    return E


class LtiSystem:
    """Discrete-time pair (A, B) with x_{t+1} = A x_t + B u_t.

    Validated on construction: entries and A^k B (k < n) finite, A
    invertible, B full column rank, (A, B) controllable.
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
        # B B' and A' P A square the entries: each square must be finite too
        if not np.abs(np.hstack([A, B])).max(initial=0.0) < np.sqrt(np.finfo(float).max):
            raise InvalidSystem("non_finite", "A and B must have finite entries with finite squares")
        n, m = B.shape
        if numerical_rank(A) < n:
            raise InvalidSystem("not_invertible", "A is singular to working precision")
        if numerical_rank(B) < m:
            raise InvalidSystem("rank_deficient_B", "B does not have full column rank")
        with np.errstate(over="ignore", invalid="ignore"):
            ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if not np.isfinite(ctrb).all():
            raise InvalidSystem("non_finite", "A^k B overflows for some k < n")
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

    Keeps the exactly symmetric 0.5 (Q + Q') it validated, read-only, and the
    margins its gates measured: lam_min and fro2 = ||Q||_F^2. psd_tol, a finite
    number >= 0, may be overridden for data known only to a few printed
    decimals. phi must pass ball_radius_ok.
    """

    def __init__(self, Q, phi=DEFAULT_PHI, psd_tol=None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch(f"Q must be square, got {Q.shape}")
        if not np.isfinite(Q).all():
            raise InvalidCost("Q has non-finite entries")
        if not ball_radius_ok(phi):
            raise InvalidCost(f"phi must be positive with a finite square, got {phi!r}")
        # an entry's square alone bounds ||Q||_F^2; testing it first keeps
        # huge entries out of the norms below, which would overflow
        if np.abs(Q).max(initial=0.0) > np.sqrt(phi * (1 + 1e-9)):
            raise InvalidCost(f"an entry of Q alone puts ||Q||_F^2 above phi = {phi:.6g}")
        if np.abs(Q - Q.T).max(initial=0.0) > sym_tol(Q):
            raise AsymmetricInput("Q is not symmetric within tolerance")
        if psd_tol is not None and not 0.0 <= float(psd_tol) < np.inf:
            raise InvalidCost(f"psd_tol must be finite and >= 0, got {psd_tol!r}")
        Qs = 0.5 * (Q + Q.T)
        tol = psd_tol_for(Qs) if psd_tol is None else float(psd_tol)
        self.lam_min = float(np.linalg.eigvalsh(Qs)[0]) if Q.shape[0] else 0.0
        if self.lam_min < -tol:
            raise PsdViolation(f"min eigenvalue {self.lam_min:.3e} < -{tol:.3e}")
        self.fro2 = float(np.sum(Qs * Qs))
        if self.fro2 > phi * (1 + 1e-9):
            raise InvalidCost(f"||Q||_F^2 = {self.fro2:.6g} exceeds phi = {phi:.6g}")
        Qs.setflags(write=False)
        self._Q, self.n, self.phi, self.psd_tol = Qs, Q.shape[0], float(phi), tol

    @property
    def Q(self):
        return self._Q.copy()

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

    The data are two stacked arrays of finite values, X (M x n x N, columns
    x_1..x_N) and U (M x m x (N-1)), kept without a copy and made read-only;
    `episodes` are `Episode` views into them, built on read. kind records
    whether (and where) noise was injected; exact bundles are checked
    against the dynamics when a system is supplied. Each SNR is None or a
    number of dB >= MIN_SNR_DB (NaN fails), and only a component that kind
    marks noisy may carry one.
    """

    def __init__(self, X, U, kind="exact", snr_db_x=None, snr_db_u=None):
        if kind not in KINDS:
            raise DimensionMismatch(f"kind must be one of {KINDS}")
        X, U = np.asarray(X, dtype=float), np.asarray(U, dtype=float)
        M = len(X) if X.ndim == 3 else 0
        if not M or U.ndim != 3 or U.shape != (M, U.shape[1], X.shape[2] - 1):
            raise DimensionMismatch(
                f"stacked shapes {X.shape}, {U.shape} are not M x n x N and M x m x (N-1)"
            )
        if not (np.isfinite(X).all() and np.isfinite(U).all()):
            raise DimensionMismatch("X and U must have finite entries")
        noisy = (kind in ("noisy_state", "noisy_both"), kind in ("noisy_input", "noisy_both"))
        if any(s is not None and not (on and s >= MIN_SNR_DB)
               for s, on in zip((snr_db_x, snr_db_u), noisy)):
            raise DimensionMismatch(
                f"kind={kind} cannot carry snr_db_x={snr_db_x}, snr_db_u={snr_db_u}: each SNR is "
                f"none, or a number >= {MIN_SNR_DB:g} dB on a component the kind marks noisy"
            )
        X.setflags(write=False)
        U.setflags(write=False)
        self.X, self.U = X, U
        _, self.n, self.N = X.shape
        self.m = U.shape[1]
        self.kind, self.snr_db_x, self.snr_db_u = kind, snr_db_x, snr_db_u

    @property
    def M(self):
        return len(self.X)

    @property
    def episodes(self):
        return tuple(Episode(x, u) for x, u in zip(self.X, self.U))

    def initial_states(self):
        return self.X[:, :, 0].T.copy()  # n x M

    def check_dims(self, sys):
        """Raises DimensionMismatch unless the system has the bundle's n and m."""
        if self.n != sys.n or self.m != sys.m:
            raise DimensionMismatch("bundle dimensions do not match the system")

    def check_dynamics(self, sys):
        """Max dynamics residual over the bundle; raises for exact bundles
        above DYN_TOL, and for a system of other dimensions."""
        self.check_dims(sys)
        pred = sys.A @ self.X[:, :, :-1] + sys.B @ self.U
        worst = float(np.abs(pred - self.X[:, :, 1:]).max(initial=0.0))
        if self.kind == "exact" and worst > DYN_TOL:
            raise DimensionMismatch(
                f"exact bundle violates dynamics: residual {worst:.3e} > {DYN_TOL:.1e}"
            )
        return worst

    def subset(self, M):
        """First M episodes as a new bundle over views of X and U."""
        if not 1 <= M <= self.M:
            raise DimensionMismatch(f"M={M} outside 1..{self.M}")
        return TrajectoryBundle(self.X[:M], self.U[:M], self.kind, self.snr_db_x, self.snr_db_u)


def save_system(sys, path):
    doc = {"n": sys.n, "m": sys.m, "A": sys.A.tolist(), "B": sys.B.tolist()}
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


def json_object(doc, where, keys):
    """doc, which must be a JSON object whose keys are all in keys; anything
    else, a misspelt key included, raises ParseError naming where."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}; expected keys from {sorted(keys)}")
    return doc


def json_number(value, key, kind=(int, float)):
    """value, which must be a JSON number (a JSON integer for kind=int);
    anything else, a bool, a string or a null included, raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key} must be a JSON {'integer' if kind is int else 'number'}: {value!r}")
    return value


def json_matrix(value, key):
    """value, a list of JSON numbers nested to any depth, as a float array;
    any other entry raises TypeError (json_number)."""
    def check(v):
        return [check(e) for e in v] if isinstance(v, list) else json_number(v, key)

    return np.array(check(value), dtype=float)


def load_system(path):
    doc = json_object(read_json(path), path, ("n", "m", "A", "B"))
    try:
        A, B = json_matrix(doc["A"], "A"), json_matrix(doc["B"], "B")
        n, m = json_number(doc["n"], "n", int), json_number(doc["m"], "m", int)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{path}: missing or malformed field ({e})") from e
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if A.shape != (n, n) or B.shape != (n, m):
        raise ParseError(f"{path}: declared dims (n={n}, m={m}) do not match matrices")
    return LtiSystem(A, B)


def save_cost(cost, path):
    doc = {"n": cost.n, "phi": cost.phi, "Q": cost.Q.tolist()}
    # non-default tolerance must survive the round trip (matrices printed to
    # a few decimals sit slightly outside the cone); default stays implicit
    if cost.psd_tol != psd_tol_for(cost.Q):
        doc["psd_tol"] = cost.psd_tol
    write_json(doc, path)


def load_cost(path):
    doc = json_object(read_json(path), path, ("n", "phi", "Q", "psd_tol"))
    try:
        Q, n = json_matrix(doc["Q"], "Q"), json_number(doc["n"], "n", int)
        phi = float(json_number(doc.get("phi", DEFAULT_PHI), "phi"))
        psd_tol = float(json_number(doc["psd_tol"], "psd_tol")) if "psd_tol" in doc else None
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{path}: missing or malformed field ({e})") from e
    if Q.shape != (n, n):
        raise ParseError(f"{path}: Q shape {Q.shape} does not match n={n}")
    return CostMatrix(Q, phi=phi, psd_tol=psd_tol)


def _csv_header(n, m):
    return ["episode", "t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)]


def save_bundle(bundle, path, comments=()):
    """Trajectory CSV: header `episode,t,x1..xn,u1..um`, CRLF-terminated rows,
    u columns empty at t=N.

    The first comment line holds the metadata as key=value pairs, kind,
    snr_db_x and snr_db_u (a number or none), so noisy bundles round-trip;
    each extra comment line (settings echoes) follows it as `# line`.
    """
    n, m, N, M = bundle.n, bundle.m, bundle.N, bundle.M
    sx, su = ("none" if s is None else FLOAT_FMT % s for s in (bundle.snr_db_x, bundle.snr_db_u))
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
    """Inverse of save_bundle. The metadata is the comma-separated key=value
    pairs of the leading `#` lines, a later key winning; only kind (default
    exact) and snr_db_x and snr_db_u (default none) are read. Raises
    ParseError, naming the file, unless kind is one of KINDS, each SNR is
    none or a number that TrajectoryBundle admits for that kind, the header
    is exactly `episode,t,x1..xn,u1..um`, every row has that many fields,
    episode and t are integers, each episode holds t = 1..N once, every
    value is finite and inputs are empty exactly at t = N."""
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from e
    if not text or text.isspace():
        raise ParseError(f"{path}: empty file")
    meta, start = {}, 0
    while True:
        end = text.find("\n", start) + 1 or len(text)
        line = text[start:end].rstrip("\n")
        if not line.startswith("#"):
            break
        pairs = (part.split("=", 1) for part in line.lstrip("# ").split(",") if "=" in part)
        meta.update((key.strip(), val.strip()) for key, val in pairs)
        start = end
    kind = meta.get("kind", "exact")
    if kind not in KINDS:
        raise ParseError(f"{path}: unknown kind {kind!r}, expected one of {KINDS}")
    snr = [meta.get(key, "none") for key in ("snr_db_x", "snr_db_u")]
    try:
        snr_x, snr_u = (None if val == "none" else float(val) for val in snr)
    except ValueError as e:
        raise ParseError(f"{path}: bad metadata value ({e})") from e
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
    try:
        return TrajectoryBundle(X, U, kind=kind, snr_db_x=snr_x, snr_db_u=snr_u)
    except DimensionMismatch as e:  # the metadata's SNRs: the rows are checked above
        raise ParseError(f"{path}: {e}") from e
