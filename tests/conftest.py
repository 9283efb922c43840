import os

# One BLAS thread for the whole session, set before numpy loads: results of
# the benchmark tests depend on the BLAS thread count, and these small
# matrices run faster on one thread than on several.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ioclqr as io

# the tests draw their systems and sweep instances from tools/rank_sweep.py
_spec = importlib.util.spec_from_file_location(
    "rank_sweep", Path(__file__).resolve().parents[1] / "tools" / "rank_sweep.py"
)
rank_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rank_sweep)


def _bits(a):
    """The raw IEEE-754 bits of a float64 array, for bit-for-bit comparisons."""
    return np.ascontiguousarray(a).view(np.uint64)


def _random_psd(rng, n, scale=1.0):
    G = rng.standard_normal((n, n))
    Q = G @ G.T
    return Q * (scale / max(np.linalg.norm(Q), 1e-12))


@pytest.fixture
def random_system():
    return rank_sweep.random_system


@pytest.fixture
def random_psd():
    return _random_psd


@pytest.fixture(scope="session")
def example_instance():
    """Single-episode instance whose data matrix has a one-dimensional kernel.

    The cost sits on the boundary of the PSD cone (entries are only known to
    four decimals, so its smallest eigenvalue is slightly negative).
    """
    A = np.array(
        [
            [-0.1922, -0.2490, 1.2347],
            [-0.2741, -1.0642, -0.2296],
            [1.5301, 1.6035, -1.5062],
        ]
    )
    B = np.array([[-0.4446], [-0.1559], [0.2761]])
    Qbar = np.array(
        [
            [0.0068, -0.0116, -0.0102],
            [-0.0116, 0.0197, 0.0174],
            [-0.0102, 0.0174, 0.0154],
        ]
    )
    dQ = np.array(
        [
            [0.0723, -0.6085, -0.1447],
            [-0.6085, -0.0422, -0.6661],
            [-0.1447, -0.6661, -0.3976],
        ]
    )
    x0 = np.array([-25.0136, -18.9592, -14.8221])
    N = 15
    sys = io.LtiSystem(A, B)
    cost = io.CostMatrix(Qbar, psd_tol=1e-4)
    gains = io.solve_riccati(sys, cost, N)
    ep = io.simulate(sys, gains, x0)
    bundle = io.TrajectoryBundle(ep.x[None], ep.u[None], "exact")
    return {
        "sys": sys,
        "cost": cost,
        "Qbar": Qbar,
        "dQ": dQ,
        "x0": x0,
        "N": N,
        "bundle": bundle,
    }


@pytest.fixture(scope="session")
def rich_instance():
    """Well-excited instance (several episodes) with a full-rank data matrix."""
    rng = np.random.default_rng(11)
    sys = rank_sweep.random_system(rng, 2)
    Qbar = _random_psd(rng, 2, scale=0.9)
    cost = io.CostMatrix(Qbar)
    N, M = 9, 4
    bundle = io.generate_bundle(sys, cost, N, M, seed=21)
    return {"sys": sys, "cost": cost, "Qbar": Qbar, "N": N, "bundle": bundle}
