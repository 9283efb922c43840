"""The benchmark's per-layer tracer (perfbench/tracing.py) names library
functions by string. A rename in the library must fail here rather than in
a traced benchmark run."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layers_resolve():
    ns = {}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), ns)  # read only, no bytecode written
    traced = ns["TRACED"]
    assert "penalized_objective" in traced["estimate_noisy"]
    missing = []
    for mod_name, names in traced.items():
        mod = importlib.import_module(f"ioclqr.{mod_name}")
        missing += [f"{mod_name}.{n}" for n in names if not callable(getattr(mod, n, None))]
    assert missing == []
