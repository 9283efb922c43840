"""The benchmark's per-layer tracer (perfbench/tracing.py) names library
functions by string, and its workloads (perfbench/workloads.py) look library
names up at call time. A rename in the library must fail here rather than in
a benchmark run."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


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


def _dotted(node):
    """('ioc', 'estimate') for the expression ioc.estimate; None unless the
    chain starts at a plain name."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)) is not None:
        return base + (node.attr,)
    return None


def _imports_ioclqr(node):
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "ioclqr"
    return isinstance(node, ast.Import) and all(a.name.split(".")[0] == "ioclqr" for a in node.names)


def test_workload_library_names_resolve():
    # only the library imports of workloads.py run (a name they import that
    # is gone raises here); the rest is parsed, so no workload code runs and
    # no bytecode is written
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    imports = ast.Module([node for node in tree.body if _imports_ioclqr(node)], [])
    ns = {}
    exec(compile(imports, str(WORKLOADS), "exec"), ns)
    chains = {c for node in ast.walk(tree) if (c := _dotted(node)) and len(c) > 1 and c[0] in ns}
    assert {("ioc", "estimate"), ("bh", "sample_instance"), ("ioclqr", "cli", "main")} <= chains
    gone, missing = object(), []
    for chain in chains:
        obj = ns[chain[0]]
        for name in chain[1:]:
            obj = getattr(obj, name, gone)
        if obj is gone:
            missing.append(".".join(chain))
    assert missing == []


@pytest.mark.parametrize("name", ["noisy_fit", "long_horizon", "exact_cli"])
def test_workload_runs_one_op(name, tmp_path):
    # one op of each workload, so the keyword arguments the benchmark passes
    # to the library are checked too; run from source, no bytecode written
    workloads = runpy.run_path(str(WORKLOADS))
    wl = workloads["make"](name, 7, 1.0)
    pool = wl.setup(str(tmp_path))
    assert wl.run_op(pool[0], lambda: None).problems == []
