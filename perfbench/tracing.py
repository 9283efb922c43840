"""Per-layer spans for the ioclqr modules, installed from outside the library.

`Tracer.install` replaces each traced function, in every ioclqr module that
binds it, with a wrapper that records a span (name, start, end, parent).
Spans stay in memory; `layer_metrics` turns them into per-layer counts and
self times when the run ends. Nothing inside the library is modified.
"""

import functools
import os
import sys
import time

# Module -> functions treated as layers. Private names appear where the
# roadmap names them as a layer.
TRACED = {
    "forward_lqr": ("build_pmp_system", "solve_riccati", "simulate", "add_noise"),
    "estimate_noisy": ("estimate", "smoothed_max_eig", "penalized_objective"),
    "baseline_rm": ("estimate_rm", "_reduced_quadratic"),
    "identifiability": ("assess", "build_A_matrix", "check_rank_condition", "prop2_certificate"),
    "estimate_noiseless": ("recover_exact", "recover_with_kernel"),
    "core_model": ("save_bundle", "load_bundle"),
    "cli": ("main",),
    "bench_harness": ("sample_instance",),
}

# span name of the closure that penalized_objective returns
OBJECTIVE = "estimate_noisy.objective"

SELF_S = (
    "forward_lqr.build_pmp_system",
    "forward_lqr.solve_riccati",
    "forward_lqr.simulate",
    "forward_lqr.add_noise",
    "estimate_noisy.estimate",
    OBJECTIVE,
    "estimate_noisy.smoothed_max_eig",
    "baseline_rm.estimate_rm",
    "baseline_rm._reduced_quadratic",
    "identifiability.assess",
    "identifiability.build_A_matrix",
    "identifiability.check_rank_condition",
    "identifiability.prop2_certificate",
    "estimate_noiseless.recover_exact",
    "estimate_noiseless.recover_with_kernel",
    "core_model.save_bundle",
    "core_model.load_bundle",
    "cli.main",
    "bench_harness.sample_instance",
)
CALLS = (
    "forward_lqr.build_pmp_system",
    "forward_lqr.solve_riccati",
    "forward_lqr.simulate",
    "forward_lqr.add_noise",
    "estimate_noisy.estimate",
    OBJECTIVE,
    "estimate_noisy.smoothed_max_eig",
    "baseline_rm.estimate_rm",
    "identifiability.assess",
    "identifiability.build_A_matrix",
    "identifiability.prop2_certificate",
    "cli.main",
)


class Tracer:
    """In-memory span recorder. `active` gates recording, so untraced work
    (reference checks after the measured window) leaves no spans."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []  # indices of open spans
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return traced

    def install(self, package):
        """Wrap every TRACED function and rebind it in every ioclqr module
        (including the package) that holds a reference to the original."""
        hooks = self._hooks()
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            for name in names:
                orig = getattr(mod, name)
                if name == "penalized_objective":
                    wrapper = self._wrap_objective_factory(orig)
                else:
                    wrapper = self.wrap(f"{mod_name}.{name}", orig, hooks.get(name))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def _wrap_objective_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(OBJECTIVE, factory(*args, **kwargs))

        return make

    def _hooks(self):
        add = self.add

        def pmp_bytes(out, args, kwargs):
            add("forward_lqr.build_pmp_system.out_bytes",
                sum(a.nbytes for a in (out.F_of_Q, out.A_tilde, out.G_x, out.G_u)))

        def est_iters(out, args, kwargs):
            add("estimate_noisy.iters", out.n_iter)
            add("estimate_noisy.nonconverged", int(not out.converged))

        def rm_iters(out, args, kwargs):
            add("baseline_rm.iters", out.n_iter)
            add("baseline_rm.nonconverged", int(not out.converged))

        def a_bytes(out, args, kwargs):
            add("identifiability.build_A_matrix.out_bytes", out.nbytes)

        def cert_iters(out, args, kwargs):
            add("identifiability.prop2_certificate.iters", out.n_iter)

        def saved_bytes(out, args, kwargs):
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            add("core_model.save_bundle.bytes", os.path.getsize(path))

        return {
            "build_pmp_system": pmp_bytes,
            "estimate": est_iters,
            "estimate_rm": rm_iters,
            "build_A_matrix": a_bytes,
            "prop2_certificate": cert_iters,
            "save_bundle": saved_bytes,
        }

    def self_times(self):
        """Per span name: (calls, total self seconds). Self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0) - c)
        return out

    def layer_metrics(self):
        """Every per-layer metric the benchmark declares, zero for layers the
        workload never called."""
        st = self.self_times()
        c = self.counters
        m = {}
        for name in CALLS:
            m[f"{name}.calls"] = (st.get(name, (0, 0.0))[0], "count")
        for name in SELF_S:
            m[f"{name}.self_s"] = (st.get(name, (0, 0.0))[1], "s")
        for key in ("forward_lqr.build_pmp_system.out_bytes",
                    "identifiability.build_A_matrix.out_bytes"):
            m[key] = (c.get(key, 0), "B_computed")
        m["core_model.save_bundle.bytes"] = (c.get("core_model.save_bundle.bytes", 0), "B")
        for key in ("estimate_noisy.iters", "estimate_noisy.nonconverged",
                    "baseline_rm.iters", "baseline_rm.nonconverged",
                    "identifiability.prop2_certificate.iters"):
            m[key] = (c.get(key, 0), "count")
        iters = c.get("estimate_noisy.iters", 0)
        evals = st.get(OBJECTIVE, (0, 0.0))[0]
        m["estimate_noisy.evals_per_iter"] = (evals / iters if iters else 0.0, "ratio")
        return m

    def dump(self, path):
        """Write the spans as tab-separated lines: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\n")
