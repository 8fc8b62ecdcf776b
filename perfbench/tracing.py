"""Per-layer tracing of cuspbc from outside the library.

Public functions of each cuspbc module are wrapped by replacing module
attributes: every cuspbc module namespace that holds the original object
gets the wrapper, so calls made inside the library (cli -> radial, cusp ->
special) are seen as well as the benchmark's own calls.  A wrapper records
a span; a layer's self time is its span's duration minus the time covered
by the wrapped calls it made.  Nothing is installed while timing the
untraced operations.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import defaultdict

import numpy as np

# (module, attribute, layer name); several attributes may share a layer
FUNCTIONS = (
    ("special", "kummer_1f1", "special.kummer_1f1"),
    ("cusp", "local_u", "cusp.local_u"),
    ("cusp", "cusp_series", "cusp.cusp_series"),
    ("cusp", "cusp_limit_first", "cusp.cusp_limit"),
    ("cusp", "cusp_limit_second", "cusp.cusp_limit"),
    ("cusp", "kato_average_check", "cusp.kato_average_check"),
    ("environment", "spherical_average_w", "environment.spherical_average_w"),
    ("environment", "multipole_term", "environment.multipole_term"),
    ("environment", "w_exact", "environment.w_exact"),
    ("radial", "solve_shooting", "radial.solve_shooting"),
    ("radial", "solve_matrix", "radial.solve_matrix"),
    ("radial", "solve_matrix_selfconsistent",
     "radial.solve_matrix_selfconsistent"),
    ("basis", "build_basis", "basis.build_basis"),
    ("basis", "verify_cusp_orders", "basis.verify_cusp_orders"),
    ("cli", "main", "cli.main"),
)
# scipy kernels as radial sees them: once radial stops calling one, it reads 0
KERNELS = (
    ("radial", "solve_ivp", "scipy.solve_ivp"),
    ("radial", "brentq", "scipy.brentq"),
    ("radial", "eigsh", "scipy.eigsh"),
)
# (module, class, attribute, layer name)
METHODS = (
    ("hfr", "HFROrbital", "mean_inv_r", "hfr.HFROrbital.mean_inv_r"),
    ("hfr", "HFROrbital", "radial", "hfr.HFROrbital.radial"),
    ("gridfn", "RadialFunction", "to_csv", "gridfn.RadialFunction.to_csv"),
)

LAYERS = tuple(dict.fromkeys(
    name for *_, name in FUNCTIONS + KERNELS + METHODS))


def layer_metric_names() -> list[str]:
    """Names of the per-pass counters and self times the tracer yields."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer}.calls")
        if layer == "cli.main":
            names.append("cli.self_s")
        elif layer != "scipy.brentq":
            names.append(f"{layer}.self_s")
    names += ["cusp.local_u.points", "cusp.local_u.warnings",
              "radial.selfconsistent.iterations", "radial.potential.calls",
              "radial.potential.points", "scipy.eigsh.n"]
    return names


def _self_key(layer: str) -> str:
    return "cli.self_s" if layer == "cli.main" else f"{layer}.self_s"


class Tracer:
    """Counts and self times for one operation at a time.

    `install()` swaps the wrappers in, `uninstall()` restores the
    originals; `take()` returns and clears what was recorded since the
    last `take()`."""

    def __init__(self, package):
        self.pkg = package
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stack = []
        self.saved = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [layer, 0.0]  # name, time covered by child spans
            tracer.stack.append(frame)
            tracer.counts[f"{layer}.calls"] += 1
            if on_call is not None:
                on_call(parent, args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.self_s[_self_key(layer)] += dur - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dur

        return wrapper

    def _local_u(self, fn):
        counts = self.counts

        def counted(lw, r, *args, **kwargs):
            counts["cusp.local_u.points"] += int(np.size(r))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(lw, r, *args, **kwargs)
            counts["cusp.local_u.warnings"] += sum(
                issubclass(w.category, RuntimeWarning) for w in caught)
            return out

        return counted

    def _on_solve_matrix(self, parent, args):
        if parent is not None and parent[0] == "radial.solve_matrix_selfconsistent":
            self.counts["radial.selfconsistent.iterations"] += 1

    def _on_eigsh(self, parent, args):
        self.counts["scipy.eigsh.n"] += int(args[0].shape[0])

    def _counting_problem(self, base):
        counts = self.counts

        class CountingRadialProblem(base):
            def potential(self, r=None):
                counts["radial.potential.calls"] += 1
                counts["radial.potential.points"] += int(
                    self.grid.size if r is None else np.size(r))
                return super().potential(r)

        return CountingRadialProblem

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.pkg.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == prefix
                                      or name.startswith(prefix + "."))]

    def _replace_everywhere(self, original, replacement):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer already installed")
        hooks = {"radial.solve_matrix": self._on_solve_matrix,
                 "scipy.eigsh": self._on_eigsh}
        for mod_name, attr, layer in FUNCTIONS + KERNELS:
            original = getattr(getattr(self.pkg, mod_name), attr)
            inner = self._local_u(original) if layer == "cusp.local_u" else original
            self._replace_everywhere(
                original, self._wrap(inner, layer, hooks.get(layer)))
        for mod_name, cls_name, attr, layer in METHODS:
            cls = getattr(getattr(self.pkg, mod_name), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                replacement = property(self._wrap(original.fget, layer))
            else:
                replacement = self._wrap(original, layer)
            self.saved.append((cls, attr, original))
            setattr(cls, attr, replacement)
        base = self.pkg.radial.RadialProblem
        self._replace_everywhere(base, self._counting_problem(base))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        self.stack.clear()

    def take(self) -> tuple[dict, dict]:
        counts, self_s = dict(self.counts), dict(self.self_s)
        self.counts.clear()
        self.self_s.clear()
        return counts, self_s
