"""Spans at the boundaries between kneejerk modules, from outside the package.

``Tracer.install`` replaces the module-level names through which one kneejerk
module calls another with timing wrappers; ``Tracer.restore`` puts the
originals back.  Spans are folded into counters as they close, keyed by
``(root, context, parent, name)``: ``root`` is the benchmark's entry call,
``context`` the outermost span under it.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> [(name, layer)]: the cross-module names each module calls through.
BOUNDARIES = {
    "kneejerk.mapping": [
        ("_eval_log_raw", "expr"),
        ("BlockPoint", "simplex"),
        ("i_divergence", "simplex"),
        ("i_divergence_blocks", "simplex"),
        ("knee_jerk_step", "mapping"),
        ("_support_residual", "mapping"),
    ],
    "kneejerk.diagnostics": [
        ("eval_log", "expr"),
        ("_central_hessian_from_grad", "expr"),
        ("knee_jerk_step", "mapping"),
    ],
    "kneejerk.cli": [
        ("iterate", "mapping"),
        ("discriminant_polynomial", "discriminant"),
        ("polynomial_to_expression", "expr"),
        ("construct_expression", "expr"),
        ("verify_step_inequality", "diagnostics"),
        ("verify_argmax_property", "diagnostics"),
        ("check_log_log_convexity", "diagnostics"),
        ("check_log_concavity", "diagnostics"),
        ("random_interior", "simplex"),
        ("_eval_log_values", "expr"),
        ("_eval_log_raw", "expr"),
        ("_support_residual", "mapping"),
    ],
    "kneejerk.discriminant": [
        ("enumerate_spanning_trees", "discriminant"),
    ],
}

# Root spans are the public entry points; their self time belongs to cli.
ROOT_LAYER = "cli"

# Spans whose result length counts the work done: points scored, trees found.
_SIZED = ("_eval_log_values", "enumerate_spanning_trees")


class Stat:
    __slots__ = ("count", "total_ns", "self_ns", "size")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.size = 0


class Tracer:
    def __init__(self):
        self.stats: dict[tuple, Stat] = defaultdict(Stat)
        self.layers: dict[str, str] = {}
        self._stack: list[list] = []  # [name, child_ns, context]
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, layer: str):
        self.layers[name] = layer
        stack = self._stack
        stats = self.stats
        sized = name.rsplit(".", 1)[-1] in _SIZED
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0, stack[1][0] if len(stack) > 1 else name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                root = stack[0][0] if stack else name
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += dur
                st = stats[(root, frame[2], parent, name)]
                st.count += 1
                st.total_ns += dur
                st.self_ns += dur - frame[1]
            if sized:
                st.size += len(result)
            return result

        return traced

    def install(self) -> None:
        for modname, names in BOUNDARIES.items():
            mod = sys.modules[modname]
            short = modname.rsplit(".", 1)[-1]
            for name, layer in names:
                original = getattr(mod, name)
                self._saved.append((mod, name, original))
                setattr(mod, name, self.wrap(f"{short}.{name}", original, layer))

    def restore(self) -> None:
        """Put back every wrapped name; raises if one was not restored."""
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        for mod, name, original in self._saved:
            if getattr(mod, name) is not original:
                raise RuntimeError(f"{mod.__name__}.{name} was not restored")
        self._saved.clear()

    def select(self, root=None, context=None, parent=None, name=None) -> Stat:
        """Sum of the counters matching every given key part."""
        out = Stat()
        for (r, c, p, n), st in self.stats.items():
            if root is not None and r not in _tuple(root):
                continue
            if context is not None and c not in _tuple(context):
                continue
            if parent is not None and p not in _tuple(parent):
                continue
            if name is not None and n not in _tuple(name):
                continue
            out.count += st.count
            out.total_ns += st.total_ns
            out.self_ns += st.self_ns
            out.size += st.size
        return out

    def layer_self_ns(self, layer: str, root) -> int:
        total = 0
        for (r, _c, _p, n), st in self.stats.items():
            if r in _tuple(root) and self.layers.get(n, ROOT_LAYER) == layer:
                total += st.self_ns
        return total


def _tuple(v):
    return v if isinstance(v, tuple) else (v,)
