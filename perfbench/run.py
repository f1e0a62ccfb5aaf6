"""kneejerk benchmark: one workload, end to end, through the public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graph-solve --seed 1 --seconds 30 --trace 0

Workloads (see ``problems.py``):

* ``graph-solve``  parse_problem + run_optimize on K5, K6 and fixed regular
  multigraphs from seeded starts; evaluating many-term polynomials dominates.
* ``small-solve``  parse_problem + run_optimize on 1200 fixed small problems
  from seeded starts, plus ``problems/*.json``; per-step overhead dominates.
* ``certify``      run_verify + run_oracle on the shipped problems, K5 and
  weighted polynomials, plus one ``inject_negative`` verify that must fail.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs every call twice, untraced then traced (see ``tracing.py``), checks
that both give the same output, and prints the per-layer metrics.  Every line
before the last is a ``name value unit`` report; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The harness measures only its own process.  It cannot pin CPUs or control
frequency scaling or caches, so it reports times at a reference machine speed
measured alongside them (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up runs at least this many times and for at least this long.
SETUP_REPEATS = 7
SETUP_MIN_NS = 1_000_000_000

ROOT_PARSE = "cli.parse_problem"
ROOT_SOLVE = "cli.run_optimize"
ROOT_VERIFY = "cli.run_verify"
ROOT_ORACLE = "cli.run_oracle"
TIMED_ROOTS = (ROOT_SOLVE, ROOT_VERIFY, ROOT_ORACLE)
EVAL = "mapping._eval_log_raw"
STEPS = ("mapping.knee_jerk_step", "diagnostics.knee_jerk_step")

END_TO_END = {
    "setup_s": "s",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "expr.evals_per_solve": "count",
    "expr.eval_us": "us",
    "expr.nodes": "count",
    "expr.ns_per_node": "ns",
    "expr.share": "fraction",
    "mapping.step_self_us": "us",
    "mapping.residual_us": "us",
    "simplex.point_checks_per_step": "count",
    "simplex.divergence_calls_per_step": "count",
    "simplex.self_us_per_step": "us",
    "simplex.share": "fraction",
    "discriminant.trees": "count",
    "discriminant.enumerate_ms": "ms",
    "discriminant.share_of_setup": "fraction",
    "cli.parse_self_ms": "ms",
    "trace.overhead": "fraction",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _report(name, value, unit, note=""):
    print(f"{name} {value!r} {unit}{'  ' + note if note else ''}")


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Call:
    """Outcome of one workload operation on one item."""

    __slots__ = ("key", "failures", "errors", "ns", "parts", "iterations", "t0", "t1", "scale")

    def __init__(self):
        self.key = None
        self.failures: list[str] = []  # raised, or stopped at the iteration cap
        self.errors: list[str] = []  # wrong outputs
        self.ns = 0
        self.parts: dict[str, int] = {}
        self.iterations = 0
        self.t0 = self.t1 = 0  # perf_counter_ns around the call
        self.scale = 1.0  # reference speed over this call's speed (speed.py)


class Runner:
    """Runs an item's operation through a given set of entry points."""

    def __init__(self, items, problems, ref, verify_samples):
        self.items = items
        self.problems = problems
        self.ref = ref
        self.verify_samples = verify_samples

    @staticmethod
    def _timed(call, part, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # a raising entry point is a failed operation
            call.failures.append(f"{type(err).__name__}: {err}")
            return None
        finally:
            dt = time.perf_counter_ns() - t0
            call.ns += dt
            call.parts[part] = dt

    @staticmethod
    def _checked(fn) -> list[str]:
        try:
            return fn()
        except Exception as err:  # a check that cannot run is a failed check
            return [f"check raised {type(err).__name__}: {err}"]

    def call(self, i: int, entry, check: bool) -> Call:
        call = Call()
        call.t0 = time.perf_counter_ns()
        self._run(call, i, entry, check)
        call.t1 = time.perf_counter_ns()
        return call

    def _run(self, call: Call, i: int, entry, check: bool) -> None:
        item, problem = self.items[i], self.problems[i]
        if item.op == "solve":
            out = self._timed(call, "solve", entry["solve"], problem)
            if out is None:
                return
            trace, summary = out
            call.iterations = summary["iterations"]
            call.key = (summary["status"], summary["iterations"], float(summary["W"]).hex())
            if summary["status"] == "max-iterations":
                call.failures.append("stopped at max-iterations")
            if check:
                call.errors += self._checked(
                    lambda: self.ref.check_solve(item, trace, summary, problem.init.x))
            return
        negative = item.op == "negative"
        report = self._timed(
            call, "verify", entry["verify"], problem, samples=self.verify_samples,
            seed=item.verify_seed, include_concavity=item.concavity, inject_negative=negative)
        keys = [json.dumps(report, sort_keys=True)]
        if report is not None and check:
            call.errors += self._checked(lambda: self.ref.check_verify(report, negative))
        if not negative:
            res = self._timed(call, "oracle", entry["oracle"], problem, item.resolution)
            if res is not None:
                keys += [float(res.best_W).hex(), float(res.gap).hex()]
                if check:
                    call.errors += self._checked(lambda: self.ref.check_oracle(res))
        call.key = tuple(keys)


class Measurement:
    """Everything the timed loop recorded."""

    def __init__(self, n_items: int):
        self.times: dict[int, list[Call]] = {i: [] for i in range(n_items)}
        self.first: dict[int, Call] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.untraced_ns = 0
        self.traced_ns = 0
        self.node_evals = 0


def measure(runner, entry, seconds, clock, tracer=None, traced_entry=None,
            nodes=()) -> Measurement:
    """Repeat passes over the items until ``seconds`` have passed, always
    finishing the first pass, with the calibration loop of ``clock`` in
    between.  Outputs are checked on the first pass and must repeat exactly
    on later ones; with a tracer, each call runs untraced, then traced, and
    the two outputs must agree.  ``attempted`` and ``failed`` count the first
    pass only, so they depend on the seed and not on how many passes fit."""
    m = Measurement(len(runner.items))
    deadline = time.perf_counter() + seconds
    done_pass = False
    while not (done_pass and time.perf_counter() >= deadline):
        for i, item in enumerate(runner.items):
            check = i not in m.first
            clock.tick()
            call = runner.call(i, entry, check=check)
            if tracer is not None:
                evals_before = tracer.select(name=EVAL).count
                tracer.install()
                try:
                    tcall = runner.call(i, traced_entry, check=False)
                finally:
                    tracer.restore()
                m.node_evals += (tracer.select(name=EVAL).count - evals_before) * nodes[i]
                m.untraced_ns += call.ns
                m.traced_ns += tcall.ns
                if tcall.key != call.key:
                    m.errors.append(f"{item.name}: traced output differs from untraced")
            if check:
                m.first[i] = call
                m.errors += [f"{item.name}: {e}" for e in call.errors]
                m.attempted += len(call.parts)
                m.failed += len(call.failures) + bool(call.errors)
            elif call.key != m.first[i].key:
                m.errors.append(f"{item.name}: output changed between passes")
            m.times[i].append(call)
            if done_pass and time.perf_counter() >= deadline:
                break
        else:
            done_pass = True
    return m


def _count_nodes(expr) -> int:
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children())
    return len(seen)


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "kneejerk" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kneejerk sources under {root / 'src'}\n")
        return 2
    if not (root / "problems").is_dir():
        sys.stderr.write(f"error: no problems directory under {root}\n")
        return 2
    sys.path[:0] = [str(root / "src"), str(here)]

    import numpy as np

    import kneejerk
    import problems as pm
    import reference as ref
    from speed import Calibration
    from tracing import Tracer

    if args.workload not in pm.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(pm.WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# python {platform.python_version()} numpy {np.__version__} "
          f"kneejerk {kneejerk.__version__} nproc {os.cpu_count()} cpu {_cpu_model()!r}")
    print(f"# {', '.join(f'{v}=1' for v in THREAD_VARS)}; one process, one thread")
    print("# limits: no CPU pinning, no frequency or cache control; "
          "the machine may be shared, so rates drift between passes")

    items = pm.WORKLOADS[args.workload](args.seed, root)
    texts = [it.text for it in items]
    cli = kneejerk.cli
    entry = {"parse": cli.parse_problem, "solve": cli.run_optimize,
             "verify": cli.run_verify, "oracle": cli.run_oracle}

    clock = Calibration()
    setup = []  # (start, end) of each set-up, in ns
    while len(setup) < SETUP_REPEATS or sum(b - a for a, b in setup) < SETUP_MIN_NS:
        clock.tick(force=not setup)
        t0 = time.perf_counter_ns()
        problems = [entry["parse"](t) for t in texts]
        setup.append((t0, time.perf_counter_ns()))
    nodes = [_count_nodes(p.expression) for p in problems]

    runner = Runner(items, problems, ref, pm.VERIFY_SAMPLES)
    tracer = traced_entry = None
    if args.trace:
        tracer = Tracer()
        traced_entry = {k: tracer.wrap(f"cli.{fn.__name__}", fn, "cli") for k, fn in entry.items()}
        tracer.install()
        try:
            for t in texts:
                traced_entry["parse"](t)
        finally:
            tracer.restore()

    runner.call(0, entry, check=False)  # warm-up, not counted
    m = measure(runner, entry, args.seconds, clock, tracer, traced_entry, nodes)
    clock.tick(force=True)
    for cs in m.times.values():
        for c in cs:
            c.scale = clock.factor(c.t0, c.t1)

    for e in m.errors[:20]:
        print(f"# check failed: {e}")
    for i, c in m.first.items():
        for e in c.failures:
            print(f"# failed op: {items[i].name}: {e}")

    # Times are scaled to the reference speed (speed.py); an item's time is
    # the median of its passes.
    per_item = {i: _scaled(cs) for i, cs in m.times.items() if cs}
    if tracer is None:
        call_ms = [v / 1e6 for v in per_item.values()]
        setup_s = [(b - a) * clock.factor(a, b) / 1e9 for a, b in setup]
        raw_ms = [statistics.median(c.ns for c in cs) / 1e6 for cs in m.times.values() if cs]
        print(f"# speed: {sum(map(len, m.times.values()))} calls, {clock.samples} "
              f"calibrations; unscaled call_ms.p50 "
              f"{statistics.median(raw_ms)!r}, call_ms.p90 {_p90(raw_ms)!r}, "
              f"setup_s {statistics.median(b - a for a, b in setup) / 1e9!r}")
        metrics = {
            "setup_s": statistics.median(setup_s),
            "call_ms.p50": statistics.median(call_ms),
            "call_ms.p90": _p90(call_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        for name, value in metrics.items():
            _report(name, value, units[name], f"(n={len(call_ms)} items)" if "call" in name else "")
        _report_named(pm, items, m, per_item)
    else:
        metrics = _layer_metrics(tracer, nodes, m)
        units = PER_LAYER
        for name, value in metrics.items():
            _report(name, value, units[name])
        _report_certify_layers(tracer)
    _report("failed_frac", m.failed / max(m.attempted, 1), "fraction", f"({m.failed}/{m.attempted})")

    print(json.dumps({
        "correct": not m.errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _scaled(calls, part=None) -> float:
    """Median over an item's passes of its time at the reference speed, in ns."""
    return statistics.median((c.ns if part is None else c.parts[part]) * c.scale for c in calls)


def _report_named(pm, items, m, per_item):
    """The workload-specific end-to-end figures, by their own names."""
    solves = [i for i, it in enumerate(items) if it.op == "solve"]
    if solves:
        ms = [per_item[i] / 1e6 for i in solves]
        iters = [m.first[i].iterations for i in solves]
        total_s = sum(per_item[i] for i in solves) / 1e9
        _report("solve_ms.p50", statistics.median(ms), "ms", f"(n={len(ms)})")
        _report("solve_ms.p90", _p90(ms), "ms", f"(n={len(ms)})")
        _report("steps_per_s", sum(iters) / total_s, "1/s")
        _report("iters_per_solve", sum(iters) / len(iters), "count")
    cert = [i for i, it in enumerate(items) if it.op in ("certify", "negative")]
    if cert:
        vms = [_scaled(m.times[i], "verify") / 1e6 for i in cert]
        _report("verify_ms.p50", statistics.median(vms), "ms", f"(n={len(vms)})")
        _report("verify_ms.p90", _p90(vms), "ms", f"(n={len(vms)})")
        orc = [i for i in cert if items[i].op == "certify"]
        points = sum(pm.grid_size(items[i].blocks, items[i].resolution) + 1 for i in orc)
        secs = sum(_scaled(m.times[i], "oracle") for i in orc) / 1e9
        _report("oracle_points_per_s", points / secs, "1/s")


def _layer_metrics(tr, nodes, m) -> dict:
    roots = tr.select(root=TIMED_ROOTS, parent="")
    root_ns = max(roots.total_ns, 1)
    solves = max(tr.select(name="cli.iterate").count, 1)
    steps = max(tr.select(name=STEPS).count, 1)
    evals = tr.select(name=EVAL)
    parse = tr.select(root=ROOT_PARSE, parent="")
    enum = tr.select(root=ROOT_PARSE, name="discriminant.enumerate_spanning_trees")
    resid = tr.select(name=("mapping._support_residual", "cli._support_residual"))
    return {
        "expr.evals_per_solve": tr.select(context="cli.iterate", name=EVAL).count / solves,
        "expr.eval_us": evals.self_ns / max(evals.count, 1) / 1e3,
        "expr.nodes": sum(nodes) / len(nodes),
        "expr.ns_per_node": evals.self_ns / max(m.node_evals, 1),
        "expr.share": tr.layer_self_ns("expr", TIMED_ROOTS) / root_ns,
        "mapping.step_self_us": tr.select(name=STEPS).self_ns / steps / 1e3,
        "mapping.residual_us": resid.total_ns / max(resid.count, 1) / 1e3,
        "simplex.point_checks_per_step": tr.select(name="mapping.BlockPoint").count / steps,
        "simplex.divergence_calls_per_step":
            tr.select(name=("mapping.i_divergence", "mapping.i_divergence_blocks")).count / steps,
        "simplex.self_us_per_step": tr.layer_self_ns("simplex", TIMED_ROOTS) / steps / 1e3,
        "simplex.share": tr.layer_self_ns("simplex", TIMED_ROOTS) / root_ns,
        "discriminant.trees": enum.size,
        "discriminant.enumerate_ms": enum.total_ns / 1e6,
        "discriminant.share_of_setup":
            tr.layer_self_ns("discriminant", ROOT_PARSE) / max(parse.total_ns, 1),
        "cli.parse_self_ms": parse.self_ns / 1e6,
        "trace.overhead": 1.0 - m.untraced_ns / max(m.traced_ns, 1),
    }


def _report_certify_layers(tr):
    """Per-layer figures that exist only where verify and oracle run."""
    verifies = tr.select(root=ROOT_VERIFY, parent="").count
    if not verifies:
        return
    roots = tr.select(root=TIMED_ROOTS, parent="")
    hess = tr.select(root=ROOT_VERIFY, name="diagnostics._central_hessian_from_grad").count
    batch = tr.select(name="cli._eval_log_values")
    oracle = tr.select(root=ROOT_ORACLE, parent="")
    evals = tr.select(root=ROOT_VERIFY, name=(EVAL, "diagnostics.eval_log")).count
    _report("expr.evals_per_verify", evals / verifies, "count")
    _report("expr.batch_points_per_s", batch.size / max(batch.total_ns, 1) * 1e9, "1/s")
    _report("diagnostics.hessians_per_verify", hess / verifies, "count")
    _report("diagnostics.evals_per_hessian",
            tr.select(parent="diagnostics._central_hessian_from_grad",
                      name="diagnostics.eval_log").count / max(hess, 1), "count")
    for probe, name in (("inequality", "verify_step_inequality"), ("argmax", "verify_argmax_property"),
                        ("convexity", "check_log_log_convexity"), ("concavity", "check_log_concavity")):
        _report(f"diagnostics.{probe}_ms",
                tr.select(root=ROOT_VERIFY, name=f"cli.{name}").total_ns / verifies / 1e6, "ms")
    _report("diagnostics.share",
            tr.layer_self_ns("diagnostics", TIMED_ROOTS) / max(roots.total_ns, 1), "fraction")
    _report("cli.grid_self_share", oracle.self_ns / max(oracle.total_ns, 1), "fraction")


if __name__ == "__main__":
    sys.exit(main())
