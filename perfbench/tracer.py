"""Spans and work counters for the traced benchmark run.

The program itself is not instrumented. Instead, `install` replaces selected
public functions of the `witsenhausen` modules with wrappers that record one
span per call, `(id, parent, name, start, end)`, and count work at the same
boundary: integrand nodes for the quadratures, objective evaluations for the
optimizers, samples for the simulations. Spans stay in memory until the run
ends.

Because the modules import their helpers by name (``from .numerics import
gauss_weighted_integral``), a wrapper is installed in every loaded module of
the package that binds the original function, not only where it is defined.

`layer_metrics` turns spans and counters into the per-layer metrics named in
BENCHMARK.json.
"""
from __future__ import annotations

import functools
import itertools
import math
import statistics
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped in a span called `name`.

        `hook(tracer, name, args, kwargs) -> (args, kwargs)` may substitute
        arguments, e.g. wrap a callable argument to count its evaluations.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(tracer, name, args, kwargs)
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            tracer.counters[name + ".calls"] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.counters[name + ".raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))

        return traced


def _replace_callable(args, kwargs, key: str, make):
    if args:
        return (make(args[0]),) + tuple(args[1:]), kwargs
    kwargs = dict(kwargs)
    kwargs[key] = make(kwargs[key])
    return args, kwargs


def count_nodes(tracer: Tracer, name: str, args, kwargs):
    """Count the points at which a quadrature evaluates its integrand `f`."""

    def make(f):
        def counted(x):
            tracer.counters["hook_calls"] += 1
            tracer.counters[name + ".nodes"] += getattr(x, "size", 1)
            return f(x)

        return counted

    return _replace_callable(args, kwargs, "f", make)


def count_evals(tracer: Tracer, name: str, args, kwargs):
    """Count evaluations of an objective `f`, and how many were finite."""

    def make(f):
        def counted(x):
            value = f(x)
            tracer.counters["hook_calls"] += 1
            tracer.counters[name + ".evals"] += 1
            if math.isfinite(value):
                tracer.counters[name + ".finite"] += 1
            return value

        return counted

    return _replace_callable(args, kwargs, "f", make)


def count_samples(tracer: Tracer, name: str, args, kwargs):
    """Add the simulation's sample budget (its `cfg` argument) to a counter."""
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tracer.counters[name + ".samples"] += cfg.n_samples
    return args, kwargs


# (module, function, hook). The span is named "<module>.<function>".
# gaussian_info is left out: its closed forms take microseconds and are
# counted inside strategies. core only validates inputs. The private
# strategies._eval_point is the per-point entry the CLI calls; wrapping it
# keeps strategy work out of cli's self time.
TARGETS = (
    ("cli", "main", None),
    ("strategies", "_eval_point", None),
    ("strategies", "two_point_costs", None),
    ("strategies", "two_point_gain_for_power", None),
    ("strategies", "mmse_lin_dpc", None),
    ("skewnormal", "mmse_coord", None),
    ("skewnormal", "coord_ic_margin", None),
    ("skewnormal", "coord_mmse_at_rho", None),
    ("skewnormal", "entropy_reduction", None),
    ("numerics", "gauss_weighted_integral", count_nodes),
    ("numerics", "integral_real_line", count_nodes),
    ("numerics", "minimize_1d", count_evals),
    ("numerics", "find_root", count_evals),
    ("montecarlo", "simulate_linear", count_samples),
    ("montecarlo", "simulate_two_point", count_samples),
    ("montecarlo", "simulate_hybrid_conditional", count_samples),
)


def wrapper_costs(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds that a span wrapper, and a counting hook, add to one call.

    Both are timed around a trivial function in a throwaway Tracer, against
    the bare function, and the median over `repeats` is returned. Their
    product with the span and hook counts of a traced run estimates what
    tracing cost that run; the difference of two wall times cannot, because
    the cost is a few percent and run-to-run noise is larger.
    """

    def bare(x):
        return x

    t = Tracer()
    span = t.wrap("cost.span", bare)
    (hooked,), _ = count_evals(t, "cost.hook", (bare,), {})

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(1.0)
        return (time.perf_counter() - start) / calls

    span_costs, hook_costs = [], []
    for _ in range(repeats):
        base = per_call(bare)
        span_costs.append(per_call(span) - base)
        hook_costs.append(per_call(hooked) - base)
        t.spans.clear()
    return statistics.median(span_costs), statistics.median(hook_costs)


PACKAGE = "witsenhausen"


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target in each loaded module of the package that binds it.

    Returns the "module.function" names that could not be found, so that a
    renamed or deleted function is reported rather than crashing the run.
    """
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
    missing = []
    for mod_name, func_name, hook in targets:
        owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
        original = getattr(owner, func_name, None)
        if not callable(original):
            missing.append(f"{mod_name}.{func_name}")
            continue
        wrapped = tracer.wrap(f"{mod_name}.{func_name}", original, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return missing


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children[sid] if e > start and s < end]
        out[sid] = (end - start) - _covered(clipped)
    return out


def name_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: total time ("s", outermost calls only, so recursion is
    not counted twice) and self time ("self_s")."""
    by_id = {sid: (parent, name) for sid, parent, name, _s, _e in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
    for sid, parent, name, start, end in spans:
        out[name]["self_s"] += selfs[sid]
        ancestor = parent
        while ancestor is not None and by_id[ancestor][1] != name:
            ancestor = by_id[ancestor][0]
        if ancestor is None:
            out[name]["s"] += end - start
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, scale: float = 1.0, costs=(0.0, 0.0)) -> dict[str, float]:
    """The per-layer metrics of one traced run; 0 where a layer was not used.

    Every time is multiplied by `scale` (and every rate divided by it).
    `costs` are the per-call costs of a span and of a hook (wrapper_costs).
    """
    times = name_times(spans)
    c = Counter(counters)

    def calls(name: str) -> int:
        return c[name + ".calls"]

    def total(name: str) -> float:
        return scale * times[name]["s"] if name in times else 0.0

    def self_s(name: str) -> float:
        return scale * times[name]["self_s"] if name in times else 0.0

    quad = ("numerics.gauss_weighted_integral", "numerics.integral_real_line")
    quad_calls = sum(calls(n) for n in quad)
    quad_nodes = sum(c[n + ".nodes"] for n in quad)
    coord = "skewnormal.mmse_coord"
    mini = "numerics.minimize_1d"
    m = {
        "skewnormal.mmse_coord.calls": calls(coord),
        "skewnormal.mmse_coord.s": total(coord),
        "skewnormal.mmse_coord.self_s": self_s(coord),
        "skewnormal.mmse_coord.feasible_ratio": _ratio(
            calls(coord) - c[coord + ".raised"], calls(coord)
        ),
        "numerics.quad.calls": quad_calls,
        "numerics.quad.s": sum(total(n) for n in quad),
        "numerics.quad.nodes": quad_nodes,
        "numerics.quad.nodes_per_call": _ratio(quad_nodes, quad_calls),
        "numerics.minimize_1d.calls": calls(mini),
        "numerics.minimize_1d.evals": c[mini + ".evals"],
        "numerics.minimize_1d.finite_ratio": _ratio(c[mini + ".finite"], c[mini + ".evals"]),
        "numerics.minimize_1d.self_s": self_s(mini),
        "numerics.find_root.calls": calls("numerics.find_root"),
        "numerics.find_root.evals": c["numerics.find_root.evals"],
        "strategies.two_point_gain_for_power.s": total("strategies.two_point_gain_for_power"),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_s": scale * (len(spans) * costs[0] + c["hook_calls"] * costs[1]),
    }
    for name in (
        "skewnormal.coord_ic_margin",
        "skewnormal.coord_mmse_at_rho",
        "skewnormal.entropy_reduction",
        "strategies.two_point_costs",
        "strategies.mmse_lin_dpc",
    ):
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = total(name)
    for label, func in (
        ("linear", "simulate_linear"),
        ("two-point", "simulate_two_point"),
        ("coord", "simulate_hybrid_conditional"),
    ):
        name = "montecarlo." + func
        m[f"montecarlo.{label}.samples_per_s"] = _ratio(c[name + ".samples"], total(name))
    return m


# Metrics that must repeat exactly between two traced runs of the same code.
COUNT_SUFFIXES = (".calls", ".nodes", ".evals", ".feasible_ratio", ".finite_ratio", ".nodes_per_call")


def counts_only(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
