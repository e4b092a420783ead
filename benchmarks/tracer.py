"""In-memory span tracer that wraps the library's public functions from outside.

The library is not modified.  `install` replaces each traced function in
every ``intertwine.*`` module namespace that holds it (``verify`` and ``cli``
bind names with ``from .padic import ...``) and patches traced methods on
their class.  Every wrapped call records one span

    (name, start, end, parent span index, trace id)

and the spans stay in memory until `summary` reduces them.  A span's self
time is its duration minus the time its direct child spans cover; calls run
on one thread and nest, so the children are disjoint and that cover is the
sum of their durations.

Hot helpers that run ~1e5 times per run (``padic.e_of``, ``MultChar.angle``,
``PiLaurent`` arithmetic, ...) are not wrapped: their time lands in the
nearest wrapped caller, and their work is counted through argument-derived
counters such as ``padic.gauss_sum.terms``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "numerics",
    "exact",
    "classical",
    "harmonics",
    "schwartz",
    "arch",
    "padic",
    "globalq",
    "verify",
    "reports",
    "cli",
)

# Public module-level functions left unwrapped because they run ~1e4-1e5
# times per run; their time counts toward the wrapped caller.
HOT = frozenset(
    {
        "numerics.complex_gamma",
        "exact.scalar_is_zero",
        "exact.scalar_to_complex",
        "padic.e_of",
        "padic.is_odd_prime",
        "padic.unit_residue",
        "padic.val_p",
    }
)

# Methods traced on their class, beside every public module-level function.
# VarPoly operations stand for the exact layer; the PiLaurent scalar
# arithmetic inside them is too hot to wrap on its own.
METHODS = {
    "exact": (
        "VarPoly.__add__",
        "VarPoly.__sub__",
        "VarPoly.__mul__",
        "VarPoly.scale",
        "VarPoly.mul_monomial",
        "VarPoly.deriv",
        "VarPoly.substitute",
        "VarPoly.evaluate",
    ),
    "padic": ("TensorSimpleFunction.evaluate",),
    "reports": ("Report.to_json",),
}

# Functions reported one by one (calls and self time); every other wrapped
# function only feeds its layer's self time.
REPORTED = {
    "numerics": ("gamma_factor", "quad_halfline", "quad_realline", "bessel_k"),
    "harmonics": ("haar_integrate_su2", "gram_matrix", "hopf_grid"),
    "arch": ("mu_arch", "mu_arch_oracle", "tate_section_complex"),
    "schwartz": ("fourier_hat_h",),
    "padic": (
        "gauss_sum",
        "fourier_bruteforce",
        "unit_additive_integral",
        "TensorSimpleFunction.evaluate",
        "level_membership",
        "tate_integral_padic",
        "mu_finite_oracle",
        "mu_finite",
    ),
    "globalq": ("completed_zeta",),
}

# Exact work counters, derived from the arguments of a wrapped call.
COUNTS = (
    "padic.gauss_sum.distinct",
    "padic.gauss_sum.terms",
    "numerics.quad_halfline.evals",
    "numerics.quad_realline.evals",
    "harmonics.hopf_grid.distinct",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.trace_id = 0
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, prepare=None):
        """Return fn wrapped in a span; prepare(args, kwargs) may count work
        or swap arguments before the span starts."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trace_id)

        return traced

    def distinct(self, name: str, key) -> None:
        self.seen.setdefault(name, set()).add(key)

    def summary(self) -> dict:
        """Per-name calls and self time, per-layer self time, and counters."""
        spans = self.spans
        if None in spans:
            raise RuntimeError("summary taken while a traced call is still running")
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, _, _, _, _), own in zip(spans, self_times(spans)):
            calls[name] += 1
            self_s[name] += own
        layers = Counter()
        for name, t in self_s.items():
            layers[name.split(".", 1)[0]] += t
        counts = dict(self.counts)
        counts.update({name: len(keys) for name, keys in self.seen.items()})
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "layer_self_s": dict(layers),
            "counts": counts,
            "spans": len(spans),
            "traces": len({s[4] for s in spans}),
        }


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for (_, start, end, _, _) in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# ---------------------------------------------------------------------------
# argument-derived counters


def _count_gauss(tracer: Tracer):
    def prepare(args, kwargs):
        chi, psi = args[0], args[1]
        if chi.cond > 0:
            tracer.counts["padic.gauss_sum.terms"] += (chi.p - 1) * chi.p ** (chi.cond - 1)
        tracer.distinct("padic.gauss_sum.distinct", (chi, psi))
        return args, kwargs

    return prepare


def _count_evals(tracer: Tracer, counter: str, arg: str):
    def prepare(args, kwargs):
        if args:
            fn, args = args[0], args[1:]
        else:
            fn = kwargs.pop(arg)

        def counted(x):
            tracer.counts[counter] += 1
            return fn(x)

        return (counted,) + tuple(args), kwargs

    return prepare


def _count_grid(tracer: Tracer):
    def prepare(args, kwargs):
        tracer.distinct("harmonics.hopf_grid.distinct", tuple(args) + tuple(sorted(kwargs.items())))
        return args, kwargs

    return prepare


def _preparers(tracer: Tracer) -> dict:
    return {
        "padic.gauss_sum": _count_gauss(tracer),
        "numerics.quad_halfline": _count_evals(tracer, "numerics.quad_halfline.evals", "f"),
        "numerics.quad_realline": _count_evals(tracer, "numerics.quad_realline.evals", "g"),
        "harmonics.hopf_grid": _count_grid(tracer),
    }


def _wrappable(obj) -> bool:
    """A plain function, or a decorator wrapper around one (``lru_cache``).

    The span then sits outside the decorator, so a cache hit is still a
    call."""
    return inspect.isfunction(obj) or (callable(obj) and inspect.isfunction(getattr(obj, "__wrapped__", None)))


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of intertwine's layers.

    Raises RuntimeError if a reported function or a counter's function is
    missing or was left unwrapped, so that a renamed or re-decorated
    function cannot read as zero calls."""
    preparers = _preparers(tracer)
    for name in COUNTS:
        if name.endswith(".distinct"):
            tracer.seen.setdefault(name, set())
        else:
            tracer.counts[name] += 0
    replace: dict[int, object] = {}
    installed: set[str] = set()
    for layer in LAYERS:
        module = importlib.import_module(f"intertwine.{layer}")
        for attr, obj in list(vars(module).items()):
            span = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or span in HOT
                or not _wrappable(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            replace[id(obj)] = tracer.wrap(span, obj, preparers.get(span))
            installed.add(span)
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            span = f"{layer}.{qual}"
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), preparers.get(span)))
            installed.add(span)
    required = {f"{layer}.{fn}" for layer, fns in REPORTED.items() for fn in fns} | set(preparers)
    missing = sorted(required - installed)
    if missing:
        raise RuntimeError(f"tracer could not wrap {', '.join(missing)}")
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "intertwine" or mod_name.startswith("intertwine.")):
            continue
        for attr, obj in list(vars(module).items()):
            wrapped = replace.get(id(obj))
            if wrapped is not None:
                setattr(module, attr, wrapped)


def layer_metrics(summary: dict, run_s: float, speed: float) -> dict[str, float]:
    """The per-layer metric values of one traced run.

    run_s is the run's wall time; every time is multiplied by `speed`, the
    child's factor to reference speed, as the runner scales run_s.  A name
    that was wrapped (install checks that) but never called reads 0."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        t = summary["layer_self_s"].get(layer, 0.0)
        out[f"{layer}.self_s"] = t * speed
        out[f"{layer}.share"] = t / run_s
    for layer, fns in REPORTED.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = summary["calls"].get(name, 0)
            out[f"{name}.self_s"] = summary["self_s"].get(name, 0.0) * speed
    for name in COUNTS:
        out[name] = summary["counts"].get(name, 0)
    return out


def exact_counts(summary: dict) -> dict:
    """The parts of a summary that must repeat exactly at a fixed seed."""
    return {"calls": summary["calls"], "counts": summary["counts"]}


# ---------------------------------------------------------------------------
# self-check


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def self_check() -> None:
    """Self time = duration - covered child time, on a synthetic nested call.

    outer (23) runs inner1 (13, itself holding leaf 7) and inner2 (4), so
    the self times are outer 6, inner1 6, inner2 4, leaf 7, and they add up
    to the root duration.  Raises RuntimeError on any mismatch.
    """
    clock = _FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.tick(7)

    def inner1():
        clock.tick(5)
        leaf_w()
        clock.tick(1)

    def inner2():
        clock.tick(4)

    def outer():
        clock.tick(1)
        inner1_w()
        clock.tick(2)
        inner2_w()
        clock.tick(3)

    leaf_w = tracer.wrap("t.leaf", leaf)
    inner1_w = tracer.wrap("t.inner1", inner1)
    inner2_w = tracer.wrap("t.inner2", inner2)
    tracer.wrap("t.outer", outer)()
    tracer.trace_id = 1
    leaf_w()
    got = tracer.summary()
    want_self = {"t.outer": 6.0, "t.inner1": 6.0, "t.inner2": 4.0, "t.leaf": 14.0}
    want_calls = {"t.outer": 1, "t.inner1": 1, "t.inner2": 1, "t.leaf": 2}
    if got["self_s"] != want_self or got["calls"] != want_calls or got["traces"] != 2:
        raise RuntimeError(f"tracer self-check failed: {got}")
    if got["layer_self_s"] != {"t": 30.0}:
        raise RuntimeError(f"tracer self-check failed: layer sum {got['layer_self_s']} != 30")

    # a cached function is wrapped outside its cache: both calls count
    cached = functools.lru_cache(maxsize=None)(leaf)
    if not _wrappable(cached) or _wrappable(Tracer):
        raise RuntimeError("tracer self-check failed: lru_cache wrappers must be wrapped, classes not")
    tracer = Tracer(clock)
    traced = tracer.wrap("t.cached", cached)
    traced()
    traced()
    if tracer.summary()["calls"] != {"t.cached": 2}:
        raise RuntimeError(f"tracer self-check failed: cached calls {tracer.summary()['calls']} != 2")
