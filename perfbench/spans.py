"""Spans around the calls into each rmtdiff layer, installed from outside.

``Tracer.install`` replaces every public function of the layer modules by a
wrapper, in every ``rmtdiff`` module namespace that binds it (``aed_numeric``
is bound in ``asym_law``, ``harness``, ``moments`` and the package itself), so
calls made inside the library are seen as well as the benchmark's own.  Each
span records its name, start, end, parent span and run id; spans stay in
memory until ``write`` is called at the end of the run.  ``layer_metrics``
derives self time (a span's duration minus the part of it that its child
spans cover) and the counters from the spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
import types

LAYERS = (
    "sampling",
    "montecarlo",
    "harness",
    "asym_law",
    "moments",
    "specfun",
    "finite_law",
    "svgplot",
)

# Functions whose arguments say how much work a call does.  Draws are
# counted at the outermost sampling call only: pooled_spectrum's calls to
# difference_spectra run on its behalf.
_DRAW_FUNCS = {
    "montecarlo.difference_spectra",
    "montecarlo.pooled_spectrum",
    "montecarlo.trace_distance_mc",
    "montecarlo.operator_norm_mc",
    "montecarlo.mean_entropy_mc",
    "montecarlo.mean_purity_mc",
}
_FANOUT_FUNCS = {
    "montecarlo.pooled_spectrum",
    "montecarlo.trace_distance_mc",
    "montecarlo.operator_norm_mc",
}
_QUAD_FUNCS = {
    "moments.moment_via_quadrature",
    "moments.continuous_mass",
    "moments.distance_to_mixed_asymptotic",
}
_WRITE_FUNCS = {"harness.write_histogram_csv", "harness.write_xy_csv"}

# Per-layer metrics that are exact counts: they repeat exactly at one seed.
EXACT_COUNTERS = (
    "montecarlo.draws",
    "asym_law.aed_numeric.calls",
    "asym_law.find_support_numeric.calls",
    "finite_law.build_psi_poly.terms",
    "finite_law.joint_eigen_density.calls",
    "specfun.hyp2f1.calls",
)


def draw_class(n: int, m: int) -> str:
    """Sampling regime of an (N, M) ensemble: tiny, full-rank or rank-deficient."""
    if n <= 3:
        return "tiny"
    if n > 2 * m:
        return "rank_deficient"
    return "full_rank"


class Tracer:
    """Span recorder for one run; holds every span in memory until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # span tuple: (id, parent, name, start, end, cpu_start, cpu_end, raised, attrs)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._originals: list[tuple[types.ModuleType, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to the span that fanned it out,
        # which is the innermost span open on the (single) calling thread
        return self._main_stack[-1] if self._main_stack else None

    def span(self, name: str, attrs: dict | None = None) -> "_Span":
        """Context manager recording one span; ``attrs`` may be replaced inside it."""
        return _Span(self, name, attrs)

    def _wrap(self, fn, name: str):
        tracer = self
        binder = inspect.signature(fn) if name in _DRAW_FUNCS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if binder is not None:
                bound = binder.bind(*args, **kwargs)
                p = bound.arguments["params"]
                attrs = {
                    "n": p.n_small,
                    "m": p.m_large,
                    "draws": bound.arguments["n_samples"],
                    "workers": bound.arguments.get("workers", 1),
                }
            elif name == "asym_law.aed_curve":
                attrs = {"points": len(args[0]) if args else len(kwargs["xs"])}
            with tracer.span(name, attrs) as span:
                out = fn(*args, **kwargs)
                if name == "finite_law.build_psi_poly":
                    span.attrs = {"terms": out.term_count}
                return out

        return wrapper

    def install(self) -> None:
        """Wrap each layer's public functions wherever an rmtdiff module binds them."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"rmtdiff.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rmtdiff" or modname.startswith("rmtdiff.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip) with times relative to the first."""
        t_ref = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, t0, t1, c0, c1, raised, attrs in sorted(self.spans):
                rec = {
                    "run": self.run_id,
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": t0 - t_ref,
                    "end": t1 - t_ref,
                    "cpu": c1 - c0,
                    "raised": raised,
                }
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        tr = self.tracer
        self.stack = tr._stack()
        self.parent = tr._parent(self.stack)
        self.sid = next(tr._ids)
        self.stack.append(self.sid)
        self.c0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.t0, t1, self.c0, c1,
             exc_type is not None, self.attrs)
        )
        return False


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple], pace: dict[int, float]) -> dict[str, float]:
    """Per-layer self time, calls, errors, counters and rates from one pass's spans.

    ``pace`` maps the id of each job's root span to the machine pace its
    times are divided by.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {}
    root: dict[int, int] = {}
    for s in sorted(spans):  # a parent is opened, and numbered, before its children
        by_id[s[0]] = s
        root[s[0]] = s[0] if s[1] is None else root.get(s[1], s[1])
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0.0) + v

    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.errors"] = 0
    rate_time: dict[str, float] = {}
    for sid, parent, name, t0, t1, c0, c1, raised, attrs in spans:
        layer = name.partition(".")[0]
        if layer not in LAYERS:
            continue
        p = pace.get(root[sid], 1.0)
        self_s = ((t1 - t0) - _covered(children.get(sid, []), t0, t1)) / p
        add(f"{layer}.self_s", self_s)
        add(f"{layer}.calls", 1)
        add(f"{layer}.errors", int(raised))
        add(f"{name}.self_s", self_s)
        add(f"{name}.calls", 1)
        if name in _QUAD_FUNCS:
            add("moments.quad.self_s", self_s)
        if name in _WRITE_FUNCS:
            add("harness.write.self_s", self_s)
        if name in _DRAW_FUNCS and not (
            parent is not None and by_id.get(parent, (None,) * 3)[2] in _DRAW_FUNCS
        ):
            cls = draw_class(attrs["n"], attrs["m"])
            add("montecarlo.draws", attrs["draws"])
            add(f"montecarlo.draws.{cls}", attrs["draws"])
            rate_time[cls] = rate_time.get(cls, 0.0) + (t1 - t0) / p
            if name in _FANOUT_FUNCS:
                add("montecarlo.fanout.cpu_s", c1 - c0)
                add("montecarlo.fanout.wall_s", t1 - t0)
        if name == "asym_law.aed_curve":
            add("asym_law.aed_curve.points", attrs["points"])
            add("asym_law.aed_curve.wall_s", (t1 - t0) / p)
        if name == "finite_law.build_psi_poly" and attrs:
            add("finite_law.build_psi_poly.terms", attrs["terms"])
    for cls in ("rank_deficient", "full_rank", "tiny"):
        t = rate_time.get(cls, 0.0)
        out[f"montecarlo.draws_per_s.{cls}"] = out.get(f"montecarlo.draws.{cls}", 0) / t if t else 0.0
    wall = out.get("montecarlo.fanout.wall_s", 0.0)
    out["montecarlo.fanout.cpu_per_wall"] = out.get("montecarlo.fanout.cpu_s", 0.0) / wall if wall else 0.0
    wall = out.get("asym_law.aed_curve.wall_s", 0.0)
    out["asym_law.aed_curve.points_per_s"] = out.get("asym_law.aed_curve.points", 0) / wall if wall else 0.0
    return out
