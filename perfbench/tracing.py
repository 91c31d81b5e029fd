"""Span tracing of groupsynch's layers, installed from outside the package.

A :class:`Tracer` wraps the public functions of each layer module (the
functions named in the module's ``__all__`` and defined there) and rebinds
every ``groupsynch`` namespace that holds them: module attributes, including
names re-exported by ``groupsynch`` itself or imported by another module,
and module-level dicts of functions.  Each call records a span with its
name, layer, start, end, parent span and run id, plus a few numbers computed
from the call's arguments.  Spans stay in memory until :meth:`Tracer.write`.
Uninstalling restores every binding, so untraced code runs the original
functions with no wrapper left behind.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("groups", "ensembles", "models", "eigen", "detect", "ldlr", "bounds",
          "experiments")
ROOT_LAYER = "bench"
# Matrix order above which eigen.top_eigenvalue takes the Lanczos path; the
# value the eigen module used when this benchmark was defined, fixed here so
# the classification stays comparable across versions of the program.
DENSE_MAX_ORDER = 256

_MARK = "__perfbench_original__"


def _order(a):
    shape = getattr(a["h"], "shape", None)
    return {"order": int(shape[0] if shape else len(a["h"]))}


def _exact_key(a):
    L, n = int(a["L"]), int(a["n"])
    return {"key": [L, n, int(a["D"]), a["statistic"], bool(a["exact"])],
            "vectors": math.comb(n + L - 1, L - 1) if L >= 1 and n >= 0 else 0}


# Counts computed from call arguments, keyed by "<layer>.<function>".  Only
# small numbers are kept, never the arguments themselves, so spans do not
# hold matrices alive.
ANNOTATORS = {
    "eigen.top_eigenvalue": _order,
    "eigen.top_eigenvalues": _order,
    # Gaussian variates drawn by each ensemble sampler of size n
    "ensembles.sample_goe": lambda a: {"entries": a["n"] * (a["n"] + 1) // 2},
    "ensembles.sample_gue": lambda a: {"entries": a["n"] * a["n"]},
    "ensembles.sample_gse": lambda a: {"entries": 2 * a["n"] * a["n"] - a["n"]},
    "ldlr.ldlr_exact_multinomial": _exact_key,
    "ldlr.ldlr_montecarlo_overlap": lambda a: {"samples": int(a["samples"])},
    "ldlr.sample_overlaps": lambda a: {"samples": int(a["samples"])},
    "bounds.check_l3_moment_bound": lambda a: {"points": int(a["d_max"])},
    "experiments.write_csv": lambda a: {"rows": len(a["rows"])},
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = None
    parent: int = None
    run_id: str = None
    attrs: dict = field(default_factory=dict)
    error: str = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls into groupsynch while installed."""

    def __init__(self, run_id: str = None):
        self.spans: list[Span] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._bindings = []      # (namespace, key, original, is_dict)

    # -- spans -------------------------------------------------------------
    def open(self, name: str, layer: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, 0.0, parent=parent, run_id=self.run_id,
                    attrs=attrs or {})
        if layer == "ldlr":
            span.attrs["rss0_mb"] = _max_rss_mb()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return len(self.spans) - 1

    def close(self, idx: int, error: str = None) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span.end = end
        span.error = error
        if span.layer == "ldlr":
            span.attrs["rss1_mb"] = _max_rss_mb()
        self._stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        annotate = ANNOTATORS.get(full)
        sig = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if annotate is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = annotate(bound.arguments)
            idx = self.open(full, layer, attrs)
            error = None
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                self.close(idx, error)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        wrappers = {}           # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"groupsynch.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))

        def lookup(value):
            hit = wrappers.get(id(value))
            return hit if hit is not None and hit[0] is value else None

        for mod in groupsynch_modules():
            for key, value in list(vars(mod).items()):
                hit = lookup(value)
                if hit is not None:
                    setattr(mod, key, hit[1])
                    self._bindings.append((mod, key, value, False))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        hit = lookup(dvalue)
                        if hit is not None:
                            value[dkey] = hit[1]
                            self._bindings.append((value, dkey, dvalue, True))

    def uninstall(self) -> None:
        for namespace, key, original, is_dict in reversed(self._bindings):
            if is_dict:
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._bindings = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def groupsynch_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "groupsynch" or name.startswith("groupsynch."))]


def leftover_wrappers() -> list:
    """Names of groupsynch bindings that still hold a tracing wrapper."""
    found = []
    for mod in groupsynch_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]" for k, v in value.items()
                          if hasattr(v, _MARK)]
    return found


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _outermost(spans, names) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    keep = []
    for span in spans:
        if span.name not in names:
            continue
        p = span.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            keep.append(span)
    return keep


def _time(spans, *names) -> float:
    return sum(s.duration for s in _outermost(spans, set(names)))


def layer_metrics(spans) -> dict:
    """Per-layer self times, call counts and layer-specific counters.

    The self times of all layers plus ``bench.uncovered_s`` (the self time
    of the benchmark's own root spans) add up to the duration of the roots.
    """
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.layer == layer]
        out[f"{layer}.self_s"] = sum(selfs[i] for i in idx)
        out[f"{layer}.calls"] = len(idx)
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    out["bench.uncovered_s"] = sum(selfs[i] for i in roots if spans[i].layer == ROOT_LAYER)

    eig = _outermost(spans, {"eigen.top_eigenvalue", "eigen.top_eigenvalues"})
    out["eigen.lanczos_s"] = sum(s.duration for s in eig if s.attrs["order"] > DENSE_MAX_ORDER)
    out["eigen.dense_s"] = sum(s.duration for s in eig if s.attrs["order"] <= DENSE_MAX_ORDER)

    out["ensembles.entries"] = sum(s.attrs.get("entries", 0) for s in spans
                                   if s.layer == "ensembles")
    out["models.sample_s"] = _time(spans, "models.sample_signal", "models.sample_gsynch_circle",
                                   "models.sample_gsynch_cyclic", "models.sample_gsynch_group",
                                   "models.sample_indicator")
    out["models.indicator_s"] = _time(spans, "models.indicator_to_canonical")

    exact = [s for s in spans if s.name == "ldlr.ldlr_exact_multinomial"]
    out["ldlr.exact_s"] = _time(spans, "ldlr.ldlr_exact_multinomial", "ldlr.moment_table")
    out["ldlr.bruteforce_s"] = _time(spans, "ldlr.ldlr_bruteforce_signals")
    out["ldlr.md_s"] = _time(spans, "ldlr.md_count", "ldlr.ldlr_from_md")
    out["ldlr.count_vectors"] = sum(s.attrs["vectors"] for s in exact if s.error is None)
    distinct = {json.dumps(s.attrs["key"]) for s in exact}
    out["ldlr.distinct_tables_ratio"] = len(distinct) / len(exact) if exact else 0.0
    out["ldlr.fallbacks"] = sum(s.error == "ResourceLimitError" for s in exact)
    mc = _outermost(spans, {"ldlr.ldlr_montecarlo_overlap", "ldlr.sample_overlaps"})
    out["ldlr.mc_s"] = sum(s.duration for s in mc)
    out["ldlr.mc_samples"] = sum(s.attrs["samples"] for s in mc)
    out["ldlr.rss_growth_mb"] = max((s.attrs["rss1_mb"] - s.attrs["rss0_mb"]
                                     for s in spans if s.layer == "ldlr"), default=0.0)

    out["bounds.clt_s"] = _time(spans, "bounds.check_clt_moment_bound")
    out["bounds.t_recursion_s"] = _time(spans, "bounds.check_t_recursion")
    out["bounds.l3_s"] = _time(spans, "bounds.check_l3_moment_bound")
    out["bounds.points"] = sum(
        s.attrs.get("points", 1) for s in spans
        if s.name in ("bounds.check_clt_moment_bound", "bounds.check_t_recursion",
                      "bounds.check_l3_moment_bound"))
    out["detect.trials"] = sum(s.name == "detect.max_top_eigenvalue" for s in spans)
    out["experiments.rows"] = sum(s.attrs["rows"] for s in spans
                                  if s.name == "experiments.write_csv")
    return out
