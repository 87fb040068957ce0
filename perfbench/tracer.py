"""Span tracer for one innershape process, installed from outside the package.

``install`` wraps every public function of the layer modules at each place
another module binds it: ``from .metric import sharp`` copies the function
into the importing module, so patching only ``innershape.metric.sharp``
would miss those calls.  A module bound as an object (``from . import mesh
as meshio``) is replaced by a proxy that hands out the wrapped functions.
Calls inside one module are not spans: a span marks a layer boundary.

Each span is kept in memory as (name, start, end, parent) and written by
``dump`` when the process ends; ``analyse`` turns a dump into per-function
calls, self time and total time.  A few wrappers also record one number
per call (``extra``): the relative residual of every ``sharp`` solve and
the iteration count returned by ``register`` and ``karcher_mean``.
"""

import functools
import importlib
import inspect
import time

#: modules whose public functions are traced, in dependency order
LAYERS = ("mesh", "geometry", "metric", "shooting", "adjoint",
          "registration", "statistics", "cli")

#: bookkeeping span around the residual check, excluded from every layer
RESIDUAL_SPAN = "trace.residual"

_names: list[str] = []
_spans: list = []
_stack = [-1]
_extra: list[tuple[int, float]] = []


def _name_id(name: str) -> int:
    _names.append(name)
    return len(_names) - 1


def wrap(fn, name: str):
    """A wrapper that records one span per call of ``fn``."""
    nid = _name_id(name)
    clock = time.perf_counter

    def traced(*args, **kwargs):
        idx = len(_spans)
        _spans.append(None)
        parent = _stack[-1]
        _stack.append(idx)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            _stack.pop()
            _spans[idx] = (nid, start, end, parent)

    return functools.wraps(fn)(traced)


def _with_result(traced, record):
    """Record ``record(args, kwargs, result)`` against the span the call made."""

    def hooked(*args, **kwargs):
        idx = len(_spans)
        result = traced(*args, **kwargs)
        _extra.append((idx, float(record(args, kwargs, result))))
        return result

    return functools.wraps(traced)(hooked)


def _sharp_residual(np):
    rid = _name_id(RESIDUAL_SPAN)

    def record(args, kwargs, x):
        # timed as its own span so no layer's self time pays for it
        start = time.perf_counter()
        op, p = args[0], args[1]
        rhs = np.linalg.norm(p, axis=0)
        res = np.linalg.norm(op.block @ x - p, axis=0)
        worst = float(max((r / b for r, b in zip(res, rhs) if b > 0), default=0.0))
        _spans.append((rid, start, time.perf_counter(), _stack[-1]))
        return worst

    return record


def _iterations(args, kwargs, result):
    return result.iterations


class _ModuleProxy:
    """Stands in for a layer module bound by name in another module."""

    def __init__(self, module, wrapped):
        self._module = module
        self._wrapped = wrapped

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        return self._wrapped.get(value, value) if inspect.isfunction(value) else value


def install():
    """Wrap the layer functions at every binding site outside their module."""
    import numpy as np

    package = importlib.import_module("innershape")
    modules = [importlib.import_module(f"innershape.{name}") for name in LAYERS]
    hooks = {
        "metric.sharp": _sharp_residual(np),
        "registration.register": _iterations,
        "statistics.karcher_mean": _iterations,
    }
    wrapped = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                traced = wrap(value, name)
                if name in hooks:
                    traced = _with_result(traced, hooks[name])
                wrapped[value] = traced
    for module in modules + [package]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                if value.__module__ != module.__name__:
                    setattr(module, attr, wrapped[value])
            elif (inspect.ismodule(value) and value in modules
                  and module is not package and value is not module):
                setattr(module, attr, _ModuleProxy(value, wrapped))


def dump(path) -> None:
    """Write the recorded spans and per-call numbers as a numpy archive."""
    import numpy as np

    spans = [s for s in _spans if s is not None]
    arr = np.array(spans, dtype=float).reshape(-1, 4)
    extra = np.array(_extra, dtype=float).reshape(-1, 2)
    np.savez(path, names=np.array(_names), name=arr[:, 0].astype(np.int64),
             start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
             extra_span=extra[:, 0].astype(np.int64), extra_value=extra[:, 1])


def analyse(path) -> dict:
    """Per-function calls, self and total seconds, and per-call numbers.

    A span's self time is its duration minus the durations of its direct
    children; the residual bookkeeping spans are children like any other,
    so their cost leaves their parent's self time and is reported nowhere.
    """
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        extra_span, extra_value = data["extra_span"], data["extra_value"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=len(dur))
    self_time = dur - children
    calls = np.bincount(name, minlength=len(names))
    self_sum = np.bincount(name, weights=self_time, minlength=len(names))
    total_sum = np.bincount(name, weights=dur, minlength=len(names))
    stats = {}
    for nid, fname in enumerate(names):
        entry = stats.setdefault(fname, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                         "extra": []})
        entry["calls"] += int(calls[nid])
        entry["self_s"] += float(self_sum[nid])
        entry["total_s"] += float(total_sum[nid])
    for idx, value in zip(extra_span, extra_value):
        stats[names[name[idx]]]["extra"].append(float(value))
    # spans counted by (parent name, child name), e.g. shoots per registration
    child = np.nonzero(has_parent)[0]
    pair = name[parent[child]] * len(names) + name[child]
    keys, counts = np.unique(pair, return_counts=True)
    nested = {(names[k // len(names)], names[k % len(names)]): int(c)
              for k, c in zip(keys, counts)}
    return {"functions": stats, "nested": nested}
