"""Span tracing of starqm from outside the library.

`Tracer.installed()` wraps every public function of the starqm layer modules,
the transforms of `numpy.fft` and `scipy.fft`, and the dense Hermitian
eigensolvers of `scipy.linalg` and `numpy.linalg`.  Every name bound to an
original function in a starqm module (including names brought in with
`from .star import star` and the like) is rebound to its wrapper, and all of
it is restored on exit.  Nothing inside `src/` changes.

Each wrapped call records one span: name, layer, parent span, op id, start,
end and self time (duration minus the time covered by child spans).  Spans
stay in memory; `aggregate` turns them into the per-layer metrics and
`write` dumps them as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict

import numpy.fft
import numpy.linalg
import scipy.fft
import scipy.linalg

import starqm

# `starqm.star` is rebound to the star function by the package, so the layer
# modules are looked up by their full names.
LAYERS = ("fieldgrid", "star", "phasecalc", "symbols", "operators", "moments", "dynamics")
LAYER_MODULES = tuple(importlib.import_module(f"starqm.{name}") for name in LAYERS)
_STAR = LAYER_MODULES[LAYERS.index("star")].star

FFT_MODULES = (numpy.fft, scipy.fft)
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")
FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn")
LINALG_FUNCS = {scipy.linalg: ("eigh", "eigvalsh"), numpy.linalg: ("eigh", "eigvalsh")}

# Span fields, stored as plain lists to keep tracing cheap.
_ID, _PARENT, _OP, _NAME, _LAYER, _START, _END, _CHILD, _ATTRS = range(9)


def _fft_work(kind: str, args: tuple, kwargs: dict) -> tuple[int, float]:
    """(points, computed flops) of one transform: 5 N log2 N per transformed axis set."""
    arr = args[0] if args else kwargs.get("x", kwargs.get("a"))
    shape = getattr(arr, "shape", ())
    size = math.prod(shape) if shape else 1
    if not shape:
        return size, 0.0
    if kind in FFT_1D:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        axes = (axis,)
    elif kind in FFT_2D:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = range(len(shape))
    n = math.prod(shape[a] for a in axes)
    return size, 5.0 * size * math.log2(n) if n > 1 else 0.0


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._op_id: int | None = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, attrs=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), parent[_ID] if parent else None, self._op_id, name, layer,
                    0.0, 0.0, 0.0, attrs(args, kwargs) if attrs else None]
            spans.append(span)
            stack.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += end - span[_START]
            meta = getattr(result, "metadata", None)
            if isinstance(meta, dict) and "series_terms" in meta:
                span[_ATTRS] = {**(span[_ATTRS] or {}), "series_terms": meta["series_terms"]}
            return result

        return traced

    def run_op(self, op_id: int, workload: str, fn):
        """Run fn() as the root span of one op; its self time is the unattributed remainder."""
        self._op_id = op_id
        try:
            return self._wrap(fn, f"op.{workload}", "bench")()
        finally:
            self._op_id = None

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        saved: list[tuple[object, str, object]] = []

        def rebind(mod, attr, new):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)

        try:
            wrappers = {}
            for mod, layer in zip(LAYER_MODULES, LAYERS):
                for attr, fn in vars(mod).items():
                    if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        attrs = _star_attrs if fn is _STAR else None
                        wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer, attrs)
            for mod in (starqm, *LAYER_MODULES):
                for attr, fn in list(vars(mod).items()):
                    if inspect.isfunction(fn) and fn in wrappers:
                        rebind(mod, attr, wrappers[fn])
            for mod in FFT_MODULES:
                for kind in FFT_1D + FFT_2D + FFT_ND:
                    fn = getattr(mod, kind)
                    rebind(mod, kind, self._wrap(fn, f"fft.{kind}", "fft", _fft_attrs(kind)))
            for mod, names in LINALG_FUNCS.items():
                for kind in names:
                    rebind(mod, kind, self._wrap(getattr(mod, kind), f"linalg.{kind}", "linalg"))
            yield self
        finally:
            for mod, attr, old in reversed(saved):
                setattr(mod, attr, old)

    # -- reporting ---------------------------------------------------------

    def write(self, path, extra: dict) -> None:
        fields = ("id", "parent", "op", "name", "layer", "start", "end", "child_s", "attrs")
        with open(path, "w") as fh:
            json.dump({**extra, "span_fields": fields, "spans": self.spans}, fh)


def _star_attrs(args, kwargs):
    kernel = args[0] if args else kwargs["kernel"]
    return {"flavor": kernel.flavor}


def _fft_attrs(kind):
    def attrs(args, kwargs):
        points, flops = _fft_work(kind, args, kwargs)
        return {"points": points, "flops": flops}
    return attrs


def aggregate(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics, each per op unless it is a ratio or a per-call mean."""
    by_id = {s[_ID]: s for s in spans}

    def ancestors(s):
        while s[_PARENT] is not None:
            s = by_id[s[_PARENT]]
            yield s

    def owner(s):
        """Nearest enclosing starqm layer of a library (fft, linalg) span."""
        return next((a[_LAYER] for a in ancestors(s) if a[_LAYER] in LAYERS), "bench")

    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    terms: defaultdict = defaultdict(list)
    ifft2_in_star = 0
    star_in_expectation = 0
    points = flops = 0.0
    op_wall = 0.0
    for s in spans:
        name, layer, attrs = s[_NAME], s[_LAYER], s[_ATTRS] or {}
        dur = s[_END] - s[_START]
        own = dur - s[_CHILD]
        if layer == "bench":
            op_wall += dur
        if name == "star.star":
            name = f"star.star.{attrs['flavor']}"
            star_in_expectation += any(a[_NAME] == "moments.expectation" for a in ancestors(s))
        elif layer == "fft":
            points += attrs["points"]
            flops += attrs["flops"]
            calls[f"{owner(s)}.fft"] += 1
            ifft2_in_star += name == "fft.ifft2" and any(a[_NAME] == "star.star" for a in ancestors(s))
        elif layer == "linalg":
            name = f"{owner(s)}.{name.split('.', 1)[1]}"
        calls[name] += 1
        self_s[name] += own
        total_s[name] += dur
        layer_self[layer] += own
        if "series_terms" in attrs:
            terms[name].append(attrs["series_terms"])

    n = n_ops
    star_calls = calls["star.star.voros"] + calls["star.star.moyal"]
    exp_calls = calls["moments.expectation"]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    out = {
        "star.calls.voros": calls["star.star.voros"] / n,
        "star.calls.moyal": calls["star.star.moyal"] / n,
        "star.self_s.voros": self_s["star.star.voros"] / n,
        "star.self_s.moyal": self_s["star.star.moyal"] / n,
        "star.total_s.voros": total_s["star.star.voros"] / n,
        "star.total_s.moyal": total_s["star.star.moyal"] / n,
        "star.ifft2_per_call": ifft2_in_star / star_calls if star_calls else 0.0,
        "moments.expectation.calls": exp_calls / n,
        "moments.star_calls_per_expectation": star_in_expectation / exp_calls if exp_calls else 0.0,
        "phasecalc.phase_star.calls": calls["phasecalc.phase_star"] / n,
        "phasecalc.phase_star.self_s": self_s["phasecalc.phase_star"] / n,
        "phasecalc.fft_calls": calls["phasecalc.fft"] / n,
        "dynamics.eigh.calls": calls["dynamics.eigh"] / n,
        "dynamics.eigh.self_s": self_s["dynamics.eigh"] / n,
        "dynamics.eigvalsh.calls": calls["dynamics.eigvalsh"] / n,
        "dynamics.evolve.self_s": self_s["dynamics.evolve"] / n,
        "dynamics.slice_density.series_terms": mean(terms["dynamics.slice_density"]),
        "symbols.probability_density.series_terms": mean(terms["symbols.probability_density"]),
        "symbols.quasi_projection_apply.self_s": self_s["symbols.quasi_projection_apply"] / n,
        "symbols.induced_inner_product.calls": calls["symbols.induced_inner_product"] / n,
        "operators.apply.self_s": self_s["operators.apply"] / n,
        "fieldgrid.spectral_derivative.calls": calls["fieldgrid.spectral_derivative"] / n,
        "fft.points": points / n,
        "fft.gflop_computed": flops / 1e9 / n,
        "op.traced_wall_s": op_wall / n,
    }
    for kind in ("fft", "ifft", "fft2", "ifft2"):
        out[f"fft.calls.{kind}"] = calls[f"fft.{kind}"] / n
    for layer in (*LAYERS, "fft", "linalg"):
        out[f"self_s.{layer}"] = layer_self[layer] / n
    out["self_s.unattributed"] = layer_self["bench"] / n
    return out
