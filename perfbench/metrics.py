"""The benchmark's metrics: units, better directions and the layer map.

`BENCHMARK.json` at the repository root lists the same names, units and
directions; `selfcheck.py` keeps the two in step.  Per-layer metrics are per
op unless the name says otherwise (a ratio, a per-call mean or a series
length).  `MOVES` records, before any optimisation is measured, which
end-to-end metric on which workload each per-layer metric should move, and on
which workloads it should stay put.
"""

from __future__ import annotations

WORKLOADS = ("plane_covariance", "slice_oscillator", "star_products")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "accuracy_digits": ("digits", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_LAYERS = ("fieldgrid", "star", "phasecalc", "symbols", "operators", "moments", "dynamics")

PER_LAYER = {
    "star.calls.voros": ("count", "lower"),
    "star.calls.moyal": ("count", "lower"),
    "star.self_s.voros": ("s", "lower"),
    "star.self_s.moyal": ("s", "lower"),
    "star.total_s.voros": ("s", "lower"),
    "star.total_s.moyal": ("s", "lower"),
    "star.ifft2_per_call": ("count", "lower"),
    "star.narrow_pair.misses": ("count", "lower"),
    "moments.expectation.calls": ("count", "lower"),
    "moments.star_calls_per_expectation": ("count", "lower"),
    "phasecalc.phase_star.calls": ("count", "lower"),
    "phasecalc.phase_star.self_s": ("s", "lower"),
    "phasecalc.fft_calls": ("count", "lower"),
    "dynamics.eigh.calls": ("count", "lower"),
    "dynamics.eigh.self_s": ("s", "lower"),
    "dynamics.eigvalsh.calls": ("count", "lower"),
    "dynamics.evolve.self_s": ("s", "lower"),
    "dynamics.slice_density.series_terms": ("count", "lower"),
    "symbols.probability_density.series_terms": ("count", "lower"),
    "symbols.quasi_projection_apply.self_s": ("s", "lower"),
    "symbols.induced_inner_product.calls": ("count", "lower"),
    "operators.apply.self_s": ("s", "lower"),
    "fieldgrid.spectral_derivative.calls": ("count", "lower"),
    "fft.calls.fft": ("count", "lower"),
    "fft.calls.ifft": ("count", "lower"),
    "fft.calls.fft2": ("count", "lower"),
    "fft.calls.ifft2": ("count", "lower"),
    "fft.points": ("count", "lower"),
    "fft.gflop_computed": ("GFLOP", "lower"),
    **{f"self_s.{layer}": ("s", "lower") for layer in (*_LAYERS, "fft", "linalg", "unattributed")},
    "op.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_PLANE, _SLICE, _STAR = WORKLOADS

# per-layer metric prefix -> (workloads whose ops_per_s it should move,
#                             workloads on which it should not move)
MOVES = {
    "star.calls": ((_PLANE, _STAR), (_SLICE,)),
    "star.self_s": ((_PLANE, _STAR), (_SLICE,)),
    "star.total_s": ((_PLANE, _STAR), (_SLICE,)),
    "star.ifft2_per_call": ((_PLANE, _STAR), (_SLICE,)),
    "star.narrow_pair": ((), WORKLOADS),
    "moments": ((_PLANE,), (_STAR,)),
    "phasecalc": ((_SLICE,), (_STAR,)),
    "dynamics": ((_SLICE,), (_PLANE, _STAR)),
    "symbols": ((_SLICE, _PLANE), (_STAR,)),
    "operators": ((), ()),
    "fieldgrid": ((), ()),
    "fft": ((_PLANE, _STAR, _SLICE), ()),
    "self_s": (WORKLOADS, ()),
    "op": (WORKLOADS, ()),
    "trace": ((), WORKLOADS),
}


def moves(name: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(workloads it should move, workloads it should not) for one per-layer metric."""
    prefix = max((p for p in MOVES if name == p or name.startswith(p + ".")), key=len)
    return MOVES[prefix]
