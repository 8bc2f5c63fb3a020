"""Per-layer tracing from outside the package.

`install()` replaces each public function and method listed in `LAYERS` at
every module attribute that binds it (so `invariants.entering_time` and
`regions.entering_time` both go through the same wrapper) with a wrapper that
keeps a stack of layer frames.  A call opens a frame only when it enters a
different layer from the one on top of the stack; calls inside the layer that
is already open pass straight through.  On exit a frame adds its duration
minus its children's durations to the layer's self time.

Layers in `SPAN_LAYERS` also record a span (name, start, end, parent span);
the others are hot leaves and only keep aggregated counts and times.
Everything stays in memory until `snapshot()` hands it to the caller.
Nothing under `src/` is changed: the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# layer -> [(module, attribute path)]; a path "Cls.meth" names a method.
LAYERS = {
    "exact.solve": [("exact", "F2Matrix.solve")],
    "exact.nullspace": [("exact", "F2Matrix.nullspace")],
    "exact.rank": [("exact", "F2Matrix.rank")],
    "exact.space": [("exact", "F2Space.__init__"), ("exact", "F2Space.add"),
                    ("exact", "F2Space.reduce"), ("exact", "F2Space.contains")],
    "regions.entering_time": [("regions", "entering_time"), ("regions", "contains"),
                              ("regions", "HalfPlane.entering_time")],
    "regions.parse": [("regions", "parse_region")],
    "regions.pl": [("regions", "PLFunction.__post_init__"), ("regions", "PLFunction.__call__"),
                   ("regions", "pl_eval"), ("regions", "pl_add"), ("regions", "pl_negate_scale"),
                   ("regions", "pl_singular_points"), ("regions", "pl_constant")],
    "invariants.region": [("invariants", "upsilon_region"), ("invariants", "upsilon_at"),
                          ("invariants", "h0_surjective")],
    "invariants.curve": [("invariants", "upsilon_function"), ("invariants", "breaking_points")],
    "invariants.kl": [("invariants", "kim_livingston")],
    "invariants.secondary": [("invariants", "secondary")],
    "invariants.eta": [("invariants", "eta")],
    "invariants.vk": [("invariants", "vk"), ("invariants", "nu_plus"),
                      ("invariants", "d_invariant")],
    "invariants.oracle": [("invariants", "brute_force_upsilon"),
                          ("invariants", "brute_force_secondary"),
                          ("invariants", "kim_livingston_oracle")],
    "complexes.tensor": [("complexes", "tensor"), ("complexes", "mirror")],
    "complexes.slice": [("complexes", "maslov_slice"), ("complexes", "boundary_matrix")],
    "complexes.repcycle": [("complexes", "representative_cycle")],
    "complexes.validate": [("complexes", "validate_complex")],
    "complexes.json": [("complexes", "to_json_dict"), ("complexes", "from_json_dict"),
                       ("complexes", "load_complex"), ("complexes", "save_complex")],
    "zoo.build": [("zoo", name) for name in (
        "torus_knot", "pretzel", "thin_model", "unknot", "staircase_from_jumps",
        "semigroup_from_generators", "semigroup_from_puiseux", "jumps_from_semigroup",
        "jumps_from_alexander", "alexander_from_semigroup", "alexander_pretzel",
        "n_of_semigroup")],
    "cli.parse": [("cli", "parse_knot_expr"), ("cli", "knot_expr_to_text")],
    "cli.main": [("cli", "main"), ("cli", "build_complex")],
}

SPAN_LAYERS = {
    "invariants.region", "invariants.curve", "invariants.kl", "invariants.secondary",
    "invariants.eta", "invariants.vk", "invariants.oracle", "complexes.tensor",
    "complexes.slice", "complexes.repcycle", "complexes.validate", "complexes.json",
    "zoo.build", "regions.parse", "cli.parse", "cli.main",
}

# The per-layer metrics, in BENCHMARK.json order; cli.import.s is measured by
# the traced command process itself.
METRICS = [
    "exact.solve.calls", "exact.solve.bits", "exact.solve.s",
    "exact.nullspace.calls", "exact.nullspace.s", "exact.space.calls", "exact.space.s",
    "exact.rank.s",
    "regions.entering_time.calls", "regions.entering_time.s", "regions.parse.s", "regions.pl.s",
    "invariants.region.calls", "invariants.region.s",
    "invariants.curve.calls", "invariants.curve.s", "invariants.kl.calls", "invariants.kl.s",
    "invariants.secondary.calls", "invariants.secondary.s", "invariants.eta.s",
    "invariants.vk.s", "invariants.oracle.s",
    "complexes.tensor.s", "complexes.slice.s", "complexes.repcycle.s",
    "complexes.validate.s", "complexes.json.s",
    "zoo.build.calls", "zoo.build.s",
    "cli.import.s", "cli.parse.s", "cli.main.s",
]

MODULES = ("exact", "complexes", "regions", "invariants", "zoo", "cli")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [layer, start, child_seconds, span index or None]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.bits: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (name, start, end, parent span index or None)

    def snapshot(self) -> dict:
        """The totals as {metric: value}, plus the spans."""
        out = dict.fromkeys(METRICS, 0)
        out.update({f"{layer}.calls": n for layer, n in self.calls.items()})
        out.update({f"{layer}.s": s for layer, s in self.self_s.items()})
        out.update({f"{layer}.bits": b for layer, b in self.bits.items()})
        return {"metrics": {m: out[m] for m in METRICS}, "spans": self.spans}


TRACER = Tracer()


def _solve_bits(args) -> int:
    matrix = args[0]
    return matrix.nrows * matrix.ncols


def _wrap(fn, layer: str, name: str):
    tracer = TRACER
    stack = tracer.stack
    keep_span = layer in SPAN_LAYERS
    bits = _solve_bits if layer == "exact.solve" else None
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled or (stack and stack[-1][0] == layer):
            return fn(*args, **kwargs)
        parent_span = None
        for frame in reversed(stack):
            if frame[3] is not None:
                parent_span = frame[3]
                break
        span = None
        if keep_span:
            span = len(tracer.spans)
            tracer.spans.append(None)
        frame = [layer, clock(), 0.0, span]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - frame[1]
            tracer.self_s[layer] += duration - frame[2]
            tracer.calls[layer] += 1
            if bits is not None:
                tracer.bits[layer] += bits(args)
            if stack:
                stack[-1][2] += duration
            if span is not None:
                tracer.spans[span] = (name, frame[1], end, parent_span)

    return wrapper


def install() -> Tracer:
    """Wrap every listed function at each of its bindings; call once per process."""
    mods = {m: importlib.import_module(f"upsilonkit.{m}") for m in MODULES}
    bindings = [importlib.import_module("upsilonkit"), *mods.values()]
    for layer, targets in LAYERS.items():
        for mod_name, path in targets:
            owner = mods[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # the package no longer has this name
            wrapper = _wrap(original, layer, f"{mod_name}.{path}")
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return TRACER
