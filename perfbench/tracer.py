"""Per-layer spans and counters, installed on altkit from outside.

The traced run replaces public functions and methods of altkit's modules
with timing wrappers, and puts the original objects back afterwards.  A
function imported by name into several modules is replaced wherever a
module holds it, so every lookup site is timed.  Nothing here reads
program state beyond call arguments and results.  A target missing at
some commit leaves its layer absent instead of failing the run.

Each wrapped call is a span.  A layer's ``ms`` is self time: the span's
duration minus the part its wrapped child spans cover.
"""

import functools
import sys
import time
from collections import Counter

# the per-layer metrics, in report order
LAYER_METRICS = (
    "ring_core.poly_mul.calls",
    "ring_core.poly_mul.ms",
    "ring_core.det.calls",
    "ring_core.det.ms",
    "ring_core.det.max_size",
    "ring_core.parse.ms",
    "tensor_algebra.mul.calls",
    "tensor_algebra.mul.ms",
    "tensor_algebra.mul.terms_in",
    "tensor_algebra.mul.terms_out",
    "tensor_algebra.invariance.calls",
    "tensor_algebra.invariance.ms",
    "tensor_algebra.permute.calls",
    "tensor_algebra.permute.ms",
    "alternator.signed_sum.calls",
    "alternator.signed_sum.ms",
    "alternator.signed_sum.terms_in",
    "alternator.anchor.calls",
    "alternator.anchor.ms",
    "span_solver.coordinates.calls",
    "span_solver.coordinates.ms",
    "span_solver.normalize.calls",
    "span_solver.normalize.ms",
    "span_solver.divide.calls",
    "span_solver.divide.ms",
    "span_solver.divide.fail_ratio",
    "span_solver.asq_exp.max",
    "norm_universal.trace_check.ms",
    "norm_universal.pullback.ms",
    "norm_universal.discriminant.ms",
    "gen_etale.probe.calls",
    "gen_etale.probe.ms",
    "gen_etale.probe.dets",
    "gen_etale.pullback_plus.ms",
    "gen_etale.b_plus.ms",
    "gen_etale.norm_plus.ms",
    "cli.build_instance.ms",
    "cli.render.ms",
)

PROBE = "gen_etale.probe"
# counters that keep a peak rather than a sum
PEAKS = ("ring_core.det.max_size", "span_solver.asq_exp.max")


def _tensor_terms(x):
    terms = getattr(x, "terms", None)
    return len(terms) if isinstance(terms, dict) else 0


def _count_mul(tracer, args, result):
    tracer.counts["tensor_algebra.mul.terms_in"] += sum(map(_tensor_terms, args))
    tracer.counts["tensor_algebra.mul.terms_out"] += _tensor_terms(result)


def _count_signed_sum(tracer, args, result):
    tracer.counts["alternator.signed_sum.terms_in"] += _tensor_terms(args[0])


def _count_det(tracer, args, result):
    tracer.peak("ring_core.det.max_size", len(args[0]))
    if tracer.open[PROBE]:
        tracer.counts["gen_etale.probe.dets"] += 1


def _count_divide(tracer, args, result):
    if result is None:
        tracer.counts["span_solver.divide.failures"] += 1


def _count_normalize(tracer, args, result):
    tracer.peak("span_solver.asq_exp.max", getattr(args[0], "exp", 0))


# (layer, module, attribute path, counter hook).  No ``_``-private name and
# no one-line alias (tensor_add, scalar_mul, module-level permute,
# make_finite_algebra, make_norm_map, make_norm_map_plus) is wrapped.
TARGETS = (
    ("ring_core.poly_mul", "ring_core", "MultiPoly.__mul__", None),
    ("ring_core.det", "ring_core", "det_generic", _count_det),
    ("ring_core.parse", "ring_core", "parse_expression", None),
    ("tensor_algebra.mul", "tensor_algebra", "Tensor.__mul__", _count_mul),
    ("tensor_algebra.invariance", "tensor_algebra", "is_symmetric", None),
    ("tensor_algebra.invariance", "tensor_algebra", "is_sym_n11", None),
    ("tensor_algebra.permute", "tensor_algebra", "Tensor.permute", None),
    ("alternator.signed_sum", "alternator", "alpha_map", _count_signed_sum),
    ("alternator.signed_sum", "alternator", "alpha_n11", _count_signed_sum),
    ("alternator.signed_sum", "alternator", "alpha", None),
    ("alternator.anchor", "alternator", "AlternatorInstance.__init__", None),
    ("span_solver.coordinates", "span_solver", "coordinates", None),
    ("span_solver.coordinates", "span_solver", "coordinates_of_invariant", None),
    ("span_solver.normalize", "span_solver", "LocalizedElem.normalize", _count_normalize),
    ("span_solver.divide", "span_solver", "tensor_divide_exact", _count_divide),
    ("norm_universal.trace_check", "norm_universal", "trace_formula_check", None),
    ("norm_universal.trace_check", "norm_universal", "traceexp_check", None),
    ("norm_universal.pullback", "norm_universal", "verify_pullback", None),
    ("norm_universal.discriminant", "norm_universal", "discriminant", None),
    ("gen_etale.probe", "gen_etale", "diagonal_support_probe", None),
    ("gen_etale.pullback_plus", "gen_etale", "verify_pullback_plus", None),
    ("gen_etale.b_plus", "gen_etale", "b_plus", None),
    ("gen_etale.norm_plus", "gen_etale", "NormMapPlus.pair_image", None),
    ("gen_etale.norm_plus", "gen_etale", "NormMapPlus.fraction_image", None),
    ("gen_etale.norm_plus", "gen_etale", "NormMapPlus.localized_image", None),
    ("cli.build_instance", "cli", "build_instance", None),
    ("cli.render", "cli", "render_report", None),
)


class Tracer:
    """Span and counter totals for the wrapped layers of one process."""

    def __init__(self):
        self.stack = []  # one [child_ns] cell per open span
        self.open = Counter()
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.maxima = {}
        self.installed = []  # (owner, attribute, original)
        self.layers = set()
        self.missing = []

    def peak(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def _wrap(self, layer, fn, hook):
        stack, open_, calls, self_ns = self.stack, self.open, self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            open_[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_[layer] -= 1
                stack.pop()
                self_ns[layer] += elapsed - cell[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap every target found in the loaded modules of ``package``."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for layer, modname, path, hook in TARGETS:
            module = sys.modules.get(f"{package}.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(layer, original, hook)
            sites = [owner] if owner_name else [
                m for m in modules if vars(m).get(attr) is original
            ]
            for site in sites:
                setattr(site, attr, wrapper)
                self.installed.append((site, attr, original))
            self.layers.add(layer)

    def restore(self):
        """Put every original object back; raise if one did not return."""
        for site, attr, original in reversed(self.installed):
            setattr(site, attr, original)
        stray = [
            f"{getattr(site, '__name__', site)}.{attr}"
            for site, attr, original in self.installed
            if vars(site).get(attr) is not original
        ]
        self.installed = []
        if stray:
            raise RuntimeError(f"wrapped objects not restored: {', '.join(stray)}")

    def snapshot(self):
        """Running sums of every layer's calls, self time and counters, and
        the peaks seen since the last ``reset_peaks``."""
        out = {}
        for layer in self.layers:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.ms"] = self.self_ns[layer] / 1e6
        out.update(self.counts)
        out.update(self.maxima)
        return out

    def reset_peaks(self):
        self.maxima = {}


def accrue(total, before, after):
    """Add to total what accrued between two snapshots; peaks take the max."""
    for name, value in after.items():
        if name in PEAKS:
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value - before.get(name, 0)
    return total


# metrics that need a layer other than the one their name starts with
_NEEDS = {
    "span_solver.asq_exp.max": ("span_solver.normalize",),
    "gen_etale.probe.dets": ("gen_etale.probe", "ring_core.det"),
}


def unit(name):
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("fail_ratio") or name == "trace_overhead":
        return "ratio"
    return "count"


def layer_metrics(values, layers):
    """The per-layer metrics of one round; a missing layer's are left out."""
    out = {}
    for name in LAYER_METRICS:
        needs = _NEEDS.get(name, (name.rsplit(".", 1)[0],))
        if not all(layer in layers for layer in needs):
            continue
        if name == "span_solver.divide.fail_ratio":
            calls = values.get("span_solver.divide.calls", 0)
            failures = values.get("span_solver.divide.failures", 0)
            out[name] = failures / calls if calls else 0.0
        else:
            out[name] = values.get(name, 0)
    return out
