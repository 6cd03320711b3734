"""Per-layer tracing for the traced pass, installed from outside the library.

Each wrapped public function of a ``pga`` module opens a span on entry and
closes it on exit.  Spans are aggregated in memory per layer name: the call
count, the self time (span duration minus the time covered by its child
spans) and a few work counters observed from arguments and results.  The
wrappers replace *every* binding of a wrapped function object: module
globals in every ``pga.*`` module (``from .x import f`` copies the binding)
and attributes of every class defined there (``__rmul__ = __mul__`` is a
second binding of one function).  ``Tracer.uninstall`` restores the
originals, so the untraced pass runs the library exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.peak = defaultdict(int)
        self.sums = defaultdict(int)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, observe=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, targets) -> None:
        """Wrap each (layer, function, observe) on every binding under ``pga``."""
        wrappers = {id(fn): (fn, self.wrap(layer, fn, observe)) for layer, fn, observe in targets}
        owners = []
        for name, mod in list(sys.modules.items()):
            if name == "pga" or name.startswith("pga."):
                owners.append(mod)
                owners.extend(
                    v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == name
                )
        bound = set()
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._restore.append((owner, attr, value))
                    bound.add(id(value))
        missing = [layer for layer, fn, _ in targets if id(fn) not in bound]
        if missing:
            raise RuntimeError(f"no binding found for traced layers {missing}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


# -- observers: work counters taken from arguments and results ----------------


def _observe_poly_mul(tracer, args, result):
    left, right = args
    if hasattr(right, "terms"):
        n = len(result.terms)
        tracer.peak["multimode.poly_mul.terms"] = max(tracer.peak["multimode.poly_mul.terms"], n)
        tracer.sums["multimode.poly_mul.result_terms"] += n
        tracer.sums["multimode.poly_mul.term_pairs"] += len(left.terms) * len(right.terms)


def _observe_matmul(tracer, args, result):
    if hasattr(result, "entries"):
        n = len(result.entries)
        tracer.peak["opmatrix.matmul.nnz"] = max(tracer.peak["opmatrix.matmul.nnz"], n)


def _observe_integrate_mode(tracer, args, result):
    tracer.sums["integration.integrate_mode.in_terms"] += len(args[0].terms)
    tracer.sums["integration.integrate_mode.out_terms"] += len(result.terms)


def targets(pga):
    """(layer, function, observe) for every traced public function."""
    q, om, mm = pga.qarith, pga.opmatrix, pga.multimode
    el, mat, poly = q.CycloElement, om.OpMatrix, mm.PGPolynomial
    out = [
        ("qarith.mul", el.__mul__, None),
        ("qarith.add", el.__add__, None),
        ("qarith.add", el.__sub__, None),
        ("qarith.add", el.__rsub__, None),
        ("qarith.inverse", el.inverse, None),
        ("qarith.make_context", q.make_context, None),
        ("qarith.to_json", el.to_json, None),
        ("opmatrix.matmul", mat.__matmul__, _observe_matmul),
        ("opmatrix.kron", mat.kron, None),
        ("opmatrix.scale", mat.scale, None),
        ("opmatrix.eq", mat.__eq__, None),
        ("opmatrix.to_json", mat.to_json, None),
        ("multimode.poly_mul", poly.__mul__, _observe_poly_mul),
        ("multimode.build_multimode", mm.build_multimode, None),
        ("multimode.check_relations", mm.check_relations, None),
        ("multimode.normal_order", mm.PGAlgebra.normal_order, None),
        ("multimode.word_matrix", mm.word_matrix, None),
        ("multimode.poly_matrix", mm.poly_matrix, None),
        ("integration.integrate_mode", pga.integration.integrate_mode, _observe_integrate_mode),
        ("integration.measure_poly", pga.integration.measure_poly, None),
        ("integration.pairing_integral", pga.integration.pairing_integral, None),
        ("integration.integral_via_derivatives", pga.integration.integral_via_derivatives, None),
        ("potts.z_paragrassmann", pga.potts.z_paragrassmann, None),
        ("potts.other_routes", pga.potts.z_closed, None),
        ("potts.other_routes", pga.potts.z_transfer, None),
        ("potts.other_routes", pga.potts.z_bruteforce, None),
        ("single_mode.build_rep", pga.single_mode.build_rep, None),
        ("cli.main", pga.cli.main, None),
    ]
    for layer in ("dynamics", "qgroup"):
        mod = getattr(pga, layer)
        out.extend(
            (layer, fn, None)
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
        )
    return out


# -- the per-layer metrics and where each is predicted to be non-zero ---------

_ALL = ("chain_integral", "relation_suite", "cli_mix")
_CHAIN = ("chain_integral", "cli_mix")
_MATRIX = ("relation_suite", "cli_mix")
_CLI = ("cli_mix",)

# name -> (unit, workloads on which it must read non-zero)
LAYER_METRICS = {
    "qarith.mul.calls": ("count", _ALL),
    "qarith.mul.self_s": ("s", _ALL),
    "qarith.add.calls": ("count", _ALL),
    "qarith.add.self_s": ("s", _ALL),
    "qarith.inverse.calls": ("count", _ALL),
    "qarith.inverse.self_s": ("s", _ALL),
    "qarith.make_context.self_s": ("s", _ALL),
    "qarith.to_json.self_s": ("s", _CLI),
    "opmatrix.to_json.self_s": ("s", _CLI),
    "opmatrix.matmul.calls": ("count", _MATRIX),
    "opmatrix.matmul.self_s": ("s", _MATRIX),
    "opmatrix.matmul.nnz_peak": ("count", _MATRIX),
    "opmatrix.kron.self_s": ("s", _MATRIX),
    "opmatrix.scale.calls": ("count", _MATRIX),
    "opmatrix.scale.self_s": ("s", _MATRIX),
    "opmatrix.eq.self_s": ("s", _MATRIX),
    "multimode.poly_mul.calls": ("count", _CHAIN),
    "multimode.poly_mul.self_s": ("s", _CHAIN),
    "multimode.poly_mul.terms_peak": ("count", _CHAIN),
    "multimode.poly_mul.pair_yield": ("ratio", _CHAIN),
    "multimode.build_multimode.self_s": ("s", _MATRIX),
    "multimode.check_relations.self_s": ("s", _MATRIX),
    "multimode.normal_order.self_s": ("s", _MATRIX),
    "multimode.word_matrix.self_s": ("s", _MATRIX),
    "multimode.poly_matrix.self_s": ("s", _MATRIX),
    "integration.integrate_mode.calls": ("count", _CHAIN),
    "integration.integrate_mode.self_s": ("s", _CHAIN),
    "integration.integrate_mode.keep_ratio": ("ratio", _CHAIN),
    "integration.measure_poly.self_s": ("s", _CHAIN),
    "integration.pairing_integral.calls": ("count", _CLI),
    "integration.pairing_integral.self_s": ("s", _CLI),
    "integration.integral_via_derivatives.calls": ("count", _CLI),
    "integration.integral_via_derivatives.self_s": ("s", _CLI),
    "potts.z_paragrassmann.self_s": ("s", _CHAIN),
    "potts.other_routes.self_s": ("s", _CLI),
    "single_mode.build_rep.calls": ("count", _MATRIX),
    "single_mode.build_rep.self_s": ("s", _MATRIX),
    "dynamics.self_s": ("s", _CLI),
    "qgroup.self_s": ("s", _CLI),
    "cli.main.calls": ("count", _CLI),
    "cli.main.self_s": ("s", _CLI),
    "trace.overhead_ratio": ("ratio", _ALL),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(parts, overhead_ratio: float) -> dict[str, float]:
    """Every metric of LAYER_METRICS from (tracer, weight) parts.

    Calls, self times and summed counters add up with their weights; peaks
    take the maximum.
    """

    def total(field, key):
        return sum(weight * getattr(tracer, field)[key] for tracer, weight in parts)

    values = {}
    for name in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = round(total(field, layer))  # every traced round makes the same calls
        elif field == "self_s":
            values[name] = total(field, layer)
    values["opmatrix.matmul.nnz_peak"] = max(t.peak["opmatrix.matmul.nnz"] for t, _ in parts)
    values["multimode.poly_mul.terms_peak"] = max(t.peak["multimode.poly_mul.terms"] for t, _ in parts)
    values["multimode.poly_mul.pair_yield"] = _ratio(
        total("sums", "multimode.poly_mul.result_terms"), total("sums", "multimode.poly_mul.term_pairs")
    )
    values["integration.integrate_mode.keep_ratio"] = _ratio(
        total("sums", "integration.integrate_mode.out_terms"),
        total("sums", "integration.integrate_mode.in_terms"),
    )
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def missing_predictions(workload: str, values: dict[str, float]) -> list[str]:
    """Metrics predicted non-zero on this workload that read zero."""
    return [
        name for name, (_, where) in LAYER_METRICS.items()
        if workload in where and not values[name] > 0
    ]
