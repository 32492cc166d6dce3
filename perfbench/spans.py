"""Per-layer tracing from outside the program.

Every public function of each nonresidue module is wrapped in a span,
outside its lru_cache, in every module namespace that bound it (a name
imported with `from .x import f` is patched where it was bound too).
A span's self time is its duration minus the time of the spans it
called.  Spans are aggregated per function as they close; nothing is
written until the run ends.  quad is counted, not timed: its time stays
in the kernels function that called it, and its evaluation count comes
from its own `neval`.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "nonresidue"
LAYERS = ("arith", "characters", "search", "bounds", "lfunctions", "explicit_formula", "kernels", "cli")

# (layer, function) -> (stats reported, workload on which calls must be
# nonzero; "*" for every workload)
REPORTED = {
    ("arith", "unit_group_structure"): (("calls", "hit_ratio", "self_s", "bytes_built"), "scan"),
    ("arith", "factorize"): (("calls", "hit_ratio", "self_s"), "scan"),
    ("arith", "primes_up_to"): (("calls", "self_s"), "scan"),
    ("arith", "is_prime"): (("calls", "self_s"), "scan"),
    ("characters", "kth_power_subgroup"): (("calls", "self_s"), "scan"),
    ("characters", "kronecker_character_table"): (("calls", "hit_ratio", "self_s"), "classnum"),
    ("characters", "primitive_characters"): (("calls", "self_s", "items"), "residuals"),
    ("search", "least_prime_outside_subgroup"): (("calls", "self_s", "examined"), "scan"),
    ("search", "least_qnr"): (("calls", "self_s", "examined"), "scan"),
    ("search", "least_prime_all_classes"): (("calls", "self_s"), "scan"),
    ("bounds", "verify_qnr"): (("self_s",), "scan"),
    ("bounds", "verify_subgroup"): (("self_s",), "scan"),
    ("bounds", "verify_ap"): (("self_s",), "scan"),
    ("bounds", "verify_classnum"): (("self_s",), "classnum"),
    ("lfunctions", "hurwitz_laurent_pair"): (("calls", "hit_ratio", "self_s"), "residuals"),
    ("lfunctions", "l_at_1"): (("calls", "self_s"), "residuals"),
    ("lfunctions", "re_b"): (("calls", "self_s"), "residuals"),
    ("lfunctions", "class_number_bqf"): (("self_s",), "classnum"),
    ("lfunctions", "class_number_via_formula"): (("self_s",), "classnum"),
    ("explicit_formula", "cheb_log_sum"): (("calls", "self_s"), "residuals"),
    ("explicit_formula", "weighted_psi_sum"): (("calls", "self_s"), "residuals"),
    ("explicit_formula", "loglog_sum"): (("calls", "self_s"), "residuals"),
    ("kernels", "line_l1"): (("calls", "self_s"), "kernel-opt"),
    ("kernels", "weighted_integral"): (("calls", "self_s"), "kernel-opt"),
    ("kernels", "optimize_lambda"): (("calls", "self_s"), "kernel-opt"),
    ("cli", "emit_reports"): (("self_s", "bytes"), "*"),
}
# Public functions left unwrapped.  kronecker is called once per prime
# from inside kronecker_character_table (two million calls on classnum), so
# a span would mostly time itself; its time stays in the caller's span,
# in the same layer.
UNSPANNED = {("characters", "kronecker")}
TWISTED_SUMS = ("cheb_log_sum", "weighted_psi_sum", "loglog_sum")
# Counters that are not spans of their own.
EXTRA = (
    ("explicit_formula.twisted_terms", "count", "lower"),
    ("kernels.quad.calls", "count", "lower"),
    ("kernels.quad.evals", "count", "lower"),
)
UNITS = {
    "calls": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "self_s": ("s", "lower"),
    "bytes_built": ("B", "lower"),
    "examined": ("count", "lower"),
    "items": ("count", "lower"),
    "bytes": ("B", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for (layer, fn), (stats, _) in REPORTED.items():
        out += [(f"{layer}.{fn}.{s}", *UNITS[s]) for s in stats]
    out += list(EXTRA)
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Wraps the package's public functions; `uninstall` restores them."""

    def __init__(self):
        self.stats: dict[tuple[str, str], _Stat] = {}
        self.originals: dict[tuple[str, str], object] = {}
        self.extra = {name: 0 for name, _, _ in EXTRA}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache_start: dict[tuple[str, str], tuple[int, int]] = {}
        self._terms_at: dict[float, int] = {}
        self._built = weakref.WeakSet()

    # -- installation -------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _targets(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if (layer, name) in UNSPANNED:
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    yield layer, name, obj

    def install(self) -> None:
        wrappers = {}
        for layer, name, fn in self._targets():
            key = (layer, name)
            self.stats[key] = _Stat()
            self.originals[key] = fn
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self._cache_start[key] = (info.hits, info.misses)
            wrappers[id(fn)] = self._span(key, fn)
        kernels = sys.modules[f"{PACKAGE}.kernels"]
        wrappers[id(kernels.quad)] = self._counted_quad(kernels.quad)
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------

    def _span(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        after = self._after_hook(key)
        before = self._before_hook(key)

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after:
                after(stat, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key[1])
        return traced

    def _before_hook(self, key):
        if key == ("cli", "emit_reports"):
            return lambda args, kwargs: _stream_arg(args, kwargs).tell()
        return None

    def _after_hook(self, key):
        layer, name = key
        if key == ("arith", "unit_group_structure"):
            return self._count_built
        if layer == "search" and name in ("least_prime_outside_subgroup", "least_qnr"):
            return lambda stat, a, k, res, _: stat.add("examined", res.examined)
        if key == ("characters", "primitive_characters"):
            return lambda stat, a, k, res, _: stat.add("items", len(res))
        if layer == "explicit_formula" and name in TWISTED_SUMS:
            return self._count_terms
        if key == ("cli", "emit_reports"):
            return lambda stat, a, k, res, start: stat.add("bytes", _stream_arg(a, k).tell() - start)
        return None

    def _count_built(self, stat, args, kwargs, struct, _):
        # A result not seen before was built by this call, not read from the cache.
        if struct not in self._built:
            self._built.add(struct)
            stat.add("bytes_built", sum(t.nbytes for t in struct.dlogs) + struct.unit_mask.nbytes)

    def _count_terms(self, _stat, args, kwargs, _res, _):
        chi = args[1] if len(args) > 1 else kwargs.get("chi")
        x = args[0] if args else kwargs["x"]
        if chi is None or x <= 1:
            return
        n = self._terms_at.get(x)
        if n is None:
            table = self.originals[("explicit_formula", "prime_power_table")](x)
            n = self._terms_at[x] = int(np.searchsorted(table.n, math.floor(x), side="right"))
        self.extra["explicit_formula.twisted_terms"] += n

    def _counted_quad(self, quad):
        extra = self.extra

        def counted(*args, **kwargs):
            full = kwargs.pop("full_output", 0)
            out = quad(*args, full_output=1, **kwargs)
            extra["kernels.quad.calls"] += 1
            extra["kernels.quad.evals"] += out[2]["neval"]
            return out if full else out[:2]

        return counted

    # -- results ------------------------------------------------------

    def _cache_delta(self, key) -> tuple[int, int]:
        info = self.originals[key].cache_info()
        hits0, misses0 = self._cache_start[key]
        return info.hits - hits0, info.misses - misses0

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, (stats, _) in REPORTED.items():
            st = self.stats.get(key, _Stat())
            for s in stats:
                name = f"{key[0]}.{key[1]}.{s}"
                if s == "calls":
                    out[name] = st.calls
                elif s == "self_s":
                    out[name] = st.self_s
                elif s == "hit_ratio":
                    hits, misses = self._cache_delta(key) if key in self._cache_start else (0, 0)
                    out[name] = hits / (hits + misses) if hits + misses else 0.0
                else:
                    out[name] = st.counts.get(s, 0)
        out.update(self.extra)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = math.fsum(st.self_s for (lay, _), st in self.stats.items() if lay == layer)
        return out

    def coverage_problems(self, workload: str) -> list[str]:
        """Traced calls must equal the cache's own call count, and every
        reported function must be called on the workload it belongs to."""
        problems = []
        for key in self._cache_start:
            hits, misses = self._cache_delta(key)
            calls = self.stats[key].calls
            if calls != hits + misses:
                problems.append(f"{key[0]}.{key[1]}: traced {calls} calls, cache saw {hits + misses}")
        for key, (_, home) in REPORTED.items():
            if key not in self.stats:
                problems.append(f"{key[0]}.{key[1]}: no such public function")
            elif home in (workload, "*") and self.stats[key].calls == 0:
                problems.append(f"{key[0]}.{key[1]}: no calls on {workload}")
        return problems


def _stream_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["stream"]
