"""Per-layer tracing from outside the library.

Every public function of each layer module is wrapped, and the wrapper is
installed on every binding of the function in every loaded ``arakelov``
module, so that intra-package calls made through names imported with
``from .x import f`` are traced too.  Spans nest on one stack (the benchmark
runs one client on one thread); a span's self time is its duration minus the
durations of the spans it directly contains.  Spans are aggregated in memory
as they close, because a single op makes up to millions of them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "arakelov"
LAYERS = ("places", "tree", "energy_ua", "lattes", "quartic", "energy_arch", "adelic")

# functions reported one by one; names that no longer exist read as zero
REPORTED = (
    "energy_arch.sample_lattes_equilibrium",
    "lattes.lattes_preimages",
    "quartic.poly_roots",
    "energy_arch.sq_energy_arch",
    "energy_arch.pair_energy_arch",
    "energy_arch.arch_self_energy",
    "tree.classify_pair",
    "tree.point_on_path",
    "tree.hsia_log_kernel",
    "places.log_abs",
    "places.padic_valuation",
    "energy_ua.energy_oracle",
    "energy_ua.energy_closed_form",
    "energy_ua.lower_bound_report",
    "lattes.torsion_images",
    "adelic.bft_scan",
    "adelic.global_energy",
    "adelic.local_pair_energy",
    "adelic.cloud_for_quadruple",
)


def _is_cloud(m) -> bool:
    return type(m).__name__ == "Cloud" and hasattr(m, "points")


def _count_cross_pairs(tracer, args, kwargs, result) -> None:
    # a cloud against itself is delegated to arch_self_energy, counted there
    if len(args) >= 2 and _is_cloud(args[0]) and _is_cloud(args[1]) and args[0] is not args[1]:
        tracer.counters["log_pairs"] += len(args[0].points) * len(args[1].points)


def _count_self_pairs(tracer, args, kwargs, result) -> None:
    if args and _is_cloud(args[0]):
        n = len(args[0].points)
        tracer.counters["log_pairs"] += n * (n - 1)


def _count_kept(tracer, args, kwargs, result) -> None:
    bound = tracer.signatures["adelic.cloud_for_quadruple"].bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counters["cloud_requested"] += int(bound.arguments["n"])
    tracer.counters["cloud_kept"] += len(result.points)


def _count_torsion_points(tracer, args, kwargs, result) -> None:
    tracer.counters["torsion_points"] += len(result)


HOOKS = {
    "energy_arch.pair_energy_arch": _count_cross_pairs,
    "energy_arch.arch_self_energy": _count_self_pairs,
    "adelic.cloud_for_quadruple": _count_kept,
    "lattes.torsion_images": _count_torsion_points,
}


class Tracer:
    """Wraps the layer functions; ``install`` and ``uninstall`` patch bindings."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, errors]
        self.counters = {
            "log_pairs": 0,
            "cloud_requested": 0,
            "cloud_kept": 0,
            "torsion_points": 0,
        }
        self.signatures: dict[str, inspect.Signature] = {}
        self.top_s = 0.0  # time covered by outermost spans
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                dur = clock() - t0
                stats[0] += 1
                stats[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.signatures[name] = inspect.signature(obj)
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls and self time, error totals, and the work counters."""
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            calls, self_s, errors = self.stats.get(name, (0, 0.0, 0))
            out[f"{name}.calls"] = (calls / ops, "calls/op")
            out[f"{name}.self_s"] = (self_s / ops, "s/op")
            out[f"{name}.errors"] = (errors, "count")
        for layer in LAYERS:
            total = sum(s[1] for n, s in self.stats.items() if n.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (total / ops, "s/op")
        c = self.counters
        out["energy_arch.log_pairs"] = (c["log_pairs"] / ops, "pairs/op")
        kept = c["cloud_kept"] / c["cloud_requested"] if c["cloud_requested"] else 0.0
        out["adelic.cloud_for_quadruple.kept_ratio"] = (kept, "ratio")
        calls = self.stats.get("lattes.torsion_images", (0,))[0]
        out["lattes.torsion_images.points"] = (
            c["torsion_points"] / calls if calls else 0.0,
            "points/call",
        )
        return out
