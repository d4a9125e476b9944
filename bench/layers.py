"""Layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of the ``autoind``
modules.  A function is rebound in every ``autoind`` module namespace that
imported it (``adelic`` binds its own ``delta_map``, ``cli`` its own
``ai_transfer``), so calls between modules are seen too.  Each wrapper keeps
a stack of open spans: a layer's self time is its span time minus the time
of the spans opened inside it.  Spans of the coarse layers are kept in
memory as ``(op, layer, parent, start, duration)`` and written out by
``dump``; the arith layers, called millions of times, are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from math import factorial
from time import perf_counter

PLACES = (1, 2, 3)
ADELIC = ("global_ai_lift", "separate", "check_global_compat", "lemma46_local_identity")

# layer name -> what is wrapped for it: (module, class or None, attribute).
# A module function is rebound wherever it was imported.  A target the
# program no longer has is skipped, and its layer reads 0.
LAYERS = {
    "arith.cyclo_new": [("arith", "Cyclo", "__init__")],
    "arith.cyclo_mul": [("arith", "Cyclo", "__mul__")],
    "arith.qcyclo_mul": [("arith", "QCyclo", "__mul__")],
    "arith.qcyclo_add": [("arith", "QCyclo", "__add__")],
    "arith.qcyclo_sum": [("arith", "QCyclo", "sum")],
    "arith.qcyclo_eq": [("arith", "QCyclo", "__eq__")],
    "arith.coordinate": [("arith", "Coordinate", m) for m in ("__mul__", "__pow__", "root", "inverse")],
    "arith.cyclotomic_polynomial": [("arith", None, "cyclotomic_polynomial")],
    "hecke.symlaurent_mul": [("hecke", "SymLaurent", "__mul__")],
}
FUNCTIONS = (
    "satake.delta_map", "satake.bc_map", "satake.ai_fiber", "satake.bc_fiber",
    "satake.check_ia_bc_compat", "hecke.satake_eval", "hecke.to_power_sums",
    "hecke.from_power_sums", "hecke.ai_transfer", "hecke.bc_transfer",
    "reps.lift_unitary", "reps.specialize", "reps.fiber_unitary", "reps.is_generic",
    *(f"adelic.{fn}" for fn in ADELIC),
)
LAYERS.update({name: [(name.split(".")[0], None, name.split(".")[1])] for name in FUNCTIONS})

# layer names as reported: adelic layers are bucketed by number of places
REPORTED = [n for n in LAYERS if not n.startswith("adelic.")] + [
    f"adelic.{fn}.places{p}" for fn in ADELIC for p in PLACES
]
COUNTERS = ("arith.cyclo_mul.conductor_max", "hecke.satake_eval.orbit_terms", "satake.fiber_members")
MAX_SPANS = 200_000


def _orbit_size(exps) -> int:
    out = factorial(len(exps))
    for m in Counter(exps).values():
        out //= factorial(m)
    return out


def _count(tracer, layer, args, out):
    """Counters read at the layer boundary, from its arguments and result."""
    c = tracer.counters
    if layer == "arith.cyclo_mul":
        conductor = getattr(out, "conductor", 0)
        c["arith.cyclo_mul.conductor_max"] = max(c["arith.cyclo_mul.conductor_max"], conductor)
    elif layer == "hecke.satake_eval":
        c["hecke.satake_eval.orbit_terms"] += sum(_orbit_size(k) for k in getattr(args[0], "terms", ()))
    elif layer in ("satake.ai_fiber", "satake.bc_fiber"):
        c["satake.fiber_members"] += len(out)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in REPORTED}  # calls, self_s, errors
        self.counters = Counter({name: 0 for name in COUNTERS})
        self.spans = []
        self.stack = []  # open spans: [layer, child seconds]
        self.op = 0
        self.tag = None  # number of places of the current op (adelic buckets)
        self.paused = False
        self._undo = []

    def _wrap(self, layer, fn):
        tracer = self
        coarse = not layer.startswith("arith.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            name = f"{layer}.places{tracer.tag}" if layer.startswith("adelic.") else layer
            stack = tracer.stack
            frame = [name, 0.0]
            stack.append(frame)
            stats = tracer.stats.setdefault(name, [0, 0.0, 0])
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt - frame[1]
                if coarse and len(tracer.spans) < MAX_SPANS:
                    parent = stack[-1][0] if stack else None
                    tracer.spans.append((tracer.op, name, parent, t0, dt))
            _count(tracer, layer, args, out)
            return out

        return wrapper

    def install(self):
        """Wrap every layer; ``uninstall`` restores the original bindings."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "autoind"]
        for layer, targets in LAYERS.items():
            for module, cls, attr in targets:
                mod = sys.modules.get(f"autoind.{module}")
                owner = getattr(mod, cls, None) if cls else mod
                if owner is None or attr not in vars(owner):
                    continue
                if cls:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        new = self._wrap(layer, raw)
                    self._undo.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                fn = getattr(owner, attr)
                new = self._wrap(layer, fn)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, name, fn))
                            setattr(mod, name, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def metrics(self):
        out = {}
        for name in REPORTED:
            calls, self_s, errors = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.errors"] = (errors, "count")
        for name in COUNTERS:
            out[name] = (self.counters[name], "count")
        return out

    def dump(self, path):
        """Write the kept spans as JSON lines, start times relative to the first."""
        t0 = self.spans[0][3] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, name, parent, start, dt in self.spans:
                fh.write(json.dumps({"op": op, "layer": name, "parent": parent,
                                     "start_s": start - t0, "dur_s": dt}) + "\n")
