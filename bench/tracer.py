"""Outside-in tracing of pcbideal: spans around the public functions.

Tracer.install() wraps every public function of pcbideal.intmat, core,
decomp, the oracle modules and cli, plus the method Ideal.groebner. Modules
import these functions by name (`from .intmat import determinant`), so each
wrapper replaces the original in every pcbideal module namespace that holds
it. A span is [name, start, end, parent index, raised, result size]; spans
stay in memory and are written out by dump() when the round ends.
aggregate() turns a span list into the per-layer statistics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List

LAYERS = {
    "pcbideal.intmat": "intmat",
    "pcbideal.core": "core",
    "pcbideal.decomp": "decomp",
    "pcbideal.oracle.field": "oracle",
    "pcbideal.oracle.groebner": "oracle",
    "pcbideal.oracle.ideal": "oracle",
    "pcbideal.oracle.order": "oracle",
    "pcbideal.oracle.poly": "oracle",
    "pcbideal.cli": "cli",
}
# groebner_basis time is split by the nearest enclosing span among these.
CALLERS = ("oracle.ring_map_kernel", "oracle.intersect", "oracle.colon",
           "oracle.saturate", "decomp.embedded_component")
GROEBNER = "oracle.groebner_basis"
IDEAL_GROEBNER = "oracle.Ideal.groebner"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _wrap(self, name, fn, sized=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False, -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if sized:
                    span[5] = len(result)
                return result
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import pcbideal.cli  # noqa: F401  (loads every traced module)
        from pcbideal.oracle.ideal import Ideal

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("pcbideal") and m]
        for modname, layer in LAYERS.items():
            for attr, fn in list(vars(sys.modules[modname]).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, sized=(name == GROEBNER))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
        Ideal.groebner = self._wrap(IDEAL_GROEBNER, Ideal.groebner)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def aggregate(spans: List[list]) -> Dict[str, float]:
    """Per-function calls, busy_s (outermost calls only), self_s, errors,
    plus the groebner_basis split by caller, its result sizes and the
    Ideal.groebner hit ratio, all as flat `<layer>.<function>.<stat>` keys."""
    n = len(spans)
    child_time = [0.0] * n
    ran_groebner = set()
    out: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, raised, size) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
        outermost, caller = True, None
        p = parent
        while p >= 0:
            pname = spans[p][0]
            if pname == name:
                outermost = False
            if caller is None and pname in CALLERS:
                caller = pname
            if name == GROEBNER and pname == IDEAL_GROEBNER:
                ran_groebner.add(p)
            p = spans[p][3]
        out[f"{name}.calls"] += 1
        out[f"{name}.errors"] += raised
        if outermost:
            out[f"{name}.busy_s"] += dur
        if name == GROEBNER:
            under = caller.split(".")[1] if caller else "other"
            out[f"{name}.under_{under}.busy_s"] += dur
            out[f"{name}.out_size_max"] = max(out[f"{name}.out_size_max"], size)
            out[f"{name}.out_size_total"] += size
    for i, span in enumerate(spans):
        out[f"{span[0]}.self_s"] += (span[2] - span[1]) - child_time[i]
    calls = out.get(f"{IDEAL_GROEBNER}.calls", 0)
    out[f"{IDEAL_GROEBNER}.hit_ratio"] = (calls - len(ran_groebner)) / calls if calls else 0.0
    return dict(out)
