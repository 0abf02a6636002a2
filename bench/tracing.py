"""Spans around the calls into each ``torelli`` layer, from outside the package.

:class:`Tracer` wraps the public functions named in :data:`LAYERS` in every
``torelli`` module namespace that binds them, so calls made from inside the
package are seen too.  Each span records its name, start, end, parent span
and query id; spans stay in memory until :meth:`Tracer.dump`.  A few
functions also record a work count taken from their arguments or result.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = {
    "cli": ("main",),
    "mcglib": ("parse_map_file", "parse_tor_file", "builtin_entries"),
    "freegroup": ("validate", "compose", "apply"),
    "magnus": ("magnus_expand",),
    "freelie": ("to_lyndon_coords", "bracket_map", "lyndon_basis"),
    "johnson": ("filtration_depth", "tau", "tau_tower", "bordant",
                "morita_check"),
    "spinquad": ("rho", "validate_descriptor", "enumerate_forms", "eta2"),
    "present": ("present_mapping_torus", "present_filled"),
}


def _magnus_counts(args, result):
    terms = [(d, len(b)) for d, b in result.terms.items() if d >= 1]
    low = min((d for d, _ in terms), default=None)
    return {"letters_in": len(args[0]),
            "terms_out": sum(n for _, n in terms),
            "useful_terms": sum(n for d, n in terms if d <= low) if terms else 0}


# name -> f(args, result) -> {counter: value}
COUNTERS = {
    "mcglib.parse_map_file": lambda a, r: {"bytes": len(a[0].encode())},
    "freegroup.apply": lambda a, r: {"letters_out": len(r)},
    "magnus.magnus_expand": _magnus_counts,
    "spinquad.enumerate_forms": lambda a, r: {"forms_out": len(r)},
}

# The per-layer metrics a traced run reports, as (name, unit).  Per query.
METRICS = [("cli.main.calls", "count"), ("cli.main.self_ms", "ms"),
           ("mcglib.parse_map_file.self_ms", "ms"),
           ("mcglib.parse_map_file.bytes", "bytes"),
           ("mcglib.parse_tor_file.self_ms", "ms"),
           ("mcglib.builtin_entries.calls", "count"),
           ("mcglib.builtin_entries.self_ms", "ms"),
           ("freegroup.validate.calls", "count"),
           ("freegroup.validate.self_ms", "ms"),
           ("freegroup.compose.calls", "count"),
           ("freegroup.compose.self_ms", "ms"),
           ("freegroup.apply.self_ms", "ms"),
           ("freegroup.apply.letters_out", "count"),
           ("magnus.magnus_expand.calls", "count"),
           ("magnus.magnus_expand.self_ms", "ms"),
           ("magnus.magnus_expand.letters_in", "count"),
           ("magnus.magnus_expand.terms_out", "count"),
           ("magnus.magnus_expand.useful_share", "share"),
           ("freelie.to_lyndon_coords.calls", "count"),
           ("freelie.to_lyndon_coords.self_ms", "ms"),
           ("freelie.bracket_map.self_ms", "ms"),
           ("freelie.lyndon_basis.self_ms", "ms")]
METRICS += [(f"johnson.{f}.{m}", u)
            for f in LAYERS["johnson"] for m, u in (("calls", "count"),
                                                    ("self_ms", "ms"))]
METRICS += [("spinquad.rho.calls", "count"), ("spinquad.rho.self_ms", "ms"),
            ("spinquad.validate_descriptor.calls", "count"),
            ("spinquad.validate_descriptor.self_ms", "ms"),
            ("spinquad.enumerate_forms.self_ms", "ms"),
            ("spinquad.enumerate_forms.forms_out", "count"),
            ("spinquad.eta2.self_ms", "ms"),
            ("present.present_mapping_torus.self_ms", "ms"),
            ("present.present_filled.self_ms", "ms"),
            ("trace.overhead_share", "share")]


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, query id]
        self.counts = {}    # (name, counter) -> total
        self.query = None
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.query]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, val in counter(args, result).items():
                    self.counts[name, key] = self.counts.get((name, key), 0) + val
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every torelli-module attribute that names a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "torelli" or n.startswith("torelli.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"torelli.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def layer_metrics(self, queries: int) -> dict:
        """Per-query calls, self time and work counts for every traced name.

        Self time is a span's duration minus the time its direct children
        cover; calls are strictly nested in one thread, so children never
        overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _q in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = {}, {}
        for i, (name, start, end, _p, _q) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        out = {}
        for metric, _unit in METRICS:
            name, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(name, 0) / queries
            elif field == "self_ms":
                out[metric] = 1000.0 * self_s.get(name, 0.0) / queries
            elif field == "useful_share":
                total = self.counts.get((name, "terms_out"), 0)
                useful = self.counts.get((name, "useful_terms"), 0)
                out[metric] = useful / total if total else 0.0
            elif name != "trace":
                out[metric] = self.counts.get((name, field), 0) / queries
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)
