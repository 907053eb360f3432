"""Spans and counts at the layer boundaries of `stanley`, recorded from outside.

The tracer replaces, for the length of one traced round, the names each
module imported from the others (for example `stanley.bound.sdepth_quotient`)
with wrappers that record a span: name, start, end, parent.  Spans are kept
in memory; a layer's self time is its spans' time less the time of their
child spans.  Hot calls (ideal construction, membership) are counted only.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, span name): what each module calls across a layer boundary
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_ideal", "parsing.parse_ideal"),
    ("cli", "generate_corpus", "corpus.generate_corpus"),
    ("cli", "decompose", "decomposition.decompose"),
    ("bound", "decompose", "decomposition.decompose"),
    ("corpus", "decompose", "decomposition.decompose"),
    ("bound", "size", "size.size"),
    ("cli", "check_size_inequality", "bound.check_size_inequality"),
    ("bound", "sdepth_lower_bound", "bound.sdepth_lower_bound"),
    ("bound", "enumerate_families", "bound.enumerate_families"),
    ("bound", "hypothesis_check", "bound.hypothesis_check"),
    ("corpus", "hypothesis_check", "bound.hypothesis_check"),
    ("cli", "verify_direct_sum", "bound.verify_direct_sum"),
    ("bound", "classify_monomial", "bound.classify_monomial"),
    ("bound", "sdepth_quotient", "sdepth.sdepth_quotient"),
    ("bound", "sdepth_ideal", "sdepth.sdepth_ideal"),
    ("cli", "sdepth_module", "sdepth.sdepth_module"),
    ("sdepth", "sdepth_module", "sdepth.sdepth_module"),
    ("sdepth", "characteristic_points", "sdepth.characteristic_points"),
    ("sdepth.StanleyDecomposition", "validate", "sdepth.validate"),
)

# (module, attribute, counter, amount taken from the call's arguments and result)
COUNTS = (
    ("core.MonomialIdeal", "__post_init__", "core.ideals_built", lambda a, r: 1),
    ("core.MonomialIdeal", "contains", "core.contains_calls", lambda a, r: 1),
    ("corpus", "random_ideal", "corpus.draws", lambda a, r: 1),
    ("bound", "enumerate_families", "bound.families", lambda a, r: len(r)),
    ("bound", "enumerate_families", "bound.multipliers",
     lambda a, r: sum(len(f.multipliers) for f in r)),
    ("bound", "sdepth_lower_bound", "bound.terms",
     lambda a, r: sum(len(pb.terms) for pb in r.per_pivot)),
    ("cli", "verify_direct_sum", "bound.monomials_checked", lambda a, r: r.checked),
    ("sdepth", "characteristic_points", "sdepth.points", lambda a, r: len(r)),
    ("sdepth.StanleyDecomposition", "validate", "sdepth.intervals",
     lambda a, r: len(a[0].intervals)),
)

PER_LAYER = (
    # name, unit
    ("bound.lower_bound_self_s", "s"), ("bound.families_s", "s"),
    ("bound.families", "count"), ("bound.multipliers", "count"),
    ("bound.terms", "count"), ("core.ideals_built", "count"),
    ("bound.verify_self_s", "s"), ("bound.classify_s", "s"),
    ("bound.monomials_checked", "count"), ("core.contains_calls", "count"),
    ("sdepth.search_s", "s"), ("sdepth.points_s", "s"), ("sdepth.points", "count"),
    ("sdepth.validate_s", "s"), ("sdepth.intervals", "count"),
    ("sdepth.calls", "count"), ("sdepth.cache_hits", "count"),
    ("sdepth.cache_hit_ratio", "ratio"),
    ("decomposition.decompose_s", "s"), ("decomposition.calls", "count"),
    ("size.size_s", "s"), ("bound.hypothesis_s", "s"),
    ("corpus.generate_s", "s"), ("corpus.draws", "count"),
    ("parsing.parse_s", "s"), ("cli.report_s", "s"),
    ("trace.overhead_s", "s"),
)


def _owner(path: str):
    """The module, or class inside a module, that holds a patched name."""
    module, _, cls = path.partition(".")
    owner = importlib.import_module("stanley." + module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans and counts while installed; restores every name on exit."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, completed]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap_span(self, fn, name):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[4] = True
                return result
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _wrap_count(self, fn, counter, amount):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += amount(args, result)
            return result
        return wrapper

    def _patch(self, path, attr, make):
        owner = _owner(path)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def __enter__(self):
        # counters sit inside the spans, so a span's time includes its counting
        for path, attr, counter, amount in COUNTS:
            self._patch(path, attr, lambda fn, c=counter, a=amount: self._wrap_count(fn, c, a))
        for path, attr, name in SPANS:
            self._patch(path, attr, lambda fn, n=name: self._wrap_span(fn, n))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        """Per-layer times and counts of everything recorded, by metric name."""
        total, own = Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        has_points = [False] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "sdepth.characteristic_points":
                    has_points[parent] = True
        calls = Counter()
        hits = 0
        for k, (name, start, end, parent, completed) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[k]
            calls[name] += 1
            # a search that returned without listing its poset was a cache hit
            if name == "sdepth.sdepth_module" and completed and not has_points[k]:
                hits += 1
        c = self.counts
        sdepth_calls = calls["sdepth.sdepth_module"]
        return {
            "bound.lower_bound_self_s": own["bound.sdepth_lower_bound"],
            "bound.families_s": total["bound.enumerate_families"],
            "bound.families": c["bound.families"],
            "bound.multipliers": c["bound.multipliers"],
            "bound.terms": c["bound.terms"],
            "core.ideals_built": c["core.ideals_built"],
            "bound.verify_self_s": own["bound.verify_direct_sum"],
            "bound.classify_s": total["bound.classify_monomial"],
            "bound.monomials_checked": c["bound.monomials_checked"],
            "core.contains_calls": c["core.contains_calls"],
            "sdepth.search_s": own["sdepth.sdepth_module"],
            "sdepth.points_s": total["sdepth.characteristic_points"],
            "sdepth.points": c["sdepth.points"],
            "sdepth.validate_s": total["sdepth.validate"],
            "sdepth.intervals": c["sdepth.intervals"],
            "sdepth.calls": sdepth_calls,
            "sdepth.cache_hits": hits,
            "sdepth.cache_hit_ratio": hits / sdepth_calls if sdepth_calls else 0.0,
            "decomposition.decompose_s": total["decomposition.decompose"],
            "decomposition.calls": calls["decomposition.decompose"],
            "size.size_s": total["size.size"],
            "bound.hypothesis_s": total["bound.hypothesis_check"],
            "corpus.generate_s": total["corpus.generate_corpus"],
            "corpus.draws": c["corpus.draws"],
            "parsing.parse_s": total["parsing.parse_ideal"],
            "cli.report_s": own["cli.main"],
        }
