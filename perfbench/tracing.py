"""Layer tracing for the simpleloop CLI, installed from outside the package.

`Tracer.install` wraps the public functions and methods of the package's
layers without editing them. A module-level function is replaced on every
module attribute that a caller resolves at call time: `canonical_class` is
wrapped as `simpleloop.curves.canonical_class` (the twist BFS) and as
`simpleloop.quotient.canonical_class` (the kernel search). Public methods of
`CoverCW`, `QuotientMap` and `GroupContext` are wrapped on the class. Calls
made inside `simpleloop.words` itself stay unwrapped: that is the leaf layer,
and its helpers run once per letter.

Each wrapped call records a span (name, start, end, parent) in flat arrays
held in memory; `dump` writes them out when the traced process ends, and
`summarize` turns them into per-name call counts, total time and self time
(span time minus the time its child spans cover), split by pipeline stage.
"""

import functools
import importlib
import json
import time
from array import array

PACKAGE = "simpleloop"
LAYERS = ("cli", "curves", "quotient", "cover", "gf2", "words")
# Modules whose attributes are patched; words is the leaf and is patched only
# where other modules bind its functions.
CALLER_MODULES = ("cli", "curves", "quotient", "cover", "gf2")
CLASSES = (("cover", "CoverCW"), ("gf2", "QuotientMap"), ("quotient", "GroupContext"))
# Called once per letter (the search loop's order key, the lift's edge
# index); a span there would cost more than the work it measures.
UNTRACED = frozenset({"letter_order_key", "edge_index"})

ROOT_SPAN = "cli.main"
# The spans directly under a CLI command, keyed by span name.
STAGES = {
    "cover.build_mod2_cover": "cover.build",
    "curves.generate_simple_classes": "curves.generate",
    "curves.verify_non_geometric": "curves.verify",
    "curves.lemma_check": "curves.lemma",
    "quotient.search_kernel_elements": "quotient.search",
    "quotient.empirical_image_rank": "quotient.image_rank",
}
# Counters taken at a layer boundary: len() of the returned value.
RESULT_COUNTS = {
    "curves.generate_simple_classes": "curves.classes",
    "quotient.search_kernel_elements": "quotient.search.witnesses",
}
# Spans whose distinct values of one positional argument are counted.
DISTINCT_ARG = {"cover.deck_action": 1}


class Tracer:
    """In-memory span recorder; spans are numbered in call order."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.distinct = {}
        self._stack = [-1]

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records a span called name."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTS.get(name)
        arg_index = DISTINCT_ARG.get(name)
        counters = self.counters
        seen = self.distinct.setdefault(name, set()) if arg_index is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + len(result)
            if seen is not None:
                seen.add(args[arg_index])
            return result

        return traced

    def install(self):
        """Wrap the layers of the imported simpleloop package in place."""
        modules = {
            short: importlib.import_module("%s.%s" % (PACKAGE, short))
            for short in LAYERS
        }
        layer_of = {mod.__name__: short for short, mod in modules.items()}
        for short in CALLER_MODULES:
            module = modules[short]
            for attr, obj in list(vars(module).items()):
                owner = layer_of.get(getattr(obj, "__module__", None))
                if (
                    owner is None
                    or attr.startswith("_")
                    or attr in UNTRACED
                    or isinstance(obj, type)
                    or not callable(obj)
                ):
                    continue
                setattr(module, attr, self.wrap("%s.%s" % (owner, attr), obj))
        for short, cls_name in CLASSES:
            cls = getattr(modules[short], cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or attr in UNTRACED or not callable(obj):
                    continue
                setattr(cls, attr, self.wrap("%s.%s" % (short, attr), obj))

    def dump(self, path):
        """Write the spans: a JSON header at path, the arrays at path + '.bin'."""
        header = {
            "names": self.names,
            "n_spans": len(self.name_id),
            "counters": self.counters,
            "distinct": {name: len(vals) for name, vals in self.distinct.items()},
        }
        with open(path + ".bin", "wb") as handle:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)
        with open(path, "w") as handle:
            json.dump(header, handle)


def load(path):
    """Read a dump back as (header, name_id, parent, start, end)."""
    with open(path) as handle:
        header = json.load(handle)
    n = header["n_spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as handle:
        for arr in arrays:
            arr.fromfile(handle, n)
    return (header, *arrays)


def summarize(names, name_id, parent, start, end):
    """Aggregate spans by (name, stage).

    Returns:
        Dict with "calls", "total_s" and "self_s", each keyed by
        (span name, stage name or None); "stages": (stage, seconds) for the
        outermost span of each stage, in call order; and "root_s", the
        summed duration of the root spans named ROOT_SPAN.
    """
    n = len(name_id)
    dur = [end[i] - start[i] for i in range(n)]
    covered = [0.0] * n
    stage_of = [None] * n
    stages = []
    root_s = 0.0
    for i in range(n):
        p = parent[i]
        name = names[name_id[i]]
        if p >= 0:
            covered[p] += dur[i]
            stage_of[i] = stage_of[p]
        elif name == ROOT_SPAN:
            root_s += dur[i]
        if stage_of[i] is None and name in STAGES:
            stage_of[i] = STAGES[name]
            stages.append((STAGES[name], dur[i]))
    calls, total_s, self_s = {}, {}, {}
    for i in range(n):
        key = (names[name_id[i]], stage_of[i])
        calls[key] = calls.get(key, 0) + 1
        total_s[key] = total_s.get(key, 0.0) + dur[i]
        self_s[key] = self_s.get(key, 0.0) + dur[i] - covered[i]
    return {
        "calls": calls,
        "total_s": total_s,
        "self_s": self_s,
        "stages": stages,
        "root_s": root_s,
    }
