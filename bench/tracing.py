"""Per-layer spans and counts for latround, installed from outside the package.

The layers are latround's modules.  ``Tracer`` wraps each listed public
function in every loaded latround module that holds it (several are imported
by name into their callers), records one span (name, start, end, parent) per
call, and puts every original object back when it exits.  A layer's self time
is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

LAYERS = {
    "kernel": ("latround._kernel", ("lp_feasible", "solve_square", "nullspace_vector")),
    "geometry": (
        "latround.exact_geometry",
        ("hull_membership", "_membership_support", "caratheodory_reduce", "hull_facets"),
    ),
    "predicates": (
        "latround.discrete_sets",
        ("integral_convexity_witness", "mnat_violation", "lnat_violation", "find_hole"),
    ),
    "minkowski": ("latround.minkowski", ("minkowski_sum", "find_holes")),
    "pipeline": (
        "latround.shapley_folkman",
        (
            "sf_round_linf",
            "sf_round_l2",
            "mnat_round",
            "lnat_round",
            "decompose_into_summand_hulls",
            "local_restrictions",
            "sf_decompose",
            "cube_round",
        ),
    ),
    "cli": ("latround.cli", ("main", "load_set_file")),
}


def _count_extras(counts, key, args, result):
    """Work and outcome counts taken where the work happens."""
    if key == "kernel.lp_feasible":
        rows = args[0]
        counts["kernel.lp_feasible.entries"] += len(rows) * len(rows[0]) if rows else 0
    elif key == "kernel.solve_square":
        counts["kernel.solve_square.singular"] += result is None
    elif key.startswith("predicates."):
        counts["predicates.witnesses"] += result is not None
    elif key == "minkowski.minkowski_sum":
        tuples = 1
        for s in result.summands:
            tuples *= len(s)
        counts["minkowski.tuples"] += tuples
        counts["minkowski.sum_points"] += len(result)


class Tracer:
    """Context manager that traces latround's layer boundaries.

    It may be entered again after it exits; spans and counts accumulate.
    """

    def __init__(self):
        self.keys = [  # metric prefixes layer.function, in LAYERS order
            f"{layer}.{name.lstrip('_')}" for layer, (_, names) in LAYERS.items() for name in names
        ]
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = dict.fromkeys(
            (
                "kernel.lp_feasible.entries",
                "kernel.solve_square.singular",
                "predicates.witnesses",
                "minkowski.tuples",
                "minkowski.sum_points",
            ),
            0,
        )
        self.patched = []  # (module, attribute, original)
        self._stack = []

    def _wrap(self, index, original):
        key = self.keys[index]
        stack = self._stack
        keys, parents, starts, ends = self.span_key, self.span_parent, self.span_start, self.span_end
        counts = self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(keys)
            keys.append(index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            _count_extras(counts, key, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "latround" or name.startswith("latround."))
        ]
        index = 0
        for home, names in LAYERS.values():
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self._wrap(index, original)
                index += 1
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        return False

    def restored(self) -> bool:
        """Whether every wrapped name holds its original object again."""
        return all(getattr(mod, attr) is original for mod, attr, original in self.patched)

    def metrics(self, wall_s: float) -> dict:
        """Calls, inclusive seconds, layer self seconds and the count ratios.

        ``wall_s`` is the traced phase's wall time; what no span covers is
        reported as ``bench.self_s``.
        """
        nfun = len(self.keys)
        calls = [0] * nfun
        secs = [0.0] * nfun
        selfs = [0.0] * nfun
        child = [0.0] * len(self.span_key)
        roots = 0.0
        for span in range(len(self.span_key) - 1, -1, -1):
            dur = self.span_end[span] - self.span_start[span]
            k = self.span_key[span]
            calls[k] += 1
            secs[k] += dur
            selfs[k] += dur - child[span]
            parent = self.span_parent[span]
            if parent >= 0:
                child[parent] += dur
            else:
                roots += dur
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for k, key in enumerate(self.keys):
            out[f"{key}.calls"] = (calls[k], "count")
            out[f"{key}.s"] = (secs[k], "s")
            layer_self[key.split(".", 1)[0]] += selfs[k]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = (value, "s")
        out["bench.self_s"] = (wall_s - roots, "s")
        c = self.counts
        by_key = dict(zip(self.keys, calls))
        predicate_calls = sum(n for key, n in by_key.items() if key.startswith("predicates."))
        out["kernel.lp_feasible.entries"] = (c["kernel.lp_feasible.entries"], "count")
        out["kernel.solve_square.singular_frac"] = (
            _ratio(c["kernel.solve_square.singular"], by_key["kernel.solve_square"]),
            "ratio",
        )
        out["predicates.witness_frac"] = (_ratio(c["predicates.witnesses"], predicate_calls), "ratio")
        out["minkowski.tuples"] = (c["minkowski.tuples"], "count")
        out["minkowski.sum_points"] = (c["minkowski.sum_points"], "count")
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0
