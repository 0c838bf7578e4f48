"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions and ``Cyclotomic`` methods
of each ``torusfibre`` module with timing wrappers, in every loaded
``torusfibre`` namespace that holds a reference to them (``torusfibre.cli``
imports most of them by name), and ``uninstall`` puts the originals back.
No file of the program changes.

Every wrapped call is a span.  Its self time is its duration minus the time
covered by its child spans; a layer's self time is the sum over its spans.
Call counts and inclusive times are kept per function (recursive calls of
one function count their time once).  Spans of the coarse entry points are
also kept in memory, with their op id and parent, and written out at the
end; the fine-grained ones (``Cyclotomic`` arithmetic, ``mu_value`` and the
like, up to millions per round) are only aggregated.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (layer, module, qualified name, metric stem, keep spans)
TARGETS = [
    ("cli", "torusfibre.cli", "main", "main", True),
    ("orbit", "torusfibre.orbit", "validate_orbit", "validate", True),
    ("orbit", "torusfibre.orbit", "seifert_invariants", "seifert", True),
    ("orbit", "torusfibre.orbit", "total_genus", "total_genus", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__init__", "construct", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__mul__", "mul", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__add__", "add", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__sub__", "sub", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__rsub__", "rsub", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__neg__", "neg", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__pow__", "pow", False),
    ("exact", "torusfibre.exact", "Cyclotomic.__truediv__", "truediv", False),
    ("exact", "torusfibre.exact", "Cyclotomic.inverse", "inverse", False),
    ("exact", "torusfibre.exact", "Cyclotomic.embed", "embed", False),
    ("exact", "torusfibre.exact", "Cyclotomic.to_mpc", "to_mpc", False),
    ("exact", "torusfibre.exact", "Cyclotomic.to_json", "to_json", False),
    ("exact", "torusfibre.exact", "Cyclotomic.from_rational", "from_rational", False),
    ("exact", "torusfibre.exact", "Cyclotomic.zeta", "zeta", False),
    ("spectrum", "torusfibre.spectrum", "eigen_dimensions", "eigen_dimensions", True),
    ("spectrum", "torusfibre.spectrum", "lefschetz_trace", "lefschetz_trace", False),
    ("spectrum", "torusfibre.spectrum", "mu_value", "mu_value", False),
    ("spectrum", "torusfibre.spectrum", "wall_signature", "wall_signature", False),
    ("framing", "torusfibre.framing", "framing_phase", "phase", True),
    ("framing", "torusfibre.framing", "framing_evaluate", "evaluate", True),
    ("framing", "torusfibre.framing", "framing_series", "series", True),
    ("strata", "torusfibre.strata", "enumerate_strata", "enumerate", True),
    ("strata", "torusfibre.strata", "count_strata_burnside", "burnside", True),
    ("strata", "torusfibre.strata", "stratum_ranks", "ranks", False),
    ("strata", "torusfibre.strata", "classes_with_power_central", "classes", False),
    ("strata", "torusfibre.strata", "root_eigendata", "root_eigendata", False),
    ("localization", "torusfibre.localization", "point_contribution", "point", True),
    ("localization", "torusfibre.localization", "smooth_contribution", "smooth", True),
    ("localization", "torusfibre.localization", "CohomologyOracle.from_json", "oracle_parse", True),
    ("localization", "torusfibre.localization", "lambda_inverse_expansion", "lambda", False),
    ("expansion", "torusfibre.expansion", "assemble_invariant", "assemble", True),
    ("expansion", "torusfibre.expansion", "evaluate_invariant", "evaluate", True),
    ("expansion", "torusfibre.expansion", "fit_expansion", "fit", True),
    ("expansion", "torusfibre.expansion", "_phase_candidates", "phase_candidates", False),
]

class Tracer:
    def __init__(self):
        self.stack = []            # child time accumulated by each open span
        self.open_spans = []       # indices into self.spans of open kept spans
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []            # [op, name, parent, start, duration]
        self.op = None
        self.t0 = time.perf_counter()
        self.phi2 = 0
        self.max_conductor = 0
        self.conductors = []
        self.phi_max = 0
        self.candidates = 0
        self.lstsq_calls = 0
        self.emitted = 0
        self.tuples = 0
        self._class_sizes = None   # collects class-list sizes inside enumerate_strata
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer, name, fn, keep):
        stack, open_spans, spans = self.stack, self.open_spans, self.spans
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        perf = time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        depth = [0]

        def wrapper(*args, **kwargs):
            state = before() if before else None
            if keep:
                open_spans.append(len(spans))
                spans.append([self.op, name, open_spans[-2] if len(open_spans) > 1 else None, 0.0, 0.0])
            depth[0] += 1
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - start
                child = stack.pop()
                depth[0] -= 1
                self_time[layer] += dt - child
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                if not depth[0]:
                    inclusive[name] += dt
                if keep:
                    span = spans[open_spans.pop()]
                    span[3], span[4] = start - self.t0, dt
            if after:
                after(result, args, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import numpy

        modules = [m for n, m in sys.modules.items() if n == "torusfibre" or n.startswith("torusfibre.")]
        for layer, modname, qualname, stem, keep in TARGETS:
            module = sys.modules[modname]
            name = f"{layer}.{stem}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, name, raw.__func__, keep))
                else:
                    new = self._wrap(layer, name, raw, keep)
                # aliases such as __rmul__ = __mul__ share the wrapper
                for alias, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._undo.append((cls, alias, raw))
                        setattr(cls, alias, new)
                continue
            orig = getattr(module, qualname)
            new = self._wrap(layer, name, orig, keep)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, new)
        lstsq = numpy.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            self.lstsq_calls += 1
            return lstsq(*args, **kwargs)

        self._undo.append((numpy.linalg, "lstsq", lstsq))
        numpy.linalg.lstsq = counted_lstsq

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    # -- size counters recorded at the layer boundaries ----------------------

    def _after_exact_construct(self, result, args, state):
        c = args[0].conductor
        if c > self.max_conductor:
            self.max_conductor = c

    def _after_exact_mul(self, result, args, state):
        if type(args[1]) is type(args[0]) and result is not NotImplemented:
            self.phi2 += len(result.coeffs) ** 2

    def _before_strata_enumerate(self):
        outer, self._class_sizes = self._class_sizes, []
        return outer

    def _after_strata_enumerate(self, result, args, state):
        sizes, self._class_sizes = self._class_sizes, state
        branches = len(args[0].branches)
        for z in range(0, len(sizes), branches or 1):
            prod = 1
            for n in sizes[z:z + branches]:
                prod *= n
            self.tuples += prod
        self.emitted += len(result)

    def _after_strata_classes(self, result, args, state):
        if self._class_sizes is not None:
            self._class_sizes.append(len(result))

    def _after_expansion_evaluate(self, result, args, state):
        exact = result[0]
        self.conductors.append(exact.conductor)
        self.phi_max = max(self.phi_max, len(exact.coeffs))

    def _after_expansion_phase_candidates(self, result, args, state):
        self.candidates += len(result)

    # -- results -------------------------------------------------------------

    def metrics(self, rounds, output_bytes, overhead_s, cache_hits, cache_lookups):
        """Per-round values of every per-layer metric; ``output_bytes`` and
        ``overhead_s`` are given per round."""
        c, t, s = self.calls, self.inclusive, self.self_time
        mul_s = t["exact.mul"]
        values = {
            "cli.main_s": t["cli.main"],
            "cli.self_s": s["cli"],
            "orbit.validate_calls": c["orbit.validate"],
            "orbit.validate_s": t["orbit.validate"],
            "orbit.seifert_s": t["orbit.seifert"],
            "exact.construct_calls": c["exact.construct"],
            "exact.construct_s": t["exact.construct"],
            "exact.mul_calls": c["exact.mul"],
            "exact.mul_s": mul_s,
            "exact.mul_phi2_sum": self.phi2,
            "exact.add_calls": c["exact.add"],
            "exact.add_s": t["exact.add"],
            "exact.inverse_calls": c["exact.inverse"],
            "exact.inverse_s": t["exact.inverse"],
            "exact.embed_calls": c["exact.embed"],
            "exact.embed_s": t["exact.embed"],
            "exact.to_mpc_s": t["exact.to_mpc"],
            "exact.to_json_s": t["exact.to_json"],
            "exact.self_s": s["exact"],
            "spectrum.eigen_dimensions_calls": c["spectrum.eigen_dimensions"],
            "spectrum.eigen_dimensions_s": t["spectrum.eigen_dimensions"],
            "spectrum.lefschetz_trace_calls": c["spectrum.lefschetz_trace"],
            "spectrum.lefschetz_trace_s": t["spectrum.lefschetz_trace"],
            "spectrum.mu_value_calls": c["spectrum.mu_value"],
            "spectrum.mu_value_s": t["spectrum.mu_value"],
            "spectrum.self_s": s["spectrum"],
            "framing.calls": c["framing.phase"] + c["framing.evaluate"] + c["framing.series"],
            "framing.self_s": s["framing"],
            "strata.enumerate_calls": c["strata.enumerate"],
            "strata.enumerate_s": t["strata.enumerate"],
            "strata.burnside_s": t["strata.burnside"],
            "strata.ranks_calls": c["strata.ranks"],
            "strata.ranks_s": t["strata.ranks"],
            "strata.classes_calls": c["strata.classes"],
            "strata.strata_emitted": self.emitted,
            "strata.tuples_examined": self.tuples,
            "strata.self_s": s["strata"],
            "localization.point_calls": c["localization.point"],
            "localization.point_s": t["localization.point"],
            "localization.smooth_calls": c["localization.smooth"],
            "localization.smooth_s": t["localization.smooth"],
            "localization.oracle_parse_s": t["localization.oracle_parse"],
            "localization.lambda_s": t["localization.lambda"],
            "localization.self_s": s["localization"],
            "expansion.assemble_s": t["expansion.assemble"],
            "expansion.evaluate_calls": c["expansion.evaluate"],
            "expansion.evaluate_s": t["expansion.evaluate"],
            "expansion.fit_calls": c["expansion.fit"],
            "expansion.fit_s": t["expansion.fit"],
            "expansion.fit_lstsq_calls": self.lstsq_calls,
            "expansion.fit_candidates": self.candidates,
            "expansion.self_s": s["expansion"],
        }
        out = {k: v / rounds for k, v in values.items()}
        # per-round already, or ratios, maxima and medians
        out["cli.output_bytes"] = output_bytes
        out["exact.mul_ns_per_phi2"] = 1e9 * mul_s / self.phi2 if self.phi2 else 0.0
        out["exact.phi_cache_hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
        out["exact.max_conductor"] = self.max_conductor
        out["strata.yield_ratio"] = self.emitted / self.tuples if self.tuples else 0.0
        out["expansion.conductor_p50"] = statistics.median(self.conductors) if self.conductors else 0
        out["expansion.phi_M_max"] = self.phi_max
        out["trace.overhead_s"] = overhead_s
        return out
