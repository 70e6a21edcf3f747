"""Layer spans and call counts for the traced run, recorded from outside.

The tracer replaces module attributes that ``seqvol`` looks up at call time
(for example ``seqvol.cli.filter_run`` or ``numpy.linalg.eigh``) with
wrappers. A span wrapper records ``(label, layer, start, end, parent)`` and
a few facts about the call; a count wrapper counts the call under the
innermost open span and under the "part" containing it (a filter run, a
likelihood evaluation of records, a simulated path or an evaluator pass).
Everything stays in memory until :meth:`Tracer.metrics` turns one
operation's records into per-layer numbers.

Self time of a span is its duration minus its children's durations and minus
the calibrated cost of the wrappers that ran inside it, so that the layer
self times add up to the untraced operation time.

A patch target that no longer exists is skipped and listed in
``Tracer.absent``; the metrics that need it are left out of the result.
"""

from __future__ import annotations

import importlib
import logging
import time
from collections import Counter
from pathlib import Path

import numpy as np

LINALG_ENTRY_POINTS = ("eigh", "eigvalsh", "cholesky", "solve", "inv")


def _nbytes(args, kwargs, result):
    return Path(args[0]).stat().st_size


def _series_steps(args, kwargs, result):
    return len(args[0])


def _path_steps(args, kwargs, result):
    return len(args[1])  # loglik_path(sigmas, es, config, q)


def _simulated_steps(args, kwargs, result):
    return len(result.ys)


def _candidates(args, kwargs, result):
    # evaluate_candidates(ys, base_config, delta, omegas, objective)
    return (len(args[3]), int(np.count_nonzero(np.isneginf(result))), len(args[0]))


# (module, attribute, layer, label, fact recorded from the call)
SPANS = (
    ("seqvol.cli", "main", "cli", "cli.main", None),
    ("seqvol.cli", "load_prices_csv", "io", "io.load", None),
    ("seqvol.cli", "write_volatility_csv", "io", "io.write", _nbytes),
    ("seqvol.cli", "write_forecast_csv", "io", "io.write", _nbytes),
    ("seqvol.cli", "write_json", "io", "io.write", _nbytes),
    ("seqvol.cli", "filter_run", "filtering", "filtering.run", _series_steps),
    ("seqvol.filtering", "filter_run", "filtering", "filtering.run", _series_steps),
    ("seqvol.cli", "loglik_from_records", "likelihood", "likelihood.records", None),
    ("seqvol.likelihood", "loglik_from_records", "likelihood", "likelihood.records", None),
    ("seqvol.likelihood", "loglik_path", "likelihood", "likelihood.path", _path_steps),
    ("seqvol.likelihood", "step_terms", "likelihood", "likelihood.step_terms", None),
    ("seqvol.cli", "perf_metrics", "likelihood", "likelihood.perf", None),
    ("seqvol.likelihood", "perf_metrics", "likelihood", "likelihood.perf", None),
    ("seqvol.filtering", "sym_sqrt_pair", "linalg", "linalg.sym_sqrt_pair", None),
    ("seqvol.simulate", "spd_inverse", "linalg", "linalg.kernel", None),
    ("seqvol.simulate", "chol_upper", "linalg", "linalg.kernel", None),
    ("seqvol.simulate", "sym_sqrt", "linalg", "linalg.kernel", None),
    ("seqvol.search", "coordinate_search", "search", "search.run", None),
    ("seqvol.search", "evaluate_candidates", "search", "search.evaluate", _candidates),
    ("seqvol.simulate", "simulate_path", "simulate", "simulate.path", _simulated_steps),
    ("seqvol.simulate", "sample_singular_beta", "gwishart", "gwishart.sample", None),
)

# spans that own the linalg calls made anywhere below them
PARTS = ("filtering.run", "likelihood.records", "simulate.path", "search.evaluate")

# metric -> span labels it needs; a metric whose label could not be patched
# is left out
REQUIRES = {
    "cli.self_s": ("cli.main",),
    "io.load_s": ("io.load",),
    "io.write_s": ("io.write",),
    "io.bytes_written": ("io.write",),
    "filtering.run_s": ("filtering.run",),
    "filtering.self_s": ("filtering.run",),
    "filtering.step_us": ("filtering.run",),
    "filtering.decomps_per_step": ("filtering.run",),
    "likelihood.step_terms_s": ("likelihood.step_terms",),
    "likelihood.records_s": ("likelihood.records",),
    "likelihood.evals_per_step": ("likelihood.step_terms", "likelihood.path"),
    "linalg.sym_sqrt_pair_s": ("linalg.sym_sqrt_pair",),
    "search.evaluate_s": ("search.evaluate",),
    "search.self_s": ("search.run",),
    "search.batches": ("search.evaluate",),
    "search.candidates": ("search.evaluate",),
    "search.candidates_per_batch": ("search.evaluate",),
    "search.cache_hit_ratio": ("search.evaluate",),
    "search.failed_candidates": ("search.evaluate",),
    "simulate.path_s": ("simulate.path",),
    "simulate.self_s": ("simulate.path",),
    "simulate.step_us": ("simulate.path",),
    "simulate.decomps_per_step": ("simulate.path",),
    "gwishart.sample_s": ("gwishart.sample",),
    "gwishart.sample_calls": ("gwishart.sample",),
}

# metrics that are counts: they must repeat exactly between runs
COUNTS = (
    "io.bytes_written", "filtering.decomps_per_step", "likelihood.evals_per_step",
    "linalg.decomps_per_step", "linalg.eigh_per_step", "linalg.batched_calls_per_step",
    "search.batches", "search.candidates", "search.candidates_per_batch",
    "search.cache_hit_ratio", "search.failed_candidates", "search.fallbacks",
    "simulate.decomps_per_step", "gwishart.sample_calls",
)


class _FallbackCounter(logging.Handler):
    """Counts the batched evaluator's "falling back" warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "falling back" in record.getMessage():
            self.count += 1


class Tracer:
    """Span and count wrappers for the names in ``SPANS`` and ``LINALG_ENTRY_POINTS``."""

    def __init__(self):
        # [label, layer, start, end, parent index, fact, part]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (innermost span label, part, entry point, stacked?) -> calls
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        self._fallbacks = _FallbackCounter()
        self.span_cost = self.count_cost = 0.0

    def _span_wrapper(self, fn, label, layer, fact):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            part = label if label in PARTS or parent is None else spans[parent][6]
            spans.append([label, layer, 0.0, 0.0, parent, None, part])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[2], span[3] = start, end
            if fact is not None:
                span[5] = fact(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(a, *args, **kwargs):
            span = spans[stack[-1]] if stack else (None, None, 0, 0, None, None, None)
            counts[(span[0], span[6], name, np.ndim(a) > 2)] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    def _wrap(self, module_name, attr, make) -> bool:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._patches.append((module, attr, original, make(original)))
        return True

    def install(self) -> None:
        """Calibrate the wrapper costs and build the wrappers; patch nothing yet."""
        self._calibrate()
        for module_name, attr, layer, label, fact in SPANS:
            if not self._wrap(module_name, attr,
                              lambda fn: self._span_wrapper(fn, label, layer, fact)):
                self.absent.append(f"{module_name}.{attr}")
        for name in LINALG_ENTRY_POINTS:
            if not self._wrap("numpy.linalg", name,
                              lambda fn: self._count_wrapper(fn, name)):
                self.absent.append(f"numpy.linalg.{name}")

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        logging.getLogger("seqvol").addHandler(self._fallbacks)

    def disable(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        logging.getLogger("seqvol").removeHandler(self._fallbacks)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self._fallbacks.count = 0

    def _calibrate(self, calls: int = 20000) -> None:
        """Per-call cost of a span wrapper and of a count wrapper."""
        def noop(*args):
            return None

        arg = np.zeros((2, 2))

        def per_call(fn):
            start = time.perf_counter()
            for _ in range(calls):
                fn(arg)
            return (time.perf_counter() - start) / calls

        span = self._span_wrapper(noop, "", "", None)
        count = self._count_wrapper(noop, "")
        self.spans.append(["", "", 0.0, 0.0, None, None, None])
        self.stack.append(0)
        bare = min(per_call(noop) for _ in range(5))
        self.span_cost = max(0.0, min(per_call(span) for _ in range(5)) - bare)
        self.count_cost = max(0.0, min(per_call(count) for _ in range(5)) - bare)
        self.reset()

    def metrics(self, op_s: float, lookups: int) -> dict[str, float]:
        """Per-layer metrics of one traced operation.

        ``op_s`` is the traced operation's wall time; ``lookups`` the number
        of cache lookups the workload's search made (0 when it made none).
        Metrics of a layer the operation does not use are 0.
        """
        spans, counts = self.spans, self.counts
        dur = [s[3] - s[2] for s in spans]
        self_time = Counter()  # label -> self time
        for i, s in enumerate(spans):
            self_time[s[0]] += dur[i]
            if s[4] is not None:
                self_time[spans[s[4]][0]] -= dur[i] + self.span_cost
        for (label, _, _, _), n in counts.items():
            if label is not None:
                self_time[label] -= self.count_cost * n
        layer_of = {label: layer for _, _, layer, label, _ in SPANS}

        def total(label):
            return sum(d for s, d in zip(spans, dur) if s[0] == label)

        def facts(label):
            return [s[5] for s in spans if s[0] == label]

        def layer_self(layer):
            return sum(t for label, t in self_time.items() if layer_of[label] == layer)

        def linalg_calls(part=None, name=None, stacked=None):
            # calls the benchmark makes outside every span have no part
            return sum(n for (_, pt, nm, st), n in counts.items()
                       if pt is not None and (part is None or pt == part)
                       and (name is None or nm == name)
                       and (stacked is None or st == stacked))

        def per(num, den):
            return num / den if den else 0.0

        filter_steps = sum(facts("filtering.run"))
        evaluator = facts("search.evaluate")
        # a batched evaluator pass takes one step per observation, for all
        # candidates at once
        time_steps = filter_steps + sum(f[2] for f in evaluator)
        sim_steps = sum(facts("simulate.path"))
        candidates = sum(f[0] for f in evaluator)
        out = {
            "cli.self_s": layer_self("cli"),
            "io.load_s": total("io.load"),
            "io.write_s": total("io.write"),
            "io.bytes_written": sum(facts("io.write")),
            "filtering.run_s": total("filtering.run"),
            "filtering.self_s": layer_self("filtering"),
            "filtering.step_us": 1e6 * per(total("filtering.run"), filter_steps),
            "filtering.decomps_per_step": per(linalg_calls("filtering.run"), filter_steps),
            "likelihood.step_terms_s": total("likelihood.step_terms"),
            "likelihood.records_s": total("likelihood.records"),
            "likelihood.evals_per_step": per(
                len(facts("likelihood.step_terms")) + sum(facts("likelihood.path")),
                time_steps),
            "linalg.decomps_per_step": per(linalg_calls(), time_steps),
            "linalg.eigh_per_step": per(linalg_calls(name="eigh"), time_steps),
            "linalg.sym_sqrt_pair_s": total("linalg.sym_sqrt_pair"),
            "linalg.batched_calls_per_step": per(linalg_calls(stacked=True), time_steps),
            "search.evaluate_s": total("search.evaluate"),
            "search.self_s": self_time["search.run"],
            "search.batches": len(evaluator),
            "search.candidates": candidates,
            "search.candidates_per_batch": per(candidates, len(evaluator)),
            "search.cache_hit_ratio": per(lookups - candidates, lookups),
            "search.failed_candidates": sum(f[1] for f in evaluator),
            "search.fallbacks": self._fallbacks.count,
            "simulate.path_s": total("simulate.path"),
            "simulate.self_s": layer_self("simulate"),
            "simulate.step_us": 1e6 * per(total("simulate.path"), sim_steps),
            "simulate.decomps_per_step": per(linalg_calls("simulate.path"), sim_steps),
            "gwishart.sample_s": total("gwishart.sample"),
            "gwishart.sample_calls": len(facts("gwishart.sample")),
            "trace.coverage": per(sum(d for s, d in zip(spans, dur) if s[4] is None), op_s),
        }
        patched = {f"{m}.{a}" for m, a, *_ in SPANS} - set(self.absent)
        covered = {label for m, a, _, label, _ in SPANS if f"{m}.{a}" in patched}
        out = {k: v for k, v in out.items()
               if all(label in covered for label in REQUIRES.get(k, ()))}
        # summed over every span, for reconciling with the untraced time
        out["_self_sum"] = sum(self_time.values())
        return out
