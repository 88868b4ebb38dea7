"""Span tracer installed from outside the zoomctl package for the traced run.

``install`` replaces each layer-boundary function, in every zoomctl module
namespace that holds a reference to it (so ``from x import f`` bindings are
covered too), with a wrapper that records a span: name, start, end and the
index of its parent span.  Spans stay in memory and are written out when the
run ends.  Self time (a span's duration minus the time its child spans
cover) is accumulated per span name as spans close.

Codec functions are called once or twice per scalar step, so they are
aggregated instead of recorded one span each: their call count and time are
summed, and the time is still subtracted from the enclosing span's self time.

The tracer is single-threaded; the workloads run with one engine worker.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

WRAPPED_FLAG = "__perfbench_wrapped__"

POLICY_GROUP = {
    "adaptive_fixed_rate": "harness.adaptive",
    "static_quantizer": "harness.static",
    "perfect_observation": "harness.oracle",
    "zero_control": "harness.oracle",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.adaptive_keys: dict[tuple, set] = defaultdict(set)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._leaf_depth = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def close(self) -> None:
        idx, covered = self._stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        duration = span[2] - span[1]
        self.self_s[span[0]] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def span_wrapper(self, fn, name, on_return=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            self.open(name(bound) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_return is not None:
                on_return(self, bound, result)
            return result

        setattr(wrapper, WRAPPED_FLAG, True)
        return wrapper

    def leaf_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leaf_depth -= 1
                self.counts[name + ".calls"] += 1
                self.self_s[name] += dt
                if self._stack:
                    self._stack[-1][1] += dt

        setattr(wrapper, WRAPPED_FLAG, True)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer-boundary functions of an imported zoomctl."""
        from zoomctl import analysis, codec, config, distributions, harness, loop, verify

        def replace_refs(original, wrapper, skip=()):
            for mod in _zoomctl_modules():
                if mod.__name__ in skip:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        for module, attr, name, hook in _span_table(
            config, distributions, harness, analysis, loop, verify
        ):
            original = getattr(module, attr)
            replace_refs(original, self.span_wrapper(original, name, hook))

        # methods are looked up on the class
        original = loop.Trace.to_csv
        self._installed.append((loop.Trace, "to_csv", original))
        loop.Trace.to_csv = self.span_wrapper(original, "loop.trace_to_csv", _count_file("loop.trace_bytes_written"))

        # codec: only calls arriving from other layers cross a boundary
        for attr, value in list(vars(codec).items()):
            if inspect.isfunction(value) and value.__module__ == codec.__name__:
                replace_refs(value, self.leaf_wrapper(value, "codec"), skip=(codec.__name__,))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


class RssSampler:
    """Peak resident set size of this process, sampled from a background thread.

    Used for the per-command memory peak; tracemalloc would time every
    allocation and slowed the traced run about ninefold.
    """

    def __init__(self, interval_s: float = 0.002):
        self._interval_s = interval_s
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._peak = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def rss(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    def _loop(self) -> None:
        while not self._stop.wait(self._interval_s):
            rss = self.rss()
            with self._lock:
                self._peak = max(self._peak, rss)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def reset(self) -> None:
        with self._lock:
            self._peak = self.rss()

    def peak_mb(self) -> float:
        rss = self.rss()
        with self._lock:
            return max(self._peak, rss) / 2**20


def _zoomctl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "zoomctl" or name.startswith("zoomctl."))]


def wrapped_count() -> int:
    """Number of zoomctl attributes currently replaced by a wrapper."""
    n = 0
    for mod in _zoomctl_modules():
        for value in vars(mod).values():
            if getattr(value, WRAPPED_FLAG, False):
                n += 1
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                n += sum(1 for v in vars(value).values() if getattr(v, WRAPPED_FLAG, False))
    return n


# -- per-function names and counters -------------------------------------------


def _chunk_group(bound) -> str:
    group = POLICY_GROUP[bound["cfg"].policy.kind]
    if group == "harness.adaptive" and bound.get("record_fields"):
        return "harness.adaptive_rec"
    return group


def _count_chunk(tracer, bound, result) -> None:
    cfg, indices = bound["cfg"], bound["indices"]
    group = _chunk_group(bound)
    tracer.counts[group + ".trial_steps"] += len(indices) * cfg.horizon
    tracer.counts[group + ".engine_steps"] += cfg.horizon
    if group.startswith("harness.adaptive"):
        # a trial's trajectory is fixed by the laws, strategy, seed and
        # horizon (the horizon sets where the disturbance draws start)
        key = (repr(cfg.a_spec), repr(cfg.w_spec), repr(cfg.params), cfg.master_seed, cfg.horizon)
        tracer.adaptive_keys[key].update(int(t) for t in indices)
        tracer.counts["harness.adaptive_all.trial_steps"] += len(indices) * cfg.horizon


def _count_variates(tracer, bound, result) -> None:
    n = bound.get("n")
    tracer.counts["distributions.variates"] += 1 if n is None else int(n)


def _count_record_bytes(tracer, bound, result) -> None:
    rec, diverged_at = result
    tracer.counts["harness.record_bytes"] += sum(a.nbytes for a in rec.values()) + diverged_at.nbytes


def _count_envelope(tracer, bound, result) -> None:
    nsq, _ = result
    tracer.counts["analysis.envelope_elements"] += nsq.size


def _count_freeze(tracer, bound, result) -> None:
    tracer.counts["analysis.freeze_points"] += 1


def _count_trial(tracer, bound, result) -> None:
    tracer.counts["loop.run_trial_steps"] += result.steps


def _count_file(counter):
    def hook(tracer, bound, result) -> None:
        tracer.counts[counter] += os.path.getsize(bound["path"])
    return hook


def _span_table(config, distributions, harness, analysis, loop, verify):
    """(module, function name, span name or namer, counter hook)."""
    return [
        (config, "load_config", "config.load_config", None),
        (distributions, "sample_array", "distributions.sample_array", _count_variates),
        (harness, "run_experiment", "harness.aggregate", None),
        (harness, "run_recorded_bundle", "harness.record_bundle", _count_record_bytes),
        (harness, "extract_trace", "harness.extract_trace", None),
        (harness, "_predraw", "harness.predraw", None),
        (harness, "_run_chunk", _chunk_group, _count_chunk),
        (harness, "_chunk_envelope", "harness.envelope", None),
        (harness, "write_summary_json", "harness.write", _count_file("harness.bytes_written")),
        (harness, "write_curve_csv", "harness.write", _count_file("harness.bytes_written")),
        (analysis, "envelope_squared", "analysis.envelope_squared", _count_envelope),
        (analysis, "freeze_arrays", "analysis.freeze", _count_freeze),
        (analysis, "dominating_seq", "analysis.dominating_seq", None),
        (analysis, "drift_estimate", "analysis.drift_estimate", None),
        (analysis, "check_emergency_halving", "analysis.halving", None),
        (analysis, "moment_recursion_curve", "analysis.oracle", None),
        (analysis, "oracle_mean_stderr", "analysis.oracle", None),
        (loop, "run_trial", "loop.run_trial", _count_trial),
        (loop, "read_trace_csv", "loop.read_trace_csv", None),
        (loop, "validate_trace_columns", "loop.validate_trace", None),
        (verify, "check_tracker_equality", "verify.tracker_equality", None),
        (verify, "check_containment", "verify.containment", None),
        (verify, "check_domination", "verify.domination", None),
        (verify, "check_drift", "verify.drift", None),
        (verify, "check_oracle_match", "verify.oracle_match", None),
    ]
