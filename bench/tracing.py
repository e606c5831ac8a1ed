"""Span tracing from outside the package.

``install`` replaces each public function at the module attribute its
callers look it up by (``feynman.cl2``, ``identities.li2``, ``quad.integrate``
...), so ``src/`` needs no edit.  Each call becomes a span
``[name, parent, job, start, end, info]`` kept in memory; ``parent`` is the
index of the enclosing span (-1 at top level) and ``job`` the id of the job
being run (-1 during warm-up).  ``layer_metrics`` turns the spans into the
per-layer numbers; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute a caller looks up, span name).  Several attributes can
# name one function; their spans share the function's name.
PATCH_POINTS = (
    ("tetraclausen.feynman", "cl2", "polylog.cl2"),
    ("tetraclausen.identities", "cl2", "polylog.cl2"),
    ("tetraclausen.polylog", "cl2", "polylog.cl2"),
    ("tetraclausen.identities", "li2", "polylog.li2"),
    ("tetraclausen.polylog", "li2", "polylog.li2"),
    ("tetraclausen.polylog", "cl2_series_reference", "polylog.cl2_series_reference"),
    ("tetraclausen.quad", "integrate", "quad.integrate"),
    ("tetraclausen.feynman", "integrate", "quad.integrate"),
    ("tetraclausen.feynman", "derive", "feynman.derive"),
    ("tetraclausen.feynman", "c_closed", "feynman.c_closed"),
    ("tetraclausen.feynman", "c_direct", "feynman.c_direct"),
    ("tetraclausen.feynman", "stepwise", "feynman.stepwise"),
    ("tetraclausen.pslq", "find_relation", "pslq.find_relation"),
    ("tetraclausen.identities", "verify", "identities.verify"),
)


def _info(name, args, result):
    """Counts recorded with a span, read from arguments and results."""
    if name == "polylog.cl2":
        return args[1].digits
    if name in ("quad.integrate", "feynman.c_direct"):
        return result.evaluations
    if name == "feynman.stepwise":
        return sum(r.evaluations for r in result.i_quad.values())
    if name == "pslq.find_relation":
        return result.status
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, self.job, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = time.perf_counter()
                span[5] = "error:" + type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span[4] = time.perf_counter()
            span[5] = _info(name, args, result)
            return result

        return traced


def install() -> Tracer:
    tracer = Tracer()
    for module_name, attr, name in PATCH_POINTS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    return tracer


def first_call_excess(processes) -> float:
    """The cold coefficient-table cost: per process and precision, the first
    cl2 call's time minus the median of later calls at that precision (pooled
    over all processes), summed over precisions and averaged over processes."""
    firsts, later = [], {}
    for spans in processes:
        first = {}
        for name, _, _, start, end, info in spans:
            if name == "polylog.cl2" and isinstance(info, int):
                if info in first:
                    later.setdefault(info, []).append(end - start)
                else:
                    first[info] = end - start
        firsts.append(first)
    warm = {digits: statistics.median(times) for digits, times in later.items()}
    return statistics.mean(
        sum(max(0.0, t - warm.get(digits, 0.0)) for digits, t in first.items())
        for first in firsts)


def layer_metrics(spans, measured) -> dict:
    """Per-layer totals over the spans whose job id is in ``measured``."""
    child_time = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_s, evals, outcomes, durations = {}, {}, {}, {}, {}, {}
    for i, (name, parent, job, start, end, info) in enumerate(spans):
        if job not in measured:
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        # Inclusive time counts only the outermost span of a name.
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        durations.setdefault(name, []).append(dur)
        if isinstance(info, str):
            outcome = "error" if info.startswith("error:") else info
            outcomes[name, outcome] = outcomes.get((name, outcome), 0) + 1
        elif isinstance(info, int) and name != "polylog.cl2":
            evals[name] = evals.get(name, 0) + info

    def g(table, name):
        return table.get(name, 0)

    quad_calls = g(calls, "quad.integrate")
    quad_evals = g(evals, "quad.integrate")
    pslq_calls = g(calls, "pslq.find_relation")
    cl2_times = durations.get("polylog.cl2", [])
    out = {
        "quad.integrate.calls": quad_calls,
        "quad.integrate.s": g(total, "quad.integrate"),
        "quad.evals": quad_evals,
        "quad.evals_per_call": quad_evals / quad_calls if quad_calls else 0.0,
        "quad.us_per_eval": 1e6 * g(total, "quad.integrate") / quad_evals if quad_evals else 0.0,
        "quad.integrate.failed": g(outcomes, ("quad.integrate", "error")),
        "feynman.c_closed.s": g(total, "feynman.c_closed"),
        "feynman.c_direct.s": g(total, "feynman.c_direct"),
        "feynman.c_direct.self_s": g(self_s, "feynman.c_direct"),
        "feynman.c_direct.evals": g(evals, "feynman.c_direct"),
        "feynman.stepwise.s": g(total, "feynman.stepwise"),
        "feynman.stepwise.self_s": g(self_s, "feynman.stepwise"),
        "feynman.stepwise.evals": g(evals, "feynman.stepwise"),
        "feynman.derive.calls": g(calls, "feynman.derive"),
        "feynman.derive.s": g(total, "feynman.derive"),
        "polylog.cl2.calls": g(calls, "polylog.cl2"),
        "polylog.cl2.s": g(total, "polylog.cl2"),
        "polylog.cl2.us_p50": 1e6 * statistics.median(cl2_times) if cl2_times else 0.0,
        "polylog.li2.calls": g(calls, "polylog.li2"),
        "polylog.li2.s": g(total, "polylog.li2"),
        "polylog.cl2_series_reference.calls": g(calls, "polylog.cl2_series_reference"),
        "polylog.cl2_series_reference.s": g(total, "polylog.cl2_series_reference"),
        "polylog.cl2_series_reference.self_s": g(self_s, "polylog.cl2_series_reference"),
        "identities.verify.calls": g(calls, "identities.verify"),
        "identities.verify.s": g(total, "identities.verify"),
        "identities.verify.self_s": g(self_s, "identities.verify"),
        "pslq.find_relation.calls": pslq_calls,
        "pslq.find_relation.s": g(total, "pslq.find_relation"),
        "pslq.s_per_call": g(total, "pslq.find_relation") / pslq_calls if pslq_calls else 0.0,
        "pslq.found": g(outcomes, ("pslq.find_relation", "found")),
        "pslq.none_found": g(outcomes, ("pslq.find_relation", "none_found")),
        "pslq.errors": g(outcomes, ("pslq.find_relation", "error")),
        "cli.main.calls": g(calls, "cli.main"),
        "cli.main.self_s": g(self_s, "cli.main"),
    }
    return out
