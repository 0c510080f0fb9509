"""Spans around the calls into each netform module, taken from outside.

`instrument` replaces every public netform function that `netform.cli`,
`netform.instance_io` and `netform.stability` reach through a module
attribute with a wrapper that records a span (id, parent id, name,
start, end).  Spans stay in memory until the run writes them out.  A few
wrappers also count work from the call's arguments and result; that
bookkeeping is itself recorded as a `trace.bookkeeping` child span, so
it is charged to the trace and not to any module's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb

from netform import cli, instance_io, payoffs, stability

INSTRUMENTED = (cli, instance_io, stability)
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counts, result, bound.arguments)
                except (KeyError, AttributeError, TypeError):
                    # the engine's signature moved on; keep timing, drop the count
                    self.counts["trace.count_errors"] += 1
                self.spans.append((len(self.spans), parent, BOOKKEEPING, end, time.perf_counter()))
            return result

        return wrapper

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name."""
        inclusive: dict = defaultdict(float)
        children: dict = defaultdict(float)
        for _, parent, name, start, end in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                children[parent] += end - start
        own: dict = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            own[name] += end - start - children[sid]
        return inclusive, own


# ---- work counters, from a call's bound arguments `a` and its result


def _count_form(c, result, a):
    c["formation.calls"] += 1
    c["formation.arcs"] += len(result.arcs)


def _count_payoff(c, result, a):
    c["payoffs.calls"] += 1
    c["payoffs.coalitions"] += len(a["instance"].coalitions)
    c["payoffs.active"] += len(payoffs.active_coalitions(a["instance"], a["network"], a["rule"]))


def _count_stable(c, result, a):
    degree = Counter(p for arc in a["network"].arcs for p in arc)
    relevant = {
        p
        for co in a["instance"].coalitions
        if co.income != 0
        for p in co.members
        if co.share_of(p) != 0
    }
    c["stability.is_stable_calls"] += 1
    c["stability.search_space"] += sum(2 ** degree[p] - 1 for p in relevant)
    c["stability.unstable"] += not result.stable


def _count_restricted(c, result, a):
    profiles = len(a["instance"].profiles)
    c["stability.restricted_pairs"] += profiles * (profiles - 1)
    c["stability.reachable"] += len(result.deviations)


def _count_compromise(c, result, a):
    c["compromise.cells"] += len(a["matrix"].rows) * a["matrix"].n_players


def _count_random(c, result, a):
    c["datasets.candidates"] += comb(a["n"], 2) + comb(a["n"], 3)


def _count_load(c, result, a):
    c["instance_io.load_bytes"] += os.path.getsize(a["path"])


def _count_save(c, result, a):
    c["instance_io.save_bytes"] += len(result.encode())


COUNTERS = {
    "formation.form_network": _count_form,
    "payoffs.payoff_vector": _count_payoff,
    "stability.is_stable": _count_stable,
    "stability.restricted_equilibria": _count_restricted,
    "compromise.compromise_solution": _count_compromise,
    "datasets.random_instance": _count_random,
    "instance_io.load_instance_file": _count_load,
    "instance_io.save_instance": _count_save,
}


def _span_name(fn) -> str:
    return fn.__module__.removeprefix("netform.") + "." + fn.__name__


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the instrumented modules' public netform functions for the
    duration of the block.  The CLI's own functions stay unwrapped: they
    are argument parsing and rendering, which `cli.self_s` measures."""
    saved = []
    for module in INSTRUMENTED:
        for attr, value in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or not value.__module__.startswith("netform.")
                or value.__module__ == cli.__name__
            ):
                continue
            name = _span_name(value)
            saved.append((module, attr, value))
            setattr(module, attr, tracer.wrap(name, value, COUNTERS.get(name)))
    saved.append((cli, "BUILTIN", cli.BUILTIN))
    cli.BUILTIN = {k: tracer.wrap(_span_name(f), f) for k, f in cli.BUILTIN.items()}
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-module metrics of one traced pass, by the names BENCHMARK.json
    lists (the start-up, pass and overhead figures are added by the run)."""
    inclusive, own = tracer.totals()
    c = tracer.counts
    return {
        "instance_io.load_s": inclusive["instance_io.load_instance_file"],
        "instance_io.load_bytes": c["instance_io.load_bytes"],
        "model.validate_s": inclusive["model.validate_instance"],
        "instance_io.save_s": inclusive["instance_io.save_instance"],
        "instance_io.save_bytes": c["instance_io.save_bytes"],
        "datasets.random_instance_s": inclusive["datasets.random_instance"],
        "datasets.candidates": c["datasets.candidates"],
        "formation.form_s": inclusive["formation.form_network"],
        "formation.calls": c["formation.calls"],
        "formation.arcs": c["formation.arcs"],
        "payoffs.payoff_vector_s": inclusive["payoffs.payoff_vector"],
        "payoffs.calls": c["payoffs.calls"],
        "payoffs.active_ratio": _ratio(c["payoffs.active"], c["payoffs.coalitions"]),
        "stability.is_stable_s": inclusive["stability.is_stable"],
        "stability.is_stable_calls": c["stability.is_stable_calls"],
        "stability.search_space": c["stability.search_space"],
        "stability.unstable_ratio": _ratio(c["stability.unstable"], c["stability.is_stable_calls"]),
        "stability.restricted_s": inclusive["stability.restricted_equilibria"],
        "stability.restricted_pairs": c["stability.restricted_pairs"],
        "stability.reachable_ratio": _ratio(c["stability.reachable"], c["stability.restricted_pairs"]),
        "stability.check_disjoint_s": inclusive["stability.check_disjoint_stability"],
        "compromise.solution_s": inclusive["compromise.compromise_solution"],
        "compromise.cells": c["compromise.cells"],
        "cli.self_s": own["cli.main"],
    }
