"""Outside-in layer trace: wrappers on the library's module attributes.

Each hook replaces a name that the library resolves at call time (a module
global such as `steward.expand`, or a class attribute such as
`Session.answer`), so calls from one layer into another pass through a
wrapper kept in the benchmark's own files.  A timed hook records a span
(op id, span id, parent id, name, start, end); a counted hook only bumps
counters, which keeps hot leaves such as `expander.neighbor` and `numeric.*`
cheap.  Self time is a span's duration minus the time its child spans cover.
A hooked name that no longer exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import time
from collections import defaultdict

from randsteward.randomness import TapeSource

OWNER_FACTORY = "owner factory"  # wrap the owners it returns, see _owner_factory

# (module, attribute, span name or None for counted-only, counters, amounts):
# `amounts(args, result)` gives one number per counter named.
HOOKS = [
    ("steward", "Session.__init__", "steward.open", (), None),
    ("steward", "Session.answer", "steward.answer", (), None),
    ("steward", "build_schedule", "prg.build_schedule", (), None),
    ("prg", "plan_extractor", "extract.plan", (), None),
    ("steward", "expand", "prg.expand", ("prg.expand_calls",), lambda a, r: (1,)),
    ("prg", "extract", "extract.extract", (), None),
    ("expander", "walk", "expander.walk", ("extract.walk_steps",), lambda a, r: (len(a[2]),)),
    ("expander", "neighbor", None, ("expander.neighbor_calls",), lambda a, r: (1,)),
    ("sampler", "neighbor", None, ("expander.neighbor_calls",), lambda a, r: (1,)),
    # tape replays hand back bits already drawn: only fresh draws count as bits
    ("randomness", "BitSource.draw", "randomness.draw",
     ("randomness.draw_calls", "randomness.bits_drawn"),
     lambda a, r: (1, 0 if isinstance(a[0], TapeSource) else len(r))),
    ("steward", "split_blocks", "bdt.split_blocks", (), None),
    ("steward", "shift_round", "steward.shift_round", (), None),
    ("steward", "choose_shift", None,
     ("steward.shift_groups", "steward.shift_tries"), lambda a, r: (1, r)),
    ("numeric", "interval_index", None, ("numeric.interval_index_calls",), lambda a, r: (1,)),
    ("steward", "round_to_midpoint", None,
     ("numeric.round_to_midpoint_calls",), lambda a, r: (1,)),
    ("sampler", "run_sampler", "sampler.run",
     ("sampler.planned_points",), lambda a, r: (a[0].queries,)),
    ("sampler", "_batch_seeds", "sampler.batch_seeds", (), None),
    ("fourier", "_batch_seeds", "sampler.batch_seeds", (), None),
    ("sampler", "_byte_tables", "sampler.byte_tables", ("sampler.batches",), lambda a, r: (1,)),
    ("sampler", "_point_indices", "sampler.points", (), None),
    ("sampler", "_points_from_indices", "sampler.points",
     ("sampler.points_generated",), lambda a, r: (r.size,)),
    ("fourier", "batch_points", "sampler.points", (), None),
    ("circuits", "parse_circuit", "circuits.parse", (), None),
    ("circuits", "eval_on_ints", "circuits.eval",
     ("circuits.points_evaluated",), lambda a, r: (r.size,)),
    ("fourier", "_weights_from_tape", "fourier.weights",
     ("fourier.candidates", "sampler.planned_points"), lambda a, r: (len(a[1]), a[4].queries)),
    ("fourier", "goldreich_levin", "fourier.search", (), None),
    ("adversary", "constant_owner", OWNER_FACTORY, (), None),
    ("adversary", "boundary_owner", OWNER_FACTORY, (), None),
    ("adversary", "extracting_owner", OWNER_FACTORY, (), None),
]

# Spans that wrap only the outermost call of a recursive function.
TOP_LEVEL_ONLY = {"circuits.eval"}

# Per-layer metrics: name, unit, source, and the end-to-end metric and
# workload each is predicted to move (and, where it matters, not to move).
# Sources: ("self", span) is mean self seconds per op, ("count", counter)
# a mean count per op, ("ratio", num, den) a ratio of two counters.
LAYER_METRICS = [
    ("prg.expand_s", "s/op", ("self", "prg.expand"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("prg.expand_calls", "1/op", ("count", "prg.expand_calls"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("prg.build_schedule_s", "s/op", ("self", "prg.build_schedule"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("extract.plan_s", "s/op", ("self", "extract.plan"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("extract.extract_s", "s/op", ("self", "extract.extract"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("expander.walk_s", "s/op", ("self", "expander.walk"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("expander.neighbor_calls", "1/op", ("count", "expander.neighbor_calls"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("randomness.draw_s", "s/op", ("self", "randomness.draw"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("randomness.draw_calls", "1/op", ("count", "randomness.draw_calls"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("bdt.split_blocks_s", "s/op", ("self", "bdt.split_blocks"),
     "ops_per_kref, op_ref.p50 on session-small; not accept-circuits, gl-search"),
    ("extract.walk_steps", "1/op", ("count", "extract.walk_steps"),
     "seed_bits, seed_vs_naive on all four workloads"),
    ("randomness.bits_drawn", "bits/op", ("count", "randomness.bits_drawn"),
     "seed_bits, seed_vs_naive on all four workloads"),
    ("steward.shift_round_s", "s/op", ("self", "steward.shift_round"),
     "ops_per_kref, op_ref.p50 on session-wide and session-small; not accept-circuits, gl-search"),
    ("steward.answer_s", "s/op", ("self", "steward.answer"),
     "ops_per_kref, op_ref.p50 on session-wide and session-small; not accept-circuits, gl-search"),
    ("steward.open_s", "s/op", ("self", "steward.open"),
     "ops_per_kref, op_ref.p50 on session-wide and session-small; not accept-circuits, gl-search"),
    ("steward.shift_tries_per_group", "tries",
     ("ratio", "steward.shift_tries", "steward.shift_groups"),
     "ops_per_kref, op_ref.p50 on session-wide and session-small; not accept-circuits, gl-search"),
    ("numeric.interval_index_calls", "1/op", ("count", "numeric.interval_index_calls"),
     "ops_per_kref, op_ref.p50 on session-wide and session-small; not accept-circuits, gl-search"),
    ("numeric.round_to_midpoint_calls", "1/op", ("count", "numeric.round_to_midpoint_calls"),
     "ops_per_kref, op_ref.p50 on session-wide and session-small; not accept-circuits, gl-search"),
    ("sampler.byte_tables_s", "s/op", ("self", "sampler.byte_tables"),
     "op_ref.p50 on accept-circuits; not gl-search (100 tables per search)"),
    ("sampler.batches", "1/op", ("count", "sampler.batches"),
     "op_ref.p50 on accept-circuits; not gl-search (100 tables per search)"),
    ("sampler.batch_seeds_s", "s/op", ("self", "sampler.batch_seeds"),
     "op_ref.p50 on accept-circuits; not gl-search (100 tables per search)"),
    ("sampler.run_s", "s/op", ("self", "sampler.run"),
     "op_ref.p50 on accept-circuits; not gl-search (100 tables per search)"),
    ("sampler.points_s", "s/op", ("self", "sampler.points"),
     "ops_per_kref, peak_rss_mb on gl-search and accept-circuits; not the session workloads"),
    ("sampler.points_generated", "1/op", ("count", "sampler.points_generated"),
     "ops_per_kref, peak_rss_mb on gl-search and accept-circuits; not the session workloads"),
    ("sampler.points_per_planned", "ratio",
     ("ratio", "sampler.points_generated", "sampler.planned_points"),
     "ops_per_kref, peak_rss_mb on gl-search and accept-circuits; not the session workloads"),
    ("circuits.eval_s", "s/op", ("self", "circuits.eval"),
     "op_ref.p50 on accept-circuits; not elsewhere"),
    ("circuits.parse_s", "s/op", ("self", "circuits.parse"),
     "op_ref.p50 on accept-circuits; not elsewhere"),
    ("circuits.points_evaluated", "1/op", ("count", "circuits.points_evaluated"),
     "op_ref.p50 on accept-circuits; not elsewhere"),
    ("fourier.weights_s", "s/op", ("self", "fourier.weights"),
     "ops_per_kref, peak_rss_mb on gl-search; not elsewhere"),
    ("fourier.search_s", "s/op", ("self", "fourier.search"),
     "ops_per_kref, peak_rss_mb on gl-search; not elsewhere"),
    ("fourier.candidates", "1/op", ("count", "fourier.candidates"),
     "ops_per_kref, peak_rss_mb on gl-search; not elsewhere"),
    ("steward.oracle_s", "s/op", ("self", "steward.oracle"),
     "caller's own work on the session workloads; bounds any steward-side saving"),
    ("adversary.owner_s", "s/op", ("self", "adversary.owner"),
     "caller's own work on the session workloads; bounds any steward-side saving"),
]


# The traced run's own cost: median op latency in reference passes untraced
# (first half of the run) and traced (second half), and their ratio.
TRACE_OVERHEAD = [
    ("trace.untraced_op_ref", "ref", "lower"),
    ("trace.traced_op_ref", "ref", "lower"),
    ("trace.slowdown", "ratio", "lower"),
]

# Everything a traced run reports, as (name, unit, better).
PER_LAYER = [(name, unit, "lower") for name, unit, *_ in LAYER_METRICS] + TRACE_OVERHEAD


def _resolve(module: str, attr: str):
    """(holder, name) for `randsteward.<module>.<attr>`; attr may be dotted."""
    holder = importlib.import_module(f"randsteward.{module}")
    *outer, name = attr.split(".")
    for part in outer:
        holder = getattr(holder, part)
    getattr(holder, name)  # raise AttributeError now if the name is gone
    return holder, name


class Tracer:
    """Spans and counters for the ops run while the hooks are installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op_id = 0
        self._stack: list[list] = []  # [span id, name, child ns] per open span
        self._next_id = 0
        self._saved: list[tuple] = []
        self._live_spans: set[str] = set()
        self._live_counters: set[str] = set()

    def timed(self, name: str, fn, counters=(), amounts=None):
        top_only = name in TOP_LEVEL_ONLY
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if top_only and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, name, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_ns[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.spans.append((self.op_id, frame[0], parent, name, start, end))
            if amounts is not None:
                for counter, amount in zip(counters, amounts(args, result)):
                    self.counts[counter] += amount
            return result

        return wrapper

    def counted(self, fn, counters, amounts):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for counter, amount in zip(counters, amounts(args, result)):
                counts[counter] += amount
            return result

        return wrapper

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span `bench.op`."""
        self.op_id = op_id
        return self.timed("bench.op", fn)(*args)

    def _owner_factory(self, factory):
        """Owners are the caller's code: time each owner call and each oracle."""

        def make(*args, **kwargs):
            choose = self.timed("adversary.owner", factory(*args, **kwargs))

            def traced_choose(round_index, history):
                query = choose(round_index, history)
                return dataclasses.replace(
                    query, oracle=self.timed("steward.oracle", query.oracle)
                )

            return traced_choose

        return make

    def install(self):
        for module, attr, span, counters, amounts in HOOKS:
            try:
                holder, name = _resolve(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            original = getattr(holder, name)
            if span == OWNER_FACTORY:
                wrapped = self._owner_factory(original)
                self._live_spans |= {"adversary.owner", "steward.oracle"}
            elif span is None:
                wrapped = self.counted(original, counters, amounts)
            else:
                wrapped = self.timed(span, original, counters, amounts)
                self._live_spans.add(span)
            self._live_counters.update(counters)
            self._saved.append((holder, name, original, wrapped))
            setattr(holder, name, wrapped)

    def remove(self):
        while self._saved:
            holder, name, original, _ = self._saved.pop()
            setattr(holder, name, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run a block with the library's own functions, uncounted."""
        for holder, name, original, _ in reversed(self._saved):
            setattr(holder, name, original)
        try:
            yield
        finally:
            for holder, name, _, wrapped in self._saved:
                setattr(holder, name, wrapped)

    def layer_metrics(self, ops: int) -> tuple[dict[str, float], list[str]]:
        """Per-op layer metrics, and the names whose hooks are all absent.

        An absent metric reads 0 so that the metric set stays fixed.
        """
        out, absent = {}, []
        for name, _unit, source, _moves in LAYER_METRICS:
            kind, *keys = source
            live = keys[0] in self._live_spans if kind == "self" else all(
                k in self._live_counters for k in keys
            )
            if not live:
                absent.append(name)
            if kind == "self":
                out[name] = self.self_ns.get(keys[0], 0) / 1e9 / ops
            elif kind == "count":
                out[name] = self.counts.get(keys[0], 0) / ops
            else:
                den = self.counts.get(keys[1], 0)
                out[name] = self.counts.get(keys[0], 0) / den if den else 0.0
        return out, absent

    def layer_shares(self) -> dict[str, float]:
        """Share of traced op time spent in each module, by self time."""
        total = sum(self.self_ns.values())
        shares: dict[str, float] = defaultdict(float)
        for span, ns in self.self_ns.items():
            shares[span.split(".")[0]] += ns / total if total else 0.0
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("# op_id span_id parent_id name start_ns end_ns\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
