"""Per-function span aggregation for the traced benchmark run.

Each public function is wrapped where its caller looks it up (the caller's
module global), because the modules import names with ``from ... import``:
patching ``crwsnsim.routing.prim_mst`` alone would time nothing, since the
engine calls its own binding ``crwsnsim.engine.prim_mst``.

Spans are not stored. Each wrapped call adds to two totals for its key:
calls and self nanoseconds (its span minus the spans of wrapped calls made
inside it). Only ``engine.run_round`` keeps one
duration per call, for round-latency percentiles.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module the caller lives in, attribute the caller looks up, metric key).
# A binding that no longer exists is skipped, so a function a refactor
# stops calling reads 0 calls instead of failing the run.
PATCH_SITES = (
    ("crwsnsim.cli", "run_simulation", "engine.run_simulation"),
    ("crwsnsim.engine", "run_round", "engine.run_round"),
    ("crwsnsim.engine", "no_ch_fallback", "engine.no_ch_fallback"),
    ("crwsnsim.engine", "place_nodes", "model.place_nodes"),
    ("crwsnsim.engine", "distance", "model.distance"),
    ("crwsnsim.engine", "link_cost", "energy.link_cost"),
    ("crwsnsim.routing", "link_cost", "energy.link_cost"),
    ("crwsnsim.engine", "rx_energy", "energy.rx_energy"),
    ("crwsnsim.engine", "elect_cluster_heads", "clustering.elect_cluster_heads"),
    ("crwsnsim.engine", "assign_members", "clustering.assign_members"),
    ("crwsnsim.clustering", "election_threshold", "clustering.election_threshold"),
    ("crwsnsim.engine", "build_adjacency", "routing.build_adjacency"),
    ("crwsnsim.engine", "prim_mst", "routing.prim_mst"),
    ("crwsnsim.engine", "orient_tree", "routing.orient_tree"),
    ("crwsnsim.engine", "route_decision", "routing.route_decision"),
    ("crwsnsim.engine", "merge_sensing_tables", "routing.merge_sensing_tables"),
)

# Classmethods are patched on the class, which every caller shares.
CLASSMETHOD_SITES = (
    ("crwsnsim.clustering", "ElectionState", "for_round", "clustering.ElectionState.for_round"),
)

CLI_KEY = "cli.main"
ROUND_KEY = "engine.run_round"
MST_KEY = "routing.prim_mst"


class Tracer:
    """Aggregated call count and self time per wrapped function."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # key -> [calls, self_ns]
        self.round_ns: list[int] = []
        self.mst_heads = 0
        self._stack = [0]  # child-span nanoseconds of each open span

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0))[0]

    def self_ns(self, key: str) -> int:
        return self.stats.get(key, (0, 0))[1]

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        durations = self.round_ns if key == ROUND_KEY else None
        is_mst = key == MST_KEY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_mst and args:
                self.mst_heads += len(args[0])
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stack[-1] += span
                stat[0] += 1
                stat[1] += span - child
                if durations is not None:
                    durations.append(span)

        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, key in PATCH_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(key, original))
            for module_name, cls_name, attr, key in CLASSMETHOD_SITES:
                cls = getattr(importlib.import_module(module_name), cls_name, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if not isinstance(original, classmethod):
                    continue
                saved.append((cls, attr, original))
                setattr(cls, attr, classmethod(self.wrap(key, original.__func__)))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
