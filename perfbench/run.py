"""crwsnsim benchmark: drives the public CLI (``crwsnsim.cli.main``) in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` alternates plain and traced CLI calls and reports the
per-layer metrics. Metric names and units come from ``BENCHMARK.json`` at
the repository root. Every CLI output is checked (see README.md), and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# numpy reads these once, at import; pin them before anything imports it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import CLI_KEY, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "out"

DEFAULT_SEED = 1

RUN_HEADER = "round,protocol,clustering,seed,total_residual_j,alive,ch_count"
SUMMARY_HEADER = ("variant,mean_final_residual_j,stddev_final_residual_j,"
                  "mean_final_alive,mean_first_death_round")
COMPARE_VARIANTS = (
    ("baseline", "baseline", "nonuniform"),
    ("proposed_uniform", "proposed", "uniform"),
    ("proposed_nonuniform", "proposed", "nonuniform"),
)

# On a shared VM each core's speed flips between about 1x and 2x as other
# tenants load the host, so raw timings drift by 20-40% between processes
# and within one. The benchmark pins itself to one core, keeps each CLI call
# short, brackets it with this fixed pure-Python loop and scales it to the
# speed at which the loop takes CAL_REF_S seconds. The simulator's time
# follows the loop's less than proportionally (log-log slope 0.7-1.0 over
# interleaved samples), hence the exponent.
CAL_ITERS = 40_000
CAL_REF_S = 0.010
CAL_EXPONENT = 0.9

SETUP_SPAWNS = 11
SETUP_CHILD = (
    "import sys\n"
    "from crwsnsim.cli import main\n"
    "print(main(sys.argv[1:]), flush=True)\n"
)


class CheckError(Exception):
    """A CLI output broke a pinned digest, an invariant or a workload purpose."""


class Aborted(Exception):
    """A call the rest of the run depends on failed; it is already counted."""


@dataclass
class Counts:
    """Workload-purpose counts read back from per-round CSV output."""

    rounds: int = 0
    head_rounds: int = 0
    fallback_rounds: int = 0
    first_death_round: int = 0  # 0: nobody died
    deaths: int = 0
    final_residual: str = ""
    final_alive: int = 0

    def add(self, other: "Counts") -> None:
        self.rounds += other.rounds
        self.head_rounds += other.head_rounds
        self.fallback_rounds += other.fallback_rounds
        self.deaths += other.deaths
        if other.first_death_round and (
            not self.first_death_round or other.first_death_round < self.first_death_round
        ):
            self.first_death_round = other.first_death_round


def _heads_per_round(lo: float, hi: float):
    def check(counts: Counts) -> str | None:
        mean = counts.head_rounds / max(counts.rounds, 1)
        if not lo <= mean <= hi:
            return f"mean heads per round {mean:.1f} outside [{lo}, {hi}]"
        return None
    return check


def _depletes(counts: Counts) -> str | None:
    if counts.deaths == 0 or counts.fallback_rounds == 0:
        return (f"expected deaths and zero-head rounds, got {counts.deaths} deaths "
                f"and {counts.fallback_rounds} fallback rounds")
    return None


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, repeated for the whole measuring window.

    One call simulates ``seeds`` seeds: ``seed * seeds + i`` for
    ``i < seeds``, or just ``seed`` when ``seeds`` is 1. ``variants`` lists
    the (name, protocol, clustering) runs one call makes; ``purpose``
    checks, per variant, that the full-size workload still exercises what
    it was chosen for.
    """

    command: str
    config: dict
    tiny: dict
    variants: tuple[tuple[str, str, str], ...]
    purpose: Callable[[Counts], str | None]
    pinned_sha256: str
    seeds: int = 1


WORKLOADS = {
    # The paper's headline experiment at the built-in defaults: ~10 heads per
    # round, so election, member assignment and the engine loops share the cost.
    "default-compare": Workload(
        "compare", {"rounds": 100}, {"rounds": 20},
        COMPARE_VARIANTS, _heads_per_round(5, 20),
        "b068d2efd49949469a8e05e4ef8373bd12684593221814320fd036968abdd990",
    ),
    # ~100 heads per round: the O(k^3) prim_mst dominates.
    "large-proposed": Workload(
        "run", {"nodes": 1000, "rounds": 10, "protocol": "proposed",
                "clustering": "nonuniform"}, {"nodes": 200, "rounds": 3},
        (("run", "proposed", "nonuniform"),), _heads_per_round(50, 200),
        "7397c810f4d3cb0025518dcc861fa417251a4915fbaac5b533d8d73738448b33",
    ),
    # ~300 heads and no spanning tree: member assignment and reporting dominate.
    "large-baseline": Workload(
        "run", {"nodes": 3000, "rounds": 10, "protocol": "baseline",
                "clustering": "nonuniform"}, {"nodes": 300, "rounds": 3},
        (("run", "baseline", "nonuniform"),), _heads_per_round(150, 600),
        "b5b0eac35ef15c9d0be58288c30c3d49822becafbb08b18da5ee1717dbe67da3",
    ),
    # Tiny batteries and a far fusion centre: deaths, zero-head fallback
    # rounds, multipath head links and a shrinking alive set.
    "depletion": Workload(
        "run", {"protocol": "proposed", "clustering": "nonuniform",
                "initial_energy": 2e-4, "fc_y": 250.0}, {"rounds": 60},
        (("run", "proposed", "nonuniform"),), _depletes,
        "aac4d9db0124f548a920555bb0c896d2800993a12b3abe7a147cdf55f9c96097", seeds=3,
    ),
}


@dataclass
class Tally:
    """Counts every CLI call made in one benchmark run."""

    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)


def calibrate() -> float:
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(CAL_ITERS):
        acc += math.hypot(i & 63, 1.5)
        table[i & 255] = acc
    return time.perf_counter() - start


def speed_scale(cal_before: float, cal_after: float) -> float:
    """Factor that converts a rate measured now to the reference host speed."""
    return ((cal_before + cal_after) / 2 / CAL_REF_S) ** CAL_EXPONENT


# ---------------------------------------------------------------- output checks

def _check_series(rows: list[list[str]], nodes: int, rounds: int) -> Counts:
    """Check one seed's rows: residual and alive never rise, and so on.

    Heads are elected among the nodes alive at the start of the round, so
    ``0 <= ch_count <= alive`` of the previous row (a head can die in the
    round that elects it). Rows stop early only when nobody is left alive.
    """
    counts = Counts()
    residual, alive = math.inf, nodes
    for number, fields in enumerate(rows, start=1):
        if int(fields[0]) != number:
            raise CheckError(f"row {number} is numbered {fields[0]}")
        row_residual, row_alive, heads = float(fields[4]), int(fields[5]), int(fields[6])
        if not (math.isfinite(row_residual) and 0.0 <= row_residual <= residual):
            raise CheckError(f"residual rose or is invalid at round {number}: {fields}")
        if not 0 <= row_alive <= alive:
            raise CheckError(f"alive rose or is invalid at round {number}: {fields}")
        if not 0 <= heads <= alive:
            raise CheckError(f"ch_count outside [0, alive] at round {number}: {fields}")
        if row_alive < alive and not counts.first_death_round:
            counts.first_death_round = number
        counts.head_rounds += heads
        counts.fallback_rounds += heads == 0
        residual, alive = row_residual, row_alive
        counts.final_residual = fields[4]
    counts.rounds = len(rows)
    if counts.rounds != rounds and alive != 0:
        raise CheckError(f"{counts.rounds} of {rounds} rounds ran with {alive} nodes alive")
    counts.final_alive = alive
    counts.deaths = nodes - alive
    return counts


def check_run_csv(text: str, nodes: int, rounds: int, protocol: str,
                  clustering: str, seeds: list[int]) -> Counts:
    """Parse per-round CSV output, rows grouped by seed in ``seeds`` order.

    Returns the counts summed over the seeds, or one seed's counts.
    """
    body = [line for line in text.splitlines() if not line.startswith("#")]
    if not body or body[0] != RUN_HEADER:
        raise CheckError(f"unexpected run CSV header {body[:1]!r}")
    rows = [line.split(",") for line in body[1:]]
    for fields in rows:
        if len(fields) != 7 or fields[1:3] != [protocol, clustering]:
            raise CheckError(f"malformed row {','.join(fields)!r}")
    by_seed = []
    start = 0
    for seed in seeds:
        end = start
        while end < len(rows) and rows[end][3] == str(seed):
            end += 1
        by_seed.append(_check_series(rows[start:end], nodes, rounds))
        start = end
    if start != len(rows):
        raise CheckError(f"row for an unexpected seed: {','.join(rows[start])!r}")
    if len(by_seed) == 1:
        return by_seed[0]
    total = Counts()
    for counts in by_seed:
        total.add(counts)
    return total


def check_compare_csv(text: str, rounds: int, by_variant: dict) -> None:
    """Check the summary against the same seed's ``run`` outputs, exactly."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    if len(body) != 7 or body[0] != SUMMARY_HEADER:
        raise CheckError(f"unexpected compare CSV layout {body[:1]!r}, {len(body)} lines")
    means = {}
    for line, (name, _, _) in zip(body[1:4], COMPARE_VARIANTS):
        fields = line.split(",")
        counts = by_variant[name]
        expected = [float(counts.final_residual), 0.0, float(counts.final_alive),
                    float(counts.first_death_round or rounds + 1)]
        if fields[0] != name or [float(v) for v in fields[1:]] != expected:
            raise CheckError(f"summary row {line!r} disagrees with run output {expected}")
        means[name] = expected
    b, u, n = means["baseline"], means["proposed_uniform"], means["proposed_nonuniform"]
    ratios = (
        ("ratio_residual_proposed_uniform_over_baseline", u[0] / b[0]),
        ("ratio_residual_proposed_uniform_over_proposed_nonuniform", u[0] / n[0]),
        ("ratio_alive_proposed_uniform_over_baseline", u[2] / b[2]),
    )
    for line, (name, value) in zip(body[4:], ratios):
        fields = line.split(",")
        if fields[0] != name or float(fields[1]) != value or fields[2:] != ["", "", ""]:
            raise CheckError(f"ratio row {line!r} disagrees with {value!r}")


# ------------------------------------------------------------------ CLI calls

class Bench:
    def __init__(self, name: str, seed: int, tiny: bool, tally: Tally) -> None:
        import crwsnsim.cli  # after the thread variables are pinned

        self.main = crwsnsim.cli.main
        self.name = name
        self.workload = WORKLOADS[name]
        count = self.workload.seeds
        self.seeds = [seed] if count == 1 else [seed * count + i for i in range(count)]
        self.seed = seed
        self.tiny = tiny
        self.tally = tally
        self.config = dict(self.workload.config, **(self.workload.tiny if tiny else {}))
        self.rounds = int(self.config.get("rounds", 1500))
        self.nodes = int(self.config.get("nodes", 100))
        stem = WORK / f"{name}-{os.getpid()}"
        self.config_path = stem.with_suffix(".cfg")
        self.out_path = stem.with_suffix(".csv")
        self.config_path.write_text(
            "".join(f"{key} = {value}\n" for key, value in self.config.items()),
            encoding="utf-8",
        )
        self.argv = [self.workload.command, "--config", str(self.config_path),
                     "--seeds", ",".join(map(str, self.seeds)), "--out", str(self.out_path)]

    def cleanup(self) -> None:
        for path in (self.config_path, self.out_path):
            path.unlink(missing_ok=True)

    def call(self, argv: list[str], main=None) -> float | None:
        """One CLI call; returns its host seconds, or None if it failed."""
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            code = (main or self.main)(argv)
        except Exception:  # a crash is a failed run, reported with its traceback
            traceback.print_exc()
            self.tally.fail(f"{' '.join(argv)} raised")
            return None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.tally.fail(f"{' '.join(argv)} exited {code}")
            return None
        return elapsed

    def output(self) -> bytes:
        return self.out_path.read_bytes()

    def variant_counts(self, protocol: str, clustering: str) -> Counts:
        if self.workload.command == "run":
            text = self.output().decode("utf-8")
        else:
            argv = ["run", "--config", str(self.config_path), "--protocol", protocol,
                    "--clustering", clustering, "--seeds", ",".join(map(str, self.seeds)),
                    "--out", str(self.out_path)]
            if self.call(argv) is None:
                raise Aborted(f"companion run {protocol}/{clustering} failed")
            text = self.output().decode("utf-8")
        return check_run_csv(text, self.nodes, self.rounds, protocol, clustering, self.seeds)

    def reference_call(self) -> tuple[str, Counts, int]:
        """Warm-up call whose output is checked in full.

        Returns the output digest every later call must reproduce, the summed
        purpose counts of one call, and the output size in bytes.
        """
        if self.call(self.argv) is None:
            raise Aborted("reference call failed")
        data = self.output()
        digest = hashlib.sha256(data).hexdigest()
        if not self.tiny and self.seed == DEFAULT_SEED and digest != self.workload.pinned_sha256:
            raise CheckError(f"output sha256 {digest} differs from the pinned "
                             f"{self.workload.pinned_sha256}")
        by_variant = {}
        total = Counts()
        for name, protocol, clustering in self.workload.variants:
            counts = self.variant_counts(protocol, clustering)
            if not self.tiny:
                problem = self.workload.purpose(counts)
                if problem:
                    raise CheckError(f"{self.name} {name}: {problem}")
            by_variant[name] = counts
            total.add(counts)
        if self.workload.command == "compare":
            check_compare_csv(data.decode("utf-8"), self.rounds, by_variant)
        return digest, total, len(data)

    def same_output(self, digest: str) -> bool:
        actual = hashlib.sha256(self.output()).hexdigest()
        if actual != digest:
            self.tally.fail(f"output sha256 {actual} differs from the first call's {digest}")
            return False
        return True

    def setup_seconds(self, spawns: int) -> list[tuple[float, float]]:
        """Fresh interpreter to ready-for-round-1, through the CLI with 0 rounds.

        Returns (raw, speed-scaled) seconds per spawn. One discarded spawn
        first warms the bytecode and file caches.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        argv = ["run", "--config", str(self.config_path), "--seed", str(self.seeds[0]),
                "--rounds", "0", "--out", str(self.out_path)]
        samples = []
        for index in range(spawns + 1):
            self.tally.attempted += 1
            before = calibrate()
            start = time.perf_counter()
            with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, *argv],
                                  stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
                ready = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait()
            after = calibrate()
            if code != 0 or ready.strip() != b"0":
                self.tally.fail(f"setup child exited {code} after printing {ready!r}")
            elif index:
                samples.append((elapsed, elapsed / speed_scale(before, after)))
        return samples


# ------------------------------------------------------------------- runs

def measure_e2e(bench: Bench, seconds: float, spawns: int) -> dict:
    setup = bench.setup_seconds(spawns)
    digest, counts, _ = bench.reference_call()
    rates, raw = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rates) < 3:
        before = calibrate()
        elapsed = bench.call(bench.argv)
        after = calibrate()
        if elapsed is None or not bench.same_output(digest):
            if bench.tally.failed > 3:
                break
            continue
        raw.append(counts.rounds / elapsed)
        rates.append(raw[-1] * speed_scale(before, after))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_setup = [sample[0] for sample in setup]
    print(f"# timed calls {len(rates)}, unscaled median {_median(raw)} rounds/s; "
          f"setup children {len(setup)}, unscaled median {_median(raw_setup)} s")
    return {
        "rounds_per_s": _median(rates),
        "setup_s": _median([sample[1] for sample in setup]),
        "peak_rss_mib": peak_kib / 1024,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values: list[int], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


LEAF_KEYS = (
    "clustering.election_threshold", "clustering.elect_cluster_heads",
    "clustering.ElectionState.for_round", "clustering.assign_members",
    "routing.prim_mst", "routing.build_adjacency", "routing.orient_tree",
    "routing.route_decision", "routing.merge_sensing_tables",
    "energy.link_cost", "energy.rx_energy", "model.distance",
    "engine.run_round", "engine.run_simulation",
)


def measure_layers(bench: Bench, seconds: float) -> dict:
    digest, counts, size = bench.reference_call()
    tracer = Tracer()
    traced_main = tracer.wrap(CLI_KEY, bench.main)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        elapsed = bench.call(bench.argv)
        if elapsed is not None and bench.same_output(digest):
            plain.append(elapsed)
        with tracer.patched():
            elapsed = bench.call(bench.argv, traced_main)
        if elapsed is not None and bench.same_output(digest):
            traced.append(elapsed)
        if bench.tally.failed > 3:
            break
    calls = max(tracer.calls(CLI_KEY), 1)
    rounds = max(counts.rounds * calls, 1)
    metrics = {}
    for key in LEAF_KEYS:
        metrics[f"{key}.calls_per_round"] = tracer.calls(key) / rounds
        metrics[f"{key}.self_us_per_round"] = tracer.self_ns(key) / 1e3 / rounds
    mst_calls = tracer.calls("routing.prim_mst")
    metrics["routing.prim_mst.heads_mean"] = tracer.mst_heads / mst_calls if mst_calls else 0.0
    metrics["engine.run_round.p50_us"] = _quantile(tracer.round_ns, 0.50) / 1e3
    metrics["engine.run_round.p99_us"] = _quantile(tracer.round_ns, 0.99) / 1e3
    metrics["engine.no_ch_fallback.calls"] = tracer.calls("engine.no_ch_fallback") / calls
    place_calls = max(tracer.calls("model.place_nodes"), 1)
    metrics["model.place_nodes.self_ms"] = tracer.self_ns("model.place_nodes") / 1e6 / place_calls
    metrics["cli.self_ms"] = tracer.self_ns(CLI_KEY) / 1e6 / calls
    metrics["cli.bytes_out"] = size
    metrics["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1 if plain and traced else 0.0
    )
    metrics["sim.rounds"] = counts.rounds
    metrics["sim.head_rounds"] = counts.head_rounds
    metrics["sim.fallback_rounds"] = counts.fallback_rounds
    metrics["sim.first_death_round"] = counts.first_death_round
    metrics["sim.deaths"] = counts.deaths
    total_self = sum(stat[1] for stat in tracer.stats.values()) or 1
    shares = sorted(((stat[1] / total_self, key) for key, stat in tracer.stats.items()),
                    reverse=True)
    print(f"# traced calls: {len(traced)}, plain calls: {len(plain)}, "
          f"round samples: {len(tracer.round_ns)}")
    for share, key in shares[:6]:
        print(f"# self-time share {share:7.2%}  {key}")
    return metrics


def machine_facts() -> list[str]:
    import numpy

    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return [
        f"# nproc {os.cpu_count()}, cpu {model}",
        f"# python {platform.python_version()}, numpy {numpy.__version__}",
        "# threads " + " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS),
    ]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test); skips digest and purpose checks")
    ns = parser.parse_args(argv)
    if ns.seed < 0:
        parser.error("--seed must be >= 0")
    return ns


def main(argv: list[str] | None = None) -> int:
    ns = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "crwsnsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no crwsnsim sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):  # setup children inherit the core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if ns.trace else "end_to_end"]}
    WORK.mkdir(exist_ok=True)

    tally = Tally()
    bench = Bench(ns.workload, ns.seed, ns.tiny, tally)
    try:
        if ns.trace:
            metrics = measure_layers(bench, ns.seconds)
        else:
            metrics = measure_e2e(bench, ns.seconds, 2 if ns.tiny else SETUP_SPAWNS)
    except CheckError as err:
        tally.fail(str(err))
        metrics = dict.fromkeys(wanted, 0.0)
    except Aborted:
        metrics = dict.fromkeys(wanted, 0.0)
    finally:
        bench.cleanup()
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} differ from "
              f"{spec_path.name}", file=sys.stderr)
        return 2

    for line in machine_facts():
        print(line)
    print(f"# workload {ns.workload}, seed {ns.seed}, calls {tally.attempted}, "
          f"failed {tally.failed}, fail_frac {tally.failed / max(tally.attempted, 1)}")
    for name, unit in wanted.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
