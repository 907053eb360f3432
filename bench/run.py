"""Benchmark of the `stanley` command line verbs, end to end and per layer.

    python3 bench/run.py --workload corpus-check --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: the package is imported from
./src.  The verbs run in this process and thread through
`stanley.cli.main`, in whole rounds for about --seconds.  With --trace 0
the last line of standard output is one JSON object with the end-to-end
metrics, every time in them scaled to the nominal machine speed of
speed.py; with --trace 1 it holds the per-layer metrics of a traced round,
as measured.  Verb reports go to .bench_out/<workload>/ and
are checked by bench/checks.py after the measurement.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
import speed
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class FirstItem(Exception):
    """Raised by the first item of a set-up probe, to stop the verb there."""


def _stanley_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "stanley" or k.startswith("stanley.")}


def setup_span(workload, seed: int, out: Path) -> tuple:
    """perf_counter readings at a fresh import of the package and at the
    verb's first item.

    Covers the benchmark's input generation, the import of every `stanley`
    module, and the verb's own work (argument parsing, reading the ideal,
    generating a corpus) up to its first library call.  The live modules
    are put back afterwards.
    """
    saved = _stanley_modules()
    for name in saved:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        call = workload.make_round(seed, 0)[0]
        cli = importlib.import_module("stanley.cli")

        def stop(*args, **kwargs):
            raise FirstItem

        setattr(cli, workload.item, stop)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.main(list(call.argv) + ["--json", str(out / "setup.json")])
    except FirstItem:
        return start, time.perf_counter()
    finally:
        for name in _stanley_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    raise RuntimeError("set-up probe: the verb returned before its first item")


class Runner:
    """Runs rounds of one workload through stanley.cli.main and times items.

    What it keeps per item or per call is flat and small, so that the peak
    resident set does not grow with the number of rounds the machine's
    speed allows: the calls of a round are made again from the seed when
    their reports are checked.
    """

    def __init__(self, workload, seed: int, out: Path):
        import stanley
        import stanley.cli as cli
        self.stanley, self.cli, self.out = stanley, cli, out
        self.workload, self.seed = workload, seed
        # perf_counter readings at the start and end of every item
        self.item_starts = array.array("d")
        self.item_ends = array.array("d")
        self.attempted = self.failed = 0
        self.exit_codes = set()
        self.rounds = set()     # indices of the rounds run
        item = getattr(cli, workload.item)

        def timed(*args, **kwargs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = item(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            end = time.perf_counter()
            self.item_starts.append(start)
            self.item_ends.append(end)
            return result

        setattr(cli, workload.item, timed)

    def run_round(self, k: int, calls: list) -> tuple:
        """Run one round from an empty sdepth cache.

        Returns the perf_counter readings at its start and end.
        """
        self.stanley.clear_cache()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            for j, call in enumerate(calls):
                argv = list(call.argv) + ["--json", str(self.report(k, j))]
                self.exit_codes.add(self.cli.main(argv))
            end = time.perf_counter()
        self.rounds.add(k)
        return start, end

    def report(self, k: int, j: int) -> Path:
        """Where call j of round k writes its JSON report."""
        return self.out / f"r{k}-{j}.json"

    def check(self) -> list:
        """Problems found in the verbs' exit codes and reports."""
        problems = [f"a verb exited with {c}" for c in sorted(self.exit_codes) if c]
        seen = set()
        for k in sorted(self.rounds):
            for j, call in enumerate(self.workload.make_round(self.seed, k)):
                data = self.report(k, j).read_bytes()
                key = (call.argv, hashlib.sha256(data).digest())
                # a byte-identical report of the same call has been checked already
                if key in seen:
                    continue
                seen.add(key)
                problems += [f"{' '.join(call.argv[:2])}: {p}"
                             for p in call.check(json.loads(data))]
        return problems


def p90(values: list) -> float:
    """90th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def more_rounds(walls: list, seconds: float) -> bool:
    """Whether another whole round brings the measured time nearer `seconds`.

    A run stops at the count of whole rounds whose total lies nearest
    `seconds`, so that a workload of long rounds does not overrun it by
    almost a round.
    """
    return not walls or sum(walls) + statistics.median(walls) / 2 < seconds


def measure(workload, seed: int, seconds: float, out: Path) -> tuple:
    """Whole rounds for about `seconds`; figures over the whole run.

    Every time is read on the nominal-speed clock of speed.py.  The
    figures in wall time go to the run's summary on standard error.
    """
    runner = Runner(workload, seed, out)
    setups, rounds, k = [], [], 0
    with speed.Clock() as clock:
        while more_rounds([end - start for start, end in rounds], seconds):
            for _ in range(workload.setups_per_round):
                setups.append(setup_span(workload, seed, out))
            rounds.append(runner.run_round(k, workload.make_round(seed, k)))
            k += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    item_spans = list(zip(runner.item_starts, runner.item_ends))

    def figures(read) -> tuple:
        items = [read(a, b) for a, b in item_spans]
        return (len(items) / sum(read(a, b) for a, b in rounds),
                statistics.median(items) * 1e3, p90(items) * 1e3)

    items_per_s, p50_ms, p90_ms = figures(clock.nominal)
    metrics = {
        "items_per_s": (items_per_s, "1/s"),
        "item_p50_ms": (p50_ms, "ms"),
        "item_p90_ms": (p90_ms, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(clock.nominal(a, b) for a, b in setups), "s"),
    }
    wall_per_s, wall_p50, wall_p90 = figures(clock.wall)
    info = {"rounds": k, "items": len(item_spans), "setups": len(setups),
            "wall_s": sum(clock.wall(a, b) for a, b in rounds),
            "nominal_s": sum(clock.nominal(a, b) for a, b in rounds),
            "wall_items_per_s": wall_per_s, "wall_item_p50_ms": wall_p50,
            "wall_item_p90_ms": wall_p90}
    return runner, metrics, info


def measure_traced(workload, seed: int, seconds: float, out: Path) -> tuple:
    """Alternate plain and traced runs of round 0 for about `seconds`."""
    runner = Runner(workload, seed, out)
    calls = workload.make_round(seed, 0)
    plain, traced, per_round = [], [], []
    tracer = None
    while more_rounds([p + t for p, t in zip(plain, traced)], seconds):
        start, end = runner.run_round(0, calls)
        plain.append(end - start)
        tracer = layers.Tracer()
        with tracer:
            start, end = runner.run_round(0, calls)
        traced.append(end - start)
        per_round.append(tracer.layer_metrics())
    metrics = {}
    for name, unit in layers.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif unit == "count":
            # counts repeat exactly from one traced round to the next
            value = per_round[0][name]
        else:
            value = statistics.median(m[name] for m in per_round)
        metrics[name] = (value, unit)
    (out / "trace.json").write_text(json.dumps({
        "spans": ["name", "start", "end", "parent", "completed"],
        "last_round": tracer.spans,
        "rounds": per_round,
        "plain_s": plain, "traced_s": traced}))
    info = {"rounds": len(traced), "plain_s": plain, "traced_s": traced}
    return runner, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stanley" / "cli.py").is_file():
        print(f"error: no stanley package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # set-up probes import the package from bytecode, as an installed copy
    # would, whether or not the environment asks Python not to write it
    sys.dont_write_bytecode = False

    workload = WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = measure_traced if args.trace else measure
    runner, metrics, info = run(workload, args.seed, args.seconds, out)
    problems = runner.check()
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}),
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
