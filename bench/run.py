"""hibarrier benchmark: run one workload of CLI operations and print metrics.

    python3 bench/run.py --workload sample|cone|falsify [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`. Every operation is one `hibarrier check` or `hibarrier falsify`
command, run in-process through `hibarrier.cli.main` with `--report`, and every
report is checked against results computed apart from the program
(`bench/checks.py`). A run repeats whole rounds of the workload's operations
until `--seconds` have passed; round r runs them with `--seed` + r.

The machine's speed drifts by up to a third within seconds to minutes, so
`wall_s` and `cpu_s` are given at a fixed speed: a short probe runs every
0.2 s, and each operation's time, less the probes inside it, is scaled by the
probe's reference time over its median time near the operation
(`bench/speed.py`). The unscaled times go to standard error.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` one untraced round is followed by traced
rounds, and the object holds the per-layer metrics (see `bench/README.md`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SYSTEMS = BENCH / "systems"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

from checks import check_falsify, check_report  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


_MODULE_T0 = time.perf_counter()


def _process_start_age() -> float:
    """Seconds since this process started, from /proc (tick resolution);
    the module's own start time where /proc is not readable."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _MODULE_T0


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _load_report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("timing", None)
    return doc


class Runner:
    """Runs rounds of one workload and keeps per-operation timings."""

    def __init__(self, workload: str, seed: int, cli, sampler: SpeedSampler) -> None:
        self.ops = WORKLOADS[workload]
        self.seed = seed
        self.cli = cli
        self.sampler = sampler
        self.reports = [OUT / f"{workload}-{i}.json" for i in range(len(self.ops))]
        # (op, program seed) -> (exit code, digest of the report without timing)
        self.first: dict[tuple[int, int], tuple[int, str]] = {}
        self.failed_ops: set[tuple[int, int]] = set()
        self.problems: list[str] = []
        self.known: list[str] = []
        # per operation and round: wall and CPU time less the speed probes
        # run inside it, and (start, end) on perf_counter
        self.wall: list[list[float]] = [[] for _ in self.ops]
        self.cpu: list[list[float]] = [[] for _ in self.ops]
        self.spans: list[list[tuple[float, float]]] = [[] for _ in self.ops]
        self.attempted = 0
        self.failed = 0

    def round(self, offset: int) -> None:
        """Every operation once, with program seed `--seed` + offset."""
        for i, op in enumerate(self.ops):
            argv = op.argv(str(SYSTEMS), self.seed + offset, str(self.reports[i]))
            self.reports[i].unlink(missing_ok=True)
            sink = io.StringIO()
            probed = self.sampler.spent_wall, self.sampler.spent_cpu
            c0, t0 = _cpu(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = self.cli.main(argv)
                error = None
            except Exception as e:  # an escaped exception is a failed operation
                rc, error = None, f"{type(e).__name__}: {e}"
            t1, c1 = time.perf_counter(), _cpu()
            self.wall[i].append(t1 - t0 - (self.sampler.spent_wall - probed[0]))
            self.cpu[i].append(c1 - c0 - (self.sampler.spent_cpu - probed[1]))
            self.spans[i].append((t0, t1))
            self.attempted += 1
            key = (i, op.seed_for(self.seed + offset))
            if self._verify(key, op, rc, error, sink.getvalue()):
                self.failed += 1

    def _verify(self, key: tuple[int, int], op, rc, error, output: str) -> bool:
        """Check one operation's report; True when the operation failed.
        A report already checked at the same seed must come out the same."""
        i = key[0]
        if error is None and not self.reports[i].exists():
            error = f"exit {rc} without a report: {output.strip()[-300:]}"
        if error is not None:
            problems = [f"{op.label}: {error}"]
        else:
            report = _load_report(self.reports[i])
            seen = (rc, hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
            if key not in self.first:
                self.first[key] = seen
                check = check_falsify if op.command == "falsify" else check_report
                problems = check(op, rc, report)
            elif self.first[key] != seen:
                problems = [f"{op.label}: report differs from the earlier one at seed {key[1]}"]
            else:
                return key in self.failed_ops
        if not problems:
            return False
        self.failed_ops.add(key)
        if op.known_fault:
            self.known.extend(problems[:5])
        else:
            self.problems.extend(problems[:5])
        return True

    def scaled(self, times: list[list[float]]) -> list[list[float]]:
        """`times` at the reference speed of `speed.PROBE_REF_S`."""
        return [[t * self.sampler.scale(*span) for t, span in zip(ts, spans)]
                for ts, spans in zip(times, self.spans)]

    def run_until(self, seconds: float) -> int:
        """Whole rounds, at least one, until `seconds` have passed; round r
        uses program seed `--seed` + r, so that the per-operation medians
        cover several inputs and depend less on any one of them."""
        t0 = time.perf_counter()
        rounds = 0
        while not rounds or time.perf_counter() - t0 < seconds:
            self.round(rounds)
            rounds += 1
        return rounds


def _traced(runner: Runner, seconds: float, import_s: float) -> dict:
    """One untraced round, then traced rounds until `seconds` have passed,
    all at program seed `--seed`. Counts come from one traced round and must
    repeat in every other; times are medians over the traced rounds."""
    from layers import PER_LAYER, Tracer, line_counts

    runner.round(0)
    tracer = Tracer()
    tracer.install()
    per_round = []
    t0 = time.perf_counter()
    try:
        while not per_round or time.perf_counter() - t0 < seconds:
            mark = tracer.mark()
            runner.round(0)
            per_round.append(tracer.summary(mark))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / "spans.npz")

    metrics: dict[str, dict] = {}
    for name, unit in PER_LAYER:
        values = [r.get(name, 0) for r in per_round]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                runner.problems.append(f"count {name} differs between traced rounds: {values}")
        metrics[name] = {"value": value, "unit": unit}
    metrics["hibarrier.import_s"] = {"value": import_s, "unit": "s"}
    # operation wall time per round; round 0 is the untraced one
    walls = [sum(ws) for ws in zip(*runner.wall)]
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (statistics.median(walls[1:]) / walls[0] - 1.0), "unit": "%"}
    metrics["trace.spans"] = {"value": len(tracer.start) // len(per_round), "unit": "count"}
    for name, value in line_counts(SRC / "hibarrier").items():
        metrics[name] = {"value": value, "unit": "lines"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hibarrier" / "__init__.py").is_file():
        print(f"error: no hibarrier sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hibarrier.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "hibarrier":
        print(f"error: imported hibarrier from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sampler = SpeedSampler()
    runner = Runner(args.workload, args.seed, cli, sampler)
    setup_s = _process_start_age()

    if args.trace:
        # unprobed, so that the spans hold the program's time alone
        metrics = _traced(runner, args.seconds, import_s)
    else:
        with sampler:
            rounds = runner.run_until(args.seconds)
        wall, cpu = runner.scaled(runner.wall), runner.scaled(runner.cpu)
        print(f"{rounds} rounds, {len(sampler.probes)} speed probes; unscaled wall s "
              f"{sum(map(statistics.median, runner.wall)):.3f}, cpu s "
              f"{sum(map(statistics.median, runner.cpu)):.3f}; per-operation median "
              "scaled wall s: " + " ".join(f"{statistics.median(w):.3f}" for w in wall),
              file=sys.stderr)
        metrics = {
            # one round's time at the reference speed: each operation's
            # median over the rounds, summed
            "wall_s": {"value": sum(map(statistics.median, wall)), "unit": "s"},
            "cpu_s": {"value": sum(map(statistics.median, cpu)), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    for line in runner.known:
        print(f"known fault: {line}", file=sys.stderr)
    for line in runner.problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
