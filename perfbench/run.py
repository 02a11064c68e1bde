"""The locsym benchmark.

    python3 perfbench/run.py --workload suite|solve|query --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from `src/`
(nothing needs installing).  Each workload is a closed loop with one
client: the next unit of work starts when the previous one has
returned.  A unit is one acceptance battery (`suite`) or one algebra
through the exact pipeline (`solve`), both in this process, or one short
CLI call in a fresh interpreter (`query`).  Units come in seeded cycles;
a run measures whole cycles while the next one is expected to end within
S seconds, and at least one.  Unit times in this process are normalized
for the host's CPU speed by the probe in speed.py; raw ones are printed
too.

Every unit's output is checked outside the timed region.  The last
stdout line is the JSON result; the lines before it name every metric
with its unit, the tail percentile with its sample count, and each
failure kind with its count.

With --trace 1 the run does one fixed cycle twice, untraced and then
traced, so its counters repeat exactly for a seed; it reports per-layer
counts and self times, and the tracing overhead as traced minus
untraced wall time of that cycle.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_REPEATS = 7  # fresh interpreters per run for setup_s
# Pointwise checks per local-derivation self check and per strict-inclusion
# witness (the engine's defaults are 10^4; 10^3 keeps a cycle near 10 s).
SOLVE_CHECKS = 1000
UNITS = {"suite": "batteries", "solve": "algebras", "query": "calls"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def launch(workdir: Path, trace: bool, argv: list[str]):
    """One fresh interpreter through launch.py: (wall s, exit code, stdout, report)."""
    fd, report = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    report = Path(report)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(report), str(int(trace)), *argv],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    text = report.read_text(encoding="utf-8")
    report.unlink()
    return wall, proc.returncode, proc.stdout, json.loads(text) if text else None


def measure_setup(workdir: Path) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing locsym and
    locsym.cli, and the median import time measured inside it.

    Not speed-normalized: the import is file reads and unmarshalling more
    than arithmetic, and it does not follow the probe's speed.
    """
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        wall, code, _, report = launch(workdir, False, [])
        if code != 0 or report is None:
            raise RuntimeError("a fresh interpreter could not import locsym.cli")
        walls.append(wall)
        imports.append(report["import_s"])
    return statistics.median(walls), statistics.median(imports)


# -- workloads: make a cycle, run one unit, check one unit ---------------------


class Solve:
    """derivation_algebra, local_derivation_space, strict_inclusion_witness."""

    def __init__(self, seed: int, workdir: Path):
        import locsym
        import solve_inputs

        self.seed, self.inputs, self.engine = seed, solve_inputs, locsym

    def cycle(self, c: int):
        return self.inputs.make_cycle(self.seed, c)

    def run(self, item, traced):
        _, algebra = item
        engine = self.engine  # attributes resolve per call, so traced wrappers apply
        try:
            ders = engine.derivation_algebra(algebra)
            locders = engine.local_derivation_space(
                algebra, seed=self.seed, validation_checks=SOLVE_CHECKS
            )
            witness = engine.strict_inclusion_witness(
                algebra, ders, locders, checks=SOLVE_CHECKS, seed=self.seed
            )
        except Exception as exc:  # a raised exception is a failed unit
            return exc
        return ders, locders, witness

    def check(self, item, outcome):
        name, algebra = item
        return self.inputs.check(name, algebra, outcome)


class Cli:
    """CLI calls, each in a fresh interpreter via launch.py."""

    def __init__(self, seed: int, workdir: Path):
        import query_inputs

        self.seed, self.workdir, self.inputs = seed, workdir, query_inputs
        self.main_s: list[float] = []
        self.dumps: list[dict] = []

    def run(self, item, traced):
        argv, _ = item
        _, code, stdout, report = launch(self.workdir, traced, argv)
        if traced and report is not None:
            self.main_s.append(report["main_s"])
            self.dumps.append(report["trace"])
        return code, stdout

    def check(self, item, outcome):
        _, expected = item
        problem = self.inputs.check(expected, *outcome)
        return (problem, True) if problem else None


class Suite:
    """`locsym.acceptance.run_suite(seed)`: the full battery, in process."""

    def __init__(self, seed: int, workdir: Path):
        import locsym.acceptance

        self.seed, self.acceptance = seed, locsym.acceptance

    def cycle(self, c: int):
        return [self.seed + c]

    def run(self, item, traced):
        try:
            return self.acceptance.run_suite(item)
        except Exception as exc:  # a raised exception is a failed unit
            return exc

    def check(self, item, outcome):
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}", True
        failed = [r.number for r in outcome.results if not r.passed]
        if len(outcome.results) != 11 or failed:
            return f"{len(outcome.results)} criteria, failed: {failed}", True
        return None


class Query(Cli):
    """The seeded mix of short CLI calls from query_inputs."""

    def cycle(self, c: int):
        return self.inputs.make_cycle(self.seed, c, self.workdir)


WORKLOADS = {"suite": Suite, "solve": Solve, "query": Query}


def measure(workload, items, traced=False, probe=None):
    """Run units in order; returns [(item, outcome, seconds, start, end)].
    With a running probe, `seconds` leaves out the probe's own time."""
    done = []
    for item in items:
        own = probe.own_s if probe else 0.0
        start = time.perf_counter()
        outcome = workload.run(item, traced)
        end = time.perf_counter()
        own = probe.own_s - own if probe else 0.0
        done.append((item, outcome, end - start - own, start, end))
    return done


def timed_cycles(workload, seconds: float):
    """Whole cycles while the next one, as long as the last, still ends
    within `seconds`; at least one cycle.  Returns the units with their
    speed-normalized seconds, the number of cycles and the probe.

    Only units in this process are probed: a child process may run on
    another vCPU than the probe, so CLI units keep their raw time.
    """
    probe = None if isinstance(workload, Cli) else speed.Probe()
    done, c, start = [], 0, time.perf_counter()
    if probe:
        probe.start()
    try:
        while True:
            cycle_start = time.perf_counter()
            done += measure(workload, workload.cycle(c), probe=probe)
            c += 1
            now = time.perf_counter()
            if now - start + (now - cycle_start) > seconds:
                break
    finally:
        if probe:
            probe.stop()
    units = [
        (item, outcome, raw, raw * speed.NOMINAL_S / probe.piece_s(a, b) if probe else raw)
        for item, outcome, raw, a, b in done
    ]
    return units, c, probe


def tail(times: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, or None
    when that percentile would not lie above the median."""
    n = len(times)
    if n - 10 <= n / 2:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def peak_rss_mb(workload_name: str) -> float:
    """Peak RSS of the process that ran the engine: this one for `suite`
    and `solve`, else the largest child (set-up children only import)."""
    who = resource.RUSAGE_CHILDREN if workload_name == "query" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_all(workload, done):
    failures, wrong = Counter(), 0
    for item, outcome, *_ in done:
        problem = workload.check(item, outcome)
        if problem is not None:
            kind, claimed_exact = problem
            failures[kind] += 1
            wrong += claimed_exact
    return failures, wrong


def end_to_end(name, done, cycles, probe, setup_s, rss, failures):
    """Unit timings are speed-normalized (see speed.py); raw ones are printed."""
    raw = [seconds for _, _, seconds, _ in done]
    times = [seconds for *_, seconds in done]
    busy = sum(times)
    ok = len(done) - sum(failures.values())
    p50 = statistics.median(times)
    print(f"workload {name}: {len(done)} {UNITS[name]} in {cycles} cycle(s), "
          f"closed loop, one client")
    if probe:
        pieces = [d for _, d in probe.pieces]
        print(f"speed probe: {len(pieces)} pieces, median {statistics.median(pieces):.5f} s, "
              f"range {min(pieces):.5f}-{max(pieces):.5f} s, nominal {speed.NOMINAL_S} s")
        print(f"raw (not normalized): p50 {statistics.median(raw):.4f} s, "
              f"{ok / sum(raw):.4f} {UNITS[name]}/s")
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} fresh interpreters "
          "importing locsym and locsym.cli)")
    print(f"peak_rss_mb {rss:.1f} MB")
    print(f"fail_frac {(len(done) - ok) / len(done):.4f} ({len(done) - ok}/{len(done)})")
    if name == "suite":
        print(f"suite_s {p50:.4f} s (median battery, n={len(done)})")
    else:
        print(f"{name}_per_s {ok / busy:.4f} 1/s (successful {UNITS[name]} per busy second)")
        print(f"{name}_p50_s {p50:.4f} s (n={len(done)})")
        high = tail(times)
        if high is None:
            print(f"{name}_tail_s n/a (n={len(done)}: no percentile above the "
                  "median has ten samples beyond it)")
        else:
            print(f"{name}_tail_s {high[1]:.4f} s (p{high[0]:.1f}, n={len(done)})")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "unit_p50_s": {"value": p50, "unit": "s"},
        "units_per_s": {"value": ok / busy, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced_run(name, workload, import_s):
    """One fixed cycle untraced, then the same cycle traced."""
    from tracer import Tracer, layer_metrics, merge

    items = workload.cycle(0)
    untraced = measure(workload, items)
    if isinstance(workload, Cli):  # each child traces itself and reports its counters
        traced = measure(workload, items, traced=True)
        dumps = workload.dumps
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, items)
        finally:
            tracer.uninstall()
        dumps = [tracer.dump()]
    metrics = layer_metrics(merge(dumps))
    base = sum(s for _, _, s, *_ in untraced)
    over = sum(s for _, _, s, *_ in traced) - base
    main_s = statistics.median(workload.main_s) if isinstance(workload, Cli) else 0.0
    extra = {
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (main_s, "s"),
        "trace.untraced_s": (base, "s"),
        "trace.overhead_s": (over, "s"),
        "trace.overhead_frac": (over / base, "ratio"),
    }
    for key, (value, unit) in extra.items():
        metrics[key] = {"value": value, "unit": unit}
    print(f"workload {name} traced: {len(items)} {UNITS[name]}, untraced {base:.4f} s, "
          f"traced {base + over:.4f} s, tracing overhead {over:.4f} s "
          f"({100 * over / base:.1f}%)")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']} {metric['unit']}")
    return untraced + traced, metrics


def main() -> int:
    args = parse_args()
    if not (SRC / "locsym" / "__init__.py").is_file():
        print(f"no locsym sources under {SRC}; run from a locsym checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        setup_s, import_s = measure_setup(workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            done, metrics = traced_run(args.workload, workload, import_s)
        else:
            done, cycles, probe = timed_cycles(workload, args.seconds)
            rss = peak_rss_mb(args.workload)
        failures, wrong = check_all(workload, done)
        if not args.trace:
            metrics = end_to_end(args.workload, done, cycles, probe, setup_s, rss, failures)
        for kind, count in failures.most_common():
            print(f"failure x{count}: {kind}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(done),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
