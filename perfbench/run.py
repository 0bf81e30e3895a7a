"""Benchmark for the topecycles pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census_hypercube --seed 1 --seconds 40 --trace 0

Each run is a closed loop: one caller, one process, one thread.  Set-up is
everything from process start up to the first timed call: interpreter
start-up, the package import and the workload's input generation.  The run
sets up, then repeats the workload's pass, a fixed list of items, until
--seconds have elapsed.  Between passes, at up to SETUP_REPS even intervals,
it times the same set-up in a fresh process (--setup-only).  It checks every
output against the workload's paper law and the reference digests recorded
at the seed commit, and prints one JSON object as its last line of output.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
each pass traced, untraced and traced again, reports the per-layer metrics
and the tracing overhead, then writes the spans to .perfbench_out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 9

sys.path.insert(0, str(HERE))
from tracing import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, or it does not import)."""


def import_package():
    """Import the package from the checkout's src/."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        tc = importlib.import_module(PACKAGE)
        for sub in ("io", "cli"):
            importlib.import_module(f"{PACKAGE}.{sub}")
    except Exception as exc:
        raise SetupError(f"importing {PACKAGE} failed: {exc!r}") from exc
    if Path(tc.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} was imported from {tc.__file__}, not from the checkout")
    return tc


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str) -> dict[str, str]:
    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def setup(wl, seed: int) -> None:
    """Import the package and build the workload's inputs."""
    wl.setup(import_package(), seed, str(OUT_DIR))


def time_fresh_setup(workload: str, seed: int) -> float:
    """Time one set-up in a new process, from its start until it is ready for
    its first timed call, so that every import the package pulls in counts."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    # Leaving the block has waited for the process to end.
    if proc.returncode != 0 or ready != "ready\n":
        raise SetupError(f"set-up in a fresh process failed with exit code {proc.returncode}")
    return elapsed


class Runner:
    """Runs passes of one workload, timing each item and checking its output.

    With ``record`` set, digests are stored there instead of being compared.
    """

    def __init__(self, wl, reference: dict[str, str] | None, record: dict[str, str] | None = None):
        self.wl = wl
        self.reference = reference
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.item_times: dict[str, list[float]] = {}

    def run_pass(self, items, tracer: Tracer | None = None) -> tuple[float, int]:
        """Run one pass; return the summed time of its timed calls and the work units they finished."""
        total = 0.0
        units = 0
        for item in items:
            if tracer is not None:
                tracer.item = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.wl.call(item)
            except Exception:  # the program failed on this input: count it and go on
                total += time.perf_counter() - t0
                self._fail(item, traceback.format_exc(limit=3))
                continue
            dt = time.perf_counter() - t0
            total += dt
            self.item_times.setdefault(item.key, []).append(dt)
            units += item.units
            self._check(item, out)
        return total, units

    def _check(self, item, out) -> None:
        try:
            problems, payload = self.wl.check(item, out)
        except Exception:
            self._fail(item, traceback.format_exc(limit=3))
            return
        got = digest(payload)
        if self.record is not None:
            self.record[item.key] = got
        elif self.reference.get(item.key) is None:
            problems.append("no reference digest for this item")
        elif self.reference[item.key] != got:
            problems.append(f"output digest {got} != reference {self.reference[item.key]}")
        if problems:
            self._fail(item, "; ".join(problems))

    def _fail(self, item, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{self.wl.name} item {item.key}: {why}")


def percentile(values: list[float], n: int) -> float:
    """The (n-1)/n quantile, interpolated within the data: n=20 gives the 95th percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[-1]


def measure(wl, runner: Runner, seconds: float, seed: int) -> tuple[list[tuple[float, int]], list[float]]:
    """Run passes for the given time; return them and the set-up times.
    Set-ups in fresh processes are spread over the run at even intervals, so
    that they sample the whole run rather than one moment of the host's
    drifting speed."""
    passes, setup_times = [], []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(wl.items))
        elapsed = time.perf_counter() - start
        if len(setup_times) < SETUP_REPS and elapsed >= len(setup_times) * seconds / SETUP_REPS:
            setup_times.append(time_fresh_setup(wl.name, seed))
        if elapsed >= seconds:
            return passes, setup_times


def traced_pass(runner: Runner, items, tracer: Tracer) -> float:
    tracer.install()
    try:
        return runner.run_pass(items, tracer)[0]
    finally:
        tracer.uninstall()


def measure_traced(wl, runner: Runner, seconds: float, tracer: Tracer,
                   probe: Tracer) -> tuple[list[float], list[float], list[float]]:
    """Each pass runs three times.  The traced run goes first, so that the
    layer metrics see each cycle's cold first call.  Then, both warm, come an
    untraced run and a run traced by ``probe``, whose difference is the
    tracing overhead."""
    traced, untraced, probed = [], [], []
    start = time.perf_counter()
    while True:
        traced.append(traced_pass(runner, wl.items, tracer))
        untraced.append(runner.run_pass(wl.items)[0])
        probed.append(traced_pass(runner, wl.items, probe))
        if time.perf_counter() - start >= seconds:
            return traced, untraced, probed


def layer_kinds(names: list[str]) -> dict[str, set[str]]:
    kinds: dict[str, set[str]] = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if not layer.startswith("bench"):
            kinds.setdefault(layer, set()).add(kind)
    return kinds


def end_to_end(wl, runner: Runner, seconds: float, seed: int) -> dict[str, float]:
    passes, setup_times = measure(wl, runner, seconds, seed)
    # Each item's fastest time over the run: the host's speed swings within
    # seconds, and the fastest of many repeats of the same call is what stays
    # steady from run to run.  A pass is the sum of its items' fastest times.
    best = [min(runner.item_times[item.key]) for item in wl.items if item.key in runner.item_times]
    timed = sum(t for t, _ in passes)
    units = sum(u for _, u in passes)
    repeats = min((len(v) for v in runner.item_times.values()), default=0)
    print(f"{wl.name}: {len(passes)} passes of {len(wl.items)} items, {units} {wl.unit} in {timed:.4f} s "
          f"of timed calls; each item timed at least {repeats} times; {len(setup_times)} set-ups")
    return {
        "wall_s": sum(best),
        "item_p95_ms": 1000 * percentile(best, 20) if best else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, runner: Runner, seconds: float, names: list[str], trace_path: Path, seed: int) -> dict[str, float]:
    kinds = layer_kinds(names)
    tracer = Tracer(kinds)
    traced, untraced, probed = measure_traced(wl, runner, seconds, tracer, Tracer(kinds))
    tracer.write(str(trace_path), {"workload": wl.name, "seed": seed, "traced_passes": len(traced)})
    # Means, like the per-pass layer values, so that layer shares add up.
    values = {
        "bench.traced_wall_s": statistics.fmean(traced),
        "bench.untraced_wall_s": statistics.fmean(untraced),
        "bench.trace_overhead_s": statistics.fmean(probed) - statistics.fmean(untraced),
    }
    for name in names:
        if name not in values:
            layer, _, kind = name.rpartition(".")
            values[name] = tracer.metric(layer, kind, len(traced))
    print(f"{wl.name}: {len(traced)} traced passes; busy share of the mean traced pass:")
    for name, v in sorted(values.items(), key=lambda kv: -kv[1]):
        if name.endswith(".busy_s") and v > 0:
            print(f"  {name:<45} {v / values['bench.traced_wall_s']:7.1%}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit; used to time set-up in a fresh process")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    try:
        spec = load_spec()
        reference = load_reference(wl.name)
        setup(wl, args.seed)
    except (SetupError, OSError, ValueError) as exc:
        wl.close()
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        wl.close()
        return 0

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    runner = Runner(wl, reference)
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
            values = per_layer(wl, runner, args.seconds, list(units), trace_path, args.seed)
        else:
            values = end_to_end(wl, runner, args.seconds, args.seed)
    except SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        wl.close()

    for line in runner.problems:
        print(line, file=sys.stderr)
    print(f"{wl.name}: attempted {runner.attempted}, failed {runner.failed}, "
          f"error_rate {runner.failed / max(runner.attempted, 1):.4f}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
