"""padvio benchmark: time whole operations per workload, or trace them per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one process each

Run from the root of a padvio checkout; padvio is imported from ./src and
nowhere else. One process on one thread, with BLAS pinned to one thread.

With --trace 0 the run sets up (imports, inputs, one untimed warm-up
operation), then runs operations back to back (a closed loop) for S seconds
and prints the end-to-end metrics. Set-up is repeated in two fresh processes
and setup_s is the median of the three. With --trace 1 the operations run
under the span tracer, the per-layer metrics are printed, and the first
operations are run again untraced to prove the wrappers change no output
bit and to measure the tracing overhead.

Every time is reported at nominal machine speed (see speed.py): its wall
time scaled by how much slower than nominal a fixed probe kernel ran around
and during it. The raw wall times and the speed are printed on the info line.

The last line of output is one JSON object: correct, attempted, failed and
metrics (name -> value and unit). Lines before it give the same numbers in
text, the environment, and figures that are not metrics (failure and
accuracy rates, per-stage times, sample counts). A scenario that is not
physically valid, or a missing ./src/padvio, ends the run with a nonzero exit
and no result line.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

SETUP_START = time.perf_counter()

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 3  # processes whose set-up time is measured, this one included
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
VERIFY_SHARE = 0.25  # share of --seconds spent re-running traced operations untraced
SPAN_FILE_LIMIT = 250_000

# Layer metrics that may legitimately be 0 on any workload.
MAY_BE_ZERO = {"solver.aborts", "solver.cost_rise_ratio", "trace.overhead_ms"}
# Layers only certification runs, and layers only estimation runs.
CERTIFY_ONLY = ("checks.", "graph.stacked_residual")
ESTIMATE_ONLY = ("solver.", "graph.constraint", "dataset_io.", "sim.init", "cli.")


def exercised(workload: str, metric: str) -> bool:
    """Whether the workload loads the layer, so its traced metric must be positive."""
    skipped = ESTIMATE_ONLY if workload == "certify" else CERTIFY_ONLY
    return metric not in MAY_BE_ZERO and not metric.startswith(skipped)


def metric_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class SetupError(RuntimeError):
    pass


def load_padvio():
    """Import padvio from this checkout's src directory, never from elsewhere."""
    if not (SRC / "padvio" / "__init__.py").is_file():
        raise SetupError(f"no padvio package under {SRC}; run from a padvio checkout")
    sys.path.insert(0, str(SRC))
    import padvio
    import padvio.checks
    import padvio.cli

    if Path(padvio.__file__).resolve().parent != (SRC / "padvio").resolve():
        raise SetupError(f"imported padvio from {padvio.__file__}, not from {SRC}")
    return padvio


def environment(pv) -> dict:
    blas = numpy_blas()
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": os.cpu_count(),
        "commit": commit,
        "padvio": pv.__version__,
    }


def numpy_blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def timing_summary(samples_s):
    """Median and tail of operation times in ms, the tail being the highest
    percentile with at least TAIL_BEYOND samples beyond it (the median when
    there are too few samples for that)."""
    values = np.sort(np.asarray(samples_s) * 1e3)
    count = values.size
    q = 100.0 * (count - TAIL_BEYOND) / count if count else 50.0
    q = max(50.0, q) if count > 2 * TAIL_BEYOND else 50.0
    return {
        "p50": float(np.percentile(values, 50.0)),
        "tail": float(np.percentile(values, q)),
        "tail_percentile": q,
        "samples": int(count),
    }


class Run:
    def __init__(self, args, pv, meter: speed.Speedometer):
        self.args = args
        self.pv = pv
        self.meter = meter
        self.op = workloads.operation(args.workload)
        self.workdir = ROOT / "perfbench" / "out" / f"work-{args.workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def one(self, index: int, want_digest: bool = False) -> workloads.Outcome:
        try:
            return self.op(self.pv, self.args.workload, self.args.seed, index,
                           self.workdir, self.args.tiny, want_digest)
        except workloads.ScenarioError:
            raise
        except Exception as err:  # the loop keeps running; the failure is counted
            return workloads.Outcome(error=f"op {index}: {type(err).__name__}: {err}")

    def timed(self, index: int, tracer=None) -> workloads.Outcome:
        """One operation under the speedometer."""
        with self.meter.measuring():
            start = time.perf_counter()
            if tracer is None:
                outcome = self.one(index, want_digest=self.args.trace == 1)
            else:
                tracer.op_id = index
                with tracer.span("op"):
                    outcome = self.one(index, want_digest=True)
            outcome.seconds = time.perf_counter() - start
        outcome.probing_s = self.meter.probing_s
        outcome.seconds -= outcome.probing_s
        outcome.speed = self.meter.speed
        return outcome

    def loop(self, seconds: float, tracer=None):
        """Run operations 1, 2, ... back to back until `seconds` have passed."""
        outcomes = []
        start = time.perf_counter()
        while True:
            outcomes.append(self.timed(len(outcomes) + 1, tracer))
            if time.perf_counter() - start >= seconds:
                return outcomes, time.perf_counter() - start


def report_failures(outcomes):
    errors = [o.error for o in outcomes if o.error]
    for message in errors[:5]:
        print(f"failed: {message}", file=sys.stderr)
    if len(errors) > 5:
        print(f"failed: ... {len(errors) - 5} more", file=sys.stderr)


def setup_probe_times(args) -> list:
    """Set-up time of fresh processes running this workload's set-up only."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    runs = []
    for _ in range(SETUP_RUNS - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return runs


def print_result(correct, outcomes, metrics, section):
    units = metric_units(section)
    if set(metrics) != set(units):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.error),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def untraced(run: Run, args, own_setup: dict) -> int:
    outcomes, elapsed = run.loop(args.seconds)
    ok = [o for o in outcomes if not o.error]
    summary = timing_summary([o.nominal_seconds for o in outcomes])
    wall = timing_summary([o.seconds for o in outcomes])
    setups = [own_setup] + (setup_probe_times(args) if not args.tiny else [])
    metrics = {
        "op_ms.p50": summary["p50"],
        "op_ms.tail": summary["tail"],
        "ops_per_s": len(ok) / sum(o.nominal_seconds for o in outcomes),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "tail_percentile": summary["tail_percentile"],
        "samples": summary["samples"],
        "fail_rate": (len(outcomes) - len(ok)) / len(outcomes),
        "speed.p50": statistics.median(o.speed for o in outcomes),
        "wall_op_ms.p50": wall["p50"],
        "wall_op_ms.tail": wall["tail"],
        "wall_ops_per_s": len(ok) / elapsed,
        "setup_runs": setups,
    }
    for stage in outcomes[0].stages:
        stage_summary = timing_summary(
            [o.stages[stage] * o.speed for o in outcomes if stage in o.stages]
        )
        info[f"{stage}_ms.p50"] = stage_summary["p50"]
        info[f"{stage}_ms.tail"] = stage_summary["tail"]
    judged = [o.accurate for o in outcomes if o.accurate is not None]
    if judged:
        info["accurate_rate"] = sum(judged) / len(judged)
    print("info " + json.dumps(info))
    report_failures(outcomes)
    print_result(not any(o.wrong for o in outcomes), outcomes, metrics, "end_to_end")
    return 0


def traced(run: Run, args, pv) -> int:
    tracer = tracing.Tracer()
    tracer.install(pv)
    try:
        outcomes, _ = run.loop(args.seconds, tracer)
    finally:
        tracer.uninstall()

    # run the first operations again untraced: same outputs, and the overhead
    problems = []
    overhead = []
    start = time.perf_counter()
    for index, first in enumerate(outcomes, start=1):
        again = run.timed(index)
        if again.digest != first.digest or again.error != first.error:
            problems.append(f"op {index}: traced output differs from untraced output")
        overhead.append(first.nominal_seconds - again.nominal_seconds)
        if time.perf_counter() - start >= VERIFY_SHARE * args.seconds:
            break

    problems += tracer.check_solve_spans()
    # speed probes fire on a timer, so they land in each span in proportion to
    # its duration: scaling every span of an operation by the probe-free share
    # of its time takes them out of the layer times
    metrics = tracer.layer_metrics(
        [o.speed * o.seconds / (o.seconds + o.probing_s) for o in outcomes]
    )
    metrics["trace.overhead_ms"] = 1e3 * statistics.median(overhead)
    for name in metrics:
        if exercised(args.workload, name) and not metrics[name] > 0.0:
            problems.append(f"layer metric {name} is not positive on {args.workload}")
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    written = tracer.write(span_file, SPAN_FILE_LIMIT)
    info = {
        "spans": len(tracer.start),
        "spans_written": written,
        "span_file": str(span_file.relative_to(ROOT)),
        "verified_ops": len(overhead),
        "op_ms.p50_traced": timing_summary([o.nominal_seconds for o in outcomes])["p50"],
    }
    print("info " + json.dumps(info))
    for message in problems:
        print(f"trace check failed: {message}", file=sys.stderr)
    report_failures(outcomes)
    correct = not problems and not any(o.wrong for o in outcomes)
    print_result(correct, outcomes, metrics, "per_layer")
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print each result."""
    results = {}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problems and a single set-up, for a quick smoke run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    meter = speed.Speedometer()
    run = None
    try:
        with meter.measuring():
            pv = load_padvio()
            run = Run(args, pv, meter)
            warm = run.one(0)
        wall_setup = time.perf_counter() - SETUP_START - meter.probing_s
        own_setup = {"setup_s": wall_setup * meter.speed, "wall_s": wall_setup, "speed": meter.speed}
        if args.setup_probe:
            print(json.dumps(own_setup))
            return 0
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}" + (" tiny" if args.tiny else ""))
        if warm.error:
            print(f"warm-up failed: {warm.error}", file=sys.stderr)
        print("environment " + json.dumps(environment(pv)))
        if args.trace:
            return traced(run, args, pv)
        return untraced(run, args, own_setup)
    except workloads.ScenarioError as err:
        print(f"invalid scenario, benchmark aborted: {err}", file=sys.stderr)
        return 3
    except SetupError as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    finally:
        if run is not None:
            run.close()


if __name__ == "__main__":
    sys.exit(main())
