"""Benchmark of the maxdeficit library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Each workload is a fixed list of requests (see workloads.py),
replayed in whole rounds as a closed loop with one client until S
seconds have passed.  Every answer is checked.  The last line of
standard output is one JSON object with correct, attempted, failed and
the metrics: the end-to-end metrics with --trace 0, the per-layer
metrics from a traced run with --trace 1.  Traces and scratch files go
to ./bench_out.
"""

import os

# one BLAS/OpenMP thread: must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")

SETUP_CODE = """\
import contextlib, io, time
start = time.perf_counter()
import maxdeficit, maxdeficit.cli
with contextlib.redirect_stdout(io.StringIO()):
    maxdeficit.cli.main(["--help"])
print(time.perf_counter() - start)
"""
SETUP_REPEATS = 7


def import_package():
    if not os.path.isfile(os.path.join(SRC, "maxdeficit", "__init__.py")):
        sys.exit(f"bench: no maxdeficit sources under {SRC}; run from the checkout root")
    sys.path.insert(0, SRC)
    import maxdeficit

    if not os.path.abspath(maxdeficit.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported maxdeficit from {maxdeficit.__file__}, not {SRC}")


def setup_seconds():
    """Median time for a fresh interpreter to import maxdeficit and
    maxdeficit.cli and build the argument parser; one untimed start
    first, so bytecode compilation is not counted."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas.get('name')} {blas.get('version')} "
        f"blas_threads={blas_threads()}"
    )


class Runner:
    """Replays a request list in whole rounds and checks every answer.

    An answer identical to one already verified for the same request is
    not checked again; outputs are deterministic, so later rounds of a
    passing run repeat the first round's answers."""

    def __init__(self, requests):
        self.requests = requests
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.verified = {}

    def round(self, tracer=None):
        total = 0.0
        for i, req in enumerate(self.requests):
            self.attempted += 1
            if tracer is not None:
                frame = tracer.enter("request")
                tracer.request = f"{self.attempted}:{req.label}"
            start = time.perf_counter()
            try:
                out = req.run()
            except Exception:
                self.failed += 1
                self.problems.append(f"{req.label}: {traceback.format_exc()}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.leave(frame)
                    tracer.request = None
                total += elapsed
            self.latencies.append(elapsed)
            key = pickle.dumps(out)
            if self.verified.get(i) == key:
                continue
            try:
                req.check(out)
            except Exception:  # a malformed answer fails its parse, also wrong
                self.wrong += 1
                self.problems.append(f"{req.label}: wrong answer: {traceback.format_exc()}")
            else:
                self.verified[i] = key
        return total

    def until(self, seconds):
        """Whole rounds until `seconds` have passed; returns the request
        time of each round."""
        start = time.perf_counter()
        times = [self.round()]
        while time.perf_counter() - start < seconds:
            times.append(self.round())
        return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, round_times, setup):
    lat_ms = [x * 1e3 for x in runner.latencies]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "requests_per_s": metric(len(lat_ms) / sum(round_times), "1/s"),
        "request_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "request_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "setup_s": metric(setup, "s"),
    }


def per_layer(tracer, rounds, traced_s, untraced_s):
    """Per-round layer figures from the recorded spans."""
    layers, counts = tracer.layers, tracer.counts
    out = {}

    def calls(layer):
        return layers.get(layer, [0, 0.0])[0] / rounds

    def self_ms(layer):
        return layers.get(layer, [0, 0.0])[1] * 1e3 / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    def put(name, value, unit):
        out[name] = metric(value, unit)

    for layer in ("numerics.tail_integral", "numerics.brent_root", "numerics.lambert_w0",
                  "distortion.g", "distortion.choquet", "model.ultimate_ruin",
                  "deficit.closed", "deficit.quadrature", "deficit.empirical", "deficit.build",
                  "allocate.method1", "allocate.method2_two_line",
                  "allocate.method2_generic", "allocate.psi_tilde"):
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.self_ms", self_ms(layer), "ms")
    for layer in ("numerics.tail_integral", "numerics.brent_root"):
        put(f"{layer}.evals", counts.get(f"{layer}.evals", 0) / rounds, "count")
    put("numerics.tail_integral.evals_per_call",
        ratio(out["numerics.tail_integral.evals"]["value"], calls("numerics.tail_integral")),
        "evals/call")
    put("measures.calls", calls("measures"), "count")
    put("measures.self_ms", self_ms("measures"), "ms")

    span_layer = {span[1]: span[3] for span in tracer.spans}
    objective = sum(
        1 for span in tracer.spans
        if span[3] == "numerics.tail_integral"
        and span_layer.get(span[2]) == "allocate.method2_generic"
    ) / rounds
    put("allocate.method2_generic.objective_evals", objective, "count")
    put("allocate.method2_generic.objective_evals_per_solve",
        ratio(objective, calls("allocate.method2_generic")), "evals/solve")

    paths = calls("simulate.path_events")
    events = counts.get("simulate.events", 0) / rounds
    sampler_ms = sum(self_ms(x) for x in ("simulate.path_events", "simulate.path_max",
                                          "simulate.batch"))
    put("simulate.paths", paths, "count")
    put("simulate.events", events, "count")
    put("simulate.events_per_path", ratio(events, paths), "events/path")
    put("simulate.us_per_path", ratio(sampler_ms * 1e3, paths), "us/path")
    for layer in ("path_events", "path_max", "batch", "nested", "io"):
        put(f"simulate.{layer}.self_ms", self_ms(f"simulate.{layer}"), "ms")

    put("cli.requests", calls("cli"), "count")
    put("cli.self_ms", self_ms("cli"), "ms")

    request_ms = traced_s * 1e3
    unattributed = self_ms("request")
    put("trace.request_ms", request_ms, "ms")
    put("trace.untraced_request_ms", untraced_s * 1e3, "ms")
    put("trace.overhead_ms", request_ms - untraced_s * 1e3, "ms")
    put("trace.unattributed_ms", unattributed, "ms")
    put("trace.layer_share_pct", 100.0 * (1.0 - ratio(unattributed, request_ms)), "%")
    put("trace.spans", len(tracer.spans) / rounds, "count")
    return out


def main():
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    os.makedirs(OUT, exist_ok=True)
    print(machine_facts())
    requests = workloads.build(args.workload, args.seed, OUT)
    runner = Runner(requests)
    if args.trace:
        import spans

        # untraced and traced rounds alternate, so the tracing overhead
        # is measured under the same drift in host speed
        tracer = spans.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(runner.round())
            uninstall = spans.install(tracer)
            traced.append(runner.round(tracer))
            uninstall()
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"trace: {len(tracer.spans)} spans written to {path}")
        metrics = per_layer(tracer, len(traced), statistics.mean(traced),
                            statistics.mean(untraced))
    else:
        setup = setup_seconds()
        metrics = end_to_end(runner, runner.until(args.seconds), setup)
    for problem in runner.problems[:10]:
        print(problem, file=sys.stderr)
    print(f"requests: {runner.attempted} attempted, {runner.failed} failed, "
          f"{len(runner.problems)} problems")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    import_package()
    main()
