"""Benchmark of comptonqcd: three seeded, closed-loop, single-client workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-exact --seed 1 --seconds 25 --trace 0

Workloads (see ``bench/workloads.py`` for the mixes and why they were chosen):

* ``cli-exact``  one ``python -m comptonqcd`` process per exact-arithmetic request;
* ``cli-solve``  one process per ``spectrum`` / ``confinement`` request;
* ``lib-field``  in-process ``near_field_potential`` curves on balls and tables.

``--trace 0`` measures end to end, with no tracing: after set-up (input
generation, temporary files, one untimed warm-up request; for ``lib-field``
also the package import and table loading, repeated SETUP_REPEATS times and
reported as a median) requests run back to back for ``--seconds``, or
longer until at least 100 requests and a whole number of request cycles are
done (a run still short of 100 after two minutes is marked ``short_run`` in
the report).  Every output is then checked
(``bench/checks.py``); a failed check, an unexpected exit code, a traceback
or a timeout fails the request.

``--trace 1`` gives per-layer numbers: repeated ``-X importtime`` probes,
then in-process replays of the same fixed number of request cycles
(TRACE_CYCLES, so every count repeats exactly for a seed) through ``cli.main(argv)`` or the
library calls: untraced, traced, untraced again.  The tracing overhead is the
traced replay against the mean of the two untraced ones.  Spans are kept in memory and
written to ``bench/_traces/`` at the end.

The program runs under the caller's environment; only PYTHONPATH gains the
checkout's ``src`` and COMPTONQCD_E2 is set only where a request sets it.
No hardware counters, cache dropping, or cgroup or kernel settings are used.

Output: a JSON report line (every metric with unit and sample count, the
error rate, failing requests, machine facts), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Run the benchmark's own
tests with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from bench import checks, measure, tracing, workloads  # noqa: E402

SETUP_REPEATS = 5
TRACE_CYCLES = {"cli-exact": 7, "cli-solve": 4, "lib-field": 8}
IMPORT_PROBES = 7
PREFETCH_CYCLES = 10
FAILURES_SHOWN = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts(env: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "program_env": {
            "PYTHONPATH": env["PYTHONPATH"],
            "COMPTONQCD_E2": "unset unless the request sets it",
            **{k: env.get(k, "unset") for k in THREAD_VARS},
        },
        "not_used": "no hardware counters, no cache dropping, no cgroup or kernel settings",
    }


# ---------------------------------------------------------------------------
# set-up


def import_package(root: str):
    """Import the checkout's comptonqcd; returns (stressfield, Quantity, cli)."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    sf = importlib.import_module("comptonqcd.stressfield")
    natunits = importlib.import_module("comptonqcd.natunits")
    cli = importlib.import_module("comptonqcd.cli")
    if not os.path.abspath(sf.__file__).startswith(src + os.sep):
        raise SystemExit(f"comptonqcd was imported from {sf.__file__}, not from {src}")
    return sf, natunits.Quantity, cli


def load_sources(sf, quantity, specs: dict, directory: str) -> dict:
    sources = {}
    for key, spec in specs.items():
        m = quantity(spec["m"], 1)
        if spec["type"] == "ball":
            sources[key] = sf.default_source(m)
        else:
            path = os.path.join(directory, f"{key}.csv")
            workloads.write_table_csv(path, spec)
            sources[key] = sf.load_source_csv(path, m)
    return sources


def lib_setup(root: str, workdir: str, seed: int):
    start = time.perf_counter()
    sf, quantity, _ = import_package(root)
    specs = workloads.lib_source_specs(seed)
    runner = measure.LibRunner(sf, quantity, load_sources(sf, quantity, specs, workdir))
    stream = workloads.RequestStream("lib-field", seed, workdir, specs)
    stream.prefetch(PREFETCH_CYCLES * workloads.CYCLE["lib-field"])
    warm = runner.run(workloads.warmup_request("lib-field"))
    return time.perf_counter() - start, runner, stream, warm


def cli_setup(root: str, workdir: str, workload: str, seed: int):
    start = time.perf_counter()
    runner = measure.CliRunner(root, workdir)
    stream = workloads.RequestStream(workload, seed, workdir)
    stream.prefetch(PREFETCH_CYCLES * workloads.CYCLE[workload])
    warm = runner.run(workloads.warmup_request(workload))
    return time.perf_counter() - start, runner, stream, warm


def lib_setup_in_child(root: str, seed: int) -> float:
    """One more cold lib-field set-up, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", "lib-field", "--seed", str(seed)],
        cwd=root, check=True, capture_output=True, text=True, timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# checking


class Checker:
    def __init__(self, root: str, specs: dict | None = None):
        self.schemas = checks.Schemas(os.path.join(root, "src", "comptonqcd", "schemas"))
        self.specs = specs or {}
        self.moments = {
            key: checks.Moments(s["radii"], s["eps"], s["m"])
            for key, s in self.specs.items() if s["type"] == "table"
        }

    def check(self, outcome) -> None:
        outcome.load()
        if outcome.failure:
            return
        req = outcome.request
        if req.kind != "field":
            outcome.failure = checks.check_cli(req, outcome.exit_code, outcome.stdout, outcome.stderr,
                                               outcome.timed_out, self.schemas)
            return
        res = outcome.result
        if res["other_warnings"]:
            outcome.failure = "unexpected warning: " + res["other_warnings"][0]
            return
        key = req.params["source"]
        try:
            checks.check_field(req, self.specs[key], self.moments.get(key),
                               res["near"], res["far"], res["clamps"])
        except checks.CheckError as exc:
            outcome.failure = str(exc)


def describe(outcome) -> dict:
    req = outcome.request
    what = " ".join(req.argv) if req.argv else json.dumps(req.params, sort_keys=True)
    return {"index": req.index, "request": what, "env": req.env, "failure": outcome.failure}


# ---------------------------------------------------------------------------
# end-to-end run


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(workload: str, seed: int, seconds: float, root: str, base: str) -> tuple[dict, dict]:
    env = measure.program_env(root)
    facts = machine_facts(env)
    setups = []
    if workload == "lib-field":
        workdir = tempfile.mkdtemp(dir=base)
        setup, runner, stream, warm = lib_setup(root, workdir, seed)
        setups.append(setup)
        setups += [lib_setup_in_child(root, seed) for _ in range(SETUP_REPEATS - 1)]
        specs = stream.lib_sources
    else:
        for _ in range(SETUP_REPEATS):
            workdir = tempfile.mkdtemp(dir=base)
            setup, runner, stream, warm = cli_setup(root, workdir, workload, seed)
            setups.append(setup)
        specs = None

    outcomes, elapsed = measure.timed_loop(runner.run, stream, seconds, workloads.CYCLE[workload])
    bench_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checker = Checker(root, specs)
    for outcome in [warm] + outcomes:
        checker.check(outcome)
    n = len(outcomes)
    latency = [o.latency_s * 1e3 for o in outcomes]
    if workload == "lib-field":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(o.maxrss_kb for o in outcomes)
    metrics = {
        "latency_p50_ms": (statistics.median(latency), "ms", n),
        "latency_p90_ms": (p90(latency), "ms", n),
        "throughput_rps": (n / elapsed, "1/s", n),
        "cpu_ms_per_request": (1e3 * sum(o.cpu_s for o in outcomes) / n, "ms", n),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", n if workload != "lib-field" else 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    failed = [o for o in outcomes if o.failure]
    report = {
        "workload": workload, "seed": seed, "trace": 0,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "error_rate": {"value": len(failed) / n, "unit": "ratio", "samples": n},
        "timed_phase_s": elapsed,
        "short_run": n < measure.MIN_REQUESTS,
        # the benchmark's own peak, to show the children's peak is theirs
        "benchmark_rss_mb": bench_rss_kb / 1024.0,
        "setup_samples_s": setups,
        "requests_by_kind": dict(collections.Counter(o.request.kind for o in outcomes)),
        "warmup_failure": warm.failure,
        "failures": [describe(o) for o in failed[:FAILURES_SHOWN]],
        "machine": facts,
    }
    result = {
        "correct": not failed and warm.failure is None,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return report, result


# ---------------------------------------------------------------------------
# traced run


class InProcessCli:
    """Replays CLI requests through ``cli.main(argv)`` in this process."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, req):
        saved = os.environ.pop("COMPTONQCD_E2", None)
        os.environ.update(req.env)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a program failure is a failed request, recorded with its traceback
            err.write(traceback.format_exc())
            code = 1
        finally:
            os.environ.pop("COMPTONQCD_E2", None)
            if saved is not None:
                os.environ["COMPTONQCD_E2"] = saved
        latency = time.perf_counter() - start
        return measure.Outcome(req, latency, 0.0, 0, code, out.getvalue(), err.getvalue())


def traced_run(workload: str, seed: int, root: str, base: str) -> tuple[dict, dict]:
    env = measure.program_env(root)
    facts = machine_facts(env)
    probes = tracing.import_probe(root, env, IMPORT_PROBES)
    workdir = tempfile.mkdtemp(dir=base)
    sf, quantity, cli = import_package(root)
    specs = workloads.lib_source_specs(seed) if workload == "lib-field" else None
    stream = workloads.RequestStream(workload, seed, workdir, specs)
    requests = [stream[i] for i in range(TRACE_CYCLES[workload] * workloads.CYCLE[workload])]
    if specs is not None:
        runner = measure.LibRunner(sf, quantity, load_sources(sf, quantity, specs, workdir))
    else:
        runner = InProcessCli(cli)

    def replay() -> float:
        start = time.perf_counter()
        for req in requests:
            runner.run(req)
        return time.perf_counter() - start

    for req in [workloads.warmup_request(workload)] + requests[: workloads.CYCLE[workload]]:
        runner.run(req)
    untraced = [replay()]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        if specs is not None:  # traced set-up: table loading shows as load_source_csv spans
            runner.sources = load_sources(sf, quantity, specs, workdir)
        outcomes = []
        start = time.perf_counter()
        for i, req in enumerate(requests):
            tracer.request_id = i
            outcomes.append(runner.run(req))
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    untraced.append(replay())  # untraced replays on both sides of the traced one
    untraced = statistics.fmean(untraced)

    checker = Checker(root, specs)
    for outcome in outcomes:
        checker.check(outcome)
    output_bytes = sum(len(o.stdout.encode("utf-8")) for o in outcomes)
    for req in requests:
        if req.output_path:
            output_bytes += os.path.getsize(req.output_path) + os.path.getsize(req.output_path + ".json")
    clamps = sum(len(o.result.get("clamps", ())) for o in outcomes)
    formats = {i: req.output_format for i, req in enumerate(requests)}
    per_layer = dict(probes)
    per_layer.update(tracing.layer_metrics(tracer, formats, output_bytes, clamps))
    per_layer["trace.overhead_frac"] = (traced - untraced) / untraced

    trace_dir = os.path.join(HERE, "_traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl.gz")
    tracer.write(trace_path, {"workload": workload, "seed": seed, "machine": facts})

    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    failed = [o for o in outcomes if o.failure]
    report = {
        "workload": workload, "seed": seed, "trace": 1,
        "metrics": {k: {"value": v, "unit": units[k], "samples": len(requests)} for k, v in per_layer.items()},
        "error_rate": {"value": len(failed) / len(outcomes), "unit": "ratio", "samples": len(outcomes)},
        "replay_s": {"untraced": untraced, "traced": traced},
        "trace_file": os.path.relpath(trace_path, root),
        "failures": [describe(o) for o in failed[:FAILURES_SHOWN]],
        "machine": facts,
    }
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()},
    }
    return report, result


def benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "comptonqcd", "__init__.py")):
        print(f"error: {root} holds no src/comptonqcd; run from the root of a comptonqcd checkout",
              file=sys.stderr)
        return 2
    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    if args.setup_probe:
        workdir = tempfile.mkdtemp(dir=base)
        try:
            setup = lib_setup(root, workdir, args.seed)[0]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup}))
        return 0

    rundir = tempfile.mkdtemp(dir=base)
    try:
        if args.trace:
            report, result = traced_run(args.workload, args.seed, root, rundir)
        else:
            report, result = timed_run(args.workload, args.seed, args.seconds, root, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for failure in report["failures"]:
        print(f"FAILED request {failure['index']}: {failure['request']}: {failure['failure']}", file=sys.stderr)
    if report.get("short_run"):
        print(f"SHORT RUN: fewer than {measure.MIN_REQUESTS} requests, so latency_p90_ms has fewer than "
              "ten samples beyond it", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
