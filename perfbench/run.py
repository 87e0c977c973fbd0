"""Benchmark of gbsclass: four workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload triples-d32 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs the package from ``src/`` of the checkout that holds this directory,
each workload in child processes started with this interpreter, so peak
RSS belongs to the work.  Every operation's output is checked against
``refs/``.  Prints the environment, a table of every metric with its unit,
and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
``end_to_end`` metrics of ``BENCHMARK.json`` and ``--trace 1`` its
``per_layer`` metrics.  See ``DESIGN.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

sys.dont_write_bytecode = True

import check  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SESSION = os.path.join(HERE, "session.py")

RUN_LIMIT_S = 170.0  # every child is killed past this, so a run ends within 180 s
MIN_SETUPS = 5  # fresh interpreters importing gbsclass.cli, at least, per CLI run
LOOKUP_SESSIONS = 3  # lookup-d25 sessions per run, each with its own set-up
TRACE_QUERIES = 1200  # queries per traced lookup session: p99 has 12 beyond it
CLI_CODE = "import sys; from gbsclass.cli import main; sys.exit(main())"
IMPORT_CODE = ("import json, resource, time; t = time.perf_counter(); import gbsclass.cli; "
               "print(json.dumps([time.perf_counter() - t, "
               "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))")


# Spans whose total time is a metric, and spans whose peak RSS is one.
TIMED_SPANS = ("config.load_config", "classify.enumerate_triples.cold",
               "classify.enumerate_triples.warm", "classify.enumerate_pairs.cold",
               "classify.enumerate_pairs.warm", "classify.report", "pauli.label_reps")
RSS_SPANS = TIMED_SPANS + ("classify.enumerate_triples.warm_nowitness",
                           "pauli.invariant_vector", "classify.locate_class",
                           "moves.apply_trace")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GBSCLASS_CONFIG"}
    env.update(PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return env


def cli_command(workload: str) -> list[str]:
    return [sys.executable, "-c", CLI_CODE, *check.cli_args(workload)]


def session_command(*args: str) -> list[str]:
    return [sys.executable, SESSION, *args]


@dataclass
class Child:
    """One finished child process."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float  # spawn to exit
    first_line_s: float  # spawn to the first line of standard output
    maxrss_mb: float

    def last_json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        if self.returncode != 0 or not lines:
            raise BenchError(f"child exited {self.returncode}: {self.stderr[-2000:]}")
        return json.loads(lines[-1])


def spawn(cmd: list[str], deadline: float) -> Child:
    """Run ``cmd`` to completion, killing it at ``deadline`` (time.monotonic)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), encoding="utf-8",
                            errors="replace", stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
    killer.start()
    err: list[str] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        first = proc.stdout.readline()
        first_line_s = time.perf_counter() - t0
        out = first + proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out, err[0], wall_s, first_line_s,
                 usage.ru_maxrss / 1024)


def percentile(samples: list[float], q: int) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100)[q - 1]
    return value if sum(x > value for x in samples) >= 10 else None


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int, reasons: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons[: max(0, 5 - len(self.reasons))])


def run_cli(workload: str, seconds: float, deadline: float, tally: Tally) -> dict:
    ref = check.load_ref(workload)
    setups: list[Child] = []
    runs: list[Child] = []

    def set_up() -> None:
        c = spawn([sys.executable, "-c", "import gbsclass.cli"], deadline)
        if c.returncode != 0:
            raise BenchError(f"importing gbsclass.cli failed: {c.stderr[-2000:]}")
        setups.append(c)

    # One set-up before each invocation spreads the set-up samples over the
    # run, so a slow spell of the machine does not land on all of them.
    while True:
        set_up()
        c = spawn(cli_command(workload), deadline)
        problems = check.output_problems(c.stdout, c.returncode, ref)
        tally.add(1, bool(problems), problems[:1])
        runs.append(c)
        # Start another invocation while it would end no more than half an
        # invocation past the measuring time.
        est = statistics.median(r.wall_s for r in runs)
        measured = sum(r.wall_s for r in runs)
        if measured + est / 2 >= seconds or time.monotonic() + 2 * est > deadline:
            break
    while len(setups) < MIN_SETUPS:
        set_up()
    walls = [r.wall_s for r in runs]
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in runs),
        "setup_s": statistics.median(c.wall_s for c in setups),
        "_samples": {"wall_s": len(walls), "setup_s": len(setups)},
    }


def lookup_session(tally: Tally, deadline: float, *args: str) -> tuple[Child, dict]:
    c = spawn(session_command("lookup", *args), deadline)
    out = c.last_json()
    tally.add(out["attempted"], out["failed"], out["problems"] + out["errors"])
    return c, out


def run_lookup(seed: int, seconds: float, deadline: float, tally: Tally) -> dict:
    sessions = [
        lookup_session(tally, deadline, "--seed", f"{seed}.{k}",
                       "--seconds", str(seconds / LOOKUP_SESSIONS))
        for k in range(LOOKUP_SESSIONS)
    ]
    lat = [x for _, out in sessions for x in out["latencies"]]
    p99 = percentile(lat, 99)
    return {
        "wall_s": statistics.median(lat),
        "peak_rss_mb": statistics.median(c.maxrss_mb for c, _ in sessions),
        "setup_s": statistics.median(c.first_line_s for c, _ in sessions),
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p99_ms": None if p99 is None else p99 * 1e3,
        "queries_per_s": len(lat) / sum(lat),
        "_samples": {"wall_s": len(lat), "setup_s": len(sessions)},
    }


def layer_metrics(out: dict, import_s: float, import_rss: float, overhead_s: float,
                  workload: str) -> dict:
    """Per-layer metrics from a traced session; 0 for a layer off the path."""
    spans, rss = out["spans"], out["rss"]
    mode = check.WORKLOADS[workload][0]

    def total(name: str) -> float:
        return sum(spans.get(name, ()))

    def p50_ms(name: str) -> float:
        return statistics.median(spans[name]) * 1e3 if name in spans else 0.0

    locate_p99 = percentile(spans.get("classify.locate_class", []), 99)

    enum = f"classify.enumerate_{mode}"
    m = {"cli.import_s": import_s, "cli.import.rss_mb": import_rss,
         "classify.build_s": total(f"{enum}.cold") - total(f"{enum}.warm"),
         "classify.witness_s": (total(f"{enum}.warm") - total(f"{enum}.warm_nowitness")
                                if f"{enum}.warm_nowitness" in spans else 0.0),
         "classify.locate_class.p50_ms": p50_ms("classify.locate_class"),
         "classify.locate_class.p99_ms": 0.0 if locate_p99 is None else locate_p99 * 1e3,
         "pauli.invariant_vector.p50_ms": p50_ms("pauli.invariant_vector"),
         "moves.apply_trace.p50_ms": p50_ms("moves.apply_trace"),
         "trace.overhead_s": overhead_s}
    for name in TIMED_SPANS:
        m[f"{name}_s"] = total(name)
    for name in RSS_SPANS:
        m[f"{name}.rss_mb"] = rss.get(name, 0.0)
    m.update({"moves.replay_applied": 0, "moves.replay_attempted": 0})
    m.update(out["counts"])
    return m


def run_trace(workload: str, seed: int, deadline: float, tally: Tally) -> dict:
    imp = spawn([sys.executable, "-c", IMPORT_CODE], deadline)
    import_s, import_rss = imp.last_json()
    if workload == check.LOOKUP:
        args = ("--seed", f"{seed}.0", "--queries", str(TRACE_QUERIES))
        plain, _ = lookup_session(tally, deadline, *args)
        traced, out = lookup_session(tally, deadline, *args, "--trace")
    else:
        plain = spawn(cli_command(workload), deadline)
        problems = check.output_problems(plain.stdout, plain.returncode,
                                         check.load_ref(workload))
        tally.add(1, bool(problems), problems[:1])
        traced = spawn(session_command("layers", "--workload", workload), deadline)
        out = traced.last_json()
        tally.add(out["attempted"], out["failed"], out["problems"])
    return layer_metrics(out, import_s, import_rss, traced.wall_s - plain.wall_s,
                         workload)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "commit": git_commit(),
        "seed": seed,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload, print its table, and return its result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    tally = Tally()
    if trace:
        values = run_trace(workload, seed, deadline, tally)
        wanted = spec["per_layer"]
    elif workload == check.LOOKUP:
        values = run_lookup(seed, seconds, deadline, tally)
        wanted = spec["end_to_end"]
    else:
        values = run_cli(workload, seconds, deadline, tally)
        wanted = spec["end_to_end"]
    samples = values.pop("_samples", {})
    values["error_rate"] = tally.failed / tally.attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(error_rate="ratio", query_p50_ms="ms", query_p99_ms="ms",
                 queries_per_s="1/s")
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"operations {tally.attempted}  failed {tally.failed}")
    order = [m["name"] for m in wanted]
    for name in order + [k for k in values if k not in order]:
        value = values.get(name)
        shown = ("n/a (too few samples)" if value is None
                 else value if isinstance(value, int) else f"{value:.6g}")
        note = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:40s} {shown} {units.get(name, '')}{note}")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gbsclass", "cli.py")):
        print(f"perfbench: no gbsclass source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    print("env " + json.dumps(environment(args.seed)))
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    try:
        results = {w: run_workload(spec, w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
