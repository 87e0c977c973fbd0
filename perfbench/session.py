"""Child process of the benchmark: a lookup-d25 session, or a traced layer run.

    python3 perfbench/session.py lookup --seed N (--seconds S | --queries Q) [--trace]
    python3 perfbench/session.py layers --workload NAME

Needs ``src`` on PYTHONPATH.  ``lookup`` prints ``ready`` once its set-up,
the import plus the first ``enumerate_triples(25)``, is done.  Both modes
end with one JSON line of results.

Spans are recorded here, around calls into the package's public
functions, never inside it: ``<module>.<function>[.<variant>]`` maps to
every duration measured under that name and to ``ru_maxrss`` right after
its last sample.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

sys.dont_write_bytecode = True

import check  # noqa: E402

REPLAY_SHARE = 0.25  # share of lookup queries that replay a move word
WORD_LEN = 8  # moves per replayed word
WORD_TRIES = 64  # labels drawn at most while building one word


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Trace:
    """Span samples and peak RSS, kept in memory until the session ends."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.rss: dict[str, float] = {}

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.spans.setdefault(name, []).append(time.perf_counter() - t0)
        self.rss[name] = maxrss_mb()
        return out


def untraced(_name, fn, *args):
    return fn(*args)


def exit_code(cls) -> int:
    """The exit code the CLI gives for this classification."""
    from gbsclass.classify import STATUS_PARTIAL

    return 1 if cls.status == STATUS_PARTIAL else 0


def layers(trace: Trace, workload: str):
    """What the CLI does for ``workload``, span by span, plus repeat calls.

    The warm calls reuse the module state cache (universe, move images,
    components), so cold minus warm is the build cost only while that
    cache exists.
    """
    from gbsclass.classify import (
        SEP_THEOREM1,
        SEP_UNSEPARATED,
        enumerate_pairs,
        enumerate_triples,
    )
    from gbsclass.config import load_config
    from gbsclass.pauli import invariant_vector

    mode, d, witnesses = check.WORKLOADS[workload]
    enumerate_ = enumerate_triples if mode == "triples" else enumerate_pairs
    span = f"classify.enumerate_{mode}"
    cfg = trace.call("config.load_config", load_config)
    probes = (cfg.enum_cap, cfg.i3_probes, cfg.power_probes)
    cls = trace.call(f"{span}.cold", enumerate_, d, witnesses, *probes)
    text = trace.call("classify.report", cls.to_json)
    trace.call(f"{span}.warm", enumerate_, d, witnesses, *probes)
    if witnesses:
        trace.call(f"{span}.warm_nowitness", enumerate_, d, False, *probes)

    def label_reps() -> None:
        for c in cls.classes:
            trace.call("pauli.invariant_vector", invariant_vector, c.representative,
                       cfg.i3_probes, cfg.power_probes)

    trace.call("pauli.label_reps", label_reps)
    separations = [c.separation for c in cls.classes]
    counts = {
        "classify.states": sum(c.orbit_size for c in cls.classes),
        "classify.classes": cls.count,
        "classify.theorem1_classes": separations.count(SEP_THEOREM1),
        "classify.unseparated_classes": separations.count(SEP_UNSEPARATED),
        "classify.witness_steps": sum(len(c.witness or ()) for c in cls.classes),
    }
    problems = check.classification_problems(
        json.loads(text), exit_code(cls), check.load_ref(workload), cls.notes)
    return cls, problems, counts


def random_triple(rng: random.Random, d: int) -> list[tuple[int, int]]:
    while True:
        v1 = (rng.randrange(d), rng.randrange(d))
        v2 = (rng.randrange(d), rng.randrange(d))
        if len({(0, 0), v1, v2}) == 3:
            return [(0, 0), v1, v2]


def lookup(args) -> dict:
    from gbsclass.classify import enumerate_triples, locate_class
    from gbsclass.moves import apply_trace, parse_move
    from gbsclass.pauli import GpmSet, invariant_vector

    _, d, _ = check.WORKLOADS[check.LOOKUP]
    trace = Trace() if args.trace else None
    counts: dict[str, int] = {}
    if trace is None:
        cls = enumerate_triples(d, True)
        print("ready", flush=True)
        problems = check.classification_problems(
            json.loads(cls.to_json()), exit_code(cls), check.load_ref(check.LOOKUP),
            cls.notes)
    else:
        cls, problems, counts = layers(trace, check.LOOKUP)
        print("ready", flush=True)
    call = untraced if trace is None else trace.call

    labels = sorted({label for c in cls.classes for label in c.witness or ()})
    moves = {label: parse_move(label, d) for label in labels}
    rng = random.Random(args.seed)
    applied = attempted_moves = 0

    def next_query():
        """Untimed input generation: (kind, input, expected class or None)."""
        nonlocal applied, attempted_moves
        members = random_triple(rng, d)
        if rng.random() >= REPLAY_SHARE:
            text = ";".join(f"{s},{t}" for s, t in rng.sample(members, 3))
            return "locate", text, None
        start = GpmSet(d, tuple(sorted(members)))
        word, cur = [], start
        for _ in range(WORD_TRIES if labels else 0):
            label = rng.choice(labels)
            attempted_moves += 1
            if moves[label].applies(cur):
                cur = moves[label].apply(cur)
                word.append(label)
                applied += 1
                if len(word) == WORD_LEN:
                    break
        return "replay", (start, word), locate_class(d, start)

    def run_query(kind, data):
        if kind == "locate":
            S = GpmSet.from_text(data, d)
            ci = call("classify.locate_class", locate_class, d, S)
            return ci, call("pauli.invariant_vector", invariant_vector, S)
        end = call("moves.apply_trace", apply_trace, *data)
        return call("classify.locate_class", locate_class, d, end), None

    latencies: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    end_at = time.perf_counter() + (args.seconds or 0.0)
    while (attempted < args.queries if args.queries
           else time.perf_counter() < end_at):
        attempted += 1
        try:
            kind, data, expected = next_query()
            t0 = time.perf_counter()
            ci, iv = run_query(kind, data)
            latencies.append(time.perf_counter() - t0)
            ok = iv == cls.classes[ci].invariants if kind == "locate" else ci == expected
            reason = f"{kind} {data!r}: class {ci} fails the check"
        except Exception as exc:  # a failed query is counted, not fatal
            ok, reason = False, f"query {attempted}: {exc!r}"
        if not ok:
            failed += 1
            errors.append(reason)

    counts.update({"moves.replay_applied": applied,
                   "moves.replay_attempted": attempted_moves})
    return {
        "problems": problems,
        "attempted": attempted + 1,
        "failed": failed + bool(problems),
        "errors": errors[:5],
        "latencies": latencies,
        "counts": counts,
        "spans": trace.spans if trace else {},
        "rss": trace.rss if trace else {},
    }


def layer_run(args) -> dict:
    trace = Trace()
    _, problems, counts = layers(trace, args.workload)
    return {"problems": problems, "attempted": 1, "failed": int(bool(problems)),
            "errors": [], "latencies": [], "counts": counts,
            "spans": trace.spans, "rss": trace.rss}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    lk = sub.add_parser("lookup")
    lk.add_argument("--seed", required=True)
    lk.add_argument("--seconds", type=float)
    lk.add_argument("--queries", type=int)
    lk.add_argument("--trace", action="store_true")
    ly = sub.add_parser("layers")
    ly.add_argument("--workload", required=True, choices=sorted(check.WORKLOADS))
    args = parser.parse_args()
    result = lookup(args) if args.mode == "lookup" else layer_run(args)
    result["maxrss_mb"] = maxrss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
