"""The repository benchmark: served wrapping, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

One client process drives ``python -m repro.serve --shards 1`` (a
separate process, CLI defaults otherwise) over at most ``nproc``
keep-alive connections in a closed loop.  ``--trace 0`` is the timed run and prints
the end-to-end metrics; ``--trace 1`` is the traced run and prints the
per-layer ledger (see ``ledger.py``).  Every response is checked against
direct ``Wrapper`` evaluation after the timed phase, and the server's
access log must hold one line per request.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when any check fails.

Workloads, with why each was chosen, are described in ``streams.py``.
Scratch output (spans, full results with machine metadata, and the
access logs of runs that failed a check) goes to ``.perfbench_out/`` in
the checkout.  ``check_traced_counts.py`` holds the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3
#: Latency percentile reported beside the median: the highest round
#: percentile with at least ten samples beyond it on every workload in
#: 10 measured seconds (forum-recrawl yields 140-300 samples, which
#: would leave a p99 with one to three).
TAIL = 90


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload, seed: int, seconds: float):
    """``SETUPS`` set-ups (the last one is measured), then ``seconds`` of
    closed-loop load; returns the end-to-end metrics."""
    # Imported here, not at the top: they need the checkout's src/ on
    # sys.path, which main() checks for first.
    from harness import nproc
    from loadgen import closed_loop, percentile, set_up, tear_down
    from oracle import verify

    setup_times = []
    served = []
    for index in range(SETUPS):
        server, connections, warm, elapsed = set_up(
            workload, ROOT, OUT_DIR, f"{workload.name}-s{seed}-{index}"
        )
        setup_times.append(elapsed)
        if index < SETUPS - 1:
            tear_down(server, connections)
            served.append((server, warm))
    rss = {}

    def on_response(done: int) -> None:
        if done == workload.rss_after:
            rss["mb"] = server.peak_rss_mb()

    try:
        phase = closed_loop(
            connections,
            [workload.stream(c, "measure") for c in range(workload.clients)],
            workload.path,
            seconds=seconds,
            on_response=on_response,
        )
        rss_end = server.peak_rss_mb()
    finally:
        tear_down(server, connections)
    served.append((server, warm + phase.samples))
    problems = verify(workload, served, workers=nproc())
    if not problems:
        for done, _ in served:
            done.discard_logs()
    all_samples = [s for _, group in served for s in group]
    attempted = len(all_samples)
    failed = sum(1 for s in all_samples if not s.ok)
    latencies = phase.latencies_ms()
    if len(latencies) < 10:
        problems.append(f"only {len(latencies)} successful measured requests")
    tail = percentile(latencies, TAIL)
    beyond = sum(1 for v in latencies if v > tail)
    metrics = {
        "throughput_rps": metric(phase.throughput(), "req/s"),
        "latency_p50_ms": metric(percentile(latencies, 50), "ms"),
        f"latency_p{TAIL}_ms": metric(tail, "ms"),
        "success_rate": metric((attempted - failed) / attempted, "fraction"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        # Read after a fixed number of responses, not at the end: the
        # server's result cache holds every distinct reply (~0.65 MB for
        # a catalog-large page), so end-of-run memory grows with
        # throughput and a faster server would read as a memory leak.
        "peak_rss_mb": metric(rss.get("mb", rss_end), "MB"),
    }
    details = {
        "measured_requests": phase.attempted,
        "latency_samples": len(latencies),
        f"samples_beyond_p{TAIL}": beyond,
        "tail_supported": beyond >= 10,
        "latency_ms_by_percentile": {
            q: percentile(latencies, q) for q in (10, 25, 50, 75, 90, 95, 99)
        },
        "measured_wall_s": phase.wall_s,
        "setup_s_each": setup_times,
        "peak_rss_after_responses": workload.rss_after if "mb" in rss else None,
        "peak_rss_mb_at_end": rss_end,
        "error_rate": failed / attempted,
        "latency_p50_ms_by_kind": {
            kind: percentile(
                [s.latency_s * 1e3 for s in phase.samples if s.ok and s.request.kind == kind],
                50,
            )
            for kind in sorted({s.request.kind for s in phase.samples})
        },
    }
    return attempted, failed, metrics, details, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "serve" / "__main__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import BenchError, calibration_ms, machine_metadata, nproc
    from streams import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds like ^C, so every ``finally`` stops its server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, nproc())
    meta = machine_metadata(ROOT)
    meta["calibration_ms_before"] = calibration_ms()
    try:
        if args.trace:
            from ledger import traced_run

            outcome = traced_run(workload, args.seed, ROOT, OUT_DIR)
        else:
            outcome = timed_run(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, metrics, details, problems = outcome
    meta["calibration_ms_after"] = calibration_ms()
    correct = failed == 0 and not problems
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": meta,
        "sizes": workload.sizes(),
        "details": details,
        "problems": problems,
    }
    result_path = OUT_DIR / f"result-{workload.name}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(dict(record, metrics=metrics), indent=2))
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:14.4f} {entry['unit']}")
    if "latency_samples" in details:
        print(
            f"{'latency samples':28s} {details['latency_samples']:14d} "
            f"({details[f'samples_beyond_p{TAIL}']} beyond p{TAIL})"
        )
    print(json.dumps({"meta": record}, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
