"""Correctness of every response, checked after the timed phase.

The oracle is the library called directly: a :class:`~repro.wrap.Wrapper`
built from the same Elog- source and patterns the benchmark registered,
and ``Wrapper.wrap_html_many([page])[0].to_dict()`` for each page sent.
A served ``result`` must equal it exactly; for a warm ``doc_id``
response that means the delta fixpoint agrees with a cold evaluation of
the same version.  The access log must hold one line per request sent.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.elog.parser import parse_elog
from repro.wrap import Wrapper

#: Per-process oracle state: ``(wrapper, wrapper name)``, built once per
#: pool worker by :func:`_init`.
_ORACLE: Optional[tuple] = None


def build_wrapper(source: str, patterns: Sequence[str]) -> Wrapper:
    """The direct-evaluation wrapper: one Elog- program, one pattern per
    extraction function, in registration order."""
    program = parse_elog(source)
    wrapper = Wrapper()
    for pattern in patterns:
        wrapper.add_elog(pattern, program, pattern=pattern)
    return wrapper.compile()


def page_key(html: str) -> str:
    return hashlib.sha256(html.encode("utf-8")).hexdigest()


def _init(source: str, patterns: Sequence[str], wrapper_name: str) -> None:
    global _ORACLE
    _ORACLE = (build_wrapper(source, patterns), wrapper_name)


def _check_page(job) -> List[Optional[str]]:
    """Evaluate one page directly and judge every reply served for it:
    ``None`` for a correct reply, else what is wrong with it."""
    page, bodies = job
    wrapper, wrapper_name = _ORACLE
    expected = wrapper.wrap_html_many([page])[0].to_dict()
    verdicts: List[Optional[str]] = []
    for body in bodies:
        try:
            reply = json.loads(body)
        except ValueError:
            verdicts.append("response is not JSON")
            continue
        if reply.get("wrapper") != wrapper_name:
            verdicts.append(f"answered by wrapper {reply.get('wrapper')!r}")
        elif reply.get("result") != expected:
            verdicts.append("result differs from direct Wrapper evaluation")
        else:
            verdicts.append(None)
    return verdicts


def check_samples(samples, workload, workers: int) -> int:
    """Mark every wrong 200 reply failed; returns how many were wrong.

    Each distinct page is evaluated once, in a pool of ``workers``
    processes that also decode and compare the replies, so the client
    never holds more than one expected tree per worker."""
    groups: Dict[str, list] = {}
    for sample in samples:
        if sample.ok:
            groups.setdefault(page_key(sample.request.html), []).append(sample)
    jobs = [
        (group[0].request.html, [s.body for s in group]) for group in groups.values()
    ]
    init = (workload.source, workload.patterns, workload.wrapper)
    if workers > 1 and len(jobs) > 8:
        # fork is safe here -- every client thread has been joined -- and,
        # unlike spawn, starts no resource-tracker process that would
        # outlive the run.
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init,
            initargs=init,
        ) as pool:
            chunk = max(1, len(jobs) // (workers * 8))
            verdicts = list(pool.map(_check_page, jobs, chunksize=chunk))
    else:
        _init(*init)
        verdicts = [_check_page(job) for job in jobs]
    wrong = 0
    for group, group_verdicts in zip(groups.values(), verdicts):
        for sample, verdict in zip(group, group_verdicts):
            if verdict is not None:
                sample.error = verdict
                wrong += 1
    return wrong


def check_access_log(records: List[dict], samples, route: str) -> List[str]:
    """Problems with the access log: it must hold one ``request`` line
    per request sent, with the status the client saw."""
    problems = []
    lines = [r for r in records if r.get("route") == route]
    if len(lines) != len(samples):
        problems.append(
            f"access log holds {len(lines)} {route} lines "
            f"for {len(samples)} requests sent"
        )
    logged_ok = sum(1 for r in lines if r.get("status") == 200)
    answered_ok = sum(1 for s in samples if s.status == 200)
    if logged_ok != answered_ok:
        problems.append(
            f"access log records {logged_ok} successes, client saw {answered_ok}"
        )
    missing = [r for r in lines if not r.get("trace_id")]
    if missing:
        problems.append(f"{len(missing)} access log lines carry no trace id")
    return problems


def verify(workload, served, workers: int) -> List[str]:
    """Check every response against the oracle, and each server's access
    log against the requests sent to it.

    ``served`` holds ``(server, samples)`` pairs; wrong replies are
    marked failed.  Returns the problems found."""
    problems = []
    for server, samples in served:
        problems += check_access_log(
            server.access_log_requests(), samples, workload.path
        )
    wrong = check_samples([s for _, group in served for s in group], workload, workers)
    if wrong:
        problems.append(f"{wrong} responses differ from direct Wrapper evaluation")
    return problems
