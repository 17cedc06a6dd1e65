"""Regenerate the measured numbers recorded in EXPERIMENTS.md.

Runs each experiment's parameter sweep directly (no pytest), prints the
series and linear-fit diagnostics.  Usage::

    python benchmarks/report.py            # full sweep
    python benchmarks/report.py --smoke    # quick CI smoke subset
    python benchmarks/report.py --smoke --front-end-baseline ../parent/src
                                           # + the front end of another checkout

Both modes additionally emit ``benchmarks/BENCH_compiled.json`` (the
compile-once evaluation path of :mod:`repro.datalog.plan` against per-call
interpreted evaluation), ``benchmarks/BENCH_kernel.json`` (the
linear-time propagation kernel of :mod:`repro.datalog.kernel` against
both, with a document-size doubling sweep and an empirical-linearity
column ``time(2n)/time(n)``), ``benchmarks/BENCH_stream.json`` (the
Node-free streaming ingestion pipeline end to end against the PR-2
Node-tree path, serial and across a process pool),
``benchmarks/BENCH_incremental.json`` (warm re-extraction over Merkle
snapshot diffs against cold kernel runs on an edit-ratio sweep), and
``benchmarks/BENCH_delta.json`` (the Theorem 6.6 Elog-Delta workload).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.datalog.engine import compile_program, evaluate
from repro.datalog.seminaive import evaluate_seminaive
from repro.structures import as_indexed
from repro.datalog.grounding import evaluate_ground
from repro.datalog.guarded import evaluate_lit
from repro.datalog.hornsat import solve_horn
from repro.elog.delta import anbn_program, evaluate_elog_delta
from repro.elog.parser import parse_elog
from repro.elog.translate import elog_to_datalog
from repro.html import parse_html
from repro.mso import compile_query, parse_mso
from repro.paper import even_a_program
from repro.qa.examples import a_beta_qa
from repro.qa.to_datalog import ranked_qa_to_datalog
from repro.tmnf import to_tmnf
from repro.trees.generate import (
    chain_tree,
    complete_binary_tree,
    flat_tree,
    random_tree,
)
from repro.trees.ranked import RankedStructure
from repro.trees.unranked import UnrankedStructure
from repro.workloads import CATALOG_WRAPPER, catalog_page, catalog_pages
from repro.workloads.programs import wide_program
from repro.wrap import Document, Wrapper


def _timed(fn, *args, repeat: int = 3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def report_t42() -> None:
    print("== E-T4.2: combined complexity O(|P| * |dom|) ==")
    program = even_a_program(labels=("a", "b"))
    print("  data scaling (fixed program, 29 rules incl. atoms):")
    base = None
    for nodes in (250, 500, 1000, 2000, 4000):
        structure = UnrankedStructure(random_tree(42, nodes, labels=("a", "b")))
        seconds, _ = _timed(evaluate_ground, program, structure)
        base = base or seconds / nodes
        print(f"    n={nodes:>5}  t={seconds * 1e3:8.2f} ms   t/n={seconds / nodes * 1e6:6.2f} us (ratio to smallest {seconds / nodes / base:4.2f})")
    print("  program scaling (fixed tree, 300 nodes):")
    structure = UnrankedStructure(random_tree(43, 300, labels=("a", "b")))
    base = None
    for copies in (2, 4, 8, 16, 32):
        program = wide_program(copies)
        size = program.size()
        seconds, _ = _timed(evaluate_ground, program, structure)
        base = base or seconds / size
        print(f"    |P|={size:>5} copies={copies:>3}  t={seconds * 1e3:8.2f} ms   t/|P|={seconds / size * 1e6:6.2f} us (ratio {seconds / size / base:4.2f})")


def report_p35() -> None:
    print("== E-P3.5: Horn-SAT linear ==")
    import random as _random

    for atoms in (2000, 8000, 32000):
        rng = _random.Random(atoms)
        rules = [
            (rng.randrange(atoms), [rng.randrange(atoms) for _ in range(rng.randint(0, 3))])
            for _ in range(3 * atoms)
        ]
        facts = {rng.randrange(atoms) for _ in range(atoms // 50)}
        seconds, _ = _timed(solve_horn, atoms, rules, facts)
        print(f"    atoms={atoms:>6} rules={3 * atoms:>6}  t={seconds * 1e3:8.2f} ms  t/rule={seconds / (3 * atoms) * 1e9:7.1f} ns")


def report_p37() -> None:
    print("== E-P3.7: Datalog LIT O(|P| * |sigma|) ==")
    program = even_a_program(labels=("a", "b"))
    for nodes in (250, 1000, 4000):
        structure = UnrankedStructure(random_tree(17, nodes, labels=("a", "b")))
        seconds, _ = _timed(evaluate_lit, program, structure)
        print(f"    n={nodes:>5}  t={seconds * 1e3:8.2f} ms   t/n={seconds / nodes * 1e6:6.2f} us")


def report_ex421() -> None:
    print("== E-EX4.21: QA runs vs datalog simulation ==")
    for alpha in (1, 2):
        qa = a_beta_qa(alpha)
        program = ranked_qa_to_datalog(qa)
        print(f"  alpha={alpha} (beta={2 ** alpha}), program rules={len(program.rules)}:")
        for depth in (3, 4, 5, 6):
            if alpha == 2 and depth > 5:
                continue
            tree = complete_binary_tree(depth)
            n = tree.subtree_size()
            qa_seconds, run = _timed(qa.run, tree, repeat=1)
            structure = RankedStructure(tree, max_rank=2)
            dl_seconds, _ = _timed(evaluate, program, structure, repeat=1)
            print(
                f"    depth={depth} n={n:>4}  QA steps={run.steps:>8} "
                f"QA t={qa_seconds * 1e3:9.2f} ms   datalog t={dl_seconds * 1e3:8.2f} ms"
            )


def report_t52() -> None:
    print("== E-T5.2: TMNF normalization linear ==")
    for copies in (2, 8, 32):
        program = wide_program(copies)
        seconds, result = _timed(to_tmnf, program)
        print(
            f"    |P| rules={len(program.rules):>4}  t={seconds * 1e3:8.2f} ms  "
            f"output rules={len(result.program.rules):>5} "
            f"(ratio {len(result.program.rules) / len(program.rules):4.2f})"
        )


def report_c64() -> None:
    print("== E-C6.4: Elog- evaluation linear ==")
    program = parse_elog(CATALOG_WRAPPER, query="price")
    datalog = elog_to_datalog(program)
    normalized = to_tmnf(datalog).program
    for items in (20, 80, 320):
        structure = UnrankedStructure(parse_html(catalog_page(seed=5, items=items)))
        direct, _ = _timed(evaluate, datalog, structure, "seminaive")
        ground, _ = _timed(evaluate, normalized, structure, "ground")
        print(
            f"    items={items:>4} dom={structure.size:>6}  "
            f"seminaive t={direct * 1e3:8.2f} ms   TMNF+ground t={ground * 1e3:8.2f} ms"
        )


def report_msoblowup() -> None:
    print("== E-MSOBLOWUP: MSO compilation vs evaluation ==")
    ladder = {
        1: "exists y (child(x, y) & label_a(y))",
        2: "forall y (child(x, y) -> exists z (child(y, z) & label_a(z)))",
        3: (
            "forall y (child(x, y) -> exists z (child(y, z) & "
            "forall w (child(z, w) -> label_a(w))))"
        ),
    }
    for depth, text in ladder.items():
        seconds, query = _timed(compile_query, parse_mso(text), "x", ["a", "b"], repeat=1)
        structure = UnrankedStructure(random_tree(3, 800, labels=("a", "b")))
        eval_seconds, _ = _timed(query.select_ids, structure)
        print(
            f"    alternations={depth}  compile t={seconds * 1e3:9.2f} ms  "
            f"(minimized states={query.dta.num_states})  "
            f"evaluate 800 nodes t={eval_seconds * 1e3:7.2f} ms"
        )


def report_compiled(smoke: bool = False) -> None:
    """Compiled vs. interpreted evaluation on the catalog-wrapper workload.

    Emits ``benchmarks/BENCH_compiled.json`` with one row per document
    size: interpreted per-call seconds (fresh join orders and positional
    indexes every call), compiled seconds (plan and indexed document built
    once, reused), and the resulting speedup.
    """
    print("== E-COMPILED: compile-once plans vs per-call interpretation ==")
    datalog = elog_to_datalog(parse_elog(CATALOG_WRAPPER, query="price"))
    compiled = compile_program(datalog)
    rows = []
    sizes = (20, 80) if smoke else (20, 80, 320)
    repeat = 2 if smoke else 5
    for items in sizes:
        structure = UnrankedStructure(parse_html(catalog_page(seed=5, items=items)))
        interpreted_s, interpreted_out = _timed(
            evaluate_seminaive, datalog, structure, repeat=repeat
        )
        indexed = as_indexed(structure)
        compiled.run(indexed, method="seminaive")  # warm the document indexes
        compiled_s, compiled_out = _timed(
            compiled.run, indexed, "seminaive", repeat=repeat
        )
        if compiled_out.relations != interpreted_out:
            raise SystemExit(
                "compiled and interpreted evaluation disagree on "
                f"items={items}; refusing to report timings"
            )
        speedup = interpreted_s / compiled_s if compiled_s else float("inf")
        rows.append(
            {
                "items": items,
                "dom": structure.size,
                "interpreted_s": interpreted_s,
                "compiled_s": compiled_s,
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"    items={items:>4} dom={structure.size:>6}  "
            f"interpreted t={interpreted_s * 1e3:8.2f} ms   "
            f"compiled t={compiled_s * 1e3:8.2f} ms   "
            f"speedup={speedup:5.2f}x"
        )
    payload = {
        "experiment": "compiled_vs_interpreted",
        "workload": "elog catalog wrapper (E-C6.4 sweep)",
        "engine": {
            "interpreted": "repro.datalog.seminaive.evaluate_seminaive",
            "compiled": "repro.datalog.plan.CompiledProgram.run",
        },
        "smoke": smoke,
        "rows": rows,
    }
    out_path = pathlib.Path(__file__).resolve().parent / "BENCH_compiled.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"    wrote {out_path}")


def _timed_kernel_pair(compiled, indexed, repeat: int):
    """Best-of-N kernel timings through both engines, interleaved.

    Alternates one frontier run with one worklist run inside each
    repetition so both engines sample the same machine-noise windows --
    the reported ratio is then robust to load drift (same scheme as the
    streaming report).  Returns ``(vector_s, scalar_s, vector_out,
    scalar_out)``; the ambient flag is restored afterwards.
    """
    import repro.datalog.kernel as kernel_mod

    saved = kernel_mod.VECTORIZE_PROPAGATION
    try:
        kernel_mod.VECTORIZE_PROPAGATION = True
        compiled.run(indexed, method="kernel")  # warm snapshot + vector plan
        vector_s = scalar_s = float("inf")
        vector_out = scalar_out = None
        for _ in range(max(repeat, 3) * 2):
            kernel_mod.VECTORIZE_PROPAGATION = True
            start = time.perf_counter()
            vector_out = compiled.run(indexed, method="kernel")
            vector_s = min(vector_s, time.perf_counter() - start)
            kernel_mod.VECTORIZE_PROPAGATION = False
            start = time.perf_counter()
            scalar_out = compiled.run(indexed, method="kernel")
            scalar_s = min(scalar_s, time.perf_counter() - start)
        return vector_s, scalar_s, vector_out, scalar_out
    finally:
        kernel_mod.VECTORIZE_PROPAGATION = saved


def _assert_scalar_fallback_exercised() -> None:
    """CI guard: constant-anchored blocks must still ride the worklist.

    The frontier engine deliberately excludes ``cbind``/``ccheck`` blocks;
    if that fallback ever stops engaging (e.g. the vector planner starts
    accepting programs it cannot evaluate correctly), the parity oracle
    for those shapes is gone and the smoke job must fail loudly.
    """
    from repro.datalog.kernel import compile_kernel
    from repro.datalog.parser import parse_program
    from repro.trees import parse_sexpr

    kernel = compile_kernel(parse_program("p(x) :- firstchild(0, x).", query="p"))
    out = kernel.run(UnrankedStructure(parse_sexpr("a(b, c)")))
    if out["p"] != {(1,)} or kernel.last_engine != "worklist":
        raise SystemExit(
            "scalar fallback no longer exercised: constant-anchored program "
            f"ran via {kernel.last_engine!r} and derived {out['p']!r}"
        )
    print("    scalar-fallback guard: constant-anchored block -> worklist ok")


def report_kernel(smoke: bool = False) -> None:
    """Propagation kernel vs compiled joins vs interpreted evaluation.

    Emits ``benchmarks/BENCH_kernel.json``: one row per document size on
    the elog catalog sweep with interpreted, compiled and kernel seconds,
    the kernel-over-compiled speedup, and ``linearity`` -- the ratio
    ``kernel_time(this row) / kernel_time(previous row)`` across a
    doubling item sweep, which should stay near 2.0 for a linear-time
    engine (Theorem 4.2 / Corollary 6.4).

    The kernel is timed through both engines -- the big-int
    frontier-at-a-time evaluator (``kernel_vector_s``) and the scalar
    Dowling-Gallier worklist (``kernel_scalar_s``) -- with their ratio in
    ``vector_vs_scalar``; the headline ``kernel_s`` column follows the
    ambient ``REPRO_VECTORIZE_PROPAGATION`` flag so the CI matrix uploads
    one artifact per engine.  ``deep_rows`` adds a chain workload (depth
    >> breadth, the document-spanner successor shape) where single-bit
    frontiers must hand off to the worklist instead of going quadratic.
    """
    import repro.datalog.kernel as kernel_mod

    print("== E-KERNEL: linear-time propagation kernel (Thm 4.2 hot path) ==")
    ambient_vectorize = kernel_mod.VECTORIZE_PROPAGATION
    datalog = elog_to_datalog(parse_elog(CATALOG_WRAPPER, query="price"))
    compiled = compile_program(datalog)
    rows = []
    sizes = (20, 40, 80) if smoke else (40, 80, 160, 320, 640)
    repeat = 3 if smoke else 7
    previous_kernel_s = None
    for items in sizes:
        structure = UnrankedStructure(parse_html(catalog_page(seed=5, items=items)))
        interpreted_s, interpreted_out = _timed(
            evaluate_seminaive, datalog, structure, repeat=repeat
        )
        indexed = as_indexed(structure)
        compiled.run(indexed, method="seminaive")  # warm document indexes
        compiled_s, compiled_out = _timed(
            compiled.run, indexed, "seminaive", repeat=repeat
        )
        vector_s, scalar_s, vector_out, scalar_out = _timed_kernel_pair(
            compiled, indexed, repeat=repeat
        )
        if vector_out.engine != "frontier" or scalar_out.engine != "worklist":
            raise SystemExit(
                f"unexpected kernel engines on items={items}: "
                f"{vector_out.engine!r} / {scalar_out.engine!r}"
            )
        if not (
            vector_out.relations
            == scalar_out.relations
            == compiled_out.relations
            == interpreted_out
        ):
            raise SystemExit(
                f"kernel engines/compiled/interpreted disagree on items={items}; "
                "refusing to report timings"
            )
        kernel_s = vector_s if ambient_vectorize else scalar_s
        speedup = compiled_s / kernel_s if kernel_s else float("inf")
        vector_vs_scalar = scalar_s / vector_s if vector_s else float("inf")
        linearity = (
            round(kernel_s / previous_kernel_s, 2)
            if previous_kernel_s
            else None
        )
        previous_kernel_s = kernel_s
        rows.append(
            {
                "items": items,
                "dom": structure.size,
                "interpreted_s": interpreted_s,
                "compiled_s": compiled_s,
                "kernel_s": kernel_s,
                "kernel_vector_s": vector_s,
                "kernel_scalar_s": scalar_s,
                "vector_vs_scalar": round(vector_vs_scalar, 2),
                "speedup_vs_compiled": round(speedup, 2),
                "linearity": linearity,
            }
        )
        print(
            f"    items={items:>4} dom={structure.size:>6}  "
            f"compiled t={compiled_s * 1e3:8.2f} ms   "
            f"kernel scalar t={scalar_s * 1e3:8.2f} ms   "
            f"vector t={vector_s * 1e3:8.2f} ms   "
            f"vector/scalar={vector_vs_scalar:5.2f}x   "
            f"t(2n)/t(n)={linearity if linearity is not None else '  --'}"
        )
    # Deep-tree workload: a root-to-leaf descent over a unary chain.  Every
    # frontier is a single node, so the vector engine's narrow-frontier
    # bailout must hand the run to the worklist instead of paying one
    # whole-domain big-int round per chain node.
    from repro.datalog.parser import parse_program

    deep_program = parse_program(
        """
        mark(x) :- root(x).
        mark(y) :- mark(x), child(x, y).
        deep(x) :- mark(x), leaf(x).
        """,
        query="deep",
    )
    deep_compiled = compile_program(deep_program)
    deep_rows = []
    depths = (500, 1000) if smoke else (1000, 2000, 4000)
    previous_deep_s = None
    for depth in depths:
        indexed = as_indexed(UnrankedStructure(chain_tree(depth)))
        vector_s, scalar_s, vector_out, scalar_out = _timed_kernel_pair(
            deep_compiled, indexed, repeat=repeat
        )
        if vector_out.relations != scalar_out.relations:
            raise SystemExit(
                f"kernel engines disagree on the depth={depth} chain"
            )
        if vector_out.query_result() != {depth - 1}:
            raise SystemExit(f"wrong answer on the depth={depth} chain")
        vector_vs_scalar = scalar_s / vector_s if vector_s else float("inf")
        deep_s = vector_s if ambient_vectorize else scalar_s
        linearity = (
            round(deep_s / previous_deep_s, 2) if previous_deep_s else None
        )
        previous_deep_s = deep_s
        deep_rows.append(
            {
                "depth": depth,
                "kernel_s": deep_s,
                "kernel_vector_s": vector_s,
                "kernel_scalar_s": scalar_s,
                "vector_vs_scalar": round(vector_vs_scalar, 2),
                "vector_engine": vector_out.engine,
                "linearity": linearity,
            }
        )
        print(
            f"    chain depth={depth:>5}  "
            f"kernel scalar t={scalar_s * 1e3:8.2f} ms   "
            f"vector t={vector_s * 1e3:8.2f} ms   "
            f"vector/scalar={vector_vs_scalar:5.2f}x   "
            f"engine={vector_out.engine}   "
            f"t(2n)/t(n)={linearity if linearity is not None else '  --'}"
        )
    if not smoke:
        # Empirical linearity: doubling the document must not much more
        # than double the time (noise allowance on millisecond rows).
        for row in rows[2:]:
            if row["linearity"] is not None and row["linearity"] > 3.2:
                raise SystemExit(
                    f"kernel linearity broken on the catalog sweep: "
                    f"t(2n)/t(n)={row['linearity']} at items={row['items']}"
                )
        for row in deep_rows[1:]:
            if row["linearity"] is not None and row["linearity"] > 3.2:
                raise SystemExit(
                    f"kernel linearity broken on the chain sweep: "
                    f"t(2n)/t(n)={row['linearity']} at depth={row['depth']}"
                )
    _assert_scalar_fallback_exercised()
    payload = {
        "experiment": "kernel_vs_compiled_vs_interpreted",
        "workload": "elog catalog wrapper (E-C6.4 sweep, doubling items)",
        "engine": {
            "interpreted": "repro.datalog.seminaive.evaluate_seminaive",
            "compiled": "repro.datalog.plan.CompiledProgram.run(seminaive)",
            "kernel": "repro.datalog.kernel (CompiledProgram.run(kernel))",
            "kernel_vector": "frontier-at-a-time big-int propagation",
            "kernel_scalar": "Dowling-Gallier worklist (VECTORIZE_PROPAGATION=0)",
        },
        "vectorize_default": ambient_vectorize,
        "smoke": smoke,
        "rows": rows,
        "deep_rows": deep_rows,
    }
    out_path = pathlib.Path(__file__).resolve().parent / "BENCH_kernel.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"    wrote {out_path}")


def _catalog_wrapper(shared: bool) -> Wrapper:
    """The catalog wrapper, built two ways.

    ``shared=False`` reproduces the PR-2 configuration: one independently
    parsed program per extraction function, so every function compiles
    and evaluates its own plan (the pre-streaming baseline behavior).
    ``shared=True`` registers three patterns of one program object, so
    the whole wrapper costs a single kernel fixpoint per document.
    """
    wrapper = Wrapper()
    if shared:
        program = parse_elog(CATALOG_WRAPPER, query="record")
        for pattern in ("record", "name", "price"):
            wrapper.add_elog(pattern, program, pattern=pattern)
    else:
        for pattern in ("record", "name", "price"):
            wrapper.add_elog(pattern, parse_elog(CATALOG_WRAPPER, query=pattern))
    return wrapper.compile()


#: The pages the ``front_end`` rows time, by name: the largest pages the
#: repo benchmark serves, as ``repro.workloads`` generator calls.
_FRONT_END_PAGES = {
    "catalog": ("catalog_page", {"seed": 5, "items": 640}),
    "forum": ("forum_page", {"seed": 0, "threads": 8, "depth": 80}),
}

#: A front-end timing worker: imports ``html_snapshot`` from the source
#: tree given as ``argv[1]``, then for each page name read from stdin
#: prints one call's wall time (ms), the page's UTF-8 size and its node
#: count.
_FRONT_END_WORKER = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro import workloads
from repro.trees.stream import html_snapshot
pages = {name: getattr(workloads, f)(**kw) for name, (f, kw) in %r.items()}
for line in sys.stdin:
    page = pages[line.strip()]
    start = time.perf_counter()
    size = html_snapshot(page).size
    elapsed = time.perf_counter() - start
    print(elapsed * 1e3, len(page.encode("utf-8")), size, flush=True)
""" % (_FRONT_END_PAGES,)


def _git_commit(path: str = None):
    """The commit checked out at ``path`` (``None`` without a path or git)."""
    import subprocess

    if path is None:
        return None
    try:
        return subprocess.run(
            ["git", "-C", path, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _spread(times_ms: list) -> dict:
    import statistics

    quartiles = statistics.quantiles(times_ms, n=4)
    return {
        "median_ms": round(statistics.median(times_ms), 3),
        "q1_ms": round(quartiles[0], 3),
        "q3_ms": round(quartiles[2], 3),
        "min_ms": round(min(times_ms), 3),
        "max_ms": round(max(times_ms), 3),
    }


def _front_end_rows(repeat: int, baseline_src: str = None) -> list:
    """``html_snapshot`` alone (HTML text -> snapshot columns) on each
    page of :data:`_FRONT_END_PAGES`: median and spread over ``repeat``
    timed calls, plus throughput in MB/s.

    Calls run in a worker process on this source tree.  With
    ``baseline_src`` (another checkout's ``src`` directory) a second
    worker runs that tree's ``html_snapshot`` on the same pages, call by
    call in alternating order, and each row also records the baseline's
    spread, the ratio of the medians and how many paired calls the
    change won.
    """
    import statistics
    import subprocess

    import repro

    sources = {"change": str(pathlib.Path(repro.__file__).resolve().parents[1])}
    if baseline_src is not None:
        sources["baseline"] = baseline_src
    workers = {
        side: subprocess.Popen(
            [sys.executable, "-c", _FRONT_END_WORKER, src],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for side, src in sources.items()
    }

    def call(side: str, page: str) -> tuple:
        worker = workers[side]
        worker.stdin.write(page + "\n")
        worker.stdin.flush()
        ms, size, nodes = worker.stdout.readline().split()
        return float(ms), int(size), int(nodes)

    rows = []
    try:
        for page, (function, kwargs) in _FRONT_END_PAGES.items():
            generator = f"{function}({', '.join(f'{k}={v}' for k, v in kwargs.items())})"
            shapes = {call(side, page)[1:] for side in workers}  # warm-up
            if len(shapes) != 1:
                raise RuntimeError(f"front end {page}: trees disagree on {shapes}")
            size, nodes = shapes.pop()
            times = {side: [] for side in workers}
            order = list(workers)
            for k in range(repeat):
                for side in order if k % 2 == 0 else order[::-1]:
                    times[side].append(call(side, page)[0])
            median = statistics.median(times["change"])
            row = {
                "page": page,
                "generator": generator,
                "bytes": size,
                "nodes": nodes,
                "repeats": repeat,
                **_spread(times["change"]),
                "median_mb_s": round(size / 1e3 / median, 2),
            }
            line = (
                f"    front end {page:>8}: html_snapshot median {median:7.2f} ms "
                f"(q1 {row['q1_ms']:.2f}, q3 {row['q3_ms']:.2f}; "
                f"{row['median_mb_s']:.2f} MB/s, {repeat} repeats)"
            )
            if baseline_src is not None:
                base = _spread(times["baseline"])
                wins = sum(c < b for c, b in zip(times["change"], times["baseline"]))
                row["baseline"] = base
                row["speedup_vs_baseline"] = round(base["median_ms"] / median, 2)
                row["faster_than_baseline"] = f"{wins}/{repeat}"
                line += (
                    f"; baseline {base['median_ms']:.2f} ms -> "
                    f"{row['speedup_vs_baseline']:.2f}x, faster in {wins}/{repeat}"
                )
            rows.append(row)
            print(line)
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    return rows


def report_stream(smoke: bool = False, front_end_baseline: str = None) -> None:
    """E-STREAM: the Node-free streaming ingestion pipeline end to end.

    Emits ``benchmarks/BENCH_stream.json``: each row times wrapping a
    batch of raw catalog pages from HTML strings to output trees through

    * the PR-2 baseline path (``parse_html`` -> ``Node`` tree ->
      ``UnrankedStructure`` -> per-function plans -> Node output walk),
    * the streaming path (tokenizer events -> snapshot columns ->
      one shared kernel fixpoint -> snapshot-native output; zero ``Node``
      objects), and
    * the streaming path fanned out over a process pool
      (``wrap_html_many(workers=N)``; degrades to serial when the machine
      offers a single core).

    Paths alternate inside each repetition (best-of-N per path) so the
    comparison is robust to machine noise, and every path's outputs are
    asserted identical before any timing is reported.

    The ``front_end`` rows time the fused ``html_snapshot`` loop alone on
    the largest catalog and forum pages (median and quartiles over
    repeats), with the machine's core count and Python version;
    ``front_end_baseline`` (another checkout's ``src`` directory) adds
    that tree's figures, timed alternately on the same pages (see
    :func:`_front_end_rows`).
    """
    import gc
    import os
    import platform

    print("== E-STREAM: streaming ingestion (bytes -> columns -> output) ==")
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    workers = min(4, available)
    baseline = _catalog_wrapper(shared=False)
    streaming = _catalog_wrapper(shared=True)
    # 640 is the largest size of the established catalog sweep (E-KERNEL).
    sweep = ((160, 6), (320, 6), (640, 6)) if smoke else ((160, 8), (320, 8), (640, 8))
    repeat = 4 if smoke else 6
    rows = []
    for items, batch in sweep:
        pages = catalog_pages(batch, items=items)

        def node_path():
            return baseline.wrap_many([parse_html(page) for page in pages])

        def stream_path():
            return streaming.wrap_html_many(pages)

        def worker_path():
            return streaming.wrap_html_many(pages, workers=workers)

        reference = [out.to_sexpr() for out in node_path()]
        for path in (stream_path, worker_path) if workers >= 2 else (stream_path,):
            if [out.to_sexpr() for out in path()] != reference:
                raise SystemExit(
                    f"streaming output diverges from the Node path at "
                    f"items={items}; refusing to report timings"
                )
        # Serial paths: per-page best-of-N, summed, with the two paths
        # alternating page by page so they sample the same machine-noise
        # windows; the per-page minima then recover steady-state
        # throughput, and the reported ratio is robust to load drift.
        node_best = [float("inf")] * batch
        stream_best = [float("inf")] * batch
        for _ in range(repeat):
            gc.collect()
            for index, page in enumerate(pages):
                start = time.perf_counter()
                baseline.wrap_many([parse_html(page)])
                elapsed = time.perf_counter() - start
                if elapsed < node_best[index]:
                    node_best[index] = elapsed
                start = time.perf_counter()
                streaming.wrap_html_many([page])
                elapsed = time.perf_counter() - start
                if elapsed < stream_best[index]:
                    stream_best[index] = elapsed
        timings = {"node": sum(node_best), "stream": sum(stream_best)}
        if workers < 2:
            # wrap_html_many(workers<2) is by definition the serial path;
            # reuse its timing rather than re-measuring identical code.
            timings["workers"] = timings["stream"]
        else:
            timings["workers"] = float("inf")
            for _ in range(repeat):
                gc.collect()
                start = time.perf_counter()
                worker_path()
                timings["workers"] = min(
                    timings["workers"], time.perf_counter() - start
                )
        dom = Document.from_html(pages[0]).size
        speedup_stream = timings["node"] / timings["stream"]
        speedup_workers = timings["node"] / timings["workers"]
        rows.append(
            {
                "items": items,
                "pages": batch,
                "dom_per_page": dom,
                "node_s": timings["node"],
                "stream_s": timings["stream"],
                "stream_workers_s": timings["workers"],
                "workers_used": max(workers, 1) if workers >= 2 else 1,
                "pages_per_s_node": round(batch / timings["node"], 2),
                "pages_per_s_stream": round(batch / timings["stream"], 2),
                "speedup_stream": round(speedup_stream, 2),
                "speedup_stream_workers": round(speedup_workers, 2),
            }
        )
        print(
            f"    items={items:>5} pages={batch}  node t={timings['node'] * 1e3:8.2f} ms   "
            f"stream t={timings['stream'] * 1e3:8.2f} ms   "
            f"stream+workers t={timings['workers'] * 1e3:8.2f} ms   "
            f"speedup={speedup_stream:5.2f}x / {speedup_workers:5.2f}x (workers={workers})"
        )
    front_end = _front_end_rows(repeat=21 if smoke else 41, baseline_src=front_end_baseline)
    payload = {
        "experiment": "streaming_ingestion_end_to_end",
        "workload": "catalog batch, raw HTML -> wrapped output trees",
        "engine": {
            "node": "parse_html -> UnrankedStructure -> per-function plans (PR-2 baseline path)",
            "stream": "Wrapper.wrap_html_many (fused html_snapshot loop -> columns -> kernel -> snapshot output)",
            "stream_workers": "Wrapper.wrap_html_many(workers=N) process-pool fan-out",
            "front_end": "html_snapshot alone: HTML text -> TreeSnapshot columns",
        },
        "machine": {
            "nproc": available,
            "python": platform.python_version(),
        },
        "front_end_baseline_commit": _git_commit(front_end_baseline),
        "smoke": smoke,
        "rows": rows,
        "front_end": front_end,
    }
    out_path = pathlib.Path(__file__).resolve().parent / "BENCH_stream.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"    wrote {out_path}")


def report_delta(smoke: bool = False) -> None:
    """E-T6.6: the a^n b^n Elog-Delta program as a tracked artifact.

    Emits ``benchmarks/BENCH_delta.json``: one row per word length with
    auto-selected and forced-seminaive timings (the reserved delta
    relations sit outside the kernel fragment, so auto must settle on the
    same grounded/semi-naive strategies -- the row asserts result parity
    between the two before reporting any timing) plus the acceptance
    verdicts on and off the ``n = m`` diagonal.
    """
    print("== E-T6.6: a^n b^n (Elog-Delta) ==")
    program = anbn_program()
    rows = []
    sizes = (5, 20) if smoke else (5, 20, 60)
    repeat = 2 if smoke else 3
    for n in sizes:
        tree = flat_tree("a" * n + "b" * n)
        off_tree = flat_tree("a" * n + "b" * (n + 1))
        auto_s, result = _timed(
            evaluate_elog_delta, program, tree, repeat=repeat
        )
        semi_s, semi = _timed(
            evaluate_elog_delta, program, tree, "seminaive", repeat=repeat
        )
        for pred in ("a0", "b0", "anbn"):
            if result.unary(pred) != semi.unary(pred):
                raise SystemExit(
                    f"delta auto/seminaive parity broken on n={n} ({pred})"
                )
        accepted = 0 in result.unary("anbn")
        rejected = 0 not in evaluate_elog_delta(program, off_tree).unary("anbn")
        if not (accepted and rejected):
            raise SystemExit(f"anbn acceptance wrong at n={n}")
        rows.append(
            {
                "n": n,
                "nodes": tree.subtree_size(),
                "auto_s": auto_s,
                "seminaive_s": semi_s,
                "accepted_diagonal": accepted,
                "rejected_off_diagonal": rejected,
            }
        )
        print(
            f"    n={n:>3}  auto t={auto_s * 1e3:8.2f} ms  "
            f"seminaive t={semi_s * 1e3:8.2f} ms  accepted={accepted}"
        )
    payload = {
        "experiment": "elog_delta_anbn",
        "workload": "Theorem 6.6 a^n b^n program, flat word trees",
        "engine": {
            "auto": "evaluate_elog_delta (strategy auto-selection)",
            "seminaive": "evaluate_elog_delta(method='seminaive')",
        },
        "smoke": smoke,
        "rows": rows,
    }
    out_path = pathlib.Path(__file__).resolve().parent / "BENCH_delta.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"    wrote {out_path}")


def _thread_tail_nodes(root, per_thread: int):
    """The deepest ``per_thread`` interior nodes of each comment chain."""
    out = []
    for thread in root.children:
        chain = []
        node = thread
        while node.children:
            chain.append(node)
            node = node.children[0]
        out.extend(chain[-per_thread:])
    return out


def _assert_incremental_exercised() -> None:
    """CI guard: the warm path must actually run on a trivial re-crawl.

    If the incremental kernel ever silently stops applying (a binding
    change, a diff gate tightened to zero, a state no longer produced),
    every warm call degrades to a cold run and the benchmark would
    quietly measure cold-vs-cold; fail loudly instead (the incremental
    twin of ``_assert_scalar_fallback_exercised``).
    """
    from repro.trees.generate import thread_tree

    program = parse_program_incremental()
    old_doc = as_indexed(UnrankedStructure(thread_tree(4, 6)))
    new_tree = thread_tree(4, 6)
    _thread_tail_nodes(new_tree, 1)[0].text = "edited"
    new_doc = as_indexed(UnrankedStructure(new_tree))
    _, state, _ = program.run_incremental(old_doc, None)
    result, _, info = program.run_incremental(new_doc, state)
    if info is None or not result.engine.startswith("incremental"):
        raise SystemExit(
            "incremental path no longer exercised: warm re-run reported "
            f"engine={result.engine!r}, info={info!r}"
        )
    print("    incremental guard: warm re-run -> engine=incremental ok")


def parse_program_incremental():
    """The recursive descent program of the incremental sweep, compiled."""
    from repro.datalog.parser import parse_program

    return compile_program(
        parse_program(
            """
            mark(x) :- root(x).
            mark(y) :- mark(x), child(x, y).
            deep(x) :- mark(x), label_leafc(x).
            """,
            query="deep",
        )
    )


def report_incremental(smoke: bool = False) -> None:
    """E-INCR: warm re-extraction over snapshot diffs vs cold runs.

    Emits ``benchmarks/BENCH_incremental.json``.  The workload is a
    comment-thread page (:func:`repro.trees.generate.thread_tree`: many
    unary chains under one root) with a recursive descent program, so a
    cold kernel run pays one frontier round per chain level while a warm
    run pays only the snapshot diff plus the dirty region.  Edits are
    text changes on the *deepest* comments of each thread -- the
    re-crawl recency model (new activity lands at thread bottoms), which
    keeps delete-and-rederive cones short; scattering the same edits
    uniformly over chain interiors makes DRed re-derive everything below
    each edit and is deliberately not the headline (the engine stays
    correct there, just not faster -- see tests/test_incremental.py).

    Each warm timing clears the diff memo first: a real re-crawl diffs
    every incoming version exactly once, so the memo would otherwise hide
    the diff cost from the measurement.

    Guards (SystemExit): cold/warm result parity on every row; every
    warm row must report ``engine="incremental*"``; and in full mode the
    ≤1%-edit rows at the largest size must be at least 5x faster than
    cold.
    """
    import random as _random

    from repro.trees.generate import thread_tree

    print("== E-INCR: incremental re-extraction (diff + delta fixpoint) ==")
    compiled = parse_program_incremental()
    sizes = ((20, 40), (40, 80)) if smoke else ((50, 100), (100, 200), (150, 400))
    ratios = (0.001, 0.01, 0.1)
    repeat = 2 if smoke else 3
    rows = []
    for threads, depth in sizes:
        old_doc = as_indexed(UnrankedStructure(thread_tree(threads, depth)))
        _, state, _ = compiled.run_incremental(old_doc, None)
        if state is None:
            raise SystemExit(
                f"no reusable kernel state at threads={threads} depth={depth}"
            )
        old_snapshot = old_doc.base.snapshot()
        nodes = old_snapshot.size
        for ratio in ratios:
            edits = max(1, round(ratio * nodes))
            per_thread = max(1, -(-edits // threads))
            new_tree = thread_tree(threads, depth)
            pool = _thread_tail_nodes(new_tree, per_thread)
            rng = _random.Random(threads * 7 + int(ratio * 1000))
            for node in rng.sample(pool, min(edits, len(pool))):
                node.text = (node.text or "") + " (edited)"
            new_doc = as_indexed(UnrankedStructure(new_tree))
            compiled.run(new_doc, method="kernel")  # warm document caches
            cold_s, cold = _timed(
                compiled.run, new_doc, "kernel", repeat=repeat
            )
            warm_s = float("inf")
            warm = info = None
            for _ in range(repeat):
                old_snapshot._diff = None  # a re-crawl diffs each pair once
                start = time.perf_counter()
                warm, _, info = compiled.run_incremental(new_doc, state)
                warm_s = min(warm_s, time.perf_counter() - start)
            if (
                warm.unary("deep") != cold.unary("deep")
                or warm.unary("mark") != cold.unary("mark")
            ):
                raise SystemExit(
                    f"warm/cold disagree at threads={threads} ratio={ratio}; "
                    "refusing to report timings"
                )
            if info is None or not warm.engine.startswith("incremental"):
                raise SystemExit(
                    f"incremental path not exercised at threads={threads} "
                    f"ratio={ratio}: engine={warm.engine!r}"
                )
            speedup = cold_s / warm_s if warm_s else float("inf")
            rows.append(
                {
                    "threads": threads,
                    "depth": depth,
                    "nodes": nodes,
                    "edit_ratio": ratio,
                    "edits": min(edits, len(pool)),
                    "dirty_fraction": round(info["dirty_fraction"], 6),
                    "rounds": info["rounds"],
                    "engine": warm.engine,
                    "cold_s": cold_s,
                    "warm_s": warm_s,
                    "speedup": round(speedup, 2),
                }
            )
            print(
                f"    n={nodes:>6} edits={ratio * 100:5.1f}%  "
                f"cold t={cold_s * 1e3:8.2f} ms   warm t={warm_s * 1e3:8.2f} ms   "
                f"speedup={speedup:5.2f}x  rounds={info['rounds']}"
            )
    _assert_incremental_exercised()
    if not smoke:
        biggest = max(rows, key=lambda r: r["nodes"])["nodes"]
        small_edit = [
            r for r in rows if r["nodes"] == biggest and r["edit_ratio"] <= 0.01
        ]
        if not any(r["speedup"] >= 5.0 for r in small_edit):
            raise SystemExit(
                "incremental bar missed: no >=5x speedup on <=1%-edited "
                f"pages at n={biggest}: "
                + ", ".join(f"{r['edit_ratio']}:{r['speedup']}x" for r in small_edit)
            )
    payload = {
        "experiment": "incremental_vs_cold",
        "workload": (
            "comment-thread page (thread_tree), recursive descent program, "
            "text edits on the deepest comments (re-crawl recency model)"
        ),
        "engine": {
            "cold": "CompiledProgram.run(method='kernel') (frontier)",
            "warm": (
                "CompiledProgram.run_incremental: signature_table diff + "
                "DRed delta fixpoint (engine='incremental')"
            ),
        },
        "smoke": smoke,
        "rows": rows,
    }
    out_path = pathlib.Path(__file__).resolve().parent / "BENCH_incremental.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"    wrote {out_path}")


def _assert_remote_path_exercised() -> None:
    """CI guard: the socket transport must still carry real fixpoints.

    Boots one :class:`~repro.serve.shard.ShardDaemon` on loopback,
    installs the catalog wrapper through the framed RPC protocol and
    streams a page through ``RemoteShardExecutor``.  If the daemon's own
    ``pages`` counter stays at zero, the remote path has silently
    stopped being exercised (e.g. a refactor made the executor fall back
    to local shards) -- the cluster benchmarks and chaos suite would
    then be measuring the wrong stack, so the smoke job must fail
    loudly.
    """
    import asyncio

    from repro.serve import (
        DaemonThread,
        RemoteShardExecutor,
        ShardDaemon,
        WrapperRegistry,
    )

    registry = WrapperRegistry()
    registry.register(
        "catalog", CATALOG_WRAPPER, kind="elog",
        patterns=["record", "name", "price"],
    )
    entry = registry.get("catalog")
    daemon = DaemonThread(ShardDaemon("127.0.0.1"))
    host, port = daemon.start()
    try:
        async def probe():
            executor = RemoteShardExecutor([f"{host}:{port}"])
            try:
                for future in executor.ensure_installed(
                    entry.cache_key, entry.wrapper
                ):
                    await future
                page = catalog_page(seed=7, items=3)
                return await executor.submit(
                    0, entry.cache_key, [(page, None)]
                )
            finally:
                await executor.aclose()

        results = asyncio.run(probe())
        pages = daemon.daemon.stats["pages"]
        if (
            RemoteShardExecutor.mode != "remote"
            or pages < 1
            or not results.get("pages")
        ):
            raise SystemExit(
                "remote shard path no longer exercised: daemon served "
                f"{pages} pages and the executor returned {results!r}"
            )
    finally:
        daemon.stop()
    print("    remote-path guard: framed RPC wrap -> daemon fixpoint ok")


def _assert_tracing_overhead_bounded() -> None:
    """CI guard: request tracing must stay within its <= 5% budget.

    Runs the ``tracing_overhead`` measurement from
    :mod:`benchmarks.bench_serve` (identical HTTP stacks with tracing on
    vs ``tracing=False``, interleaved min-of-N) at smoke scale.  Tracing
    is on by default in production, so a regression that makes spans
    expensive -- an allocation on the kernel hot loop, a lock on the
    request path -- taxes every request; fail the smoke job instead of
    letting it land silently.
    """
    import bench_serve

    row = bench_serve.bench_tracing_overhead(requests=32, repeat=3, shards=1)
    if row["overhead_fraction"] > 0.05:
        raise SystemExit(
            "tracing overhead above the 5% budget: "
            f"{row['overhead_fraction'] * 100:+.1f}% "
            f"({row['untraced_rps']} req/s untraced vs "
            f"{row['traced_rps']} req/s traced)"
        )
    print(
        "    tracing-overhead guard: "
        f"{row['overhead_fraction'] * 100:+.1f}% <= 5% ok"
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    front_end_baseline = None
    if "--front-end-baseline" in sys.argv[1:]:
        front_end_baseline = sys.argv[sys.argv.index("--front-end-baseline") + 1]
    if "--kernel-only" in sys.argv[1:]:
        # The CI engine matrix re-runs just the kernel sweep under each
        # REPRO_VECTORIZE_PROPAGATION setting; everything else is
        # engine-independent and measured once by the main smoke job.
        report_kernel(smoke=smoke)
    elif smoke:
        report_compiled(smoke=True)
        report_kernel(smoke=True)
        report_stream(smoke=True, front_end_baseline=front_end_baseline)
        report_incremental(smoke=True)
        report_delta(smoke=True)
        _assert_remote_path_exercised()
        _assert_tracing_overhead_bounded()
    else:
        report_t42()
        report_p35()
        report_p37()
        report_ex421()
        report_t52()
        report_c64()
        report_msoblowup()
        report_delta()
        report_compiled()
        report_kernel()
        report_stream(front_end_baseline=front_end_baseline)
        report_incremental()
        _assert_remote_path_exercised()
        _assert_tracing_overhead_bounded()
