"""The linear-time propagation kernel and its columnar tree snapshots.

Covers :mod:`repro.datalog.kernel` (cross-checked against the semi-naive,
naive, grounding and compiled-plan engines on randomized programs and
trees), :mod:`repro.trees.snapshot`, the kernel routing of
``evaluate(method="auto")``, batch wrapping through the kernel, and the
caching/arity satellites on :mod:`repro.structures`.
"""

import random

import pytest

from repro.datalog.engine import compile_program, evaluate
from repro.datalog.kernel import compile_kernel, evaluate_kernel, kernel_applicable
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.seminaive import evaluate_seminaive
from repro.errors import DatalogError
from repro.structures import GenericStructure, IndexedStructure, as_indexed
from repro.trees import parse_sexpr
from repro.trees.generate import random_binary_tree, random_tree
from repro.trees.ranked import RankedStructure
from repro.trees.unranked import UnrankedStructure

from tests.helpers_shared import random_structures


class TestTreeSnapshot:
    def test_columns_match_relations(self):
        structure = UnrankedStructure(parse_sexpr("a(b(c, d), e)"))
        snap = structure.snapshot()
        assert snap.size == structure.size
        assert list(snap.parent) == [-1, 0, 1, 1, 0]
        assert list(snap.firstchild) == [1, 2, -1, -1, -1]
        assert list(snap.nextsibling) == [-1, 4, 3, -1, -1]
        assert list(snap.prevsibling) == [-1, -1, -1, 2, 1]
        assert list(snap.lastchild) == [4, 3, -1, -1, -1]
        for name in ("firstchild", "nextsibling", "lastchild"):
            forward = snap.forward_map(name)
            expected = dict(structure.relation(name))
            assert {
                i: v for i, v in enumerate(forward) if v >= 0
            } == expected, name

    def test_unary_masks_match_relations(self):
        structure = UnrankedStructure(parse_sexpr("a(b(a), a, c)"))
        snap = structure.snapshot()
        for name in (
            "dom", "root", "leaf", "lastsibling", "firstsibling",
            "label_a", "label_b", "label_zzz", "notlabel_a",
        ):
            mask = snap.unary_mask(name)
            expected = {v for (v,) in structure.relation(name)}
            assert {i for i in range(snap.size) if mask[i]} == expected, name
            assert set(snap.unary_nodes(name)) == expected, name

    def test_child_backward_is_parent(self):
        structure = UnrankedStructure(parse_sexpr("a(b(c), d)"))
        snap = structure.snapshot()
        assert snap.backward_map("child") == snap.parent
        assert snap.forward_map("child") is None
        assert snap.branches_forward("child")

    def test_snapshot_cached_on_structure_and_index(self):
        structure = UnrankedStructure(parse_sexpr("a(b)"))
        assert structure.snapshot() is structure.snapshot()
        indexed = as_indexed(structure)
        assert indexed.snapshot() is structure.snapshot()
        assert indexed.snapshot() is indexed.snapshot()

    def test_generic_structures_have_no_snapshot(self):
        indexed = as_indexed(GenericStructure(2, {"u": [0]}))
        assert indexed.snapshot() is None

    def test_ranked_schema_gating(self):
        tree = parse_sexpr("f(c, f(c, c))")
        snap = RankedStructure(tree, max_rank=2).snapshot()
        assert snap.schema == "ranked"
        forward = snap.forward_map("child2")
        assert {i: v for i, v in enumerate(forward) if v >= 0} == {0: 2, 2: 4}
        backward = snap.backward_map("child1")
        assert {i: v for i, v in enumerate(backward) if v >= 0} == {1: 0, 3: 2}
        # Out-of-schema names resolve to nothing; generic ``child`` is the
        # union of the child_k bijections (backward = parent, forward by
        # enumeration) on every schema.
        assert snap.forward_map("child3") is None
        assert snap.backward_map("child") == snap.parent
        assert snap.unary_mask("lastsibling") is None
        assert snap.branches_forward("child")


def _random_kernel_program(rng, labels=("a", "b")):
    """A random monadic program over the tree signature with recursion,
    ``child`` traversals, intersections and disconnected rules.

    ``labels`` supplies the two label names mentioned by the rules, so the
    same generator works over s-expression trees (``a``/``b``) and HTML
    tag soup (``li``/``b``/...).
    """
    la, lb = labels[0], labels[1]
    shapes = [
        "p{i}(x) :- {s}(x), label_%s(x)." % lb,
        "p{i}(y) :- {s}(x), firstchild(x, y).",
        "p{i}(y) :- {s}(x), nextsibling(x, y).",
        "p{i}(x) :- {s}(y), nextsibling(x, y).",
        "p{i}(x) :- {s}(x), {o}(x).",
        "p{i}(x) :- leaf(x), {s}(y).",
        "p{i}(x) :- child(x, y), {s}(y).",
        "p{i}(y) :- {s}(x), child(x, y).",
        "p{i}(x) :- lastchild(x, y), {s}(y), label_%s(x)." % la,
        "p{i}(x) :- child(x, y), child(x, z), nextsibling(y, z), {s}(z).",
        "p{i}(x) :- firstsibling(x), {s}(x).",
        "p{i}(x) :- notlabel_%s(x), {s}(x)." % lb,
    ]
    rules = ["p0(x) :- label_%s(x)." % la]
    preds = ["p0"]
    for i in range(1, rng.randint(2, 8)):
        shape = rng.choice(shapes)
        rules.append(
            shape.format(i=i, s=rng.choice(preds), o=rng.choice(preds))
        )
        preds.append(f"p{i}")
    rules.append(f"p0(y) :- {preds[-1]}(x), firstchild(x, y).")
    return parse_program("\n".join(rules), query=preds[-1])


class TestKernelEquivalence:
    """Randomized property tests: kernel == seminaive == ground ==
    compiled-plan on random trees x random monadic programs."""

    def test_unranked_programs_all_strategies_agree(self):
        rng = random.Random(20260729)
        kernel_hits = 0
        for _ in range(40):
            program = _random_kernel_program(rng)
            tree = random_tree(rng, rng.randint(1, 16), labels=("a", "b"))
            structure = as_indexed(UnrankedStructure(tree))
            compiled = compile_program(program)
            reference = evaluate_seminaive(program, structure)
            auto = compiled.run(structure)
            if auto.method == "kernel":
                kernel_hits += 1
            assert auto.relations == reference, f"auto on {tree}\n{program}"
            assert (
                compiled.run(structure, method="seminaive").relations == reference
            )
            if compiled.grounding_applicable(structure):
                ground = compiled.run(structure, method="ground").relations
                for pred, tuples in reference.items():
                    assert ground.get(pred, set()) == tuples
        # The generator stays inside the kernel fragment.
        assert kernel_hits == 40

    def test_tmnf_shaped_programs_agree(self):
        # Rules already in the three TMNF shapes of Definition 5.1.
        program = parse_program(
            """
            p0(x) :- label_a(x).
            p1(x) :- p0(x0), firstchild(x0, x).
            p2(x) :- p1(x0), nextsibling(x0, x).
            p2(x) :- p1(x).
            p3(x) :- p2(x), p0(x).
            p0(x) :- p3(x0), firstchild(x, x0).
            """,
            query="p3",
        )
        kernel = compile_kernel(program)
        assert kernel is not None and kernel.route == "direct"
        for _, structure in random_structures(seed=97, count=10):
            reference = evaluate_seminaive(program, structure)
            assert kernel.run(structure) == reference

    def test_ranked_programs_agree(self):
        rng = random.Random(55)
        program = parse_program(
            """
            q(x) :- label_f(x).
            q(y) :- q(x), child1(x, y).
            r(x) :- q(x), child2(x, y), leaf(y).
            r(x) :- r(y), child1(x, y), root(x).
            """,
            query="r",
        )
        for _ in range(15):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14)), max_rank=2
            )
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference

    def test_branchy_rules_take_tmnf_route_and_agree(self):
        rng = random.Random(7)
        program = parse_program(
            """
            q(x) :- label_b(x).
            p(x) :- q(x), child(x, y), child(y, z), label_a(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None and kernel.route == "tmnf"
        assert kernel.max_branches == 0
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_sibling_branch_through_parent_takes_tmnf_route(self):
        # Regression: a branch reached through the many-to-one ``parent``
        # map enumerates a shared parent's children once per anchored
        # sibling -- quadratic on star trees.  Such lowerings must be
        # rejected as superlinear and re-lowered through TMNF.
        rng = random.Random(13)
        program = parse_program(
            "p(x) :- child(x, y), child(x, z), label_a(y), label_b(z).",
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        assert kernel.route == "tmnf"
        assert not kernel.superlinear
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_generic_child_over_ranked_trees_stays_in_kernel(self):
        # Satellite (PR 5): one-branch generic-``child`` programs bind
        # directly over ranked snapshots (backward = parent, forward by
        # enumeration), with the union-of-child_k semantics.
        rng = random.Random(91)
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(y) :- q(x), child(x, y).
            p(x) :- p(y), child(x, y), label_f(x).
            """,
            query="p",
        )
        for _ in range(15):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14), "f", "c"),
                max_rank=2,
            )
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference

    def test_branchy_ranked_programs_take_ranked_tmnf_route(self):
        # Satellite (PR 5): a branching-heavy program over ranked trees
        # re-lowers through the *ranked* TMNF normalization (generic
        # ``child`` expanded into child1|child2 per Lemma 5.4) instead of
        # falling back to the general engine.
        rng = random.Random(23)
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(x) :- q(x), child(x, y), child(y, z), label_c(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        ranked_variant = kernel._ranked_variant(2)
        assert ranked_variant is not None
        assert ranked_variant.route == "tmnf-ranked"
        assert ranked_variant.max_branches == 0
        assert ranked_variant.required_rank == 2
        for _ in range(20):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14), "f", "c"),
                max_rank=2,
            )
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference
        # The same compiled kernel still rides the unranked TMNF variant
        # over unranked documents.
        tree = random_tree(rng, 12, labels=("f", "c"))
        structure = UnrankedStructure(tree)
        assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_ranked_variant_is_rank_gated(self):
        # A child1|child2 expansion compiled for rank 2 must never bind a
        # rank-3 snapshot (third children would be invisible).
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(x) :- q(x), child(x, y), child(y, z), label_c(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        variant = kernel._ranked_variant(2)
        assert variant is not None and variant.required_rank == 2
        tree = parse_sexpr("f(c, c, f(c, c, c))")
        structure = RankedStructure(tree, max_rank=3)
        reference = evaluate_seminaive(program, structure)
        result = evaluate(program, structure)
        assert result.relations == reference
        assert kernel._ranked_variant(3) is not None

    def test_zero_ary_heads_and_declared_predicates(self):
        base = parse_program(
            """
            seen :- label_b(x).
            p(x) :- seen, leaf(x).
            q(x) :- p(x), label_a(y).
            """,
            query="q",
        )
        program = Program(base.rules, query="q", declared=("ghost",))
        for _, structure in random_structures(seed=3, count=10):
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference
            assert auto.relations["ghost"] == set()


class TestKernelRoutingAndFallback:
    def test_applicability_checks(self):
        program = parse_program("p(x) :- label_a(x).", query="p")
        tree_structure = UnrankedStructure(parse_sexpr("a(b)"))
        generic = GenericStructure(2, {"label_a": [0]})
        assert kernel_applicable(program, tree_structure)
        assert not kernel_applicable(program, generic)
        non_monadic = parse_program("t(x, y) :- firstchild(x, y).")
        assert compile_kernel(non_monadic) is None
        assert not kernel_applicable(non_monadic, tree_structure)

    def test_auto_falls_back_cleanly_same_results(self):
        # Same program, tree vs generic structure: auto picks the kernel on
        # the tree and silently falls back elsewhere, with equal answers.
        program = parse_program(
            "p(x) :- label_a(x).\np(y) :- p(x), firstchild(x, y).", query="p"
        )
        tree = UnrankedStructure(parse_sexpr("a(b, a(b))"))
        generic = GenericStructure(
            4,
            {
                "label_a": [0, 2],
                "firstchild": [(0, 1), (2, 3)],
            },
        )
        on_tree = evaluate(program, tree)
        on_generic = evaluate(program, generic)
        assert on_tree.method == "kernel"
        assert on_generic.method != "kernel"
        assert on_tree.query_result() == on_generic.query_result() == {0, 1, 2, 3}

    def test_body_constants_anchor_instead_of_falling_back(self):
        # Satellite (PR 3): body constants pin a slot to one node and the
        # rule is anchored there, staying inside the kernel fragment.
        program = parse_program("p(x) :- firstchild(0, x).", query="p")
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        kernel = compile_kernel(program)
        assert kernel is not None
        result = evaluate(program, structure)
        assert result.method == "kernel"
        assert result.query_result() == {1}

    def test_head_constants_still_fall_back(self):
        program = parse_program("p(0) :- label_a(x).", query="p")
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        assert compile_kernel(program) is None
        result = evaluate(program, structure)
        assert result.method != "kernel"
        assert result.relations["p"] == {(0,)}

    def test_out_of_domain_constants_never_fire(self):
        program = parse_program("p(x) :- firstchild(9, x).", query="p")
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        result = evaluate(program, structure)
        assert result.method == "kernel"
        assert result.query_result() == set()

    def test_constant_programs_match_seminaive(self):
        rng = random.Random(42)
        shapes = [
            "q{i}(x) :- {s}(x), firstchild({c}, x).",
            "q{i}(x) :- {s}({c}), child({c}, x).",
            "q{i}(x) :- {s}({c}), label_b(x).",
            "q{i}(x) :- {s}(x), {o}({c}).",
            "q{i}(x) :- {s}(x), child(x, y), nextsibling(y, {c}).",
            "q{i}(x) :- label_a({c}), {s}(x).",
            "q{i}(y) :- {s}(x), child(x, y).",
        ]
        hits = 0
        for _ in range(60):
            rules = ["q0(x) :- label_a(x)."]
            preds = ["q0"]
            for i in range(1, rng.randint(2, 6)):
                rules.append(
                    rng.choice(shapes).format(
                        i=i,
                        s=rng.choice(preds),
                        o=rng.choice(preds),
                        c=rng.randint(0, 8),
                    )
                )
                preds.append(f"q{i}")
            program = parse_program("\n".join(rules), query=preds[-1])
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            reference = evaluate_seminaive(program, structure)
            kernel = compile_kernel(program)
            assert kernel is not None, program
            result = kernel.try_run(structure)
            assert result is not None
            hits += 1
            assert result == reference, f"{program}\non {tree}"
        assert hits == 60

    def test_constant_gated_trigger_blocks(self):
        # ``seen(1)`` in a body: the rule replays from its anchor exactly
        # when ``seen`` fires at node 1 (the gate), not on every fact.
        program = parse_program(
            """
            seen(x) :- label_b(x).
            p(x) :- seen(1), firstchild(x, y), label_b(y).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        rng = random.Random(7)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 12), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_explicit_kernel_method_raises_when_inapplicable(self):
        program = parse_program("p(x) :- label_a(x).", query="p")
        generic = GenericStructure(2, {"label_a": [0]})
        with pytest.raises(DatalogError):
            compile_program(program).run(generic, method="kernel")
        with pytest.raises(DatalogError):
            evaluate_kernel(
                parse_program("t(x, y) :- firstchild(x, y)."), generic
            )

    def test_single_node_and_empty_label_edge_cases(self):
        program = parse_program(
            "p(x) :- root(x), leaf(x), notlabel_b(x).", query="p"
        )
        result = evaluate(program, UnrankedStructure(parse_sexpr("a")))
        assert result.method == "kernel"
        assert result.query_result() == {0}
        missing = parse_program("p(x) :- label_nothere(x).", query="p")
        result = evaluate(missing, UnrankedStructure(parse_sexpr("a(b)")))
        assert result.method == "kernel"
        assert result.query_result() == set()


class TestKernelBatchParity:
    """Batch wrapping APIs route through the kernel with identical output."""

    from repro.workloads import CATALOG_WRAPPER as _ELOG

    def _trees(self):
        from repro.html import parse_html
        from repro.workloads import catalog_page

        return [
            parse_html(catalog_page(seed=seed, items=items))
            for seed, items in ((1, 3), (2, 6), (3, 1))
        ]

    def test_wrapper_uses_kernel_and_matches_seminaive(self):
        from repro.elog.parser import parse_elog
        from repro.elog.translate import compile_elog

        program = parse_elog(self._ELOG, query="price")
        compiled, run_method = compile_elog(program)
        assert run_method == "auto"
        for tree in self._trees():
            structure = as_indexed(UnrankedStructure(tree))
            auto = compiled.run(structure, method=run_method)
            assert auto.method == "kernel"
            explicit = compiled.run(structure, method="seminaive")
            assert auto.relations == explicit.relations

    def test_wrap_many_parity_through_kernel(self):
        from repro.elog.parser import parse_elog
        from repro.wrap.extraction import Wrapper

        program = parse_elog(self._ELOG, query="price")
        wrapper = (
            Wrapper()
            .add_elog("price", program)
            .add_elog("name", program, pattern="name")
        )
        trees = self._trees()
        batch = wrapper.wrap_many(trees)
        singles = [wrapper.wrap(tree) for tree in trees]
        assert [out.to_sexpr() for out in batch] == [
            out.to_sexpr() for out in singles
        ]
        extracted = wrapper.extract_many(trees)
        for tree, row in zip(trees, extracted):
            # The kernel-backed batch extraction matches a direct
            # interpreted evaluation of the same translation.
            from repro.elog.translate import elog_to_datalog

            datalog = elog_to_datalog(program)
            structure = UnrankedStructure(tree)
            reference = evaluate_seminaive(datalog, structure)
            assert row["price"] == {v for (v,) in reference["price"]}
            assert row["name"] == {v for (v,) in reference["name"]}


class TestVectorizedSweeps:
    """The byte-mask batch path for seed-rule enumeration (satellite):
    vectorized and scalar sweeps must derive identical fact sets."""

    def test_seed_rules_are_vectorized(self):
        program = parse_program(
            "p(x) :- label_a(x), leaf(x), notlabel_b(x).", query="p"
        )
        kernel = compile_kernel(program)
        structure = UnrankedStructure(parse_sexpr("a(a, b(a), c)"))
        bound = kernel._bind(structure)
        assert bound is not None
        _, _, sweeps, _ = bound
        assert any(entry[-1] is not None for entry in sweeps)
        assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_vector_and_scalar_paths_agree(self, monkeypatch):
        import repro.datalog.kernel as kernel_mod

        rng = random.Random(77)
        for _ in range(25):
            program = _random_kernel_program(rng)
            tree = random_tree(rng, rng.randint(1, 20), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            kernel = compile_kernel(program)
            assert kernel is not None
            monkeypatch.setattr(kernel_mod, "VECTORIZE_SWEEPS", True)
            vectorized = kernel.run(structure)
            monkeypatch.setattr(kernel_mod, "VECTORIZE_SWEEPS", False)
            scalar = kernel.run(structure)
            reference = evaluate_seminaive(program, structure)
            assert vectorized == scalar == reference, f"{program}\non {tree}"

    def test_empty_conjunction_short_circuits(self):
        # label_nothere yields an all-zero mask; the vector path must
        # derive nothing (and not crash on the zero integer).
        program = parse_program(
            "p(x) :- label_nothere(x), leaf(x).", query="p"
        )
        result = evaluate(program, UnrankedStructure(parse_sexpr("a(b)")))
        assert result.method == "kernel"
        assert result.query_result() == set()


class TestStructureSatellites:
    """Caching and arity-declaration satellites on repro.structures."""

    def test_indexed_structure_caches_facts_and_total_size(self):
        calls = {"relation": 0}

        class Counting(GenericStructure):
            def relation(self, name):
                calls["relation"] += 1
                return super().relation(name)

        base = Counting(3, {"edge": [(0, 1)], "u": [0, 2]})
        indexed = as_indexed(base)
        first = indexed.facts()
        assert indexed.facts() is first
        assert first == {("edge", (0, 1)), ("u", (0,)), ("u", (2,))}
        size = indexed.total_size()
        calls_after_first = calls["relation"]
        assert indexed.total_size() == size == 3 + 3
        assert calls["relation"] == calls_after_first

    def test_generic_structure_declared_arities(self):
        structure = GenericStructure(
            3, {"edge": [], "u": [0]}, arities={"edge": 2}
        )
        assert structure.arity("edge") == 2
        assert structure.arity("u") == 1
        # Undeclared empty relations keep the documented default.
        assert GenericStructure(3, {"empty": []}).arity("empty") == 1

    def test_generic_structure_arity_mismatch_raises(self):
        with pytest.raises(DatalogError):
            GenericStructure(3, {"edge": [(0, 1)]}, arities={"edge": 1})
        with pytest.raises(DatalogError):
            GenericStructure(3, {}, arities={"ghost": 1})
        with pytest.raises(DatalogError):
            GenericStructure(3, {"edge": []}, arities={"edge": -1})


class TestFrontierParity:
    """Fuzz suite for the frontier-at-a-time engine (frontier big-int
    propagation == scalar worklist == seminaive == ground), across the
    direct, TMNF and ranked-TMNF routes, tag-soup documents, and the
    deep-chain shapes that punish per-node scalar propagation hardest."""

    def _both_engines(self, kernel, structure, monkeypatch):
        """Run with the frontier engine allowed, then forced off."""
        import repro.datalog.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "VECTORIZE_PROPAGATION", True)
        vectorized = kernel.run(structure)
        engine = kernel.last_engine
        monkeypatch.setattr(kernel_mod, "VECTORIZE_PROPAGATION", False)
        scalar = kernel.run(structure)
        assert kernel.last_engine == "worklist"
        return vectorized, scalar, engine

    def test_random_programs_random_trees_all_engines_agree(self, monkeypatch):
        rng = random.Random(20260807)
        frontier_runs = 0
        for _ in range(60):
            program = _random_kernel_program(rng)
            kernel = compile_kernel(program)
            assert kernel is not None
            tree = random_tree(rng, rng.randint(1, 24), labels=("a", "b"))
            structure = as_indexed(UnrankedStructure(tree))
            vectorized, scalar, engine = self._both_engines(
                kernel, structure, monkeypatch
            )
            reference = evaluate_seminaive(program, structure)
            assert vectorized == scalar == reference, f"{program}\non {tree}"
            if engine == "frontier":
                frontier_runs += 1
            compiled = compile_program(program)
            if compiled.grounding_applicable(structure):
                ground = compiled.run(structure, method="ground").relations
                for pred, tuples in reference.items():
                    assert ground.get(pred, set()) == tuples
        # The generator must actually exercise the vector engine.
        assert frontier_runs >= 10

    def test_tag_soup_documents_agree(self, monkeypatch):
        from repro.html import parse_html
        from tests.test_stream import soup

        rng = random.Random(404)
        nonempty = 0
        for _ in range(40):
            program = _random_kernel_program(rng, labels=("li", "b"))
            kernel = compile_kernel(program)
            assert kernel is not None
            structure = UnrankedStructure(parse_html(soup(rng, pieces=40)))
            vectorized, scalar, _ = self._both_engines(
                kernel, structure, monkeypatch
            )
            reference = evaluate_seminaive(program, structure)
            assert vectorized == scalar == reference
            if any(reference.values()):
                nonempty += 1
        assert nonempty >= 10  # the fuzz actually derived facts

    def test_deep_chain_trees_agree_and_vectorize(self, monkeypatch):
        import repro.datalog.kernel as kernel_mod
        from repro.trees.generate import chain_tree

        rng = random.Random(11)
        frontier_runs = 0
        for _ in range(20):
            program = _random_kernel_program(rng)
            kernel = compile_kernel(program)
            assert kernel is not None
            # All-"a" chains: label_a holds everywhere, so recursion walks
            # the full depth (the string-successor worst case).
            structure = UnrankedStructure(chain_tree(rng.randint(1, 120), "a"))
            vectorized, scalar, engine = self._both_engines(
                kernel, structure, monkeypatch
            )
            assert vectorized == scalar == evaluate_seminaive(program, structure)
            if engine == "sweep":
                # Forward- or backward-only recursion takes the sweep by
                # default; the frontier engine must agree on it too.
                monkeypatch.setattr(kernel_mod, "VECTORIZE_PROPAGATION", True)
                frontier = kernel._run_vector(kernel._bind(structure))
                assert frontier is not None and frontier[0] == vectorized
                engine = kernel.last_engine
            if engine and engine.startswith("frontier"):
                frontier_runs += 1
        assert frontier_runs >= 5

    def test_tmnf_route_agrees(self, monkeypatch):
        rng = random.Random(77)
        program = parse_program(
            """
            q(x) :- label_b(x).
            p(x) :- q(x), child(x, y), child(y, z), label_a(z).
            p(x) :- p(y), child(x, y).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None and kernel.route == "tmnf"
        for _ in range(30):
            tree = random_tree(rng, rng.randint(1, 20), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            vectorized, scalar, _ = self._both_engines(
                kernel, structure, monkeypatch
            )
            assert vectorized == scalar == evaluate_seminaive(program, structure)

    def test_ranked_tmnf_route_agrees(self, monkeypatch):
        rng = random.Random(23)
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(x) :- q(x), child(x, y), child(y, z), label_c(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        assert kernel._ranked_variant(2).route == "tmnf-ranked"
        for _ in range(20):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14), "f", "c"),
                max_rank=2,
            )
            vectorized, scalar, _ = self._both_engines(
                kernel, structure, monkeypatch
            )
            assert vectorized == scalar == evaluate_seminaive(program, structure)

    def test_constant_anchored_blocks_fall_back_to_worklist(self):
        # ``ccheck``/``cbind`` blocks are outside the vector fragment by
        # design: the whole variant must fall back to the scalar worklist
        # even with vectorization enabled (the CI smoke job keys on this).
        import repro.datalog.kernel as kernel_mod

        assert kernel_mod.VECTORIZE_PROPAGATION  # default: enabled
        program = parse_program("p(x) :- firstchild(0, x).", query="p")
        kernel = compile_kernel(program)
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        assert kernel.run(structure)["p"] == {(1,)}
        assert kernel.last_engine == "worklist"

    def test_engine_is_reported_through_the_plan_layer(self):
        program = parse_program("p(y) :- label_a(x), firstchild(x, y).", query="p")
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        result = compile_program(program).run(structure)
        assert result.method == "kernel"
        assert result.engine == "frontier"
        seminaive = compile_program(program).run(structure, method="seminaive")
        assert seminaive.engine is None


#: Single-hop bodies by direction: forward hops move facts to later
#: preorder ids, backward hops (the inverses) to earlier ones.
_HOPS = {
    "forward": (
        "firstchild(x0, x)", "nextsibling(x0, x)", "lastchild(x0, x)",
        "child(x0, x)",
    ),
    "backward": (
        "firstchild(x, x0)", "nextsibling(x, x0)", "lastchild(x, x0)",
        "child(x, x0)",
    ),
}


def _random_sweep_program(rng, groups, labels=("a", "b")):
    """A random TMNF-shaped program: one recursive stratum per group.

    Each entry of ``groups`` is the tuple of hop directions its stratum
    may use.  A group is a chain ``p0 <- p1 <- ... <- pk`` closed by a hop
    back into ``p0``, so every rule of the group sits in one strongly
    connected stratum; a two-direction group forces one hop of each
    direction onto that cycle.  Group ``g`` is seeded from group
    ``g - 1``'s last predicate, so the strata run in order.
    """
    la, lb = labels
    guards = (
        f"label_{la}", f"label_{lb}", f"notlabel_{lb}", "leaf", "root",
        "firstsibling", "lastsibling", "dom",
    )
    rules = []
    previous = None
    for g, directions in enumerate(groups):
        preds = [f"g{g}p0"]
        if previous is None:
            rules.append(f"g{g}p0(x) :- label_{la}(x).")
        else:
            rules.append(f"g{g}p0(x) :- {previous}(x), {rng.choice(guards)}(x).")
        forced = list(directions) if len(directions) > 1 else []
        for i in range(1, rng.randint(1, 5) + len(forced) + 1):
            head, s = f"g{g}p{i}", preds[-1]
            kind = forced.pop() if forced else rng.choice(("local", "local2", "hop", "hop"))
            if kind == "local":
                rules.append(f"{head}(x) :- {s}(x), {rng.choice(guards)}(x).")
            elif kind == "local2":
                rules.append(f"{head}(x) :- {s}(x), {rng.choice(preds)}(x).")
            else:
                direction = kind if kind in _HOPS else rng.choice(directions)
                guard = rng.choice(("",) + tuple(f", {q}(x0)" for q in guards))
                hop = rng.choice(_HOPS[direction])
                rules.append(f"{head}(x) :- {s}(x0){guard}, {hop}.")
            preds.append(head)
        closing = rng.choice(_HOPS[directions[0]])
        rules.append(f"g{g}p0(x) :- {preds[-1]}(x0), {closing}.")
        previous = preds[-1]
    # Rule order must not matter: shuffled, a node-local closure needs
    # several rounds over the local rules.
    rng.shuffle(rules)
    return parse_program("\n".join(rules), query=previous)


def _fan_tree(width):
    from repro.trees.node import Node

    root = Node("a")
    for i in range(width):
        root.new_child("ab"[i % 2])
    return root


class TestSweepParity:
    """Fuzz suite for the document-order sweep: sweep == frontier ==
    worklist == seminaive on random TMNF-shaped programs (forward-only,
    backward-only, alternating strata, and mixed-direction strata, which
    must not take the sweep) over random trees, tag soup, deep chains and
    wide fans; warm re-runs from sweep-built states; and the served
    wrappers on every generator page."""

    SHAPES = {
        "forward": (("forward",),),
        "backward": (("backward",),),
        "alternating": (("forward",), ("backward",), ("forward",)),
        "mixed": (("forward", "backward"),),
    }

    def _check(self, program, structure, shape, monkeypatch):
        import repro.datalog.kernel as kernel_mod

        kernel = compile_kernel(program)
        assert kernel is not None, program
        monkeypatch.setattr(kernel_mod, "VECTORIZE_PROPAGATION", True)
        default = kernel.run(structure)
        engine = kernel.last_engine
        if shape == "mixed":
            assert engine != "sweep" and kernel._variants[0].sweep is None
            frontier = default
        else:
            assert engine == "sweep", program
            passes = 3 if shape == "alternating" else 1
            assert kernel.last_stats["rounds"] == passes
            assert kernel.last_state is not None
            out = kernel._run_vector(kernel._bind(structure))
            # ``None``: a move with no bulk form on this document (the
            # parent image of a wide fan) -- only the worklist remains.
            frontier = default if out is None else out[0]
            if out is not None:
                assert kernel.last_engine.startswith("frontier")
        monkeypatch.setattr(kernel_mod, "VECTORIZE_PROPAGATION", False)
        scalar = kernel.run(structure)
        assert kernel.last_engine == "worklist"
        # The compiled semi-naive plan: its indexed joins keep the
        # 2,500-round sibling recursions over a wide fan to seconds.
        reference = compile_program(program).run(
            as_indexed(structure), method="seminaive"
        ).relations
        assert default == frontier == scalar == reference, f"{program}"
        return reference

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_random_trees(self, shape, monkeypatch):
        rng = random.Random(f"sweep-{shape}")
        derived = 0
        for _ in range(40):
            program = _random_sweep_program(rng, self.SHAPES[shape])
            tree = random_tree(rng, rng.randint(1, 30), labels=("a", "b"))
            reference = self._check(
                program, UnrankedStructure(tree), shape, monkeypatch
            )
            derived += any(reference.values())
        assert derived >= 20  # the fuzz actually derives facts

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_tag_soup(self, shape, monkeypatch):
        from repro.html import parse_html
        from tests.test_stream import soup

        rng = random.Random(f"soup-{shape}")
        for _ in range(20):
            program = _random_sweep_program(
                rng, self.SHAPES[shape], labels=("li", "p")
            )
            structure = UnrankedStructure(parse_html(soup(rng, pieces=40)))
            self._check(program, structure, shape, monkeypatch)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_deep_chains_and_wide_fans(self, shape, monkeypatch):
        from repro.trees.generate import chain_tree

        rng = random.Random(f"big-{shape}")
        # Sibling recursion over the fan takes the semi-naive oracle
        # thousands of rounds, so the fan gets one program per shape.
        for tree, programs in ((chain_tree(2000, "a"), 2), (_fan_tree(5000), 1)):
            structure = UnrankedStructure(tree)
            for _ in range(programs):
                program = _random_sweep_program(rng, self.SHAPES[shape])
                self._check(program, structure, shape, monkeypatch)

    def test_warm_runs_from_sweep_state_match_cold(self):
        import re

        from repro.elog.parser import parse_elog
        from repro.elog.translate import elog_to_datalog
        from repro.workloads import FORUM_WRAPPER, forum_page
        from repro.wrap.document import Document

        compiled = compile_program(
            elog_to_datalog(parse_elog(FORUM_WRAPPER, query="comment"))
        )
        rng = random.Random(1607)
        warm_runs = 0
        for seed in range(6):
            page = forum_page(seed=seed, threads=3, depth=12)
            doc = as_indexed(Document.from_html(page))
            cold, state, _ = compiled.run_incremental(doc, None)
            assert cold.engine == "sweep" and state is not None
            for _ in range(4):
                t, d = rng.randrange(3), rng.randrange(12)
                edit = rng.choice(("text", "drop_body", "new_thread"))
                if edit == "text":
                    page = page.replace(f"Comment {t}.{d} ", f"Comment {t}.{d} (edit) ", 1)
                elif edit == "drop_body":
                    page = re.sub(rf"<p>Comment {t}\.{d} [^<]*</p>", "", page, count=1)
                else:
                    page = page.replace(
                        '<ul class="threads">',
                        '<ul class="threads"><li class="comment"><p>new</p></li>',
                        1,
                    )
                doc = as_indexed(Document.from_html(page))
                warm, state, info = compiled.run_incremental(doc, state)
                reference = compiled.run(doc, method="seminaive")
                for pred in ("thread", "comment", "body"):
                    assert warm.unary(pred) == reference.unary(pred), (seed, edit)
                if info is not None:
                    warm_runs += 1
                    assert warm.engine.startswith("incremental")
                else:
                    assert warm.engine == "sweep"
        assert warm_runs >= 12  # most edits really ran warm

    def test_generator_pages_wrap_like_seminaive(self):
        from repro.elog.parser import parse_elog
        from repro.elog.translate import elog_to_datalog
        from repro.workloads import (
            CATALOG_WRAPPER,
            FORUM_WRAPPER,
            catalog_page,
            forum_page,
        )
        from repro.wrap.document import Document
        from repro.wrap.extraction import Wrapper
        from repro.wrap.output import build_flat_output

        cases = [
            (
                FORUM_WRAPPER, ("thread", "comment", "body"),
                [
                    forum_page(seed=seed, threads=threads, depth=depth)
                    for seed in (0, 1)
                    for threads, depth in ((1, 1), (2, 3), (3, 17), (8, 80))
                ],
                "sweep",
            ),
            (
                CATALOG_WRAPPER, ("record", "name", "price"),
                [
                    catalog_page(seed=seed, items=items, with_discounts=discounts)
                    for seed in (0, 1)
                    for items in (0, 1, 7, 64)
                    for discounts in (True, False)
                ],
                "frontier",
            ),
        ]
        for source, patterns, pages, engine in cases:
            program = parse_elog(source, query=patterns[0])
            wrapper = Wrapper()
            for pattern in patterns:
                wrapper.add_elog(pattern, program, pattern=pattern)
            compiled = compile_program(elog_to_datalog(program))
            for page, flat in zip(pages, wrapper.wrap_html_flat(pages)):
                doc = as_indexed(Document.from_html(page))
                assert compiled.run(doc).engine == engine
                reference = compiled.run(doc, method="seminaive")
                assignment = {}
                for pattern in patterns:
                    for ident in reference.unary(pattern):
                        assignment.setdefault(ident, pattern)
                expected = build_flat_output(
                    doc.base.snapshot(), assignment, root_label="result"
                )
                assert flat == expected

    def test_shared_automaton_under_concurrent_sweeps(self, monkeypatch):
        # Every sweep of one lowering interns its states into one shared
        # automaton.  Threads racing to discover states from empty must
        # still all see consistent state ids.
        import sys
        import threading

        import repro.datalog.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "VECTORIZE_PROPAGATION", True)
        rng = random.Random("threads")
        program = _random_sweep_program(rng, self.SHAPES["alternating"])
        kernel = compile_kernel(program)
        structures = [
            UnrankedStructure(random_tree(rng, rng.randint(20, 60), labels=("a", "b")))
            for _ in range(12)
        ]
        reference = [evaluate_seminaive(program, s) for s in structures]
        plan = kernel._variants[0].sweep
        failures = []

        def work(offset):
            try:
                for i in range(len(structures)):
                    j = (i + offset) % len(structures)
                    # A kernel keeps per-run stats, so each thread runs
                    # its own KernelProgram over the shared lowering.
                    own = kernel_mod.KernelProgram(program, kernel._variants)
                    if own.run(structures[j]) != reference[j]:
                        failures.append(j)
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Races happen only while states are discovered: start each
            # round from an empty automaton.
            for _ in range(8):
                plan.automaton = kernel_mod._SweepAutomaton(len(plan.hops))
                threads = [
                    threading.Thread(target=work, args=(k * 3,)) for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                automaton = plan.automaton
                assert len(automaton.ids) == len(automaton.states) > 1
                for images in automaton.images:
                    assert len(images) == len(automaton.states)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_many_states_and_automaton_rebuild(self, monkeypatch):
        # Nine ancestor-label bits give every root path its own state:
        # more than the 256 one byte per node can number, so the lanes
        # are read back node by node.  A tiny memo cap then forces the
        # shared automaton to be rebuilt between runs.
        import repro.datalog.kernel as kernel_mod
        from repro.trees.node import Node

        labels = [f"l{i}" for i in range(9)]
        rules = []
        for label in labels:
            rules.append(f"seen_{label}(x) :- label_{label}(x).")
            rules.append(f"seen_{label}(x) :- seen_{label}(x0), firstchild(x0, x).")
        program = parse_program("\n".join(rules), query="seen_l0")
        root = Node("r")
        for mask in range(1 << len(labels)):
            node = root
            for i, label in enumerate(labels):
                if mask >> i & 1:
                    node = node.new_child(label)
        structure = UnrankedStructure(root)
        kernel = compile_kernel(program)
        reference = evaluate_seminaive(program, structure)
        assert kernel.run(structure) == reference
        assert kernel.last_engine == "sweep"
        automaton = kernel._variants[0].sweep.automaton
        assert len(automaton.states) > 256
        monkeypatch.setattr(kernel_mod, "_SWEEP_MEMO_CAP", 0)
        assert kernel.run(structure) == reference
        assert kernel._variants[0].sweep.automaton is not automaton
