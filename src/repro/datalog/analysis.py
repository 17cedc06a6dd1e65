"""Static analyses of datalog rules and programs.

Implements the graph-theoretic notions used throughout Sections 4 and 5:

* the *query graph* of a rule (a multigraph on its variables with one edge
  per binary body atom, Section 5);
* *connectedness* of a rule (proof of Theorem 4.2);
* rule *acyclicity* (Section 5: the query graph is an undirected forest,
  counting parallel edges as cycles);
* *ears* (proof of Lemma 5.7: variables occurring in exactly one binary
  atom);
* the predicate dependency graph of a program and its strongly
  connected components (the strata of the compiled plans and the kernel).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, Variable


def query_graph_edges(rule: Rule) -> List[Tuple[Variable, Variable, Atom]]:
    """The multigraph edges of the rule's query graph.

    One entry per binary body atom whose two argument positions are both
    variables; each entry is ``(x, y, atom)``.  Binary atoms mentioning a
    constant contribute no edge (the variable side is anchored by the
    constant instead).
    """
    edges = []
    for atom in rule.body:
        if atom.arity == 2:
            a, b = atom.args
            if isinstance(a, Variable) and isinstance(b, Variable):
                edges.append((a, b, atom))
    return edges


def variable_components(rule: Rule) -> List[Set[Variable]]:
    """Connected components of the rule's query graph.

    Every variable of the rule is a vertex; binary atoms over two variables
    contribute edges.  Variables occurring only in unary atoms form singleton
    components (unless they co-occur with others in a binary atom).
    """
    variables = set(rule.variables())
    adjacency: Dict[Variable, Set[Variable]] = {v: set() for v in variables}
    for a, b, _ in query_graph_edges(rule):
        adjacency[a].add(b)
        adjacency[b].add(a)
    components: List[Set[Variable]] = []
    seen: Set[Variable] = set()
    for start in variables:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    component.add(w)
                    stack.append(w)
        components.append(component)
    return components


def is_connected(rule: Rule) -> bool:
    """Whether the rule's query graph is connected (proof of Theorem 4.2).

    Rules with at most one variable are trivially connected.
    """
    return len(variable_components(rule)) <= 1


def is_acyclic(rule: Rule) -> bool:
    """Whether the rule's query graph is an undirected forest (Section 5).

    Parallel edges (two binary atoms over the same variable pair) count as a
    cycle, as in the paper's footnote 10.  Self-loops (``R(x, x)``) also
    count as cycles.
    """
    edges = query_graph_edges(rule)
    parent: Dict[Variable, Variable] = {}

    def find(v: Variable) -> Variable:
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    for a, b, _ in edges:
        if a == b:
            return False
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def ears(rule: Rule) -> List[Variable]:
    """Variables occurring in exactly one binary body atom (Lemma 5.7)."""
    counts: Dict[Variable, int] = {}
    for a, b, _ in query_graph_edges(rule):
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    # Binary atoms with a constant argument still pin their variable.
    for atom in rule.body:
        if atom.arity == 2:
            vars_in = list(atom.variables())
            if len(vars_in) == 1:
                counts[vars_in[0]] = counts.get(vars_in[0], 0) + 1
    return [v for v, c in counts.items() if c == 1]


def dependency_graph(program: Program) -> Dict[str, Set[str]]:
    """Predicate dependency graph: ``head -> set of body predicates``."""
    graph: Dict[str, Set[str]] = {}
    for rule in program.rules:
        deps = graph.setdefault(rule.head.pred, set())
        for atom in rule.body:
            deps.add(atom.pred)
    return graph


def strongly_connected_components(
    graph: Dict[str, Set[str]], nodes: Set[str]
) -> List[List[str]]:
    """Tarjan's SCCs of ``graph`` restricted to ``nodes``.

    Returned in topological order of the condensation with respect to the
    ``head -> body-dependency`` edges: an SCC appears after everything it
    depends on (Tarjan emits sink components -- here, the dependency-free
    ones -- first).
    """
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def successors(node: str) -> List[str]:
        return sorted(p for p in graph.get(node, ()) if p in nodes)

    for root in sorted(nodes):
        if root in index_of:
            continue
        frames: List[Tuple[str, Iterator[str]]] = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while frames:
            node, it = frames[-1]
            descended = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    frames.append((succ, iter(successors(succ))))
                    descended = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if descended:
                continue
            frames.pop()
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if frames:
                parent = frames[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def is_recursive(program: Program) -> bool:
    """Whether some intensional predicate depends on itself (transitively)."""
    graph = dependency_graph(program)
    intensional = program.intensional_predicates()

    for start in intensional:
        stack = list(graph.get(start, ()))
        seen: Set[str] = set()
        while stack:
            p = stack.pop()
            if p == start:
                return True
            if p in seen or p not in intensional:
                continue
            seen.add(p)
            stack.extend(graph.get(p, ()))
    return False


def split_disconnected(program: Program) -> Program:
    """Split disconnected rules using propositional helper predicates.

    This is the first step of the proof of Theorem 4.2: for each connected
    component of a rule's query graph that does not contain the head
    variable, replace the component's atoms by a fresh propositional atom
    ``b`` and add the rule ``b <- <component atoms>``.

    >>> from repro.datalog.parser import parse_program
    >>> p = split_disconnected(parse_program("p(x) :- p1(x), p2(y)."))
    >>> sorted(str(r) for r in p.rules)  # doctest: +NORMALIZE_WHITESPACE
    ['__cc_0_0 :- p2(y).', 'p(x) :- p1(x), __cc_0_0.']
    """
    new_rules: List[Rule] = []
    used_names = program.predicates()
    counter = 0
    for rule_index, rule in enumerate(program.rules):
        components = variable_components(rule)
        if len(components) <= 1:
            new_rules.append(rule)
            continue
        head_vars = rule.head.variables()
        # The component holding the head variables (or an arbitrary one for
        # propositional heads).
        if head_vars:
            main = next(c for c in components if head_vars & c)
        else:
            main = components[0]
        kept_body: List[Atom] = []
        for component in components:
            if component is main:
                continue
            component_atoms = [
                a for a in rule.body if a.variables() and a.variables() <= component
            ]
            name = f"__cc_{rule_index}_{counter}"
            while name in used_names:
                counter += 1
                name = f"__cc_{rule_index}_{counter}"
            used_names.add(name)
            counter += 1
            helper = Atom(name)
            new_rules.append(Rule(helper, component_atoms))
            kept_body.append(helper)
        # Preserve original body order for the main component's atoms;
        # ground (variable-free) atoms stay with the main rule.
        main_atoms = [
            a for a in rule.body if not a.variables() or a.variables() & main
        ]
        new_rules.append(Rule(rule.head, main_atoms + kept_body))
    return Program(new_rules, query=program.query, declared=program.declared)
