"""The constraint graph of an extended BGP (Def. 9 of the paper).

Nodes are the query variables; there is a directed edge ``x -> y`` per
clause ``x <|_k y`` whose two sides are both variables. The classes the
paper's theory distinguishes:

* *acyclic* constraints (Thm. 2: topological ordering is wco);
* *cyclic* constraints — an individual constraint is cyclic iff its edge
  lies on a cycle, i.e. both endpoints share a strongly connected
  component;
* *single 2-cyclic* graphs (Def. 12, Thm. 3): at most one cycle, of the
  form ``{x <|_k y, y <|_k x}``, and neither ``x`` nor ``y`` has an
  outgoing edge to a third variable.

:meth:`ConstraintGraph.constraint_class` names the class; it is the one
place that says which theorem applies.
"""

from __future__ import annotations

from repro.query.model import ExtendedBGP, SimClause, Var, is_var


class ConstraintGraph:
    """Directed graph over query variables induced by ``<|_k`` clauses."""

    def __init__(self, query: ExtendedBGP) -> None:
        self._query = query
        self._nodes: tuple[Var, ...] = query.variables
        self._edges: list[tuple[Var, Var, SimClause]] = []
        for clause in query.clauses:
            if is_var(clause.x) and is_var(clause.y):
                self._edges.append((clause.x, clause.y, clause))
        self._scc_of = self._strongly_connected_components()

    @property
    def nodes(self) -> tuple[Var, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[tuple[Var, Var], ...]:
        return tuple((x, y) for x, y, _c in self._edges)

    # ------------------------------------------------------------------
    # SCCs (iterative Tarjan) and derived classifications
    # ------------------------------------------------------------------
    def _strongly_connected_components(self) -> dict[Var, int]:
        adjacency: dict[Var, list[Var]] = {v: [] for v in self._nodes}
        for x, y, _c in self._edges:
            adjacency[x].append(y)
        index_of: dict[Var, int] = {}
        lowlink: dict[Var, int] = {}
        on_stack: set[Var] = set()
        stack: list[Var] = []
        scc_of: dict[Var, int] = {}
        counter = {"index": 0, "scc": 0}

        def strongconnect(root: Var) -> None:
            # Iterative Tarjan: frames of (node, iterator position).
            work = [(root, 0)]
            while work:
                node, child_pos = work.pop()
                if child_pos == 0:
                    index_of[node] = lowlink[node] = counter["index"]
                    counter["index"] += 1
                    stack.append(node)
                    on_stack.add(node)
                recursed = False
                children = adjacency[node]
                for position in range(child_pos, len(children)):
                    child = children[position]
                    if child not in index_of:
                        work.append((node, position + 1))
                        work.append((child, 0))
                        recursed = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[child])
                if recursed:
                    continue
                if lowlink[node] == index_of[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc_of[member] = counter["scc"]
                        if member == node:
                            break
                    counter["scc"] += 1
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for node in self._nodes:
            if node not in index_of:
                strongconnect(node)
        return scc_of

    def scc_id(self, var: Var) -> int:
        return self._scc_of[var]

    def is_cyclic_constraint(self, clause: SimClause) -> bool:
        """Whether a clause's edge participates in a cycle (Def. 9).

        Constant-sided clauses never do. An edge ``x -> y`` lies on a
        cycle iff ``x`` and ``y`` share an SCC.
        """
        if not (is_var(clause.x) and is_var(clause.y)):
            return False
        return self._scc_of[clause.x] == self._scc_of[clause.y]

    def cyclic_constraints(self) -> tuple[SimClause, ...]:
        return tuple(
            c for _x, _y, c in self._edges if self.is_cyclic_constraint(c)
        )

    def is_acyclic(self) -> bool:
        """Whether the constraint graph has no cycle (Def. 9)."""
        return not self.cyclic_constraints()

    def is_single_2_cyclic(self) -> bool:
        """Def. 12: at most one cycle, formed by ``{x <|_k y, y <|_k x}``,
        with no further outgoing edge from ``x`` or ``y`` to a third
        variable."""
        cyclic = self.cyclic_constraints()
        if not cyclic:
            return True
        if len(cyclic) != 2:
            return False
        first, second = cyclic
        if not (first.x == second.y and first.y == second.x):
            return False
        pair = {first.x, first.y}
        for x, y, _c in self._edges:
            if x in pair and y not in pair:
                return False
        return True

    def constraint_class(self) -> str:
        """Which premise holds: ``acyclic`` (Thm. 2), ``single-2-cyclic``
        (Def. 12, Thm. 3) or ``general-cyclic`` (neither theorem)."""
        if self.is_acyclic():
            return "acyclic"
        if self.is_single_2_cyclic():
            return "single-2-cyclic"
        return "general-cyclic"

    def topological_order(self) -> tuple[Var, ...]:
        """A topological order of the variables (Kahn); requires
        acyclicity, else raises ``ValueError``."""
        indeg = {v: 0 for v in self._nodes}
        for _x, y, _c in self._edges:
            indeg[y] += 1
        frontier = [v for v in self._nodes if indeg[v] == 0]
        order: list[Var] = []
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for x, y, _c in self._edges:
                if x == node:
                    indeg[y] -= 1
                    if indeg[y] == 0:
                        frontier.append(y)
        if len(order) != len(self._nodes):
            raise ValueError("constraint graph has a cycle")
        return tuple(order)

    def minimal_variables(self, unbound: set[Var] | None = None) -> tuple[Var, ...]:
        """The C-minimal variables (Def. 11) among ``unbound``.

        A node is C-minimal iff no path reaches it, which (paths needing
        a final edge) reduces to having no incoming edge between unbound
        variables.
        """
        pool = set(self._nodes) if unbound is None else unbound
        targets = {
            y for x, y, _c in self._edges if x in pool and y in pool
        }
        return tuple(v for v in self._nodes if v in pool and v not in targets)
