"""The dataflow DAG a drained sequence is lifted into.

Nodes are deferred ops; directed edges are the data hazards that constrain
reordering:

* **RAW** — an op reads an object the edge's source wrote (true dependence);
* **WAR** — an op overwrites an object the source read (anti-dependence);
* **WAW** — an op overwrites an object the source wrote (output dependence).

Anything the edges do not order is independent and may run in any order —
or concurrently.  The optimization passes (:mod:`.passes`) rewrite this
graph by removing nodes (dead-op), contracting producer→consumer pairs
(fusion), and adding result-reuse edges (CSE); the scheduler
(:mod:`.driver`) then executes it level by level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..sequence import DeferredOp, OpSpec

__all__ = ["OpNode", "Graph", "build_graph"]


@dataclass
class OpNode:
    """One schedulable unit: a single deferred op, or a fused pair."""

    index: int
    #: member ops in program order (two after a fusion contraction)
    ops: list[DeferredOp]
    preds: set[int] = field(default_factory=set)
    succs: set[int] = field(default_factory=set)
    alive: bool = True
    #: member specs in stream order when this node is a fused chain —
    #: producer first, then every absorbed stream link (two entries for a
    #: classic pair, more when the fusion pass kept extending)
    fused_chain: list[OpSpec] | None = None
    #: index of the node whose cached T this CSE duplicate reuses
    cse_source: int | None = None
    #: True when a later CSE duplicate needs this node's T captured
    capture: bool = False
    #: the callable the scheduler invokes (attached by the driver)
    runner: Callable[[], None] | None = None
    level: int = 0

    @property
    def label(self) -> str:
        if self.fused_chain is not None:
            return "+".join(op.label for op in self.ops) + "[fused]"
        if self.cse_source is not None:
            return self.ops[0].label + "[cse]"
        return self.ops[0].label


class Graph:
    def __init__(self, nodes: list[OpNode]):
        self.nodes = nodes

    def alive_nodes(self) -> list[OpNode]:
        return [n for n in self.nodes if n.alive]

    def add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self.nodes[src].succs.add(dst)
        self.nodes[dst].preds.add(src)

    def has_path(self, src: int, dst: int, skip_direct: bool = False) -> bool:
        """Is *dst* reachable from *src* along live edges?  With
        *skip_direct* the single edge src→dst is ignored (the fusion pass's
        cycle test: an indirect path means contraction would close a loop).
        """
        start = set(self.nodes[src].succs)
        if skip_direct:
            start.discard(dst)
        stack = list(start)
        seen = set()
        while stack:
            k = stack.pop()
            if k == dst:
                return True
            if k in seen or not self.nodes[k].alive:
                continue
            seen.add(k)
            stack.extend(self.nodes[k].succs)
        return False

    def contract(self, keep: int, absorb: int) -> None:
        """Merge node *absorb* into node *keep* (fusion).

        *keep*'s member list gains *absorb*'s ops; every edge touching
        *absorb* is re-pointed at *keep*.  The caller has already proven
        the merge acyclic.
        """
        a, b = self.nodes[keep], self.nodes[absorb]
        for p in b.preds:
            self.nodes[p].succs.discard(absorb)
            if p != keep:
                self.add_edge(p, keep)
        for s in b.succs:
            self.nodes[s].preds.discard(absorb)
            if s != keep:
                self.add_edge(keep, s)
        a.succs.discard(absorb)
        a.preds.discard(absorb)
        a.ops.extend(b.ops)
        b.alive = False

    def assign_levels(self) -> list[list[OpNode]]:
        """Longest-path levels (Kahn): every node lands one level below its
        deepest predecessor, so a level's nodes are mutually independent."""
        from ...info import Panic

        alive = self.alive_nodes()
        indeg = {n.index: len(n.preds) for n in alive}
        ready = [n.index for n in alive if indeg[n.index] == 0]
        order: list[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            node = self.nodes[i]
            for s in node.succs:
                self.nodes[s].level = max(
                    self.nodes[s].level, node.level + 1
                )
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(alive):
            raise Panic("planner produced a cyclic dataflow graph")
        depth = max((n.level for n in alive), default=-1)
        levels: list[list[OpNode]] = [[] for _ in range(depth + 1)]
        for n in alive:
            levels[n.level].append(n)
        for lv in levels:
            lv.sort(key=lambda n: n.index)
        return levels


def build_graph(ops: list[DeferredOp]) -> Graph:
    """Lift *ops* (program order) into the hazard DAG.

    For each opaque object we track its last writer and the readers since
    that write; a read adds a RAW edge from the last writer, a write adds
    WAR edges from those readers and a WAW edge from the last writer.
    Identity (``id``) is the right key: opaque objects alias only as
    themselves.
    """
    g = Graph([OpNode(i, [op]) for i, op in enumerate(ops)])
    last_writer: dict[int, int] = {}
    readers_since: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        for r in op.reads:
            w = last_writer.get(id(r))
            if w is not None:
                g.add_edge(w, i)  # RAW
            readers_since.setdefault(id(r), []).append(i)
        oid = id(op.writes)
        for rdr in readers_since.get(oid, ()):  # WAR
            g.add_edge(rdr, i)
        w = last_writer.get(oid)
        if w is not None:
            g.add_edge(w, i)  # WAW
        last_writer[oid] = i
        readers_since[oid] = []
    return g
