"""The dataflow DAG a drained sequence is lifted into.

Nodes are deferred ops; directed edges are the data hazards that constrain
reordering:

* **RAW** — an op reads an object the edge's source wrote (true dependence);
* **WAR** — an op overwrites an object the source read (anti-dependence);
* **WAW** — an op overwrites an object the source wrote (output dependence).

Anything the edges do not order is independent and may run in any order —
or concurrently.  :func:`build_graph` derives the edges, and each write's
readers, from the sequence's :class:`~repro.execution.sequence.Touches`
index — one walk over each object's touches, so an object touched once
costs nothing.  The optimization passes (:mod:`.passes`) rewrite this graph
by contracting producer→consumer pairs (fusion) and adding result-reuse
edges (CSE); the scheduler (:mod:`.driver`) then executes it level by
level.

The graph keeps a topological order of its live nodes (program order at
first).  A path from *a* to *b* can only pass through nodes ordered between
them, so the cycle tests behind a contraction or a reuse edge walk that
stretch only, and the order is repaired over the same stretch when a
rewrite re-points edges backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

from ...info import Panic
from ..sequence import DeferredOp, OpSpec, Touches

__all__ = ["OpNode", "Graph", "build_graph"]


@dataclass(slots=True)
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


_by_index = attrgetter("index")


class Graph:
    def __init__(self, nodes: list[OpNode]):
        self.nodes = nodes
        #: slot -> node index (None once vacated); a topological order
        self.order: list[int | None] = list(range(len(nodes)))
        #: node index -> its slot in :attr:`order`
        self.slot: list[int] = list(range(len(nodes)))
        #: write position -> the one op that reads the value it writes
        #: (present only when exactly one op does)
        self.sole_reader: dict[int, int] = {}
        #: write position -> the next position writing the same object
        self.next_writer: dict[int, int] = {}

    def add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self.nodes[src].succs.add(dst)
        self.nodes[dst].preds.add(src)

    def reach(self, src: int, dst: int, skip_direct: bool = False):
        """Walk forward from *src* over the nodes ordered before *dst*.

        Returns None when *dst* is reachable — with *skip_direct*, other
        than by the single edge src→dst (the fusion pass's cycle test: an
        indirect path means contraction would close a loop) — and otherwise
        the set of nodes reached.  No path can leave the stretch of the
        topological order between the two, so nothing else is visited.
        """
        nodes, slot, limit = self.nodes, self.slot, self.slot[dst]
        seen: set[int] = set()
        stack = [src]
        while stack:
            i = stack.pop()
            for k in nodes[i].succs:
                if k == dst:
                    if not (skip_direct and i == src):
                        return None
                elif k not in seen and slot[k] < limit:
                    seen.add(k)
                    stack.append(k)
        return seen

    def contract(self, keep: int, absorb: int, after: set[int]) -> None:
        """Merge node *absorb* into node *keep* (fusion).

        *keep*'s member list gains *absorb*'s ops; every edge touching
        *absorb* is re-pointed at *keep*.  The caller has already proven
        the merge acyclic; *after* is what :meth:`reach` found from *keep*
        on the way, the nodes that must stay ordered after the merged node.
        """
        nodes = self.nodes
        a, b = nodes[keep], nodes[absorb]
        for p in b.preds:
            nodes[p].succs.discard(absorb)
            if p != keep:
                nodes[p].succs.add(keep)
                a.preds.add(p)
        for s in b.succs:
            nodes[s].preds.discard(absorb)
            a.succs.add(s)
            nodes[s].preds.add(keep)
        a.succs.discard(absorb)
        a.ops.extend(b.ops)
        b.alive = False
        lo, hi = self.slot[keep], self.slot[absorb]
        if after:
            self._reorder(lo, hi, keep, after)
        else:  # nothing in between follows keep: it takes absorb's slot
            self.order[lo], self.order[hi] = None, keep
            self.slot[keep] = hi

    def add_reuse_edge(self, src: int, dst: int) -> bool:
        """Add the edge src→dst unless it would close a cycle (CSE)."""
        if self.slot[src] > self.slot[dst]:
            after = self.reach(dst, src)
            if after is None:
                return False
            after.add(dst)
            self._reorder(self.slot[dst], self.slot[src], src, after)
        self.add_edge(src, dst)
        return True

    def _reorder(self, lo: int, hi: int, pivot: int, after: set[int]) -> None:
        """Repair the order over slots lo..hi once *pivot* must precede every
        node of *after*: the stretch's other live nodes keep their order,
        then *pivot*, then the nodes of *after* in their old order."""
        nodes, order, slot = self.nodes, self.order, self.slot
        before, later = [], []
        for k in order[lo : hi + 1]:
            if k is None or k == pivot or not nodes[k].alive:
                continue
            (later if k in after else before).append(k)
        seq = before + [pivot] + later
        for s, k in enumerate(seq, lo):
            order[s] = k
            slot[k] = s
        for s in range(lo + len(seq), hi + 1):
            order[s] = None

    def assign_levels(self) -> list[list[OpNode]]:
        """Longest-path levels: every node lands one level below its
        deepest predecessor, so a level's nodes are mutually independent.
        Nodes are visited in the maintained topological order; a
        predecessor ordered later would mean a cycle."""
        nodes, slot = self.nodes, self.slot
        levels: list[list[OpNode]] = []
        for k in self.order:
            if k is None:
                continue
            node = nodes[k]
            if not node.alive:
                continue
            level = 0
            for p in node.preds:
                if slot[p] >= slot[k]:
                    raise Panic("planner produced a cyclic dataflow graph")
                if nodes[p].level >= level:
                    level = nodes[p].level + 1
            node.level = level
            if level == len(levels):
                levels.append([node])
            else:
                levels[level].append(node)
        for lv in levels:
            lv.sort(key=_by_index)
        return levels


def build_graph(
    ops: list[DeferredOp], touches: Touches, kept: Sequence[int]
) -> Graph:
    """Lift *ops* (program order) into the hazard DAG.

    *touches* indexes the drained sequence and ``kept[k]`` is op *k*'s
    position there (dead-op elision may have dropped others).  Each
    object's touches are walked in program order, skipping dropped ops: a
    read gets a RAW edge from the object's last writer, a write gets WAR
    edges from the readers since that write and a WAW edge from it.  An op
    that reads and writes an object reads first.  The same walk records,
    for every write, the next write of its object and — when exactly one
    op reads the value in between (the next writer included, if it reads
    first) — that reader.
    """
    g = Graph([OpNode(i, [op]) for i, op in enumerate(ops)])
    nodes, sole_reader, next_writer = g.nodes, g.sole_reader, g.next_writer
    if isinstance(kept, range):
        renumber = kept  # nothing dropped: positions are their own
    else:
        renumber = [-1] * (kept[-1] + 1)
        for k, pos in enumerate(kept):
            renumber[pos] = k
    readers = touches.readers
    for oid, writes in touches.writers.items():
        reads = readers.get(oid, ())
        if len(writes) == 1 and not reads:
            continue
        r, n_reads = 0, len(reads)
        last = -1
        for pos in writes:
            w = renumber[pos]
            if w < 0:
                continue
            since = []
            while r < n_reads and reads[r] <= pos:
                if renumber[reads[r]] >= 0:
                    since.append(renumber[reads[r]])
                r += 1
            node_w = nodes[w]
            if last >= 0:
                node_l = nodes[last]
                for rdr in since:  # RAW
                    node_l.succs.add(rdr)
                    nodes[rdr].preds.add(last)
                node_l.succs.add(w)  # WAW
                node_w.preds.add(last)
                next_writer[last] = w
                if len(since) == 1:
                    sole_reader[last] = since[0]
            for rdr in since:  # WAR
                if rdr != w:
                    nodes[rdr].succs.add(w)
                    node_w.preds.add(rdr)
            last = w
        if last >= 0 and r < n_reads:
            node_l, seen = nodes[last], []
            for pos in reads[r:]:  # RAW
                rdr = renumber[pos]
                if rdr >= 0:
                    node_l.succs.add(rdr)
                    nodes[rdr].preds.add(last)
                    seen.append(rdr)
            if len(seen) == 1:
                sole_reader[last] = seen[0]
    return g
