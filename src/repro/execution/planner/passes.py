"""The planner's optimization passes.

All three passes exploit the same freedom: section IV of the paper defers
the *computation* of a sequence, promising only that objects' final values
match program order.  Intermediate values of opaque objects are unobservable
until the sequence completes, so ops whose effects cannot be observed may be
dropped (dead-op elimination), collapsed (fusion), or shared (CSE).

Each pass reads the sequence's :class:`~repro.execution.sequence.Touches`
index (directly, or through the write → reader map :func:`.graph.build_graph`
derives from it) and visits only what the index says could change: an
object written twice (dead-op), a value read by exactly one op (fusion), an
input another op also reads (CSE).  A drain that touches every object once
gives the passes nothing to visit, and the cost of planning stays linear in
the touches.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from ...kernels.chain import is_stream_link, overwrite_shaped
from ..sequence import DeferredOp, Touches
from .graph import Graph

__all__ = ["dead_op_pass", "dead_positions", "fusion_pass", "cse_pass"]


def dead_op_pass(
    ops: list[DeferredOp], touches: Touches | None = None
) -> tuple[list[DeferredOp], list[DeferredOp]]:
    """Split *ops* into the ops that run and those :func:`dead_positions`
    elides, both in program order (*touches* indexes *ops*; built here
    when absent)."""
    gone = dead_positions(ops, touches or Touches.of(ops))
    if not gone:
        return ops, []
    live = [op for pos, op in enumerate(ops) if pos not in gone]
    return live, [ops[pos] for pos in sorted(gone)]


def dead_positions(ops: list[DeferredOp], touches: Touches) -> set[int]:
    """The positions of ops whose output is overwritten before anything
    reads it.

    Backward scan; ``dead`` holds objects whose next surviving touch is a
    pure overwrite.  A kept op's reads resurrect those objects; an elided
    op's reads never happen, so they protect nothing (its inputs can be
    dead for even earlier writers).  Only an object written at least twice
    can be dead for an earlier writer, so the scan visits just the ops that
    touch such an object.

    The hazard rule, exactly: an op marks its output dead *only if* it
    overwrites it **and** does not also read it.  An op whose ``writes``
    object appears in its own ``reads`` (accum/merge-style) consumes the
    prior value no matter what its overwrite flag claims, so it is a read
    barrier for earlier writers — never a license to elide them.
    """
    visit: set[int] = set()
    for oid, at in touches.writers.items():
        if len(at) > 1:
            visit.update(at)
            visit.update(touches.readers.get(oid, ()))
    gone: set[int] = set()
    dead: set[int] = set()
    for pos in sorted(visit, reverse=True):
        op = ops[pos]
        out = op.writes
        if id(out) in dead:
            gone.add(pos)
            continue
        reads_out = False
        for r in op.reads:
            dead.discard(id(r))
            reads_out = reads_out or r is out
        if op.overwrites_output and not reads_out:
            dead.add(id(out))
        else:
            dead.discard(id(out))
    return gone


def fusion_pass(g: Graph, ops: list[DeferredOp]) -> int:
    """Contract producer→consumer chains whose intermediates are unobservable.

    A producer P (pure overwrite of X, spec'd kernel) fuses with the one
    consumer Q of its result when Q is a single-input stream transform —
    a value map (``apply``), a predicate filter (``select``), or a row
    reduction (``reduce``) — over X, and X's value between P and Q can
    never be seen after the drain:

    * **case (a)** — Q writes X itself, accum-free, unmasked-or-replace:
      X ends up holding Q's result, which fusion computes identically;
    * **case (b)** — Q writes elsewhere and the next toucher of X is a pure
      overwrite: P's value of X is dead, so X keeps its pre-sequence
      content until that overwriter runs — exactly what skipping P's store
      leaves behind.

    Q must be the *only* op reading P's result (``g.sole_reader``, at op
    granularity, so members of earlier contractions are positioned
    correctly), and the contraction must not close a cycle through
    unrelated objects (P → m → Q via WAR/WAW chains); :meth:`Graph.reach`
    guards that.

    The same argument then applies *to the chain itself*: whenever the
    just-absorbed link is overwrite-shaped (no accumulator, unmasked or
    replace-mode — so its output would hold exactly its mask-filtered T),
    its result is another un-materialized stream, and the pass greedily
    tries to absorb *its* sole consumer too.  Chains therefore grow to
    arbitrary length, one contraction (and one increment of the return
    value) per absorbed link; the semantic tests live in
    :mod:`repro.kernels.chain` and any chain built here is runnable by the
    interpreter backend — legality never depends on codegen eligibility.
    """
    nodes, sole_reader, next_writer = g.nodes, g.sole_reader, g.next_writer
    fused = 0
    for i in sorted(sole_reader):
        node_p = nodes[i]
        if not node_p.alive or node_p.fused_chain is not None:
            continue
        p_op = ops[i]
        p_spec = p_op.spec
        if (
            p_spec is None
            or p_spec.kernel is None
            or not p_op.overwrites_output
        ):
            continue

        tail_pos = i
        while True:
            X = ops[tail_pos].writes
            j = sole_reader.get(tail_pos)
            if j is None:
                break
            if not nodes[j].alive or nodes[j].fused_chain is not None:
                break
            q_spec = ops[j].spec
            if q_spec is None or not is_stream_link(q_spec):
                break
            if q_spec.inputs != (X,) or q_spec.mask is X:
                break
            if q_spec.desc.transpose0:
                break

            nw = next_writer.get(tail_pos)
            if nw == j:
                # case (a): the in-place consumer — X becomes Q's result
                if not overwrite_shaped(q_spec):
                    break
            # case (b): the tail's value of X must be provably dead — the
            # next writer overwrites it (and does not read it: Q is the
            # value's only reader)
            elif nw is None or not ops[nw].overwrites_output:
                break

            after = g.reach(i, j, skip_direct=True)
            if after is None:
                break  # contraction would close a cycle

            g.contract(i, j, after)
            if node_p.fused_chain is None:
                node_p.fused_chain = [p_spec, q_spec]
            else:
                node_p.fused_chain.append(q_spec)
            fused += 1

            # the chain streams past Q only when Q's own write would have
            # been a pure overwrite of its mask-filtered T
            if not overwrite_shaped(q_spec):
                break
            tail_pos = j
    return fused


def cse_pass(
    g: Graph, ops: list[DeferredOp], touches: Touches, kept: Sequence[int]
) -> int:
    """Share the internal result T of identical pure ops on unchanged inputs.

    Two ops compute the same T when they have the same kind, operator,
    result domain, descriptor transform bits, input objects, and mask — and
    the content of every input (and the mask) is unchanged between them.
    An object's content version at an op is the number of writes of it
    before the op in the drained sequence (``touches.writers``; ``kept[k]``
    is op *k*'s position there), so the fingerprint is purely structural:
    no values are hashed.  Elided writes may be counted too: one that falls
    between two reads of an object is always followed by a surviving
    overwrite before the second read, so counting it changes no comparison.

    Twins share their kind, operator and inputs.  An op whose first input
    no other op reads is skipped, and an op is fingerprinted only once an
    earlier op with the same kind, operator and inputs has been seen.

    The duplicate keeps its own write pipeline (its output, mask, accum and
    replace mode may all differ); only the kernel is skipped.  An edge
    source→duplicate sequences the reuse; fused nodes are excluded on both
    sides (their T never exists on its own).
    """
    readers, writers = touches.readers, touches.writers

    def fingerprint(k: int, key: tuple) -> tuple:
        spec = ops[k].spec
        objs = spec.inputs if spec.mask is None else (*spec.inputs, spec.mask)
        return (
            *key,
            id(spec.t_type),
            spec.desc[1:],  # every descriptor bit but replace
            id(spec.mask),
            *[bisect_left(writers.get(id(x), ()), kept[k]) for x in objs],
        )

    hits = 0
    #: (kind, operator, inputs) -> the first op seen with them, until a
    #: second one arrives and both are fingerprinted (then -1)
    first: dict[tuple, int] = {}
    sources: dict[tuple, int] = {}
    for k, node in enumerate(g.nodes):
        if not node.alive or node.fused_chain is not None:
            continue
        spec = ops[k].spec
        if (
            spec is None
            or spec.op_token is None
            or spec.kernel is None
            or len(readers[id(spec.inputs[0])]) == 1
        ):
            continue
        key = (spec.kind, id(spec.op_token), *map(id, spec.inputs))
        earlier = first.get(key)
        if earlier is None:
            first[key] = k
            continue
        if earlier >= 0:
            sources[fingerprint(earlier, key)] = earlier
            first[key] = -1
        fp = fingerprint(k, key)
        src = sources.get(fp)
        if src is None:
            sources[fp] = k
        elif g.nodes[src].alive and g.add_reuse_edge(src, k):
            node.cse_source = src
            g.nodes[src].capture = True
            hits += 1
    return hits
