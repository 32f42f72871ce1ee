"""The six workloads: seeded inputs, the unit of work, and its check.

Every workload is a closed loop (callers that wait for a result).  Library
workloads run one thread; service workloads run exactly ``CLIENTS`` client
threads, fixed so hosts stay comparable.  A *unit* is one round / one
sequence / one pass / one request.  All inputs come from ``seed`` through
``repro.io`` generators and ``numpy.random.default_rng``; the program only
ever sees the generated inputs.

Library workloads expose ``steps(i)`` — the public calls of unit *i* as
``(label, layer, thunk)`` so the runner can time them individually in a
traced run — and ``check(i)``.  Service workloads expose ``next_request``
/ ``send`` / ``check_reply`` per client plus a final graph comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import repro as grb
from repro import algorithms as alg
from repro import parallel, planner
from repro.io import erdos_renyi, rmat
from repro.service import Client, Service, ServiceConfig, TCPClient

FP = grb.FP64
PT = grb.PLUS_TIMES[FP]
PLUS = grb.PLUS[FP]
TIMES = grb.TIMES[FP]
MON = grb.PLUS_MONOID[FP]
AINV = grb.AINV[FP]
VALUEGT = grb.index_unary_op("GrB_VALUEGT_FP64")

CLIENTS = 2

# one-knob settings of a run; the defaults are the shipped ones
DEFAULTS = {
    "planner": True,         # False -> every planner pass off
    "kernel_backend": "interpreter",
    "transport": None,       # None -> the workload's own transport
    "cache": True,
    "batching": True,
}


def graph(scale: int, seed: int) -> grb.Matrix:
    """R<scale>: power-law RMAT digraph, edge factor 8, FP64 weights."""
    return rmat(scale, 8, seed=seed, domain=FP, weighted=True)


def uniform_twin(R: grb.Matrix, seed: int) -> grb.Matrix:
    """E<scale>: Erdős–Rényi graph with R's size — the uniform-degree
    sparsity pattern beside R's skewed one."""
    return erdos_renyi(R.nrows, R.nvals(), seed=seed + 1, domain=FP,
                       weighted=True)


def sparse_vector(rng, n: int, nnz: int) -> grb.Vector:
    idx = np.sort(rng.choice(n, size=nnz, replace=False))
    return grb.Vector.from_coo(FP, n, idx, rng.uniform(0.5, 2.0, nnz))


def digest(*objs) -> str:
    """sha256 over the tuples of collections / JSON of plain data."""
    h = hashlib.sha256()
    for o in objs:
        if hasattr(o, "extract_tuples"):
            for arr in o.extract_tuples():
                h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(json.dumps(o, sort_keys=True).encode())
    return h.hexdigest()


def signature(objs) -> list:
    """Cheap exact fingerprint of a list of outputs: nvals + value sum
    (a Table II reduce), compared bit-for-bit against the setup's."""
    return [(o.nvals(), float(grb.reduce_to_scalar(MON, o))) for o in objs]


def same_tuples(a, b) -> bool:
    ta, tb = a.extract_tuples(), b.extract_tuples()
    return all(np.array_equal(x, y) for x, y in zip(ta, tb))


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

class LibraryWorkload:
    mode = grb.Mode.BLOCKING
    kind = "library"
    warmup = 8

    def __init__(self, seed: int, settings: dict):
        self.seed = seed
        self.settings = settings
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        self.build()
        # the reference runs first, in the pristine default context, which
        # is blocking (section IV's oracle for every mode)
        self.reference = self.make_reference()
        grb.init(self.mode)
        parallel.set_kernel_backend(self.settings["kernel_backend"])
        if not self.settings["planner"]:
            planner.configure(dead_op=False, fusion=False, cse=False)

    def input_digest(self) -> str:
        return digest(*self.inputs)

    def teardown(self) -> None:
        grb.finalize()


class KernelMix(LibraryWorkload):
    """Blocking, unmasked, accum-free Table II calls on R10 / E10."""

    SCALE = 10
    #: calls per op class in one round, frozen; balanced at the seed commit
    #: so no class is above 30 % or below 5 % of the round
    REPS = {"mxm": 1, "mxv": 6, "ewise": 4, "reduce": 20, "transpose": 25,
            "apply": 50, "extract": 3, "assign": 4}

    def build(self) -> None:
        rng, seed = self.rng, self.seed
        self.A = A = graph(self.SCALE, seed)
        self.E = E = uniform_twin(A, seed)
        n = self.n = A.nrows
        self.u = sparse_vector(rng, n, n // 8)
        self.I = np.sort(rng.choice(n, size=n // 2, replace=False))
        self.J = np.sort(rng.choice(n, size=n // 2, replace=False))
        self.Sub = grb.matrix_new(FP, n // 2, n // 2)
        grb.matrix_extract(self.Sub, None, None, E, self.I, self.J)
        # the left operand of both products: a quarter of A's rows, so the
        # products stay the largest calls without being the whole round
        self.Ah = grb.matrix_new(FP, n // 4, n)
        grb.matrix_extract(self.Ah, None, None, A, self.I[::2], grb.ALL)
        self.inputs = [A, E, self.u, self.I.tolist(), self.J.tolist()]
        self.new_outputs()

    def new_outputs(self) -> None:
        n = self.n
        M = lambda r=n, c=n: grb.matrix_new(FP, r, c)  # noqa: E731
        V = lambda: grb.vector_new(FP, n)              # noqa: E731
        self.out = {
            "mm_aa": M(n // 4, n), "mm_ae": M(n // 4, n), "mv": V(), "vm": V(), "add": M(),
            "mult": M(), "red": V(), "tr": M(), "ap": M(),
            "ex": M(n // 2, n // 2), "as": self.E.dup(),
        }

    def ops(self) -> dict:
        """label -> (class, thunk); one entry per distinct call."""
        A, E, u, o, I, J = self.A, self.E, self.u, self.out, self.I, self.J
        Ah = self.Ah
        return {
            "mxm_rmat": ("mxm", lambda: grb.mxm(o["mm_aa"], None, None, PT, Ah, A)),
            "mxm_er": ("mxm", lambda: grb.mxm(o["mm_ae"], None, None, PT, Ah, E)),
            "mxv": ("mxv", lambda: grb.mxv(o["mv"], None, None, PT, A, u)),
            "vxm": ("mxv", lambda: grb.vxm(o["vm"], None, None, PT, u, A)),
            "ewise_add": ("ewise", lambda: grb.eWiseAdd(o["add"], None, None, PLUS, A, E)),
            "ewise_mult": ("ewise", lambda: grb.eWiseMult(o["mult"], None, None, TIMES, A, A)),
            "reduce": ("reduce", lambda: grb.reduce(o["red"], None, None, MON, A)),
            "transpose": ("transpose", lambda: grb.transpose(o["tr"], None, None, A)),
            "apply": ("apply", lambda: grb.apply(o["ap"], None, None, AINV, A)),
            "extract": ("extract", lambda: grb.matrix_extract(o["ex"], None, None, A, I, J)),
            "assign": ("assign", lambda: grb.matrix_assign(o["as"], None, None, self.Sub, I, J)),
        }

    def make_steps(self) -> list:
        ops = self.ops()
        per_class: dict[str, list] = {}
        for label, (cls, fn) in ops.items():
            per_class.setdefault(cls, []).append((label, fn))
        steps = []
        for cls, reps in self.REPS.items():
            members = per_class[cls]
            for k in range(reps * len(members)):
                label, fn = members[k % len(members)]
                steps.append((f"call:{label}", "operations", fn))
        return steps

    def make_reference(self):
        for _, _, fn in self.make_steps():
            fn()
        ref = signature(self.out.values())
        self.new_outputs()
        self._steps = self.make_steps()
        return ref

    def steps(self, i: int) -> list:
        return self._steps

    def check(self, i: int) -> bool:
        return signature(self.out.values()) == self.reference


class MaskedAccumMix(KernelMix):
    """The same operands and op classes with every call carrying a value
    mask, a structural-complement mask, ``accum=PLUS``, REPLACE or TRAN."""

    REPS = {"mxm": 1, "mxv": 4, "ewise": 1, "reduce": 6, "transpose": 2,
            "apply": 2, "extract": 2, "assign": 2}

    def build(self) -> None:
        super().build()
        n = self.n
        self.m = sparse_vector(self.rng, n, n // 4)
        self.ud = sparse_vector(self.rng, n, n // 2)
        self.SubMask = grb.matrix_new(FP, n // 2, n // 2)
        grb.matrix_extract(self.SubMask, None, None, self.A, self.I, self.J)
        self.inputs += [self.m, self.ud]
        sc = grb.descriptor_new()
        sc.set(grb.MASK, grb.SCMP)
        sc.set(grb.MASK, grb.STRUCTURE)
        self.desc_sc_struct = sc

    def ops(self) -> dict:
        A, E, u, o, I, J = self.A, self.E, self.u, self.out, self.I, self.J
        m, ud, SCS, Ah = self.m, self.ud, self.desc_sc_struct, self.Ah

        # accumulating calls start every round from the same content, so
        # every round has one answer
        def fresh(key, src):
            o[key] = src.dup()
            return o[key]

        return {
            # C<A,replace> = A·A   and   C<¬A,struct> += A·E
            "mxm_rmat": ("mxm", lambda: grb.mxm(o["mm_aa"], Ah, None, PT, Ah, A, grb.DESC_R)),
            "mxm_er": ("mxm", lambda: grb.mxm(fresh("mm_ae", Ah), Ah, PLUS, PT, Ah, E, SCS)),
            # pull direction: sparse mask, dense-ish input, transposed A
            "mxv": ("mxv", lambda: grb.mxv(fresh("mv", u), m, PLUS, PT, A, ud, grb.DESC_T0)),
            "vxm": ("mxv", lambda: grb.vxm(o["vm"], m, None, PT, ud, A, grb.DESC_RSC)),
            "ewise_add": ("ewise", lambda: grb.eWiseAdd(fresh("add", E), A, PLUS, PLUS, A, E)),
            "ewise_mult": ("ewise", lambda: grb.eWiseMult(o["mult"], E, None, TIMES, A, A, grb.DESC_RSC)),
            "reduce": ("reduce", lambda: grb.reduce(fresh("red", u), m, PLUS, MON, A, grb.DESC_T0)),
            "transpose": ("transpose", lambda: grb.transpose(fresh("tr", E), A, PLUS, A, grb.DESC_SC)),
            "apply": ("apply", lambda: grb.apply(fresh("ap", E), A, PLUS, AINV, A)),
            "extract": ("extract", lambda: grb.matrix_extract(
                o["ex"], self.SubMask, None, A, I, J, grb.DESC_TSR)),
            "assign": ("assign", lambda: grb.matrix_assign(
                fresh("as", E), A, PLUS, self.Sub, I, J)),
        }


class DeferredChains(LibraryWorkload):
    """NONBLOCKING: one ~60-call BC-shaped sequence plus one ``wait()``.

    Per batch: ``mxm -> apply -> select -> reduce`` chained in place (a
    fusible chain), the frontier product ``A·F0`` repeated (CSE), then an
    accumulate into the running total.  A dead leading write opens the
    sequence (dead-op elimination); ``BUFFERS`` scratch matrices are
    recycled across ``BATCHES`` batches, so the early chains' tails are
    provably dead and the late ones must materialise.
    """

    mode = grb.Mode.NONBLOCKING
    SCALE = 10
    BATCHES = 8
    BUFFERS = 4
    COLS = 32

    def build(self) -> None:
        rng = self.rng
        self.A = A = graph(self.SCALE, self.seed)
        n = self.n = A.nrows
        self.F = []
        for _ in range(self.BATCHES):
            nnz = 8 * self.COLS
            self.F.append(grb.Matrix.from_coo(
                FP, n, self.COLS, rng.integers(0, n, nnz),
                rng.integers(0, self.COLS, nnz), rng.uniform(0.5, 2.0, nnz),
                grb.FIRST[FP]))
        self.inputs = [A, *self.F]
        self.new_outputs()

    def new_outputs(self) -> None:
        n, c = self.n, self.COLS
        self.T = [grb.matrix_new(FP, n, c) for _ in range(self.BUFFERS)]
        self.P = [grb.matrix_new(FP, n, c) for _ in range(self.BATCHES)]
        self.w = [grb.vector_new(FP, n) for _ in range(self.BATCHES)]
        self.total = grb.matrix_new(FP, n, c)
        self.dead = grb.matrix_new(FP, n, c)
        self.out = [*self.w, self.total, self.dead]

    def make_steps(self) -> list:
        A, F = self.A, self.F
        s = []

        def call(label, fn):
            s.append((f"call:{label}", "execution", fn))

        dead, total = self.dead, self.total
        call("apply", lambda: grb.apply(dead, None, None, AINV, F[0]))
        call("apply", lambda: grb.apply(dead, None, None, AINV, F[1]))
        call("assign", lambda: grb.matrix_assign(total, None, None, F[0], grb.ALL, grb.ALL))
        for b in range(self.BATCHES):
            T, P, w, Fb = self.T[b % self.BUFFERS], self.P[b], self.w[b], F[b]
            call("mxm", lambda T=T, Fb=Fb: grb.mxm(T, None, None, PT, A, Fb))
            call("apply", lambda T=T: grb.apply(T, None, None, AINV, T))
            call("select", lambda T=T: grb.select(T, None, None, VALUEGT, T, -8.0))
            call("reduce", lambda T=T, w=w: grb.reduce(w, None, None, MON, T))
            call("mxm", lambda P=P: grb.mxm(P, None, None, PT, A, F[0]))
            call("ewise_add", lambda P=P: grb.eWiseAdd(total, None, None, PLUS, total, P))
            call("ewise_mult", lambda P=P, Fb=Fb: grb.eWiseMult(P, None, None, TIMES, P, Fb))
        s.append(("wait", "execution", grb.wait))
        return s

    def make_reference(self):
        for _, _, fn in self.make_steps():
            fn()
        ref = self.out
        self.new_outputs()
        self._steps = self.make_steps()
        return ref

    def steps(self, i: int) -> list:
        return self._steps

    def check(self, i: int) -> bool:
        return all(same_tuples(a, b) for a, b in zip(self.out, self.reference))


class AlgoNonblocking(LibraryWorkload):
    """NONBLOCKING: one pass of BC (Fig. 3, 8 sources), BFS, SSSP, PageRank
    and triangle counting on R10; sources rotate through a seeded cycle.

    PageRank runs a fixed number of power iterations (``tol=0``): how many
    it needs to converge depends on the graph, and a seed should change
    the inputs, not the amount of work in a unit.
    """

    mode = grb.Mode.NONBLOCKING
    SCALE = 10
    CYCLE = 8
    BC_SOURCES = 8
    PAGERANK_ITERS = 8

    def build(self) -> None:
        rng = self.rng
        self.A = A = graph(self.SCALE, self.seed)
        # BC and triangle counting read the pattern: stored 1 per edge
        self.P = rmat(self.SCALE, 8, seed=self.seed, domain=FP)
        n = A.nrows
        self.sources = rng.choice(n, size=self.CYCLE, replace=False).tolist()
        self.batches = [
            rng.choice(n, size=self.BC_SOURCES, replace=False)
            for _ in range(self.CYCLE)
        ]
        self.inputs = [A, self.P, self.sources,
                       [b.tolist() for b in self.batches]]
        self.results: dict = {}

    def make_reference(self):
        ref = []
        for k in range(self.CYCLE):
            for _, _, fn in self.steps(k):
                fn()
            ref.append(self.results)
            self.results = {}
        return ref

    def steps(self, i: int) -> list:
        k = i % self.CYCLE
        src, batch, r = self.sources[k], self.batches[k], self.results
        A, P = self.A, self.P

        def run(name, fn):
            def thunk():
                out = fn()
                # reading the result is the sequence point a caller hits
                r[name] = (out.extract_tuples()
                           if isinstance(out, grb.Vector) else out)
            return (f"call:{name}", "algorithms", thunk)

        return [
            run("bc", lambda: alg.bc_update(P, batch)),
            run("bfs", lambda: alg.bfs_levels(P, src)),
            run("sssp", lambda: alg.sssp(A, src)),
            run("pagerank", lambda: alg.pagerank(
                A, tol=0.0, max_iters=self.PAGERANK_ITERS)),
            run("tc", lambda: alg.triangle_count(P)),
        ]

    def check(self, i: int) -> bool:
        ref = self.reference[i % self.CYCLE]
        got, self.results = self.results, {}
        if got.keys() != ref.keys():
            return False
        for name, want in ref.items():
            have = got[name]
            if name == "pagerank":
                if not np.allclose(have, want, rtol=0.0, atol=1e-12):
                    return False
            elif isinstance(want, tuple):
                if not all(np.array_equal(x, y) for x, y in zip(have, want)):
                    return False
            elif have != want:
                return False
        return True



# ---------------------------------------------------------------------------
# Service workloads
# ---------------------------------------------------------------------------

SEMIRING = "GrB_PLUS_TIMES_SEMIRING_FP64"
SHARED = "shared"
G = "shared:G"


def two_hop(n: int, src: int, val: float) -> dict:
    """``t2 = G·(G·v)`` for a one-entry ``v``, fetched: a two-hop read."""
    vec = {"kind": "vector", "dtype": "FP64", "shape": [n]}
    return {
        "declare": [{"name": "v", **vec, "entries": [[src, val]]},
                    {"name": "t", **vec}, {"name": "t2", **vec}],
        "calls": [
            {"kind": "mxv", "out": "t",
             "args": {"a": G, "u": "v", "semiring": SEMIRING}},
            {"kind": "mxv", "out": "t2",
             "args": {"a": G, "u": "t", "semiring": SEMIRING}},
        ],
        "fetch": ["t2"],
    }


class ServiceWorkload:
    """Closed loop of ``CLIENTS`` callers against the graph service.

    A request is ``(kind, payload, tag, to_shared)``; *tag* names the
    request class (``pool`` / ``unique`` / ``write``) for the latency
    split.  Client *i* writes only rows congruent to *i* modulo
    ``CLIENTS`` and is itself sequential, so the final graph does not
    depend on how the clients interleave.
    """

    kind = "service"
    SCALE = 12
    POOL = 32
    ZIPF_S = 1.1
    WRITE_FRAC = 0.05
    UNIQUE_FRAC = 0.20
    CLASSES = ("program", "query", "algorithm")
    CLASS_CDF = (0.73, 0.98, 1.0)
    BATCHED_FRAC = 0.2
    warmup = 200
    transport = "tcp"
    mix = "rw"
    timing = False

    def __init__(self, seed: int, settings: dict):
        self.seed = seed
        self.settings = settings
        if settings["transport"] is not None:
            self.transport = settings["transport"]
        self.in_process = self.transport == "direct"
        self.server = None
        self.svc = None
        self.clients: list = []

    # ------------------------------------------------------------- inputs
    def build(self) -> None:
        self.G0 = graph(self.SCALE, self.seed)
        self.n = n = self.G0.nrows
        rng = np.random.default_rng([self.seed, 99])
        # Templates name vertices by degree rank, not by id: on a power-law
        # graph a uniformly drawn vertex is a hub for one seed and isolated
        # for the next, and the zipf head would then cost 100x more or
        # less.  Rank r of a class with m templates always reads the vertex
        # at the same quantile of the denser half, whatever the seed.
        rows, cols, _ = self.G0.extract_tuples()
        degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
        by_degree = np.argsort(-degree, kind="stable")

        def vertex(r: int, m: int) -> int:
            q = ((r * 5) % m + 0.5) / m
            return int(by_degree[int(q * (n // 2))])

        half, quarter = self.POOL // 2, self.POOL // 4
        # the pool's classes are drawn with fixed odds and zipf picks a
        # template inside the class, so the mix of request kinds does not
        # depend on which template a seed happens to rank first
        self.pool = {
            "program": [("program", two_hop(
                n, vertex(r, half), round(float(rng.uniform(0.5, 2.0)), 3)))
                for r in range(half)],
            "algorithm": [("algorithm", {
                "algo": ("bfs_levels", "sssp")[r % 2], "graph": G,
                "args": {"source": vertex(r, quarter)}})
                for r in range(quarter)],
            "query": [("query", {"name": G, "what": "nvals"})] + [
                ("query", {"name": G, "what": "element",
                           "row": int(rows[k]), "col": int(cols[k])})
                for k in rng.integers(len(rows), size=quarter - 1)],
        }
        self.zipf_cdf = {}
        for cls, members in self.pool.items():
            w = 1.0 / np.arange(1, len(members) + 1) ** self.ZIPF_S
            self.zipf_cdf[cls] = np.cumsum(w / w.sum())
        self.rngs = [np.random.default_rng([self.seed, ci])
                     for ci in range(CLIENTS)]
        self.sent = [0] * CLIENTS
        self.acked: list[list] = [[] for _ in range(CLIENTS)]
        self.mine: list[list] = [[] for _ in range(CLIENTS)]

    def input_digest(self) -> str:
        head = [self.next_request(ci)[:3] for ci in range(CLIENTS)
                for _ in range(100)]
        return digest(self.G0, self.pool, head)

    def next_request(self, ci: int) -> tuple:
        rng, n = self.rngs[ci], self.n
        k = self.sent[ci]
        self.sent[ci] += 1
        r = rng.random()
        if self.mix == "unique" or r >= self.WRITE_FRAC:
            if self.mix == "unique" or r < self.WRITE_FRAC + self.UNIQUE_FRAC:
                # a never-repeating value makes the canonical digest unique
                nonce = ci * 10_000_000 + k
                return ("program", two_hop(n, int(rng.integers(n)),
                                           1.0 + nonce * 1e-7), "unique", False)
            cls = self.CLASSES[int(np.searchsorted(self.CLASS_CDF, rng.random()))]
            rank = int(np.searchsorted(self.zipf_cdf[cls], rng.random()))
            return (*self.pool[cls][rank], "pool", False)
        batched = rng.random() < self.BATCHED_FRAC
        nset, nrem = (16, 4) if batched else (3, 1)
        rows = CLIENTS * rng.integers(n // CLIENTS, size=nset) + ci
        sets = [[int(i), int(j), round(float(v), 3)] for i, j, v in zip(
            rows, rng.integers(n, size=nset), rng.uniform(0.5, 2.0, nset))]
        # remove edges this client set earlier, so removes really remove
        mine = self.mine[ci]
        rems = [mine[int(p)] for p in rng.integers(len(mine), size=nrem)] if mine else []
        mine.extend([s[0], s[1]] for s in sets)
        return ("stream_mutate" if batched else "update",
                {"graph": "G", "set": sets, "remove": rems}, "write", True)

    # -------------------------------------------------------------- set-up
    def setup(self) -> None:
        self.build()
        s = self.settings
        out_dir = os.environ["REPRO_DIAG_DIR"]
        if self.in_process:
            self.svc = Service(ServiceConfig(
                cache=s["cache"], batching=s["batching"],
                kernel_backend=s["kernel_backend"], diag_dir=out_dir))
            connect = lambda name: Client(self.svc, name)  # noqa: E731
        else:
            argv = [sys.executable, "-m", "repro.service", "--port", "0",
                    "--diag-dir", out_dir]
            if not s["batching"]:
                argv.append("--no-batching")
            self.server = subprocess.Popen(
                argv, stdout=subprocess.PIPE, text=True)
            ready = self.server.stdout.readline().split()
            if ready[:1] != ["READY"]:
                raise RuntimeError(f"server did not start: {ready!r}")
            host, port = ready[1], int(ready[2])
            connect = lambda name: TCPClient(host, port, session=name)  # noqa: E731
        self.admin = connect(SHARED)
        self.admin.upload("G", self.G0)
        self.clients = [connect(f"c{ci}") for ci in range(CLIENTS)]

    def send(self, ci: int, req: tuple) -> dict:
        kind, payload, _tag, to_shared = req
        cli = self.clients[ci]
        own = cli.session
        if to_shared:
            cli.session = SHARED  # the session rides on every request
        try:
            if self.in_process:
                return cli.request(kind, payload, timing=self.timing)
            return cli.call(kind, payload, timing=self.timing)
        finally:
            cli.session = own

    # -------------------------------------------------------------- checks
    def check_reply(self, ci: int, req: tuple, reply) -> bool:
        kind, payload, tag, _ = req
        n = self.n
        if not isinstance(reply, dict):
            return False
        if tag == "write":
            ok = (reply.get("accepted") == {"set": len(payload["set"]),
                                            "remove": len(payload["remove"])}
                  if kind == "stream_mutate"
                  else isinstance(reply.get("nvals"), int))
            if ok:
                self.acked[ci].append(payload)
            return ok
        if kind == "program":
            t2 = reply.get("fetched", {}).get("t2", {})
            ok = (t2.get("kind") == "vector" and t2.get("shape") == [n]
                  and len(t2.get("indices", ())) == len(t2.get("values", [0])))
            if ok and self.mix == "unique" and self.sent[ci] % 50 == 0:
                ok = self.same_as_library(payload, t2)
            return ok
        if kind == "algorithm":
            res = reply.get("result", {})
            return (isinstance(res, dict) and res.get("kind") == "vector"
                    and res.get("shape") == [n])
        if payload["what"] == "nvals":
            return isinstance(reply.get("nvals"), int)
        return isinstance(reply.get("stored"), bool)

    def same_as_library(self, payload: dict, t2: dict) -> bool:
        """The reply equals the library's own blocking-mode answer."""
        src, val = payload["declare"][0]["entries"][0]
        n = self.n
        v = grb.Vector.from_coo(FP, n, [src], [val])
        t, want = grb.vector_new(FP, n), grb.vector_new(FP, n)
        grb.mxv(t, None, None, PT, self.G0, v)
        grb.mxv(want, None, None, PT, self.G0, t)
        idx, vals = want.extract_tuples()
        return (idx.tolist() == t2["indices"] and vals.tolist() == t2["values"])

    def final_check(self) -> bool:
        """The served graph equals the initial one with every acknowledged
        mutation applied locally."""
        want = self.G0.dup()
        for acked in self.acked:
            for payload in acked:
                for i, j, v in payload["set"]:
                    want.set_element(i, j, v)
                for i, j in payload["remove"]:
                    try:
                        want.remove_element(i, j)
                    except grb.NoValue:
                        pass
        return same_tuples(self.admin.download("G"), want)

    # -------------------------------------------------------- introspection
    def stats(self) -> dict:
        return self.admin.stats()

    def flight_dump(self) -> list:
        path = self.admin.call("dump")["dump"]
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        os.remove(path)
        return events

    def server_rss_mb(self):
        if self.server is None:
            return None
        with open(f"/proc/{self.server.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return None

    def teardown(self) -> None:
        try:
            for cli in [*self.clients, self.admin]:
                if self.in_process:
                    continue
                cli.close(close_session=False)
        finally:
            if self.svc is not None:
                self.svc.shutdown()
            if self.server is not None:
                self.server.terminate()
                try:
                    self.server.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
                self.server.stdout.close()


class ServiceRwTcp(ServiceWorkload):
    """Zipf reads, never-repeating reads and shared-graph writes over TCP."""


class ServiceUniqueDirect(ServiceWorkload):
    """Never-repeating two-hop reads in process: every memo lookup misses
    and no snapshot is ever republished."""

    transport = "direct"
    mix = "unique"


WORKLOADS = {
    "kernel_mix": KernelMix,
    "masked_accum_mix": MaskedAccumMix,
    "deferred_chains": DeferredChains,
    "algo_nonblocking": AlgoNonblocking,
    "service_rw_tcp": ServiceRwTcp,
    "service_unique_direct": ServiceUniqueDirect,
}
