"""Request keys: the memo keys a request on its exact text, and
semantically different programs never share a key.

The property half reuses the conformance fuzzer's generator as the
program source: over a generated corpus, enough programs are cacheable,
they do not all share one key, and reordering *dependent* calls changes
the key.  The directed half hand-builds a masked/accumulated program and
flips one semantic knob at a time — operator token, dtype, shape,
entries, mask interpretation, descriptor bit, accumulator, fetch set —
asserting each flip lands in a different cache key, and checks that
``0.0`` and ``-0.0`` declarations, equal under ``==``, stay apart.
"""

from __future__ import annotations

import math

import pytest

from repro.fuzz.generator import generate_corpus
from repro.fuzz.program import Call, Decl, Program
from repro.service import Service, ServiceConfig
from repro.service.memo import analyze_request

_NAME_KEYS = ("a", "b", "u", "mask")


def _payload(program: Program) -> dict:
    return {
        "declare": [d.to_dict() for d in program.decls],
        "calls": [c.to_dict() for c in program.calls],
        "fetch": [d.name for d in program.decls],
    }


def _decision(program: Program):
    return analyze_request("program", _payload(program))


def _reads(call: Call) -> set[str]:
    out = set()
    for key in _NAME_KEYS:
        v = call.args.get(key)
        if isinstance(v, str):
            out.add(v)
    return out


CORPUS = list(generate_corpus(11, 60))
CACHEABLE = [p for p in CORPUS if _decision(p).cacheable]


def test_generator_yields_enough_cacheable_programs():
    assert len(CACHEABLE) >= 10
    # and the bypasses it does produce are typed, not accidental
    for p in CORPUS:
        d = _decision(p)
        if not d.cacheable:
            assert d.reason


def test_rename_is_not_a_trivial_hash_of_nothing():
    digests = {_decision(p).digest for p in CACHEABLE}
    assert len(digests) > 1


def test_swapping_dependent_calls_changes_the_digest():
    checked = 0
    for p in CACHEABLE:
        for i in range(len(p.calls) - 1):
            c1, c2 = p.calls[i], p.calls[i + 1]
            if c1.kind == "wait" or c2.kind == "wait":
                continue
            if c1.out is None or c1.out not in _reads(c2):
                continue    # want a true read-after-write pair
            q = p.copy()
            q.calls[i], q.calls[i + 1] = q.calls[i + 1], q.calls[i]
            dq = _decision(q)
            if not dq.cacheable:
                continue    # swap may surface a use-before-def bypass
            assert dq.digest != _decision(p).digest, (p, i)
            checked += 1
            break
    assert checked >= 3


# ---------------------------------------------------------------- directed

def _base() -> Program:
    return Program(
        decls=[
            Decl("a", "matrix", "FP64", (6, 6),
                 [[0, 1, 1.5], [2, 3, 0.5], [4, 0, 2.0]]),
            Decl("m", "matrix", "BOOL", (6, 6),
                 [[0, 0, True], [1, 1, True]]),
            Decl("t", "matrix", "FP64", (6, 6)),
        ],
        calls=[
            Call("mxm", "t", {
                "a": "a", "b": "a",
                "semiring": "GrB_PLUS_TIMES_SEMIRING_FP64",
                "mask": "m", "mask_comp": False, "mask_struct": True,
                "replace": False, "tran0": False, "tran1": False,
            }),
        ],
    )


def _mutations():
    def semiring(p):
        p.calls[0].args["semiring"] = "GrB_MIN_PLUS_SEMIRING_FP64"

    def accum(p):
        p.calls[0].args["accum"] = "GrB_PLUS_FP64"

    def mask_comp(p):
        p.calls[0].args["mask_comp"] = True

    def mask_value(p):
        p.calls[0].args["mask_struct"] = False

    def mask_dropped(p):
        del p.calls[0].args["mask"]

    def descriptor(p):
        p.calls[0].args["tran0"] = True

    def replace(p):
        p.calls[0].args["replace"] = True

    def dtype(p):
        p.decls[0].dtype = "FP32"
        p.decls[2].dtype = "FP32"

    def shape(p):
        p.decls[0].shape = (7, 7)
        p.decls[1].shape = (7, 7)
        p.decls[2].shape = (7, 7)

    def entries(p):
        p.decls[0].entries[0][2] = 99.0

    return [semiring, accum, mask_comp, mask_value, mask_dropped,
            descriptor, replace, dtype, shape, entries]


@pytest.mark.parametrize("mutate", _mutations(),
                         ids=lambda f: f.__name__)
def test_semantic_change_breaks_the_digest(mutate):
    base = _base()
    d_base = _decision(base)
    assert d_base.cacheable

    changed = _base()
    mutate(changed)
    d_changed = _decision(changed)
    assert d_changed.cacheable
    assert d_changed.digest != d_base.digest


def test_fetch_set_is_part_of_the_key():
    base = _base()
    payload = _payload(base)
    trimmed = dict(payload, fetch=["t"])
    empty = dict(payload, fetch=[])
    digests = {
        analyze_request("program", payload).digest,
        analyze_request("program", trimmed).digest,
        analyze_request("program", empty).digest,
    }
    assert len(digests) == 3


def test_udf_programs_bypass():
    p = _base()
    p.decls.append(Decl("ps", "vector", "PSET", (4,), [[0, [1, 2]]]))
    d = _decision(p)
    assert not d.cacheable
    assert d.reason == "udf"


def test_unregistered_operator_bypasses():
    p = _base()
    p.calls[0].args["semiring"] = "MY_CUSTOM_SEMIRING"
    d = _decision(p)
    assert not d.cacheable
    assert d.reason == "udf"


def test_reading_undeclared_private_names_bypasses():
    p = _base()
    p.calls[0].args["b"] = "not_declared_here"
    d = _decision(p)
    assert not d.cacheable
    assert d.reason == "private-ref"


def test_shared_reads_are_cacheable_and_name_sensitive():
    p = _base()
    p.calls[0].args["b"] = "shared:G"
    d = _decision(p)
    assert d.cacheable

    q = _base()
    q.calls[0].args["b"] = "shared:H"
    assert _decision(q).digest != d.digest


def test_signed_zero_splits_the_key():
    def declaring(zero: float) -> dict:
        return {
            "declare": [{"name": "v", "kind": "vector", "dtype": "FP64",
                         "shape": [4], "entries": [[0, zero]]}],
            "calls": [],
            "fetch": ["v"],
        }

    pos, neg = declaring(0.0), declaring(-0.0)
    assert pos == neg  # one tuple-tree compare would merge them
    d_pos, d_neg = analyze_request("program", pos), analyze_request("program", neg)
    assert d_pos.cacheable and d_neg.cacheable
    assert d_pos.digest != d_neg.digest

    with Service(ServiceConfig(cache=True)) as svc:
        first = svc.request(svc.open_session(), "program", pos, timing=True)
        second = svc.request(svc.open_session(), "program", neg, timing=True)
    assert first["timing"]["cache"] == "miss"
    assert second["timing"]["cache"] == "miss"
    [value] = second["fetched"]["v"]["values"]
    assert value == 0.0 and math.copysign(1.0, value) == -1.0
