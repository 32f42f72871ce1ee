"""Vector collection semantics (paper section III-A)."""

import numpy as np
import pytest

import repro as grb
from repro.ops import binary


class TestConstruction:
    def test_vector_new(self):
        v = grb.vector_new(grb.FP32, 10)
        assert v.size == 10 and v.nvals() == 0
        assert v.type is grb.FP32

    def test_size_must_be_positive(self):
        # paper: N > 0
        with pytest.raises(grb.InvalidValue):
            grb.Vector(grb.FP32, 0)
        with pytest.raises(grb.InvalidValue):
            grb.Vector(grb.FP32, -3)

    def test_null_domain(self):
        with pytest.raises(grb.NullPointer):
            grb.Vector(None, 5)

    def test_non_type_domain(self):
        with pytest.raises(grb.InvalidValue):
            grb.Vector("GrB_FP32", 5)


class TestBuild:
    def test_build_basic(self):
        v = grb.Vector(grb.INT32, 10)
        v.build([5, 1, 8], [10, 20, 30])
        idx, vals = v.extract_tuples()
        assert idx.tolist() == [1, 5, 8]
        assert vals.tolist() == [20, 10, 30]

    def test_build_with_dup_combines(self):
        # Fig. 3 line 28 passes GrB_PLUS_INT32 as dup
        v = grb.Vector(grb.INT32, 10)
        v.build([3, 3, 3], [1, 2, 4], binary.PLUS[grb.INT32])
        assert v.extract_element(3) == 7

    def test_build_duplicates_without_dup_error(self):
        v = grb.Vector(grb.INT32, 10)
        with pytest.raises(grb.InvalidValue):
            v.build([3, 3], [1, 2])

    def test_build_into_nonempty_is_output_not_empty(self):
        v = grb.Vector(grb.INT32, 10)
        v.build([1], [1])
        with pytest.raises(grb.OutputNotEmpty):
            v.build([2], [2])

    def test_build_index_out_of_range(self):
        v = grb.Vector(grb.INT32, 10)
        with pytest.raises(grb.IndexOutOfBounds):
            v.build([10], [1])
        with pytest.raises(grb.IndexOutOfBounds):
            v.build([-1], [1])

    def test_build_length_mismatch(self):
        v = grb.Vector(grb.INT32, 10)
        with pytest.raises(grb.DimensionMismatch):
            v.build([1, 2], [1])

    def test_build_scalar_broadcast(self):
        v = grb.Vector(grb.INT32, 5)
        v.build([0, 2, 4], 7)
        assert v.to_dense(0).tolist() == [7, 0, 7, 0, 7]

    def test_build_casts_values(self):
        v = grb.Vector(grb.INT8, 5)
        v.build([0], [300])  # wraps mod 256
        assert v.extract_element(0) == 44


class TestElementAccess:
    def test_set_then_extract(self):
        v = grb.Vector(grb.FP64, 4)
        v.set_element(2, 1.5)
        assert v.extract_element(2) == 1.5

    def test_set_overwrites(self):
        v = grb.Vector(grb.INT32, 4)
        v.set_element(1, 5)
        v.set_element(1, 9)
        assert v.extract_element(1) == 9
        assert v.nvals() == 1

    def test_extract_missing_is_no_value(self):
        v = grb.Vector(grb.INT32, 4)
        with pytest.raises(grb.NoValue):
            v.extract_element(0)

    def test_undefined_not_zero(self):
        # paper: elements not in the content are UNDEFINED, not 0
        v = grb.Vector(grb.INT32, 4)
        v.set_element(0, 0)  # an explicit stored zero
        assert v.nvals() == 1
        assert v.extract_element(0) == 0
        with pytest.raises(grb.NoValue):
            v.extract_element(1)

    def test_remove_element(self):
        v = grb.Vector(grb.INT32, 4)
        v.set_element(1, 5)
        v.remove_element(1)
        assert v.nvals() == 0
        v.remove_element(1)  # removing absent is a no-op
        assert v.nvals() == 0

    def test_index_bounds(self):
        v = grb.Vector(grb.INT32, 4)
        with pytest.raises(grb.IndexOutOfBounds):
            v.set_element(4, 1)
        with pytest.raises(grb.IndexOutOfBounds):
            v.extract_element(-1)
        with pytest.raises(grb.IndexOutOfBounds):
            v.remove_element(99)

    def test_keyword_arguments(self):
        # the C API's parameter names are part of the public signature
        v = grb.Vector(grb.INT64, 4)
        v.build(indices=[1, 1], values=[2, 3], dup=binary.PLUS[grb.INT64])
        v.set_element(index=3, value=7)
        assert v.extract_element(index=1) == 5
        v.remove_element(index=1)
        v.resize(size=5)
        assert v.size == 5 and v.to_dense(0).tolist() == [0, 0, 0, 7, 0]

    def test_contains_and_iter(self):
        v = grb.Vector.from_coo(grb.INT32, 6, [1, 4], [10, 40])
        assert 1 in v and 4 in v and 2 not in v
        assert {i: int(x) for i, x in v} == {1: 10, 4: 40}


class TestLifecycle:
    def test_clear_keeps_size(self):
        v = grb.Vector.from_coo(grb.INT32, 6, [1, 4], [10, 40])
        v.clear()
        assert v.size == 6 and v.nvals() == 0

    def test_dup_is_independent(self):
        v = grb.Vector.from_coo(grb.INT32, 6, [1], [10])
        w = v.dup()
        w.set_element(1, 99)
        assert v.extract_element(1) == 10
        assert w.extract_element(1) == 99

    def test_free_makes_unusable(self):
        v = grb.Vector(grb.INT32, 4)
        v.free()
        with pytest.raises(grb.UninitializedObject):
            v.nvals()
        with pytest.raises(grb.UninitializedObject):
            v.set_element(0, 1)


class TestDense:
    def test_to_dense_requires_fill(self):
        v = grb.Vector.from_coo(grb.FP64, 4, [1], [2.5])
        assert v.to_dense(0.0).tolist() == [0.0, 2.5, 0.0, 0.0]
        assert v.to_dense(np.inf).tolist() == [np.inf, 2.5, np.inf, np.inf]

    def test_from_dense_drops_implied_zero(self):
        v = grb.Vector.from_dense(grb.INT32, [0, 5, 0, 7])
        assert v.nvals() == 2
        idx, vals = v.extract_tuples()
        assert idx.tolist() == [1, 3] and vals.tolist() == [5, 7]

    def test_from_dense_custom_implied_zero(self):
        v = grb.Vector.from_dense(grb.FP64, [np.inf, 3.0], implied_zero=np.inf)
        assert v.nvals() == 1


class TestUDTVector:
    def test_frozenset_vector(self):
        T = grb.powerset_type()
        v = grb.Vector(T, 3)
        v.build([0, 2], [frozenset({1, 2}), frozenset({3})])
        assert v.extract_element(0) == frozenset({1, 2})

    def test_udt_wrong_class_rejected(self):
        T = grb.powerset_type()
        v = grb.Vector(T, 3)
        with pytest.raises(grb.InvalidValue):
            v.build([0], [{1, 2}])  # a set, not a frozenset
