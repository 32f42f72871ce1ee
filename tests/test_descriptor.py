"""Descriptors and Table V literals (paper section III-C)."""

import pytest

import repro as grb
from repro.descriptor import Field, Value, effective


class TestDescriptorBasics:
    def test_new_is_default(self):
        d = grb.descriptor_new()
        assert not d.replace and not d.mask_complement
        assert not d.transpose0 and not d.transpose1

    def test_fig3_desc_tsr(self):
        # lines 14-18 of Fig. 3
        d = grb.descriptor_new()
        grb.descriptor_set(d, grb.INP0, grb.TRAN)
        grb.descriptor_set(d, grb.MASK, grb.SCMP)
        grb.descriptor_set(d, grb.OUTP, grb.REPLACE)
        assert d.transpose0 and d.mask_complement and d.replace
        assert not d.transpose1

    def test_set_returns_self_for_chaining(self):
        d = grb.Descriptor().set(grb.OUTP, grb.REPLACE).set(grb.INP1, grb.TRAN)
        assert d.replace and d.transpose1

    def test_invalid_field_value_combo(self):
        d = grb.descriptor_new()
        with pytest.raises(grb.InvalidValue):
            d.set(grb.OUTP, grb.TRAN)  # TRAN only valid on inputs
        with pytest.raises(grb.InvalidValue):
            d.set(grb.MASK, grb.REPLACE)
        with pytest.raises(grb.InvalidValue):
            d.set(grb.INP0, grb.SCMP)

    def test_non_enum_arguments(self):
        d = grb.descriptor_new()
        with pytest.raises(grb.InvalidValue):
            d.set("GrB_OUTP", grb.REPLACE)
        with pytest.raises(grb.InvalidValue):
            d.set(grb.OUTP, "GrB_REPLACE")

    def test_null_descriptor_in_set(self):
        with pytest.raises(grb.NullPointer):
            grb.descriptor_set(None, grb.OUTP, grb.REPLACE)

    def test_mask_flags_compose(self):
        d = grb.Descriptor().set(grb.MASK, grb.SCMP).set(grb.MASK, grb.STRUCTURE)
        assert d.mask_complement and d.mask_structure

    def test_freed_descriptor_unusable(self):
        d = grb.descriptor_new()
        d.free()
        with pytest.raises(grb.UninitializedObject):
            d.set(grb.OUTP, grb.REPLACE)
        with pytest.raises(grb.UninitializedObject):
            _ = d.replace
        with pytest.raises(grb.UninitializedObject):
            effective(d)  # a call with a freed descriptor is an API error


class TestPresets:
    def test_desc_tsr_preset_matches_fig3(self):
        assert grb.DESC_TSR.transpose0
        assert grb.DESC_TSR.mask_complement
        assert grb.DESC_TSR.replace
        assert not grb.DESC_TSR.transpose1

    def test_simple_presets(self):
        assert grb.DESC_T0.transpose0 and not grb.DESC_T0.transpose1
        assert grb.DESC_T1.transpose1 and not grb.DESC_T1.transpose0
        assert grb.DESC_T0T1.transpose0 and grb.DESC_T0T1.transpose1
        assert grb.DESC_R.replace
        assert grb.DESC_SC.mask_complement
        assert grb.DESC_RSC.replace and grb.DESC_RSC.mask_complement
        # predefined descriptors are read-only, as in the C API
        with pytest.raises(grb.InvalidValue):
            grb.DESC_R.set(grb.INP0, grb.TRAN)
        grb.DESC_R.free()
        assert grb.DESC_R.replace and not grb.DESC_R.transpose0


class TestLiterals:
    def test_table5_literals_exist(self):
        # every literal of Table V has a Python counterpart
        assert grb.ALL is not None
        assert grb.NULL is None
        assert isinstance(grb.OUTP, Field) and isinstance(grb.MASK, Field)
        assert isinstance(grb.INP0, Field) and isinstance(grb.INP1, Field)
        assert isinstance(grb.REPLACE, Value)
        assert isinstance(grb.SCMP, Value)
        assert isinstance(grb.TRAN, Value)
        assert grb.BOOL is not None and grb.INT32 is not None
        assert grb.FP32 is not None

    def test_spec_string_values(self):
        assert grb.OUTP.value == "GrB_OUTP"
        assert grb.REPLACE.value == "GrB_REPLACE"
        assert grb.SCMP.value == "GrB_SCMP"
        assert grb.TRAN.value == "GrB_TRAN"

    def test_effective_null_is_default(self):
        d = effective(None)
        assert not d.replace and not d.transpose0

    def test_all_repr(self):
        assert repr(grb.ALL) == "GrB_ALL"
