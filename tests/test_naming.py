"""Generated-name scheme tests (repro.core.naming)."""

from repro.core.naming import (
    counting_name,
    indexed_name,
    is_generated_name,
    is_indexed_name,
    label_name,
    magic_name,
    supplementary_counting_name,
    supplementary_name,
)


class TestNames:
    def test_magic(self):
        assert magic_name("sg", "bf") == "magic_sg_bf"
        assert magic_name("sg", "fb") == "magic_sg_fb"  # distinct patterns

    def test_counting_and_indexed(self):
        assert counting_name("sg", "bf") == "cnt_sg_bf"
        assert indexed_name("sg", "bf") == "sg_ix_bf"

    def test_supplementary(self):
        assert supplementary_name(2, 3) == "supmagic2_3"
        assert supplementary_counting_name(2, 3) == "supcnt2_3"

    def test_label(self):
        assert label_name("r", 1, 2, 0) == "label_r_1_2_0"


class TestPredicates:
    def test_is_generated(self):
        for name in (
            "magic_sg_bf",
            "cnt_sg_bf",
            "sg_ix_bf",
            "supmagic2_2",
            "supcnt1_4",
            "label_r_1_2_0",
        ):
            assert is_generated_name(name), name
        for name in ("sg", "par", "up", "reverse"):
            assert not is_generated_name(name), name

    def test_is_indexed(self):
        assert is_indexed_name("sg_ix_bf")
        assert not is_indexed_name("cnt_sg_bf")
        assert not is_indexed_name("magic_sg_bf")
        assert not is_indexed_name("sg")
