import random

import numpy as np
import pytest

from tercode import (
    TestSet,
    flatten,
    original_size_bits,
    parse_test_set,
    partition,
    write_test_set,
)
from tercode.errors import EmptyInput, IllegalCharacter, RaggedRows

from helpers import block_strings, random_test_set


class TestParse:
    def test_basic_grid(self):
        ts = parse_test_set("01X\n1X0\n")
        assert ts.pattern_count == 2
        assert ts.width == 3
        assert ts.patterns == ("01X", "1X0")

    def test_lowercase_x_normalized(self):
        ts = parse_test_set("0x1\n")
        assert ts.patterns == ("0X1",)

    def test_comments_and_blank_lines_skipped(self):
        ts = parse_test_set("# header\n\n01\n  \n# more\n1X\n")
        assert ts.patterns == ("01", "1X")

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            parse_test_set("01\n0\n")

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacter):
            parse_test_set("0A\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_test_set("# only a comment\n")

    def test_accepts_file_object(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("01\n10\n")
        with open(path) as handle:
            assert parse_test_set(handle).pattern_count == 2

    def test_writer_then_parser_is_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            ts = random_test_set(rng)
            assert parse_test_set(write_test_set(ts)) == ts


class TestFlatten:
    def test_row_major_order(self):
        assert flatten(TestSet(("01", "1X"))) == "011X"

    def test_single_symbol(self):
        assert flatten(TestSet(("X",))) == "X"

    def test_preserves_row_order(self):
        ts = TestSet(("00", "11", "XX"))
        assert flatten(ts) == "0011XX"


class TestPartition:
    def test_exact_multiple(self):
        blocks = partition("011X", 2)
        assert blocks.dtype == np.uint8 and blocks.shape == (2, 2)
        assert block_strings(blocks) == ["01", "1X"]

    def test_pads_tail_with_x(self):
        blocks = partition("011", 2)
        assert blocks.shape == (2, 2)
        assert block_strings(blocks) == ["01", "1X"]

    def test_single_padded_block(self):
        blocks = partition("01", 4)
        assert blocks.shape == (1, 4)
        assert block_strings(blocks) == ["01XX"]

    def test_read_only(self):
        blocks = partition("011X", 2)
        with pytest.raises(ValueError):
            blocks[0, 0] = ord("1")

    def test_round_trip_for_all_k(self):
        rng = random.Random(7)
        for _ in range(40):
            ts = random_test_set(rng)
            s = flatten(ts)
            for k in list(range(1, 9)) + [13, 64, 65]:
                blocks = partition(s, k)
                assert blocks.shape == (-(-len(s) // k), k)
                joined = "".join(block_strings(blocks))
                assert joined[: len(s)] == s
                assert set(joined[len(s) :]) <= {"X"}

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            partition("01", 0)


class TestOriginalSize:
    def test_small_grid(self):
        assert original_size_bits(TestSet(("01X", "1X0"))) == 6

    def test_single_cell(self):
        assert original_size_bits(TestSet(("X",))) == 1

    def test_counts_x_positions(self):
        assert original_size_bits(TestSet(("XXXX",) * 3)) == 12


class TestInvariants:
    def test_testset_rejects_bad_rows(self):
        with pytest.raises(RaggedRows):
            TestSet(("01", "011"))
        with pytest.raises(IllegalCharacter):
            TestSet(("0U",))
        with pytest.raises(EmptyInput):
            TestSet(())

    def test_testset_error_precedence_and_message(self):
        # the first bad row in order decides
        with pytest.raises(IllegalCharacter, match="'A'"):
            TestSet(("01", "0A", "011"))
        with pytest.raises(RaggedRows, match="length 3 differs from 2"):
            TestSet(("01", "011", "0A"))
        # within a row, a length error comes before an illegal symbol
        with pytest.raises(RaggedRows):
            TestSet(("01", "0A1"))
        # the message names the first illegal symbol of the row
        for rows, symbol in [(("0101", "0A1B"), "'A'"), (("X1", "1x"), "'x'"),
                             (("0\u00e91",), "'\u00e9'"), (("01 ",), "' '")]:
            with pytest.raises(IllegalCharacter) as err:
                TestSet(rows)
            assert str(err.value) == f"illegal symbol {symbol} in pattern"
