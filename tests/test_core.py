import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tercode import (
    TestSet,
    flatten,
    original_size_bits,
    parse_test_set,
    partition,
    write_test_set,
)
from tercode.errors import EmptyInput, IllegalCharacter, RaggedRows, TercodeError

from helpers import (
    block_strings,
    naive_check_patterns,
    naive_parse_test_set,
    random_test_set,
)

# symbols, the comment mark, whitespace and line boundaries of every kind
# (\x1c, \x85 and \u2028 end a line for str.splitlines), and two foreign symbols
PARSE_ALPHABET = "01Xx# \t\r\n\v\f\x1c\x85\u2028A\u00e9"
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"]


def same_outcome(run, oracle, arg):
    """``run(arg)`` gives what ``oracle(arg)`` gives: the same value, or an
    error of the same class with the same message."""
    try:
        want = oracle(arg)
    except TercodeError as exc:
        with pytest.raises(type(exc)) as err:
            run(arg)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    assert run(arg) == want


@st.composite
def pattern_files(draw):
    """Files of one width over 0, 1, X and x, with comment lines (that may
    hold x), blank and indented lines and mixed line ends; sometimes a row
    is cut short or given a foreign symbol."""
    width = draw(st.integers(1, 12))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind == "row":
            line = draw(st.text("01Xx", min_size=width, max_size=width))
            if draw(st.integers(0, 9)) == 0:
                line = draw(st.text(PARSE_ALPHABET, max_size=width + 1))
        elif kind == "comment":
            line = "#" + draw(st.text("01Xx# A\u00e9", max_size=8))
        else:
            line = ""
        pad = st.text(" \t\v\f", max_size=2)
        lines.append(draw(pad) + line + draw(pad) + draw(st.sampled_from(LINE_ENDS)))
    return "".join(lines)


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

    @settings(max_examples=400, deadline=None)
    @given(st.text(PARSE_ALPHABET, max_size=40) | pattern_files())
    def test_agrees_with_naive_parser(self, text):
        same_outcome(parse_test_set, naive_parse_test_set, text)

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

    def test_testset_rejects_zero_width_rows(self):
        with pytest.raises(EmptyInput, match="^test set has zero-width patterns$"):
            TestSet(("",))

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

    @pytest.mark.parametrize("rows", [
        ("00", "0", "000"),  # the right total length, ragged rows
        ("01", "0A", "011"),  # a bad symbol before a bad length
        ("01", "011", "0A"),  # a bad length before a bad symbol
        ("0A1", "01"),  # a bad symbol in the first row
        ("01", "1\u00e9"),  # a foreign symbol outside ASCII
        ("01", "10", "1"),  # only the last row is short
        ("X", "x"),  # a lowercase x is not a symbol of the set
        ("01", "0A1B", "0"),
        ("0101", "1010"),
        ("X",),
    ])
    def test_testset_agrees_with_row_by_row_check(self, rows):
        def check(patterns):
            naive_check_patterns(patterns)
            return TestSet(patterns)

        same_outcome(TestSet, check, rows)
