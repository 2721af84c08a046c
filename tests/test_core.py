import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammingsupport import (
    GridFunction,
    HGFError,
    a1,
    a2,
    a4,
    all_words,
    dumps_hgf,
    elementary,
    hamming_distance,
    index_to_word,
    loads_hgf,
    neighbors,
    read_hgf,
    restrict,
    word_to_index,
)
from hammingsupport import core
from hammingsupport.core import MAX_VERTICES, ScaleError

from conftest import (
    fraction_add,
    fraction_permute,
    fraction_restrict,
    fraction_scale,
    fraction_sub,
    fraction_tensor,
)

# Fractions built from negative and non-unit denominators
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(-4, 4).filter(bool))
SHAPES = st.sampled_from([(0, 2), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4)])


def draw_values(data, n, q):
    return data.draw(st.lists(FRACTIONS, min_size=q**n, max_size=q**n))


def assert_reduced(f):
    assert f.den > 0 and gcd(f.den, *f.nums) == 1
    assert len(f.nums) == f.q**f.n and all(type(v) is int for v in f.nums)


class TestWordIndex:
    def test_examples(self):
        assert word_to_index((0, 0), 3) == 0
        assert word_to_index((1, 2), 3) == 5
        assert word_to_index((3, 3, 3), 4) == 63

    def test_first_coordinate_most_significant(self):
        assert word_to_index((1, 0, 0), 2) == 4

    @given(st.integers(2, 5), st.integers(0, 4), st.data())
    def test_round_trip(self, q, n, data):
        index = data.draw(st.integers(0, q**n - 1))
        assert word_to_index(index_to_word(index, n, q), q) == index

    def test_all_words_ordering(self):
        words = list(all_words(2, 3))
        assert words[word_to_index((2, 1), 3)] == (2, 1)
        assert len(words) == 9

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            word_to_index((0, 3), 3)
        with pytest.raises(ValueError):
            index_to_word(9, 2, 3)


class TestGraph:
    def test_distance_examples(self):
        assert hamming_distance((0, 0), (0, 0)) == 0
        assert hamming_distance((0, 1), (1, 1)) == 1
        assert hamming_distance((0, 1, 2), (2, 1, 0)) == 2

    def test_distance_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance((0, 0), (0,))

    def test_neighbors_order_and_count(self):
        assert neighbors((0, 0), 3) == [(1, 0), (2, 0), (0, 1), (0, 2)]
        assert neighbors((0,), 2) == [(1,)]
        assert len(neighbors((1, 2, 3), 4)) == 9
        assert all(hamming_distance((1, 2, 3), u) == 1 for u in neighbors((1, 2, 3), 4))


class TestAlgebra:
    def test_add_scale(self):
        f = GridFunction(1, 3, (Fraction(1), Fraction(-2), Fraction(1, 2)))
        assert (f + f.scale(-1)).is_zero()
        assert f.scale(0).is_zero()

    def test_a2_antisymmetry(self):
        f = elementary(a2(0, 1), 3) + elementary(a2(1, 0), 3)
        assert f.is_zero()

    def test_shape_mismatch(self):
        f = GridFunction.zero(1, 3)
        with pytest.raises(ValueError):
            f + GridFunction.zero(2, 3)
        with pytest.raises(ValueError):
            f + GridFunction.zero(1, 4)

    def test_value_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, 3, (Fraction(0),) * 8)
        with pytest.raises(ValueError):
            GridFunction(1, 1, (Fraction(0),))
        with pytest.raises(TypeError):
            GridFunction(0, 2, (0.5,))
        with pytest.raises(TypeError, match="expected int or Fraction, got float"):
            GridFunction.constant(1, 2, 0.5)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            GridFunction.zero(-1, 3)


class TestTensor:
    def test_against_pointwise_product(self):
        f = GridFunction.from_dict(1, 3, {(1,): Fraction(2, 3)})
        g = GridFunction.from_dict(2, 3, {(0, 2): -1, (1, 1): 5})
        fg = f.tensor(g)
        for x in all_words(1, 3):
            for y in all_words(2, 3):
                assert fg(x + y) == f(x) * g(y)

    def test_support_multiplies(self):
        ones = GridFunction.constant(1, 4, 1)
        f = GridFunction.from_dict(1, 4, {(0,): 1, (2,): -3})
        assert f.tensor(ones).support_size() == f.support_size() * 4

    def test_elementary_product_support(self):
        q = 4
        prod = elementary(a1(0, 1), q).tensor(elementary(a2(1, 3), q))
        assert prod.support_size() == 2 * (q - 1) * 2

    def test_scalar_identity(self):
        one = GridFunction.constant(0, 3, 1)
        f = GridFunction.from_dict(2, 3, {(0, 1): 7})
        assert one.tensor(f) == f
        assert f.tensor(one) == f

    @given(st.data())
    @settings(max_examples=40)
    def test_support_multiplicative(self, data):
        q = data.draw(st.integers(2, 4))
        ints = st.integers(-3, 3)
        f = GridFunction(1, q, tuple(map(Fraction, data.draw(
            st.lists(ints, min_size=q, max_size=q)))))
        g = GridFunction(2, q, tuple(map(Fraction, data.draw(
            st.lists(ints, min_size=q * q, max_size=q * q)))))
        assert f.tensor(g).support_size() == f.support_size() * g.support_size()

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            GridFunction.zero(1, 3).tensor(GridFunction.zero(1, 4))


class TestPermute:
    def test_identity(self):
        f = GridFunction.from_dict(2, 3, {(0, 1): 1, (2, 2): -1})
        assert f.permute((0, 1)) == f

    def test_inverse_round_trip(self):
        f = GridFunction.from_dict(3, 2, {(0, 1, 1): 3, (1, 0, 0): -2})
        sigma = (2, 0, 1)
        inverse = tuple(sigma.index(p) for p in range(3))
        assert f.permute(sigma).permute(inverse) == f

    def test_swap_commutes_tensor(self):
        q = 3
        f = elementary(a4(0), q).tensor(elementary(a2(0, 1), q))
        g = elementary(a2(0, 1), q).tensor(elementary(a4(0), q))
        assert f.permute((1, 0)) == g

    @given(st.data())
    @settings(max_examples=30)
    def test_group_action(self, data):
        n, q = 3, 2
        values = data.draw(
            st.lists(st.integers(-4, 4), min_size=q**n, max_size=q**n)
        )
        f = GridFunction(n, q, tuple(Fraction(v) for v in values))
        perms = st.permutations(range(n))
        sigma, tau = data.draw(perms), data.draw(perms)
        composed = tuple(tau[sigma[p]] for p in range(n))
        assert f.permute(tuple(sigma)).permute(tuple(tau)) == f.permute(composed)

    def test_support_preserved(self):
        f = GridFunction.from_dict(3, 3, {(0, 1, 2): 1, (1, 1, 1): 4})
        assert f.permute((2, 1, 0)).support_size() == f.support_size()

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            GridFunction.zero(2, 3).permute((0, 0))


class TestWordMap:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_against_index_to_word(self, n, q):
        # coordinate j of the image of x is sigma[j][x[tau[j]]], read back
        # through the positional encoding of index_to_word
        size = q**n
        words = [index_to_word(t, n, q) for t in range(size)]
        index = {word: t for t, word in enumerate(words)}
        rng = random.Random(10 * n + q)
        elements = [(tuple(range(n)), None)]
        elements += [(rng.sample(range(n), n), [rng.sample(range(q), q) for _ in range(n)])
                     for _ in range(4)]
        for tau, sigma in elements:
            symbols = sigma or [range(q)] * n
            expected = [index[tuple(symbols[j][x[tau[j]]] for j in range(n))] for x in words]
            assert core.word_map(n, q, tau, sigma) == expected, (tau, sigma)
        assert core.word_map(n, q, range(n)) == list(range(size))


class TestSupport:
    def test_sizes(self):
        assert GridFunction.zero(2, 3).support_size() == 0
        assert GridFunction.constant(2, 3, 1).support_size() == 9
        assert elementary(a1(1, 1), 3).support_size() == 4

    def test_words(self):
        f = GridFunction.from_dict(2, 3, {(2, 0): 1})
        assert f.support_words() == ((2, 0),)


class TestHGF:
    def test_round_trip(self, rng):
        for n, q in ((0, 2), (1, 5), (2, 3), (3, 4)):
            values = [Fraction(0)] * q**n
            for index in rng.sample(range(q**n), min(4, q**n)):
                values[index] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            f = GridFunction(n, q, tuple(values))
            assert loads_hgf(dumps_hgf(f)) == f

    def test_format_shape(self):
        f = GridFunction.from_dict(2, 3, {(0, 1): Fraction(1, 2), (2, 0): -3})
        assert dumps_hgf(f) == "2 3\n0 1 1/2\n2 0 -3\n"

    def test_comments_and_blanks(self):
        text = "# header comment\n2 3\n\n0 1 1/2  # entry\n2 0 -3\n"
        f = loads_hgf(text)
        assert f((0, 1)) == Fraction(1, 2) and f((2, 0)) == -3

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "missing"),
            ("2\n", "header"),
            ("2 3\n0 1\n", "tokens"),
            ("2 3\n0 3 1\n", "out of range"),
            ("2 3\n0 1 0\n", "zero values"),
            ("2 3\n0 1 1\n0 1 2\n", "duplicate"),
            ("2 3\n2 0 1\n0 1 1\n", "increasing"),
            ("2 3\n0 1 1/0\n", "bad value"),
            ("1 1\n", "n >= 0 and q >= 2"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(HGFError) as err:
            loads_hgf(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(HGFError, match="line 3"):
            loads_hgf("2 3\n0 1 1\n0 1 2\n")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("1 2\n0 " + "9" * 5000 + "\n", "bad value"),  # above int's digit limit
            ("1 2\n0 " + "9" * 3000 + "/0\n", "zero denominator"),
            ("1 2\n0 " + "x" * 3000 + "\n", "bad value"),
            ("1 2\n" + "9" * 4000 + " 1\n", "out of range"),
            ("9" * 4000 + " 2\n", "vertex cap"),
        ],
    )
    def test_errors_quote_a_bounded_prefix(self, text, fragment):
        with pytest.raises(HGFError) as err:
            loads_hgf(text)
        message = str(err.value)
        assert fragment in message and "..." in message
        assert len(message) < 120 and "\n" not in message

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"2 3\n0 1 \xc3\xa9\n", "line 2: non-ASCII byte 0xc3"),
            (b"\xff", "line 1: non-ASCII byte 0xff"),
            (b"2 3\r\n0 1 5\r\n\x80", "line 3: non-ASCII byte 0x80"),
            (b"2 3\r0 \xc3", "line 2: non-ASCII byte 0xc3"),
        ],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, message):
        path = tmp_path / "f.hgf"
        path.write_bytes(data)
        with pytest.raises(HGFError) as err:
            read_hgf(path)
        assert str(err.value) == message


# shapes for the codec tests: n = 0, the one-character symbols of q <= 10,
# and the multi-digit symbols of q > 10, which only the line loop reads
HGF_SHAPES = st.sampled_from(
    [(0, 3), (1, 2), (1, 10), (2, 3), (3, 2), (3, 4), (2, 10), (4, 3), (1, 12), (2, 11)]
)
ENTRY_VALUES = st.one_of(st.integers(-120, 120), st.integers(-(10**30), 10**30))
# one-character texts that int(symbols, q) would read inside a longer string,
# then whole tokens the line loop reads or rejects
SYMBOL_TEXTS = ["_", "+", "-", " ", "\t", "+1", "01", "1_0", "a", "10", "12", "9", "٣"]
VALUE_TEXTS = [
    "+5", "-0", "0", "00", "1_000", "1/2", "2/4", "4/0", "5 6", "", "_1", "٥", "x",
    "1/-2", "0/5", "1/2/3", "2/", "/2", "+1/+2", "1/ 2", "-3/0_6",
]


# the text dumps_hgf writes for the nine values 1/6, 2/6, ..., 9/6 at (2, 3)
DENSE_SIXTHS = (
    "2 3\n0 0 1/6\n0 1 1/3\n0 2 1/2\n1 0 2/3\n1 1 5/6\n1 2 1\n2 0 7/6\n2 1 4/3\n2 2 3/2\n"
)


def _outcome(parse, text):
    """(n, q, den, nums) of the parsed function, or the HGFError message."""
    try:
        f = parse(text)
    except HGFError as exc:
        return ("error", str(exc))
    return ("function", f.n, f.q, f.den, f.nums)


def _mutate(data, lines, n):
    """lines (header first, no terminator) after one drawn mutation."""
    body = range(1, len(lines))
    kind = data.draw(st.sampled_from([
        "double space", "tab", "trailing blank", "comment line", "inline comment",
        "symbol", "value", "zero value", "duplicate", "swap", "drop token",
        "extra token", "header spaces", "leading blank",
    ]))
    if kind == "trailing blank":
        return lines + [data.draw(st.sampled_from(["", "  ", "\t"]))]
    if kind == "comment line":
        at = data.draw(st.integers(0, len(lines)))
        return lines[:at] + ["# note"] + lines[at:]
    if kind == "header spaces":
        return [lines[0].replace(" ", data.draw(st.sampled_from(["  ", "\t", " \t"])))] + lines[1:]
    if kind == "leading blank":
        return [""] + lines
    if not body:
        return lines
    i = data.draw(st.sampled_from(body))
    tokens = lines[i].split(" ")
    out = list(lines)
    if kind in ("double space", "tab"):
        j = data.draw(st.integers(0, len(tokens) - 2)) if len(tokens) > 1 else 0
        sep = "  " if kind == "double space" else "\t"
        out[i] = " ".join(tokens[: j + 1]) + sep + " ".join(tokens[j + 1 :])
    elif kind == "inline comment":
        out[i] += "  # entry"
    elif kind == "symbol" and n:
        tokens[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(SYMBOL_TEXTS))
        out[i] = " ".join(tokens)
    elif kind in ("value", "zero value"):
        tokens[-1] = "0" if kind == "zero value" else data.draw(st.sampled_from(VALUE_TEXTS))
        out[i] = " ".join(tokens)
    elif kind == "duplicate":
        out.insert(i, lines[i])
    elif kind == "swap" and i + 1 < len(lines):
        out[i], out[i + 1] = out[i + 1], out[i]
    elif kind == "drop token":
        out[i] = " ".join(tokens[:-1])
    elif kind == "extra token":
        out[i] += " 1"
    return out


def _assert_bulk_peak_within_the_line_loop(expected):
    """loads_hgf takes the bulk pass on expected's text, peaking no higher than the loop."""
    text = dumps_hgf(expected)
    assert core._loads_canonical(text) is not None
    peaks = []
    for parse in (loads_hgf, core._loads_lines):
        tracemalloc.start()
        try:
            f = parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f == expected
        del f
        peaks.append(peak)
    assert peaks[0] <= peaks[1], peaks


class TestHGFBulkPass:
    """The bulk pass for the layout dumps_hgf writes, against the line loop."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_line_loop_on_mutated_text(self, data):
        n, q = data.draw(HGF_SHAPES)
        nums = data.draw(st.lists(ENTRY_VALUES, min_size=q**n, max_size=q**n))
        den = data.draw(st.sampled_from([1, 1, 1, 6]))
        text = dumps_hgf(GridFunction(n, q, [Fraction(v, den) for v in nums]))
        lines = text.split("\n")[:-1]
        for _ in range(data.draw(st.integers(1, 2))):
            lines = _mutate(data, lines, n)
        ending = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = ending.join(lines) + data.draw(st.sampled_from([ending, ""]))
        assert _outcome(loads_hgf, text) == _outcome(core._loads_lines, text)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_line_loop_after_one_small_edit(self, data):
        # a sign, blank or "_" in a symbol slot is what int(symbols, q) also
        # reads; a repeated or swapped line is what the order test must catch
        n, q = data.draw(HGF_SHAPES)
        nums = data.draw(st.lists(st.integers(-120, 120), min_size=q**n, max_size=q**n))
        den = data.draw(st.sampled_from([1, 6]))
        lines = dumps_hgf(GridFunction(n, q, [Fraction(v, den) for v in nums])).split("\n")[:-1]
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["character", "repeat line", "swap lines"]))
        if edit == "character":
            k = data.draw(st.integers(0, len(lines[i]) - 1))
            c = data.draw(st.sampled_from(" \t_+-0129a/#"))
            lines[i] = lines[i][:k] + c + lines[i][k + 1 :]
        elif edit == "repeat line":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines) + "\n"
        assert _outcome(loads_hgf, text) == _outcome(core._loads_lines, text)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_written_text_takes_the_bulk_pass(self, data):
        # n = 0, dense and sparse files, integer and den-6 values, q <= 10
        n, q = data.draw(HGF_SHAPES.filter(lambda shape: shape[1] <= 10))
        nums = data.draw(st.lists(st.one_of(st.just(0), ENTRY_VALUES), min_size=q**n, max_size=q**n))
        den = data.draw(st.sampled_from([1, 6]))
        f = GridFunction(n, q, [Fraction(v, den) for v in nums])
        assert core._loads_canonical(dumps_hgf(f)) == f

    @pytest.mark.parametrize("text", [
        "3 3\n0 1 2 5\n0 2 1 7\n",
        "3 10\n0 0 9 -12\n9 9 9 1000000000000000000000000\n",
        "16 2\n" + "1 " * 16 + "-1\n",
        "2 3\n",
        "2 3\r\n0 1 5\r\n2 2 -4",
        "3 3\n0 1 1 1/2\n",
        DENSE_SIXTHS,
        "3 3\n0 0 1 -1/6\n1 2 0 5/3\n2 2 2 7\n",
        "2 3\n0 0 +1/+6\n0 2 1_0/0_3\n1 1 2/4\n",
        "0 3\n5\n",  # n = 0
    ])
    def test_canonical_text_takes_the_bulk_pass(self, text):
        f = core._loads_canonical(text)
        assert f is not None and f == core._loads_lines(text)

    @pytest.mark.parametrize("text", [
        "3 3\n0 _ 1 5\n",  # int("0_1", 3) would take it
        "3 3\n+ 1 1 5\n",  # a sign
        "3 3\n- 1 1 5\n",  # int reads a negative index
        "3 3\n0 1 1 5\n- 2 2 5\n",
        "3 3\n  1 1 5\n",  # whitespace
        "3 3\n0 1 3 5\n",  # out of range
        "2 12\n0 11 5\n",  # q > 10
        "3 3\n0 1 1 5\n0 1 1 5\n",  # duplicate
        "3 3\n0 1 2 5\n0 1 1 5\n",  # out of order
        "3 3\n0 1 1 -0\n",  # zero
        "3 3\n0 1 1 5 6\n",  # a token too many
        "3 3\n0 1 5\n",  # a token too few
        "3 3\n0 1  1 5\n",  # doubled space
        "3 3\n0 1 1 1 /2\n",  # whitespace around "/"
        "3 3\n0 1 1 1/ 2\n",
        "3 3\n0 1 1 1/\t2\n",
        "3 3\n0 1 1 1/2 \n",  # trailing whitespace after a fraction
        "3 3\n0 1 1 1/\u00a02\n",  # non-ASCII whitespace
        "3 3\n0 1 1 1/0\n",  # zero denominator
        "3 3\n0 1 1 0/5\n",  # zero value
        "3 3\n0 1 1 1/2/3\n",
        "3 3\n0 1 1 /2\n",
        "3 3\n0 1 1 2/\n",
        "3 3\n0 1 1 1/-2\n",  # negative denominator
        DENSE_SIXTHS.replace("1 0 2/3", "1 2 2/3"),  # one symbol changed
        DENSE_SIXTHS.replace("0 1 1/3\n0 2 1/2", "0 2 1/2\n0 1 1/3"),  # two lines swapped
        DENSE_SIXTHS.replace("2 2 3/2", "2 2 3/2 1"),  # a token too many
        "3 3\n0 1 1 5  # entry\n",  # a comment
        "3  3\n0 1 1 5\n",  # header layout
    ])
    def test_other_layouts_go_to_the_line_loop(self, text):
        assert core._loads_canonical(text) is None
        assert _outcome(loads_hgf, text) == _outcome(core._loads_lines, text)

    @pytest.mark.parametrize("den", [1, 6])
    def test_peak_memory_within_the_line_loop(self, den, rng):
        # a dense file at the vertex cap: the bulk pass holds the line list,
        # two int lists and the split parts of one chunk of values, never
        # those of every line.  (8, 4) rather than (16, 2) halves the loop's
        # tokens, which tracemalloc makes slow to allocate
        nums = [rng.choice([-3, -1, 1, 2, 7, 250, 10**6]) for _ in range(2**16)]
        _assert_bulk_peak_within_the_line_loop(GridFunction._reduced(8, 4, nums, den))

    def test_sparse_peak_memory_within_the_line_loop(self, rng):
        # one zero value makes a sparse file of 4095 lines, whose words are
        # compared with the texts of their indices one line at a time
        nums = [rng.choice([-3, -1, 1, 2, 7, 250, 10**6]) for _ in range(4**6)]
        nums[rng.randrange(4**6)] = 0
        _assert_bulk_peak_within_the_line_loop(GridFunction._reduced(6, 4, nums, 1))

    @pytest.mark.parametrize("n, q", [(0, 2), (1, 2), (1, 16), (2, 3), (3, 10), (5, 2), (2, 11)])
    def test_dumps_matches_the_entrywise_writer(self, n, q, rng):
        values = [rng.choice([0, 0, rng.randint(-50, 50), Fraction(rng.randint(-9, 9), 6)])
                  for _ in range(q**n)]
        f = GridFunction(n, q, values)
        lines = [f"{n} {q}"]
        for index, value in f.nonzero_items():
            text = str(value.numerator) if value.denominator == 1 else str(value)
            lines.append(" ".join([*map(str, index_to_word(index, n, q)), text]))
        assert dumps_hgf(f) == "\n".join(lines) + "\n"
        assert loads_hgf(dumps_hgf(f)) == f


class TestRepresentation:
    @given(st.data())
    @settings(max_examples=60)
    def test_values_round_trip(self, data):
        n, q = data.draw(SHAPES)
        values = draw_values(data, n, q)
        f = GridFunction(n, q, values)
        assert_reduced(f)
        assert f.den == lcm(*(v.denominator for v in values))
        assert list(f.values) == values
        g = GridFunction(n, q, f.values)
        assert g == f and hash(g) == hash(f)

    def test_equal_fractions_equal_representation(self):
        half = GridFunction(1, 2, (Fraction(2, 4), 0))
        assert half == GridFunction(1, 2, (Fraction(1, 2), 0))
        assert (half.den, half.nums) == (2, (1, 0))
        assert loads_hgf("1 2\n0 2/4\n") == half
        assert loads_hgf("1 2\n0 1/-2\n") == -half
        assert GridFunction(1, 2, (2, 0)).scale(Fraction(1, 4)) == half

    def test_internal_constructor_reduces(self):
        f = GridFunction._reduced(1, 3, (2, -4, 6), -4)
        assert (f.den, f.nums) == (2, (-1, 2, -3))
        assert f == GridFunction(1, 3, (Fraction(-1, 2), 1, Fraction(-3, 2)))
        zero = GridFunction._reduced(1, 3, (0, 0, 0), 6)
        assert (zero.den, zero.nums) == (1, (0, 0, 0))

    @given(st.data())
    @settings(max_examples=40)
    def test_cancellation_clears_the_denominator(self, data):
        n, q = data.draw(SHAPES)
        f = GridFunction(n, q, draw_values(data, n, q))
        assert (f - f).den == 1 and f - f == GridFunction.zero(n, q)
        assert (f + -f).den == 1 and f.scale(0).den == 1

    def test_slices_cancel_the_denominator(self):
        f = GridFunction.from_dict(2, 3, {(0, 1): 3, (1, 2): Fraction(1, 2)})
        assert f.den == 2
        assert restrict(f, 0, 0).den == 1 and restrict(f, 0, 0).nums == (0, 3, 0)
        assert restrict(f, 1, 1).den == 1 and restrict(f, 1, 1).nums == (3, 0, 0)
        assert restrict(f, 0, 1).den == 2 and restrict(f, 0, 1).nums == (0, 0, 1)

    @given(st.data())
    @settings(max_examples=60)
    def test_operations_match_fraction_oracle(self, data):
        n, q = data.draw(SHAPES)
        a, b = draw_values(data, n, q), draw_values(data, n, q)
        f, g = GridFunction(n, q, a), GridFunction(n, q, b)
        c = data.draw(FRACTIONS)
        m = data.draw(st.integers(0, 2))
        h_values = draw_values(data, m, q)
        sigma = tuple(data.draw(st.permutations(range(n))))
        results = [
            (f + g, fraction_add(a, b)),
            (f - g, fraction_sub(a, b)),
            (-f, fraction_scale(a, -1)),
            (f.scale(c), fraction_scale(a, c)),
            (f.tensor(GridFunction(m, q, h_values)), fraction_tensor(a, h_values)),
            (f.permute(sigma), fraction_permute(a, n, q, sigma)),
        ]
        results += [
            (restrict(f, r, k), fraction_restrict(a, n, q, r, k))
            for r in range(n)
            for k in range(q)
        ]
        for out, expected in results:
            assert_reduced(out)
            assert list(out.values) == expected
            assert out == GridFunction(out.n, q, expected)
        assert f.is_zero() == (not any(a))
        assert f.support_size() == sum(1 for v in a if v)
        assert dict(f.nonzero_items()) == {i: v for i, v in enumerate(a) if v}
        assert [f.value_at(i) for i in range(q**n)] == a

    @given(st.data())
    @settings(max_examples=40)
    def test_hgf_round_trip_keeps_denominators(self, data):
        n, q = data.draw(SHAPES)
        f = GridFunction(n, q, draw_values(data, n, q))
        g = loads_hgf(dumps_hgf(f))
        assert g == f and (g.den, g.nums) == (f.den, f.nums)


BUILDERS = {
    "values": lambda n, q: GridFunction(n, q, ()),
    "zero": GridFunction.zero,
    "constant": lambda n, q: GridFunction.constant(n, q, Fraction(1, 3)),
    "from_callable": lambda n, q: GridFunction.from_callable(n, q, lambda w: 1),
    "from_dict": lambda n, q: GridFunction.from_dict(n, q, {}),
}


class TestVertexCap:
    @pytest.mark.parametrize("n, q", [(9, 8), (40, 10), (17, 2)])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_refused_before_allocation(self, name, n, q):
        tracemalloc.start()
        try:
            with pytest.raises(ScaleError, match=f"exceeds the vertex cap {MAX_VERTICES}"):
                BUILDERS[name](n, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_tensor_above_cap(self):
        with pytest.raises(ScaleError):
            GridFunction.zero(9, 2).tensor(GridFunction.zero(8, 2))

    def test_cap_error_is_a_value_error(self):
        assert issubclass(ScaleError, ValueError)
