"""Exact function algebra on the vertex set of the Hamming graph H(n,q).

Vertices are words of length n over the alphabet Sigma_q = {0, ..., q-1};
two words are adjacent when their Hamming distance is 1.  A function
f: Sigma_q^n -> Q is stored as integer numerators over one denominator:
`nums`, a tuple of q^n ints indexed by the base-q positional encoding of
the word (coordinate 0 is the most significant digit), and `den`, one
positive int, with f(x) = nums[x] / den.  The pair is kept reduced,
gcd(den, *nums) = 1, so den = 1 for the zero function and for every
integer-valued one.  Equal functions have equal (n, q, den, nums), so
equality and hashing compare those directly.  All arithmetic is exact
integer arithmetic.  `values`, the q^n values as Fractions, is derived on
first read.

Coordinates are 0-based throughout the Python API.  Write-ups about these
objects usually number coordinates from 1; the CLI accepts 1-based
coordinates and converts at the boundary.

n = 0 is allowed (a single scalar) so tensor-product recursions are total.

The HGF text format round-trips any GridFunction:

    line 1:            "n q"
    one line per nonzero entry, in increasing index order:
                       "s1 s2 ... sn value"  with value "num" or "num/den"
    "#" starts a comment; blank lines are ignored.

The layout `dumps_hgf` writes is the fast case of `loads_hgf`: with no
comment, single spaces, `num` or `num/den` values with den > 0 and q <= 10
(one character per symbol) it is read in whole-list passes, a dense file
checked against the texts of the words it must hold.  Every other valid
layout (comments, blank lines, extra whitespace, q > 10, negative
denominators) still parses, line by line, and that reader gives every
error message.

Every constructor and the parser reject q^n above MAX_VERTICES before they
allocate anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, islice, product, repeat
from math import gcd, lcm
from operator import add, itemgetter, lt, methodcaller, mul, neg, sub
from typing import Callable, Iterator, Mapping, Sequence

Word = tuple[int, ...]

# The largest q^n any constructor, parser or spectral routine accepts.  It is
# the memory bound of the spectral engine, which holds at most n+1 integer
# arrays of q^n entries.
MAX_VERTICES = 2**16


def validate_alphabet(q: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")


def validate_word(word: Sequence[int], q: int) -> None:
    validate_alphabet(q)
    for s in word:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for alphabet size {q}")


def power_exceeds(q: int, n: int, limit: int) -> bool:
    """Whether q^n > limit, decided without forming a power far above limit (q >= 2)."""
    value = 1
    for _ in range(n):
        value *= q
        if value > limit:
            return True
    return False


def exceeds_vertex_cap(n: int, q: int) -> bool:
    """Whether q^n > MAX_VERTICES, decided without forming a huge power (q >= 2)."""
    return power_exceeds(q, n, MAX_VERTICES)


def word_to_index(word: Sequence[int], q: int) -> int:
    """Base-q positional value of a word; coordinate 0 is most significant."""
    validate_word(word, q)
    value = 0
    for s in word:
        value = value * q + s
    return value


def index_to_word(index: int, n: int, q: int) -> Word:
    validate_alphabet(q)
    if not 0 <= index < q**n:
        raise ValueError(f"index {index} out of range for q^n = {q**n}")
    digits = []
    for _ in range(n):
        index, rem = divmod(index, q)
        digits.append(rem)
    return tuple(reversed(digits))


def word_map(
    n: int, q: int, tau: Sequence[int], sigma: Sequence[Sequence[int]] | None = None
) -> list[int]:
    """For every word x in index order, the index of the word y with y[j] = sigma[j][x[tau[j]]].

    tau is a 0-based permutation of range(n); sigma, when given, holds one
    permutation of range(q) per coordinate of y, and None keeps symbols.
    """
    place = [0] * n
    for j, c in enumerate(tau):
        place[c] = j  # coordinate c of x lands on coordinate j of y
    index = [0]
    for c in range(n):
        j = place[c]
        weight = q ** (n - 1 - j)
        steps = [s * weight for s in (range(q) if sigma is None else sigma[j])]
        index = [a + b for a in index for b in steps]
    return index


def all_words(n: int, q: int) -> Iterator[Word]:
    """All q^n words in increasing index order."""
    validate_alphabet(q)
    return product(range(q), repeat=n)


def hamming_distance(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a != b for a, b in zip(x, y))


def neighbors(word: Sequence[int], q: int) -> list[Word]:
    """The n*(q-1) words at distance 1, coordinate-major, symbol-ascending."""
    validate_word(word, q)
    w = tuple(word)
    out = []
    for r in range(len(w)):
        for s in range(q):
            if s != w[r]:
                out.append(w[:r] + (s,) + w[r + 1 :])
    return out


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class ScaleError(ValueError):
    """q^n above MAX_VERTICES."""


def validate_shape(n: int, q: int) -> None:
    """Reject a bad alphabet, a negative n, or q^n above MAX_VERTICES.

    It forms no power above the cap, so callers run it before they allocate.
    """
    validate_alphabet(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if exceeds_vertex_cap(n, q):
        raise ScaleError(f"q^n = {q}^{n} exceeds the vertex cap {MAX_VERTICES}")


@dataclass(frozen=True, init=False)
class GridFunction:
    """An exact rational-valued function on Sigma_q^n: f(x) = nums[x] / den.

    (nums, den) is reduced: den > 0 and gcd(den, *nums) = 1, so equality and
    hashing compare (n, q, den, nums) directly.
    """

    n: int
    q: int
    den: int
    nums: tuple[int, ...]

    def __init__(self, n: int, q: int, values: Sequence) -> None:
        validate_shape(n, q)
        if len(values) != q**n:
            raise ValueError(f"need {q**n} values for n={n}, q={q}, got {len(values)}")
        for v in values:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(v).__name__}")
        # over the least common denominator of values in lowest terms the
        # pair is already reduced
        den = lcm(*{v.denominator for v in values})
        nums = tuple(v.numerator * (den // v.denominator) for v in values)
        self.__dict__.update(n=n, q=q, den=den, nums=nums)

    @classmethod
    def _reduced(cls, n: int, q: int, nums, den: int = 1) -> "GridFunction":
        """The function nums[x] / den, from trusted ints: q^n of them, den != 0.

        The package-internal constructor.  It makes den positive and divides
        out gcd(den, *nums), and skips both when den = 1.
        """
        nums = tuple(nums)
        if den != 1:
            if den < 0:
                den, nums = -den, tuple(map(neg, nums))
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple(v // g for v in nums)
        f = object.__new__(cls)
        f.__dict__.update(n=n, q=q, den=den, nums=nums)
        return f

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The q^n values as Fractions, built on first read."""
        den = self.den
        # one Fraction per distinct numerator; Fractions are immutable
        view = {v: Fraction(v, den) for v in set(self.nums)}
        return tuple(map(view.__getitem__, self.nums))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, q: int) -> "GridFunction":
        validate_shape(n, q)
        return cls._reduced(n, q, (0,) * q**n)

    @classmethod
    def constant(cls, n: int, q: int, value) -> "GridFunction":
        validate_shape(n, q)
        c = _as_fraction(value)
        return cls._reduced(n, q, (c.numerator,) * q**n, c.denominator)

    @classmethod
    def from_callable(cls, n: int, q: int, fn: Callable[[Word], object]) -> "GridFunction":
        validate_shape(n, q)
        return cls(n, q, tuple(fn(w) for w in all_words(n, q)))

    @classmethod
    def from_dict(cls, n: int, q: int, entries: Mapping[Word, object]) -> "GridFunction":
        validate_shape(n, q)
        values = [0] * q**n
        for word, value in entries.items():
            values[word_to_index(word, q)] = value
        return cls(n, q, values)

    # -- evaluation --------------------------------------------------------

    def __call__(self, word: Sequence[int]) -> Fraction:
        return Fraction(self.nums[word_to_index(word, self.q)], self.den)

    def value_at(self, index: int) -> Fraction:
        return Fraction(self.nums[index], self.den)

    def _check_compatible(self, other: "GridFunction") -> None:
        if self.n != other.n or self.q != other.q:
            raise ValueError(
                f"shape mismatch: ({self.n},{self.q}) vs ({other.n},{other.q})"
            )

    def _aligned(self, other: "GridFunction"):
        """Both numerator tuples over the least common denominator, and that denominator."""
        self._check_compatible(other)
        a, b = self.den, other.den
        if a == b:
            return self.nums, other.nums, a
        den = lcm(a, b)
        return _times(self.nums, den // a), _times(other.nums, den // b), den

    # -- vector-space operations -------------------------------------------

    def __add__(self, other: "GridFunction") -> "GridFunction":
        x, y, den = self._aligned(other)
        return self._reduced(self.n, self.q, map(add, x, y), den)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        x, y, den = self._aligned(other)
        return self._reduced(self.n, self.q, map(sub, x, y), den)

    def __neg__(self) -> "GridFunction":
        return self._reduced(self.n, self.q, map(neg, self.nums), self.den)

    def scale(self, c) -> "GridFunction":
        c = _as_fraction(c)
        return self._reduced(
            self.n, self.q, _times(self.nums, c.numerator), self.den * c.denominator
        )

    def tensor(self, other: "GridFunction") -> "GridFunction":
        """(f.tensor(g))(x, y) = f(x) * g(y), x the first f.n coordinates."""
        if self.q != other.q:
            raise ValueError(f"alphabet mismatch: {self.q} vs {other.q}")
        validate_shape(self.n + other.n, self.q)
        right = other.nums
        zeros = (0,) * len(right)
        nums: list[int] = []
        for a in self.nums:
            nums += zeros if a == 0 else right if a == 1 else map(a.__mul__, right)
        return self._reduced(self.n + other.n, self.q, nums, self.den * other.den)

    def permute(self, sigma: Sequence[int]) -> "GridFunction":
        """The function x |-> f(x[sigma[0]], ..., x[sigma[n-1]]).

        sigma must be a 0-based permutation of range(n).
        """
        if sorted(sigma) != list(range(self.n)):
            raise ValueError(f"not a permutation of range({self.n}): {sigma!r}")
        if self.n <= 1:
            return self
        # coordinate p of the word f reads is coordinate sigma[p] of x
        source = word_map(self.n, self.q, sigma)
        return self._reduced(self.n, self.q, map(self.nums.__getitem__, source), self.den)

    # -- support -----------------------------------------------------------

    def support_indices(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.nums)), self.nums))

    def support_words(self) -> tuple[Word, ...]:
        return tuple(
            index_to_word(i, self.n, self.q) for i in self.support_indices()
        )

    def support_size(self) -> int:
        return len(self.nums) - self.nums.count(0)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def nonzero_items(self) -> Iterator[tuple[int, Fraction]]:
        den = self.den
        return ((i, Fraction(v, den)) for i, v in enumerate(self.nums) if v)


def _times(nums: tuple[int, ...], c: int):
    return nums if c == 1 else tuple(v * c for v in nums)


# -- HGF serialization -------------------------------------------------------


class HGFError(ValueError):
    """Malformed HGF text; message carries the 1-based line number."""


# an error message shows at most this many characters of a bad token, so it
# stays one short line however long the token is
_CLIP_LIMIT = 20


def _clip(text: str) -> str:
    return text if len(text) <= _CLIP_LIMIT else text[:_CLIP_LIMIT] + "..."


@lru_cache(maxsize=4)
def _half_words(n: int, q: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Texts of the high floor(n/2) and the low ceil(n/2) coordinates of a word.

    Entry i of each table is the digits of i in base q over that many
    coordinates, each followed by one space.  The word of index
    x = a q^ceil(n/2) + b has the text high[a] + low[b].  The high table has
    at most 2^8 entries under the vertex cap, and the low one at most q^n.
    """
    symbols = [f"{s} " for s in range(q)]
    high = n // 2
    return (
        tuple(map("".join, product(symbols, repeat=high))),
        tuple(map("".join, product(symbols, repeat=n - high))),
    )


def _fraction_text(num: int, den: int) -> str:
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def dumps_hgf(f: GridFunction) -> str:
    """The HGF text of f: the header, then one line per nonzero entry.

    The entries are written one block of q^ceil(n/2) indices at a time, a
    block sharing the text of its high coordinates, so every per-entry step
    is a pass over the block.
    """
    n, q, nums, den = f.n, f.q, f.nums, f.den
    high, low = _half_words(n, q)
    width = len(low)
    blocks = [f"{n} {q}"]
    for a, prefix in enumerate(high):
        block = nums[a * width : (a + 1) * width]
        if not any(block):
            continue
        words = compress(low, block)
        if prefix:
            words = map(prefix.__add__, words)
        if den == 1:
            texts = map(str, compress(block, block))
        else:
            texts = map(_fraction_text, compress(block, block), repeat(den))
        blocks.append("\n".join(map(add, words, texts)))
    blocks.append("")
    return "\n".join(blocks)


def loads_hgf(text: str) -> GridFunction:
    """The function of an HGF text; raises HGFError naming the bad line."""
    f = _loads_canonical(text)
    return f if f is not None else _loads_lines(text)


def _loads_canonical(text: str) -> GridFunction | None:
    """The function of an HGF text in the layout `dumps_hgf` writes, or None.

    Accepted: no "#" anywhere, the header "n q" with n >= 1 and
    2 <= q <= 10, then entry lines of n one-character symbols in 0..q-1 and
    a value "num" or "num/den" with den > 0, all separated by single
    spaces, in strictly increasing index order and with no zero value.  The
    header is checked before the text is split, so other layouts cost
    almost nothing here.  The value text is everything after the symbols,
    so a line with too many tokens fails `int`.  A text holding "/" must
    also be ASCII with no tab and exactly n spaces per entry line (one in
    the header), so no value text holds a space or a tab, the only
    whitespace `int` strips inside an ASCII line.

    With exactly q^n entry lines (a dense file) the symbols are checked
    against the word texts: in each block of q^ceil(n/2) lines, which share
    their high coordinates, line b must begin with high[a] + low[b]
    (`_half_words`), one prefix slice per line and one list compare per
    block.  Otherwise (a sparse file) the separators, the symbol set and the
    order of the indices `int(symbols, q)` are tested over the whole line
    list.  Integer values are read in one pass of `int`; with a "/" in the
    text, a chunk at a time, each value split by one `partition` and both
    halves read by `int` (`_fraction_values`), the denominator being one
    `lcm` of them.

    Soundness: `_loads_lines` accepts every text this accepts and builds the
    same function.  The header matches its canonical text, so the loop reads
    the same n and q.  On an entry line the loop's tokens are the n symbol
    characters, then the value text split on whitespace.  An integer text
    that `int` accepts is one numeral between optional whitespace, so the
    loop reads the same value from it.  A text with "/" holds no whitespace
    that `int` would strip, so if `int` takes both halves it is the loop's
    token; the loop splits it at its first "/" as
    `partition` does and takes `int` of both halves, so it reads the same
    fraction, and den > 0 makes a zero numerator exactly a zero value.  A
    dense line b of block a begins with the text of word a q^ceil(n/2) + b,
    so the loop reads that word and index, and the indices run 0, 1, ...,
    q^n - 1, strictly increasing.  On a sparse file the symbol-set test
    keeps out what `int(s, q)` would also take (signs, "_", whitespace), so
    `int(symbols, q)` is the positional index the loop computes, and the
    order and duplicate tests are the loop's.  The loop's numerators over
    the lcm of the reduced denominators and these over the lcm of the
    written ones give the same function, which `GridFunction._reduced`
    stores one way.  Anything else returns None (a zero or negative
    denominator included), and the caller hands the text to
    `_loads_lines`, the only source of HGFError.
    """
    if "#" in text:
        return None
    end = text.find("\n")
    header = (text if end < 0 else text[:end]).removesuffix("\r")
    try:
        n, q = map(int, header.split(" "))
    except ValueError:
        return None
    if header != f"{n} {q}" or n < 1 or not 2 <= q <= 10 or exceeds_vertex_cap(n, q):
        return None
    entries = text.splitlines()
    del entries[0]  # the header
    fractions = "/" in text
    if fractions and (
        not text.isascii() or "\t" in text or text.count(" ") != 1 + n * len(entries)
    ):
        return None
    width = 2 * n
    size = q**n
    dense = len(entries) == size
    if dense:
        high, low = _half_words(n, q)
        step = len(low)
        word = itemgetter(slice(0, width))
        for a, prefix in enumerate(high):
            block = entries[a * step : (a + 1) * step]
            if list(map(word, block)) != list(map(prefix.__add__, low)):
                return None
    else:
        if set(map(itemgetter(slice(1, width, 2)), entries)) - {" " * n}:
            return None
        # the symbol strings are streamed twice rather than held: together
        # they are as large as the text
        symbols = itemgetter(slice(0, width, 2))
        if not set(chain.from_iterable(map(symbols, entries))) <= set("0123456789"[:q]):
            return None
    texts = map(itemgetter(slice(width, None)), entries)
    try:
        nums, dens = _fraction_values(texts) if fractions else (list(map(int, texts)), [])
    except ValueError:
        return None
    if not all(nums) or min(dens, default=1) < 1:
        return None
    if not dense:
        indices = list(map(int, map(symbols, entries), repeat(q)))
        if not all(map(lt, indices, islice(indices, 1, None))):
            return None
    del entries  # as large as the text; not needed for the q^n arrays
    den = lcm(*set(dens))
    if den != 1:
        nums = list(map(mul, nums, map(den.__floordiv__, dens)))
    del dens
    if not dense:
        values, nums = nums, [0] * size
        for index, v in zip(indices, values):
            nums[index] = v
    return GridFunction._reduced(n, q, nums, den)


# the text appended to a value's denominator text, by what `partition` found:
# "num" reads as "num/1", while "num/" keeps its empty text, which `int` rejects
_IMPLICIT_DEN = {"": "1", "/": ""}
# value texts split at a time by `_fraction_values`
_FRACTION_CHUNK = 4096


def _fraction_values(texts: Iterator[str]) -> tuple[list[int], list[int]]:
    """The numerators and denominators of value texts "num" or "num/den".

    Each text is split at its first "/" and both halves go through `int`,
    which raises ValueError on a bad half.  The split parts of one chunk of
    texts are held at a time, not those of the whole file.
    """
    nums: list[int] = []
    dens: list[int] = []
    while parts := list(map(methodcaller("partition", "/"), islice(texts, _FRACTION_CHUNK))):
        nums += map(int, map(itemgetter(0), parts))
        implicit = map(_IMPLICIT_DEN.__getitem__, map(itemgetter(1), parts))
        dens += map(int, map(add, map(itemgetter(2), parts), implicit))
    return nums, dens


def _parse_value(token: str, lineno: int) -> int | Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return int(token)
    except ZeroDivisionError:
        raise HGFError(f"line {lineno}: bad value {_clip(token)!r}: zero denominator") from None
    except ValueError:
        raise HGFError(f"line {lineno}: bad value {_clip(token)!r}") from None


def _loads_lines(text: str) -> GridFunction:
    """The line-by-line parser: every valid layout, and every error message."""
    header = None
    n = q = 0
    last_index = -1
    indices: list[int] = []
    values: list[int | Fraction] = []
    # the line list lives only as long as the loop, not through the q^n
    # arrays built after it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        if header is None:
            if len(tokens) != 2:
                raise HGFError(f"line {lineno}: header must be 'n q'")
            try:
                n, q = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise HGFError(f"line {lineno}: header must be two integers") from None
            if n < 0 or q < 2:
                raise HGFError(f"line {lineno}: need n >= 0 and q >= 2")
            if exceeds_vertex_cap(n, q):
                raise HGFError(
                    f"line {lineno}: q^n = {_clip(str(q))}^{_clip(str(n))}"
                    f" exceeds the vertex cap {MAX_VERTICES}"
                )
            header = (n, q)
            continue
        if len(tokens) != n + 1:
            raise HGFError(
                f"line {lineno}: expected {n} symbols and a value, got {len(tokens)} tokens"
            )
        try:
            word = tuple(map(int, tokens[:n]))
        except ValueError:
            raise HGFError(f"line {lineno}: symbols must be integers") from None
        index = 0
        for s in word:
            if not 0 <= s < q:
                raise HGFError(f"line {lineno}: symbol {_clip(str(s))} out of range for q={q}")
            index = index * q + s
        value = _parse_value(tokens[n], lineno)
        if value == 0:
            raise HGFError(f"line {lineno}: zero values must be omitted")
        if index == last_index:
            raise HGFError(f"line {lineno}: duplicate entry for word {word}")
        if index < last_index:
            raise HGFError(f"line {lineno}: entries must be in increasing index order")
        indices.append(index)
        values.append(value)
        last_index = index
    if header is None:
        raise HGFError("empty input: missing 'n q' header")
    den = lcm(*{v.denominator for v in values})
    nums = [0] * q**n
    for index, v in zip(indices, values):
        nums[index] = v.numerator * (den // v.denominator)
    return GridFunction._reduced(n, q, nums, den)


def write_hgf(f: GridFunction, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_hgf(f))


def read_hgf(path) -> GridFunction:
    with open(path, "rb") as fh:
        text = _ascii_text(fh.read())
    return loads_hgf(text)


def _ascii_text(data: bytes) -> str:
    """data as ASCII text; HGFError names the line of the first other byte."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the prefix before the first bad byte is ASCII; the byte starts or
        # continues the line after the prefix's last line break
        lineno = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise HGFError(f"line {lineno}: non-ASCII byte 0x{data[exc.start]:02x}") from None
