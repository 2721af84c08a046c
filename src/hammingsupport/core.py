"""Exact function algebra on the vertex set of the Hamming graph H(n,q).

Vertices are words of length n over the alphabet Sigma_q = {0, ..., q-1};
two words are adjacent when their Hamming distance is 1.  A function
f: Sigma_q^n -> Q is stored densely as a tuple of q^n Fractions indexed by
the base-q positional encoding of the word (coordinate 0 is the most
significant digit).  All arithmetic is exact; equality of functions is
decidable and is plain tuple equality.

Coordinates are 0-based throughout the Python API.  Write-ups about these
objects usually number coordinates from 1; the CLI accepts 1-based
coordinates and converts at the boundary.

n = 0 is allowed (a single scalar) so tensor-product recursions are total.

The HGF text format round-trips any GridFunction:

    line 1:            "n q"
    one line per nonzero entry, in increasing index order:
                       "s1 s2 ... sn value"  with value "num" or "num/den"
    "#" starts a comment; blank lines are ignored.

The parser rejects a header with q^n above MAX_VERTICES before it
allocates anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

Word = tuple[int, ...]

# The largest q^n any parser or spectral routine accepts.  It is the memory
# bound of the spectral engine, which holds n+1 integer arrays of q^n entries.
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


@dataclass(frozen=True)
class GridFunction:
    """An exact rational-valued function on Sigma_q^n, stored densely."""

    n: int
    q: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        validate_alphabet(self.q)
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.values) != self.q**self.n:
            raise ValueError(
                f"need {self.q**self.n} values for n={self.n}, q={self.q}, "
                f"got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(map(_as_fraction, self.values)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, q: int) -> "GridFunction":
        return cls(n, q, (Fraction(0),) * q**n)

    @classmethod
    def constant(cls, n: int, q: int, value) -> "GridFunction":
        return cls(n, q, (_as_fraction(value),) * q**n)

    @classmethod
    def from_callable(cls, n: int, q: int, fn: Callable[[Word], object]) -> "GridFunction":
        return cls(n, q, tuple(_as_fraction(fn(w)) for w in all_words(n, q)))

    @classmethod
    def from_dict(cls, n: int, q: int, entries: Mapping[Word, object]) -> "GridFunction":
        values = [Fraction(0)] * q**n
        for word, value in entries.items():
            values[word_to_index(word, q)] = _as_fraction(value)
        return cls(n, q, tuple(values))

    # -- evaluation --------------------------------------------------------

    def __call__(self, word: Sequence[int]) -> Fraction:
        return self.values[word_to_index(word, self.q)]

    def value_at(self, index: int) -> Fraction:
        return self.values[index]

    def _check_compatible(self, other: "GridFunction") -> None:
        if self.n != other.n or self.q != other.q:
            raise ValueError(
                f"shape mismatch: ({self.n},{self.q}) vs ({other.n},{other.q})"
            )

    # -- vector-space operations -------------------------------------------

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(
            self.n, self.q, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(
            self.n, self.q, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.n, self.q, tuple(-a for a in self.values))

    def scale(self, c) -> "GridFunction":
        c = _as_fraction(c)
        return GridFunction(self.n, self.q, tuple(c * a for a in self.values))

    def tensor(self, other: "GridFunction") -> "GridFunction":
        """(f.tensor(g))(x, y) = f(x) * g(y), x the first f.n coordinates."""
        if self.q != other.q:
            raise ValueError(f"alphabet mismatch: {self.q} vs {other.q}")
        values = tuple(a * b for a in self.values for b in other.values)
        return GridFunction(self.n + other.n, self.q, values)

    def permute(self, sigma: Sequence[int]) -> "GridFunction":
        """The function x |-> f(x[sigma[0]], ..., x[sigma[n-1]]).

        sigma must be a 0-based permutation of range(n).
        """
        if sorted(sigma) != list(range(self.n)):
            raise ValueError(f"not a permutation of range({self.n}): {sigma!r}")
        if self.n <= 1:
            return self
        n, q = self.n, self.q
        weights = [q ** (n - 1 - p) for p in range(n)]
        out = []
        for w in all_words(n, q):
            src = 0
            for p in range(n):
                src += w[sigma[p]] * weights[p]
            out.append(self.values[src])
        return GridFunction(n, q, tuple(out))

    # -- support -----------------------------------------------------------

    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v)

    def support_words(self) -> tuple[Word, ...]:
        return tuple(
            index_to_word(i, self.n, self.q) for i in self.support_indices()
        )

    def support_size(self) -> int:
        return sum(1 for v in self.values if v)

    def is_zero(self) -> bool:
        return not any(self.values)

    def nonzero_items(self) -> Iterator[tuple[int, Fraction]]:
        return ((i, v) for i, v in enumerate(self.values) if v)


# -- HGF serialization -------------------------------------------------------


class HGFError(ValueError):
    """Malformed HGF text; message carries the 1-based line number."""


def _format_value(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def dumps_hgf(f: GridFunction) -> str:
    lines = [f"{f.n} {f.q}"]
    for index, value in f.nonzero_items():
        word = index_to_word(index, f.n, f.q)
        parts = [str(s) for s in word]
        parts.append(_format_value(value))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_value(token: str, lineno: int) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise HGFError(f"line {lineno}: bad value {token!r}: {exc}") from None


def loads_hgf(text: str) -> GridFunction:
    lines = text.splitlines()
    header = None
    values: list[Fraction] | None = None
    n = q = 0
    last_index = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
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
                    f"line {lineno}: q^n = {q}^{n} exceeds the vertex cap {MAX_VERTICES}"
                )
            header = (n, q)
            values = [Fraction(0)] * q**n
            continue
        if len(tokens) != n + 1:
            raise HGFError(
                f"line {lineno}: expected {n} symbols and a value, got {len(tokens)} tokens"
            )
        try:
            word = tuple(int(t) for t in tokens[:n])
        except ValueError:
            raise HGFError(f"line {lineno}: symbols must be integers") from None
        for s in word:
            if not 0 <= s < q:
                raise HGFError(f"line {lineno}: symbol {s} out of range for q={q}")
        value = _parse_value(tokens[n], lineno)
        if value == 0:
            raise HGFError(f"line {lineno}: zero values must be omitted")
        index = word_to_index(word, q)
        if index == last_index:
            raise HGFError(f"line {lineno}: duplicate entry for word {word}")
        if index < last_index:
            raise HGFError(f"line {lineno}: entries must be in increasing index order")
        last_index = index
        assert values is not None
        values[index] = value
    if header is None:
        raise HGFError("empty input: missing 'n q' header")
    assert values is not None
    return GridFunction(n, q, tuple(values))


def write_hgf(f: GridFunction, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_hgf(f))


def read_hgf(path) -> GridFunction:
    with open(path, "r", encoding="ascii") as fh:
        return loads_hgf(fh.read())
