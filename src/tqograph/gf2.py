"""GF(2) vectors and matrices backed by Python int bitsets.

Bit i of the backing integer is coordinate i (0-indexed).  The text form
is an ASCII '0'/'1' string whose leftmost character is bit 0.

Deadline and BudgetExceededError live here, beside the kernels that check
them, so every layer above shares one budget path.  A deadline parameter
takes anything with a check() method; it defaults to NEVER, which never
expires.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from time import monotonic
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration exceeds its configured budget.  A scan by
    weight class sets weight to the class it was in: every lighter class was
    scanned to the end without a hit."""

    def __init__(self, message: str, weight: Optional[int] = None):
        super().__init__(message)
        self.weight = weight


class Deadline:
    """Soft wall-clock cap checked inside enumeration loops."""

    __slots__ = ("seconds", "end")

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.end = monotonic() + seconds

    def check(self) -> None:
        if monotonic() > self.end:
            raise BudgetExceededError(
                f"time budget of {self.seconds:.3f}s exhausted"
            )


NEVER = Deadline(math.inf)  # the deadline of an unbudgeted run


class BitString:
    """Fixed-length GF(2) vector, immutable.  The one numerous value type, so not
    a frozen dataclass: its __dict__ adds 40 B per 64-bit value (tracemalloc,
    CPython 3.11), and slots=True raises TypeError on setting a non-field."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("length must be non-negative")
        if bits < 0 or bits >> n:
            raise ValueError("bits outside declared length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        bits = 0
        for i, c in enumerate(text):
            if c == "1":
                bits |= 1 << i
            elif c != "0":
                raise ValueError(f"invalid bit character {c!r}")
        return cls(len(text), bits)

    def to_text(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def support(self) -> List[int]:
        return [i for i in range(self.n) if (self.bits >> i) & 1]

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def _check_len(self, other: "BitString") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")

    def __xor__(self, other: "BitString") -> "BitString":
        self._check_len(other)
        return BitString(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitString") -> "BitString":
        self._check_len(other)
        return BitString(self.n, self.bits & other.bits)

    def __or__(self, other: "BitString") -> "BitString":
        self._check_len(other)
        return BitString(self.n, self.bits | other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitString({self.to_text()!r})"


def dot(k: BitString, l: BitString) -> int:
    """GF(2) inner product of two equal-length bitstrings."""
    k._check_len(l)
    return (k.bits & l.bits).bit_count() & 1


def xor_columns(cols: Sequence[int], bits: int) -> int:
    """The xor of cols[v] over the set bits v of bits."""
    acc = 0
    while bits:
        v = bits.bit_length() - 1
        acc ^= cols[v]
        bits ^= 1 << v
    return acc


class Echelon:
    """Independent int rows kept by pivot, each row's lowest set bit, with a
    mask of all pivots; rows[p] is the row of pivot p, in insertion order.

    reduce(r) xors into r the row of the lowest pivot r hits until it hits
    none.  That clears the bit and changes only higher bits, so the loop
    ends.  The residue is unique: exactly one subset of rows clears every
    pivot bit of r (in the xor of two such subsets, the least pivot of their
    difference would stay set).  So it equals that of any other order of
    elimination, and the pivot set, the lowest set bits of the row space's
    nonzero vectors, is fixed by the space.  add(r) keeps a nonzero residue
    as a new row, not cleared from the rows before it; so no row holds the
    pivot of a row added before it.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows: Iterable[int] = ()):
        self.rows = {}
        self.pivots = 0
        for r in rows:
            self.add(r)

    def reduce(self, r: int) -> int:
        """The residue of r modulo the rows."""
        rows, pivots = self.rows, self.pivots
        while t := r & pivots:
            r ^= rows[(t & -t).bit_length() - 1]
        return r

    def add(self, r: int) -> bool:
        """Keep r's nonzero residue as a row; False when r is dependent."""
        r = self.reduce(r)
        if r:
            p = (r & -r).bit_length() - 1
            self.rows[p] = r
            self.pivots |= 1 << p
        return bool(r)

    def kernel_basis(self, width: int) -> List[int]:
        """Basis of the width-bit x orthogonal to every row: per free column
        j, e_j plus the pivots that clear every row, set in one pass over the
        rows, latest first (a row holds no earlier row's pivot).  x is unique,
        so also e_j plus the pivots p < j whose fully reduced row holds bit j:
        its highest bit is j, and the span in sorted-row binary counting
        order is increasing."""
        rows, basis = list(self.rows.items())[::-1], []
        for j in range(width):
            if not (self.pivots >> j) & 1:
                x = 1 << j
                for p, r in rows:
                    if (r & x).bit_count() & 1:
                        x |= 1 << p
                basis.append(x)
        return basis


@dataclass(frozen=True)
class Gf2Matrix:
    """Dense bit-packed GF(2) matrix, row-major (row bit j = column j): its rows
    and nothing derived from them, immutable; row_bits is kept as a tuple."""

    rows: int
    cols: int
    row_bits: Tuple[int, ...]

    def __post_init__(self):
        row_bits = tuple(self.row_bits)
        if len(row_bits) != self.rows:
            raise ValueError("row count mismatch")
        for r in row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row bits outside declared width")
        object.__setattr__(self, "row_bits", row_bits)

    @classmethod
    def from_rows(cls, vectors: List[BitString], cols: int | None = None) -> "Gf2Matrix":
        if vectors:
            cols = vectors[0].n if cols is None else cols
            for v in vectors:
                if v.n != cols:
                    raise ValueError("inconsistent row lengths")
        elif cols is None:
            raise ValueError("cols required for an empty matrix")
        return cls(len(vectors), cols, [v.bits for v in vectors])

    def mat_vec(self, k: BitString) -> BitString:
        """GF(2) matrix-vector product A.k: bit i is the parity of row i & k."""
        if k.n != self.cols:
            raise ValueError(f"dimension mismatch: {self.cols} cols vs length {k.n}")
        return BitString(self.rows, sum(((r & k.bits).bit_count() & 1) << i
                                        for i, r in enumerate(self.row_bits)))

    def rank(self) -> int:
        return len(Echelon(self.row_bits).rows)

    def kernel_basis(self) -> List[BitString]:
        """Basis of {x : A.x = 0}; size is cols - rank (Echelon.kernel_basis)."""
        return [BitString(self.cols, x) for x in Echelon(self.row_bits).kernel_basis(self.cols)]

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}x{self.cols})"


def support_xors(choices: Sequence[Tuple[int, ...]], w: int,
                 deadline: Deadline = NEVER) -> Iterator[int]:
    """Xors of one choice per position over the weight-w supports.

    The low-weight Pauli kernel: a position's choices are the ints its
    single-position operators contribute (syndrome bits, often with the
    operator's own bits packed above them), and the xor of one choice per
    support position is the product's.  Supports come in
    itertools.combinations order, and the choices of a position in their
    given order.  The deadline is checked at each inner node of the support
    tree, not per leaf.
    """
    n = len(choices)

    def batches(start: int, left: int, acc: int) -> Iterator[List[int]]:
        deadline.check()
        if left == 1:
            yield [acc ^ c for options in choices[start:] for c in options]
            return
        for v in range(start, n - left + 1):
            for c in choices[v]:
                yield from batches(v + 1, left - 1, acc ^ c)

    if w == 0:
        yield 0
    elif w <= n:
        for batch in batches(0, w, 0):
            yield from batch


def pair_counts(choices: Sequence[Tuple[int, ...]], deadline: Deadline = NEVER) -> Counter:
    """support_xors(choices, 2) as a multiset: each xor of two choices on
    distinct positions, counted once per pair that gives it.  The deadline
    is checked once per first position."""
    count, flat, at = Counter(), [c for options in choices for c in options], 0
    for options in choices:
        deadline.check()
        at += len(options)
        rest = flat[at:]
        count.update([c ^ x for c in options for x in rest])
    return count


CHECK_EVERY = 64  # kernel nodes between two deadline checks in cluster_xors


def cluster_xors(choices: Sequence[Tuple[int, ...]], m: int) -> Callable[..., Iterator[int]]:
    """The cluster method (arXiv:1611.07164): xors(roots, w, deadline=NEVER,
    pairs=None) yields zero-syndrome xors of one choice on each of w positions.

    A choice packs its syndrome against m checks in the low m bits, with any
    payload above.  An operator grows from a root onto higher positions.
    While its syndrome is nonzero, the rest must flip each unsatisfied check,
    so it branches on one (the lowest of those the fewest choices flip) with
    the choices that flip it, each branch forbidding those of the branches
    before it.  A node is pruned when its syndrome has more bits than left
    times the most any choice flips; the last position is looked up by its
    syndrome; a zero-syndrome prefix ends the branch.  So the yield holds,
    once each, every zero-syndrome operator of weight w whose least position
    is a root and which has no zero-syndrome proper part, and maybe some
    that have one.  The search recurses with the syndrome split off; the
    deadline is checked at the start and then every CHECK_EVERY nodes.

    pairs, if given, is pair_counts of the choices' syndromes: syndrome ->
    number of products of two choices on distinct positions with it (the
    sort-and-match check of meet in the middle, Dumer 1989).  A node with two
    positions left then grows only if its syndrome has a count >= 1, or >= 2
    at w = 4: its completion is such a product on two open positions, and at
    w = 4 its own prefix, the root and one choice, is another on disjoint
    ones.  Only nodes that could yield nothing are dropped, so the hits and
    their order are those without the table (toric 5 at w = 4: 250 of 768
    nodes are left).
    """
    # Each choice has a bit in the "open" mask a growth passes down: a branch
    # closes its position's choices and those of the branches before it.
    low, single = (1 << m) - 1, {}  # single: nonzero syndrome -> [(bit, choice)]
    start = list(itertools.accumulate((len(options) for options in choices), initial=0))
    # (bit, syndrome, ~bits of its position, choice) for each choice, in position order
    entries = [(1 << (start[v] + j), c & low, ~((1 << start[v + 1]) - (1 << start[v])), c)
               for v, options in enumerate(choices) for j, c in enumerate(options)]
    for e, s, _, c in entries:
        if s:
            single.setdefault(s, []).append((e, c))
    spread = max((s.bit_count() for s in single), default=0)
    # check -> the entries that flip it, and the checks grouped by how many
    # entries flip them, fewest first
    flips = [[] for _ in range(m)]
    for entry in entries:
        s = entry[1]
        while s:
            t = s & -s
            flips[t.bit_length() - 1].append(entry)
            s ^= t
    tiers = [sum(1 << i for i, f in enumerate(flips) if len(f) == k)
             for k in sorted({len(f) for f in flips})]

    def xors(roots: Iterable[int], w: int, deadline: Deadline = NEVER,
             pairs: Optional[Mapping[int, int]] = None) -> Iterator[int]:
        nodes = itertools.count(1)  # growth nodes, for the deadline
        deadline.check()
        # a node with two positions left needs this many weight-2 products
        # with its syndrome: its completion, and at w = 4 its own prefix too
        need = 0 if pairs is None else 1 + (w == 4)  # 0: no table, no check

        def grow(acc: int, syn: int, left: int, open_: int) -> None:
            # left >= 2 positions still to add to acc, whose syndrome syn is nonzero
            if not next(nodes) % CHECK_EVERY:
                deadline.check()
            if syn.bit_count() > left * spread:
                return
            for t in tiers:
                if syn & t:
                    break
            t &= syn
            if left > 2:
                for e, s, keep, c in flips[(t & -t).bit_length() - 1]:
                    if open_ & e:
                        if s != syn and (left > 3 or not need or pairs.get(syn ^ s, 0) >= need):
                            grow(acc ^ c, syn ^ s, left - 1, open_ & keep)
                        open_ ^= e
            else:
                for e, s, keep, c in flips[(t & -t).bit_length() - 1]:
                    if open_ & e:
                        if last := single.get(syn ^ s):
                            hits.extend([acc ^ c ^ c2 for e2, c2 in last if open_ & keep & e2])
                        open_ ^= e

        for r in roots:
            open_ = (1 << start[-1]) - (1 << start[r + 1])  # the choices above r
            for c in choices[r]:
                if w == 1 and not c & low:
                    yield c
                elif w == 2:
                    yield from [c ^ c2 for e2, c2 in single.get(c & low, ()) if open_ & e2]
                elif w > 2 and c & low and (w > 3 or not need or pairs.get(c & low, 0) >= need):
                    hits: List[int] = []
                    grow(c, c & low, w - 1, open_)
                    yield from hits

    return xors
