"""Finite unital rings presented on dense integer element codes.

A ring of size N lives on the codes 0..N-1 with total add/mul/neg
operations and distinguished zero and one.  Every construction documents a
canonical bijection between codes and its structured elements (digit
vectors, matrices, coset representatives, ...), which keeps membership
tests and witness ordering deterministic.

Rings are immutable after construction and safe to share across threads.
A construction gives its arithmetic once, as a kernel: add/mul/neg on
arrays of codes.  Every ring computes on arrays of codes through ops():
when the squared size fits the memo budget, by gathers from numpy tables
that are materialized at most once from the kernel and never change
semantics, otherwise by the kernel itself.  The scalar methods read the
tables when they are built and the kernel otherwise; they never build
tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import AxiomViolation, CrossRingError, SizeExceeded

DEFAULT_MAX_RING_SIZE = 65536
DEFAULT_MEMO_BUDGET_BYTES = 1 << 28
AXIOM_EXHAUSTIVE_LIMIT = 4096
AXIOM_SAMPLE_TRIPLES = 1_000_000
# entries of one row block in the passes that cover all codes at once
BLOCK_ENTRIES = 1 << 20

_TABLE_DTYPE = np.int32


@dataclass(frozen=True)
class ResourceGuard:
    """Admission limits checked before any construction allocates."""

    max_ring_size: int = DEFAULT_MAX_RING_SIZE
    mul_memo_budget_bytes: int = DEFAULT_MEMO_BUDGET_BYTES

    def check_ring_size(self, projected: int, what: str = "ring") -> None:
        if projected > self.max_ring_size:
            raise SizeExceeded(projected, self.max_ring_size, what)

    def allows_tables(self, size: int) -> bool:
        # one add table and one mul table, int32 entries
        return 2 * size * size * np.dtype(_TABLE_DTYPE).itemsize <= self.mul_memo_budget_bytes


DEFAULT_GUARD = ResourceGuard()


class OpTables(NamedTuple):
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray


class ArrayOps(NamedTuple):
    """add/mul/neg on arrays of codes (broadcasting like numpy) and unit_mask(),
    the unit bitset over all codes from the construction, or None when the
    construction has no such test."""

    add: Callable
    mul: Callable
    neg: Callable
    unit_mask: Callable[[], Optional[np.ndarray]]


def _elementwise(add: Callable, mul: Callable, neg: Callable) -> ArrayOps:
    """The kernel of a ring given by scalar functions alone: each applied entry by entry."""

    def lift(f, arity):
        ufunc = np.frompyfunc(f, arity, 1)
        return lambda *codes: np.asarray(ufunc(*codes), dtype=np.int64)

    return ArrayOps(lift(add, 2), lift(mul, 2), lift(neg, 1), lambda: None)


@dataclass
class Verdict:
    """Outcome of a predicate or verification pass.

    For a failed universally-quantified check the witness is the first
    violating tuple in ascending code order; for a successful existential
    search it is the found decomposition, re-checkable through ring
    arithmetic.
    """

    holds: bool
    witness: Optional[list[tuple[str, int]]] = None
    exponents: Optional[dict[str, int]] = None
    mode: str = "exhaustive"
    note: Optional[str] = None

    def witness_codes(self) -> list[int]:
        return [code for _, code in (self.witness or [])]

    def to_json(self) -> dict:
        out = {"holds": self.holds, "mode": self.mode}
        if self.witness is not None:
            out["witness"] = [[role, int(code)] for role, code in self.witness]
        if self.exponents is not None:
            out["exponents"] = {k: int(v) for k, v in self.exponents.items()}
        if self.note is not None:
            out["note"] = self.note
        return out


class FiniteRing:
    """A finite unital ring on dense codes with optional numpy tables.

    Constructions pass their kernel, a factory of the ring's ArrayOps, which
    is called at most once.  The positional add, mul and neg serve rings
    given by scalar functions alone, whose kernel applies them entry by entry.
    """

    __slots__ = (
        "size",
        "zero",
        "one",
        "label",
        "kind",
        "meta",
        "guard",
        "_render",
        "_kernel",
        "_ops",
        "_tables",
        "_cache",
    )
    _tables_from_generators = False  # see try_tables

    def __init__(
        self,
        size: int,
        add: Optional[Callable[[int, int], int]] = None,
        mul: Optional[Callable[[int, int], int]] = None,
        neg: Optional[Callable[[int], int]] = None,
        *,
        one: int,
        zero: int = 0,
        label: str = "R",
        kind: str = "custom",
        meta: Optional[dict] = None,
        guard: Optional[ResourceGuard] = None,
        render: Optional[Callable[[int], str]] = None,
        kernel: Optional[Callable[[], ArrayOps]] = None,
    ):
        guard = guard or DEFAULT_GUARD
        guard.check_ring_size(size)
        if size < 2:
            raise AxiomViolation("a unital ring needs at least the two elements 0 and 1")
        if zero == one:
            raise AxiomViolation("zero and one must be distinct codes")
        if kernel is None:
            if None in (add, mul, neg):
                raise TypeError("a ring needs its kernel or all of add, mul and neg")
            kernel = functools.partial(_elementwise, add, mul, neg)
        self.size = size
        self.zero = zero
        self.one = one
        self.label = label
        self.kind = kind
        self.meta = meta or {}
        self.guard = guard
        self._render = render
        self._kernel = functools.cache(kernel)
        self._ops: Optional[ArrayOps] = None
        self._tables: Optional[OpTables] = None
        self._cache = None  # StructureCache, attached lazily by invariants

    # -- scalar arithmetic: the tables when built, else the kernel ----------

    def add(self, i: int, j: int) -> int:
        t = self._tables
        if t is not None:
            return int(t.add[i, j])
        return int(self._kernel().add(i, j))

    def mul(self, i: int, j: int) -> int:
        t = self._tables
        if t is not None:
            return int(t.mul[i, j])
        return int(self._kernel().mul(i, j))

    def neg(self, i: int) -> int:
        t = self._tables
        if t is not None:
            return int(t.neg[i])
        return int(self._kernel().neg(i))

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def pow_code(self, a: int, k: int) -> int:
        """a**k by square-and-multiply; k = 0 gives one."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    # -- elements ----------------------------------------------------------

    def elem(self, code: int) -> "Elem":
        return Elem(self, code)

    def elements(self) -> Iterator[int]:
        return iter(range(self.size))

    def render(self, code: int) -> str:
        if self._render is not None:
            return self._render(code)
        return str(code)

    # -- tables ------------------------------------------------------------

    @property
    def table_capable(self) -> bool:
        return self.guard.allows_tables(self.size)

    def try_tables(self) -> Optional[OpTables]:
        """The operation tables, or None when they exceed the memo budget.

        The kernel fills them a row at a time (_fill_tables).  On tuple rings,
        whose kernel is costly, it fills only the rows of additive generators
        and gathers fill the rest, which makes the tables additively
        associative and right distributive; verify_ring_axioms then proves
        there the identities, inverses, commutativity of addition, left
        distributivity and multiplicative associativity.
        """
        if self._tables is not None:
            return self._tables
        if not self.table_capable:
            return None
        # single idempotent publication; recomputation is deterministic
        self._tables = _fill_tables(self._kernel(), self.size, self._tables_from_generators)
        return self._tables

    def tables(self) -> OpTables:
        t = self.try_tables()
        if t is None:
            raise SizeExceeded(self.size * self.size, self.guard.mul_memo_budget_bytes, "memo table")
        return t

    def ops(self) -> ArrayOps:
        """Arithmetic on code arrays: gathers from the tables when they fit the
        memo budget (building them), else the kernel the construction gave.

        The kernel is modular arithmetic for residue rings, digit by digit
        through the bases' ops() for tuple rings, the parent's ops() through
        the carrier for derived rings, and the scalar functions entry by entry
        otherwise.  unit_mask() is the kernel's on both routes.
        """
        if self._ops is None:
            t = self.try_tables()
            kernel = self._kernel()
            if t is not None:
                kernel = ArrayOps(
                    lambda x, y: t.add[x, y], lambda x, y: t.mul[x, y], lambda x: t.neg[x], kernel.unit_mask
                )
            self._ops = kernel
        return self._ops

    def __repr__(self) -> str:
        return f"FiniteRing({self.label}, size={self.size})"


def _fill_tables(ops: ArrayOps, n: int, from_generators: bool) -> OpTables:
    """The tables, the kernel computing the rows of the least code g not yet
    filled until all are.  from_generators: the filled set then grows
    from A + {g}, A the subgroup filled before g, by doubling blocks S + 2^k g
    to A + <g>; code c = p + s of a block gets add row c = add row p read
    through add row s, then mul row c = add[mul row p, mul row s].
    """
    codes = np.arange(n, dtype=np.int64)
    add_t, mul_t = np.empty((2, n, n), dtype=_TABLE_DTYPE)
    rows = max(1, BLOCK_ENTRIES // n)
    filled = np.zeros(n, dtype=bool)
    blocks = []  # (codes p, s, codes p + s), in the order filled
    while not filled.all():
        step = int(np.argmin(filled))
        add_t[step], mul_t[step] = ops.add(step, codes), ops.mul(step, codes)
        filled[step] = True
        while from_generators:
            src = np.flatnonzero(filled)
            dst = add_t[src, step]
            src, dst = src[~filled[dst]], dst[~filled[dst]]
            if not src.size:
                break
            for lo in range(0, src.size, rows):
                add_t[dst[lo : lo + rows]] = np.take(add_t[src[lo : lo + rows]], add_t[step], axis=1)
            filled[dst] = True
            blocks.append((src, step, dst))
            step = int(add_t[step, step])
    add_flat = add_t.ravel()
    for src, step, dst in blocks:
        for lo in range(0, src.size, rows):
            mul_t[dst[lo : lo + rows]] = add_flat.take(mul_t[src[lo : lo + rows]].astype(np.int64) * n + mul_t[step])
    return OpTables(add_t, mul_t, np.asarray(ops.neg(codes), dtype=_TABLE_DTYPE))


@dataclass(frozen=True)
class Elem:
    """An element code tied to its owning ring; cross-ring arithmetic is rejected."""

    ring: FiniteRing
    code: int

    def __post_init__(self):
        if not 0 <= self.code < self.ring.size:
            raise ValueError(f"code {self.code} outside ring of size {self.ring.size}")

    def _same_ring(self, other: "Elem") -> None:
        if self.ring is not other.ring:
            raise CrossRingError(
                f"elements of {self.ring.label} and {other.ring.label} cannot be combined"
            )

    def __add__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring, self.ring.add(self.code, other.code))

    def __sub__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring, self.ring.sub(self.code, other.code))

    def __mul__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring, self.ring.mul(self.code, other.code))

    def __neg__(self) -> "Elem":
        return Elem(self.ring, self.ring.neg(self.code))

    def __pow__(self, k: int) -> "Elem":
        return Elem(self.ring, self.ring.pow_code(self.code, k))

    def __repr__(self) -> str:
        return f"<{self.ring.label}#{self.code}>"


def power(a: Elem, k: int) -> Elem:
    """a**k in its owning ring; power(a, 0) is one."""
    return Elem(a.ring, a.ring.pow_code(a.code, k))


def _multiples_of_one(R: FiniteRing) -> np.ndarray:
    """k*1 for k = 0 .. characteristic - 1, by doubling through the kernel."""
    add = R._kernel().add
    mult = np.array([R.zero, R.one])
    while not (mult[1:] == R.zero).any():
        if mult.size > R.size:
            raise AxiomViolation("one has no finite additive order; broken addition table")
        mult = np.concatenate([mult, add(mult, add(mult[-1], R.one))])
    return mult[: 1 + int(np.argmax(mult[1:] == R.zero))]


def characteristic(R: FiniteRing) -> int:
    """Additive order of one; divides every element's additive order."""
    return len(_multiples_of_one(R))


def scalar_code(R: FiniteRing, s: int) -> int:
    """The code of s*1 in R, s taken modulo the characteristic."""
    mult = _multiples_of_one(R)
    return int(mult[s % len(mult)])


_OUT_OF_RANGE = "operation result out of code range"
# the notes of sampled mode's checks, in the column order of their masks
_SAMPLED_UNARY_FAILURES = (
    "zero is not an additive identity",
    _OUT_OF_RANGE,
    "neg is not an additive inverse",
    "one is not a left identity",
    "one is not a right identity",
)
_SAMPLED_TERNARY_FAILURES = (
    _OUT_OF_RANGE,
    "addition is not commutative",
    _OUT_OF_RANGE,
    "addition is not associative",
    "multiplication is not associative",
    "left distributivity fails",
    "right distributivity fails",
)


def _first_bad(mask: np.ndarray) -> Optional[tuple]:
    """Index of the first True entry in C-order, or None."""
    flat = np.flatnonzero(mask.ravel())
    if flat.size == 0:
        return None
    return np.unravel_index(int(flat[0]), mask.shape)


def _table_violation(tables: OpTables, zero: int, one: int) -> Optional[tuple]:
    """The first failure of the laws that cost O(N^2), as (witness, note), or None.

    These are the range of every table, the additive identity and inverse,
    commutativity of addition and the two-sided multiplicative identity.
    """
    add_t, mul_t, neg_t = tables
    n = len(neg_t)
    codes = np.arange(n, dtype=_TABLE_DTYPE)
    if not all((t >= 0).all() and (t < n).all() for t in tables):
        return None, _OUT_OF_RANGE
    bad = _first_bad(add_t[zero] != codes)
    if bad:
        return [("x", int(bad[0]))], "zero is not an additive identity"
    bad = _first_bad(add_t[codes, neg_t] != zero)
    if bad:
        return [("x", int(bad[0]))], "neg is not an additive inverse"
    bad = _first_bad(add_t != add_t.T)
    if bad:
        return [("a", int(bad[0])), ("b", int(bad[1]))], "addition is not commutative"
    bad = _first_bad(mul_t[one] != codes)
    if bad:
        return [("a", one), ("b", int(bad[0]))], "one is not a left identity"
    bad = _first_bad(mul_t[:, one] != codes)
    if bad:
        return [("a", int(bad[0])), ("b", one)], "one is not a right identity"
    return None


def _ternary_scan(add_t: np.ndarray, mul_t: np.ndarray) -> Optional[tuple]:
    """The first violation of the four ternary laws, as (witness, note), or None.

    Scans all N^3 triples in chunks over the first operand; within a chunk
    the laws are tried in the order additive associativity, multiplicative
    associativity, left and right distributivity.  Each law runs as 2-D
    passes: one per a over all (b, c) for the first three laws, so the first
    violation is the first in (a, b, c) order, and one per b over all (c, a)
    of the chunk for right distributivity, so it is the first in (b, c, a)
    order.
    """
    n = len(add_t)
    add_flat = add_t.ravel()
    laws = (
        # (a+b)+c vs a+(b+c)
        ("addition is not associative", lambda a: (np.take(add_t, add_t[a], axis=0), np.take(add_t[a], add_t))),
        # (a*b)*c vs a*(b*c)
        ("multiplication is not associative", lambda a: (np.take(mul_t, mul_t[a], axis=0), np.take(mul_t[a], mul_t))),
        # a*(b+c) vs a*b + a*c
        ("left distributivity fails", lambda a: (np.take(mul_t[a], add_t), np.take(add_t, mul_t[a], axis=0)[:, mul_t[a]])),
    )
    chunk = max(1, (1 << 24) // max(1, n * n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        for note, sides in laws:
            for a in range(lo, hi):
                left, right = sides(a)
                bad = _first_bad(left != right)
                if bad:
                    return [("a", a), ("b", int(bad[0])), ("c", int(bad[1]))], note
        # (b+c)*a vs b*a + c*a, with a over the chunk's columns
        cols = mul_t[:, lo:hi].astype(np.int64)
        for b in range(n):
            left = np.take(cols, add_t[b], axis=0)
            right = add_flat[cols[b] * n + cols]
            bad = _first_bad(left != right)
            if bad:
                return [("a", lo + int(bad[1])), ("b", b), ("c", int(bad[0]))], "right distributivity fails"
    return None


def _additive_generators(add_t: np.ndarray, zero: int) -> Optional[np.ndarray]:
    """Codes S such that every code is reached from zero by steps x -> x + s, s in S.

    S is picked greedily, the least code not yet reached first.  When the
    table is a group, each pick at least doubles the reached subgroup, so
    |S| <= log2 N; None means that bound was passed, which only a table that
    is not a group can cause.
    """
    n = len(add_t)
    seen = np.zeros(n, dtype=bool)
    seen[zero] = True
    gens: list[int] = []
    while not seen.all():
        if len(gens) == n.bit_length() - 1:
            return None
        g = int(np.argmin(seen))
        gens.append(g)
        steps = np.array(gens)
        # level by level: the new generator on everything reached so far,
        # then every generator on what each level newly reaches
        frontier = add_t[np.flatnonzero(seen), g]
        while True:
            frontier = np.unique(frontier[~seen[frontier]])
            if frontier.size == 0:
                break
            seen[frontier] = True
            frontier = add_t[np.ix_(frontier, steps)].ravel()
    return np.array(gens)


def _left_distributive(add_t: np.ndarray, mul_t: np.ndarray, s: int, rows: int) -> bool:
    """Whether a*(b+s) == a*b + a*s for all codes a, b."""
    n = len(add_t)
    add_flat = add_t.ravel()
    shifted = add_t[:, s]
    for lo in range(0, n, rows):
        block = mul_t[lo : lo + rows]
        left = np.take(block, shifted, axis=1)
        # row a of a*b + a*s reads row a*s of the add table
        right = add_flat.take(block + (block[:, s].astype(np.int64) * n)[:, None])
        if not np.array_equal(left, right):
            return False
    return True


def _ternary_by_generators(add_t: np.ndarray, mul_t: np.ndarray, zero: int) -> Optional[bool]:
    """Whether the four ternary laws hold, decided in O(N^2 * |S|).

    Assumes the laws of _table_violation hold.  S is a set of additive
    generators (_additive_generators); None when none with |S| <= log2 N is
    found.  Each step is sound given the ones before it:

    - additive associativity, Light's test: (x+s)+y == x+(s+y) for all x, y
      and each s in S.  The s for which it holds are closed under + and
      contain zero, so they are every code reached from zero, that is all.
    - distributivity on each side: a*(b+s) == a*b + a*s and
      (b+s)*a == b*a + s*a.  With + an abelian group, the s for which it
      holds are closed under +, so multiplication is bi-additive.
    - multiplicative associativity on S^3 only: both (a*b)*c and a*(b*c)
      are tri-additive, and every code is a sum of generators.

    False means some law fails on a generator.
    """
    gens = _additive_generators(add_t, zero)
    if gens is None:
        return None
    n = len(add_t)
    rows = max(1, (1 << 22) // n)
    for s in gens:
        for lo in range(0, n, rows):
            block = add_t[lo : lo + rows]
            if not np.array_equal(add_t[block[:, s]], np.take(block, add_t[s], axis=1)):
                return False
    mul_op = np.ascontiguousarray(mul_t.T)  # right distributivity of R is left distributivity of R^op
    for m in (mul_t, mul_op):
        if not all(_left_distributive(add_t, m, int(s), rows) for s in gens):
            return False
    ab = mul_t[np.ix_(gens, gens)]
    left = mul_t[ab[:, :, None], gens[None, None, :]]
    right = mul_t[gens[:, None, None], ab[None, :, :]]
    return bool(np.array_equal(left, right))


def verify_ring_axioms(R: FiniteRing, seed: int = 0, sample_triples: int = AXIOM_SAMPLE_TRIPLES) -> Verdict:
    """Check the ring axioms, exhaustively up to the size threshold.

    Up to AXIOM_EXHAUSTIVE_LIMIT elements, when the operation tables fit the
    memo budget, the verdict (mode="exhaustive") is a proof over all
    elements.  The laws that cost O(N^2) (ranges, identities, inverses,
    commutativity of addition) are checked cell by cell.  The ternary laws
    are then proved in O(N^2 log N) from a set S of at most log2 N additive
    generators: additive associativity by Light's test on S, distributivity
    on both sides on N x N x S, hence bi-additivity, and multiplicative
    associativity on S^3.  When no such S is found, or any of these checks
    fails, the ternary laws are rescanned over all N^3 triples, and a failed
    verdict's witness is the first violating tuple in that scan's order.
    On a tuple ring's tables, additively associative and right distributive
    by how they are filled, it proves the identities, inverses, commutativity
    of addition, left distributivity and multiplicative associativity.

    Above the threshold (or when no tables fit the budget) the verdict
    records mode="sampled".  The identity and inverse laws are checked on
    every code, and commutativity and the ternary laws on a seeded
    deterministic sample of triples, all on arrays through the ring's kernel,
    a chunk of triples at a time, so no table is built.  The witness is the
    first violating element, or triple in the order drawn.  Negations and
    every result computed for a drawn triple are range-checked there too.
    """
    n = R.size

    def done(holds, witness=None, note=None, mode="exhaustive"):
        return Verdict(holds=holds, witness=witness, mode=mode, note=note)

    if R.zero == R.one:
        return done(False, [("zero", R.zero), ("one", R.one)], "zero equals one")

    tables = R.try_tables() if n <= AXIOM_EXHAUSTIVE_LIMIT else None
    if tables is not None:
        bad = _table_violation(tables, R.zero, R.one)
        if bad is None:
            proved = _ternary_by_generators(tables.add, tables.mul, R.zero)
            if not proved:
                bad = _ternary_scan(tables.add, tables.mul)
                if bad is None and proved is False:
                    raise RuntimeError(
                        f"internal error: the generator test fails on {R.label} but no triple does"
                    )
        if bad is not None:
            return done(False, *bad)
        return done(True)

    # sampled mode, through the kernel (ops() could build tables far beyond
    # the sample's worth): the laws on every code, then the ternary laws on a
    # seeded sample of triples.  Each check is a column of a mask, so its first
    # True in C order is the first failure in (element or triple, check)
    # order.  Results are range-checked, and an out-of-range code replaced by
    # 0, before they are used as operands.
    ops = R._kernel()

    def in_range(*results):
        ok = np.logical_and.reduce([(r >= 0) & (r < n) for r in results])
        return ok, [np.where(ok, r, 0) for r in results]

    x = np.arange(n, dtype=np.int64)
    neg_ok, (neg_x,) = in_range(ops.neg(x))
    unary = (
        ops.add(R.zero, x) != x, ~neg_ok, ops.add(x, neg_x) != R.zero, ops.mul(R.one, x) != x, ops.mul(x, R.one) != x
    )
    bad = _first_bad(np.stack(unary, axis=1))
    if bad:
        y, check = map(int, bad)
        witness = ([("x", y)], None, [("x", y)], [("a", R.one), ("b", y)], [("a", y), ("b", R.one)])[check]
        return done(False, witness, _SAMPLED_UNARY_FAILURES[check], mode="sampled")
    triples = np.random.default_rng(seed).integers(0, n, size=(sample_triples, 3))
    step = max(1, BLOCK_ENTRIES // 16)  # 14 results per triple: about BLOCK_ENTRIES per chunk
    for lo in range(0, sample_triples, step):
        a, b, c = triples[lo : lo + step].T
        ok, (ab, ba, bc, pab, pbc, pac) = in_range(
            ops.add(a, b), ops.add(b, a), ops.add(b, c), ops.mul(a, b), ops.mul(b, c), ops.mul(a, c)
        )
        sides_ok, sides = in_range(
            ops.add(ab, c), ops.add(a, bc),  # (a+b)+c, a+(b+c)
            ops.mul(pab, c), ops.mul(a, pbc),  # (ab)c, a(bc)
            ops.mul(a, bc), ops.add(pab, pac),  # a(b+c), ab+ac
            ops.mul(ab, c), ops.add(pac, pbc),  # (a+b)c, ac+bc
        )
        checks = [~ok, ab != ba, ~sides_ok] + [sides[k] != sides[k + 1] for k in range(0, 8, 2)]
        bad = _first_bad(np.stack(checks, axis=1))
        if bad:
            row, check = map(int, bad)
            roles = (0, 2, 0, 3, 3, 3, 3)[check]
            witness = list(zip("abc", triples[lo + row, :roles].tolist())) if roles else None
            return done(False, witness, _SAMPLED_TERNARY_FAILURES[check], mode="sampled")
    return done(True, mode="sampled")
