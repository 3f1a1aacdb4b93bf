"""Builders for every supported ring construction.

Most constructions present their elements as tuples of digits over smaller
base rings (matrix entries, polynomial coefficients, group-ring
coefficients, ...).  The shared machinery below writes each multiplication
formula once, as the ring's kernel on code arrays, against the base rings'
ops().  The kernel is the only arithmetic a construction gives: FiniteRing
builds the tables from it, and its scalar methods read the tables or the
kernel.  Derived carriers (corners, quotients, subrings) re-index a parent
ring's ops() instead.  Ideals, closures, quotients and corners are computed
on the parent's ops() alone, so at any size: each pass over a grid of
products runs in row blocks of BLOCK_ENTRIES entries, each reduced at once
into a bitset or row minima.

Element coding is the documented mixed-radix convention: digit i carries
weight prod(sizes[:i]), so digit 0 varies fastest and the zero element is
always code 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import BLOCK_ENTRIES, DEFAULT_GUARD, ArrayOps, FiniteRing, Elem, OpTables, ResourceGuard, scalar_code
from .errors import (
    NotAPrimePower,
    NotAnIdeal,
    NotIdempotent,
    RangeCheckError,
    UnsupportedConstruction,
    UnsupportedPredicate,
)
from .groups import FiniteGroup, factorize


def _weights(sizes: Sequence[int]) -> tuple[list[int], int]:
    weights = []
    total = 1
    for s in sizes:
        weights.append(total)
        total *= s
    return weights, total


def _units_of(tables: OpTables, one: int) -> np.ndarray:
    """Unit bitset of a ring with tables: a right inverse is two-sided in a finite ring."""
    return (tables.mul == one).any(axis=1)


class _TupleRing(FiniteRing):
    __slots__ = ()
    _tables_from_generators = True


def _tuple_ring(
    bases: Sequence[FiniteRing],
    mul_digits: Callable,
    one_digits: Sequence[int],
    *,
    label: str,
    kind: str,
    meta: dict,
    guard: ResourceGuard,
    render_digits: Optional[Callable[[list[int]], str]] = None,
    unit_digits: Optional[Callable[[list[np.ndarray], list[OpTables]], Optional[np.ndarray]]] = None,
) -> FiniteRing:
    """Assemble a ring whose elements are digit tuples over base rings.

    The ring's kernel, its only arithmetic, is add/mul/neg on arrays of
    codes, digit by digit through the bases' ops(), with mul_digits on those
    ops.  The kernel needs no table of the ring itself, so it serves rings
    beyond the memo budget, and the tables of those within it are filled
    from additive generators.  The ring's laws rest on the bases'.
    unit_digits, when given, maps the digit arrays of all codes and the base
    tables to the unit bitset, or to None when it does not apply to these
    bases; the mask is None too when a base has no tables.
    """
    sizes = [b.size for b in bases]
    weights, total = _weights(sizes)
    guard.check_ring_size(total, what=kind)
    for b in bases:
        if b.zero != 0:
            raise UnsupportedConstruction("base rings must place zero at code 0")

    width = len(bases)

    def decode(code):
        # works on int codes and on code arrays alike
        return [(code // weights[t]) % sizes[t] for t in range(width)]

    def kernel() -> ArrayOps:
        vops = [b.ops() for b in bases]

        def encode_vec(parts) -> np.ndarray:
            return sum(np.asarray(part, dtype=np.int64) * w for part, w in zip(parts, weights))

        @functools.cache
        def unit_mask() -> Optional[np.ndarray]:
            tabs = [b.try_tables() for b in bases]
            if unit_digits is None or any(t is None for t in tabs):
                return None
            return unit_digits(decode(np.arange(total, dtype=np.int64)), tabs)

        return ArrayOps(
            lambda x, y: encode_vec([o.add(a, b) for o, a, b in zip(vops, decode(x), decode(y))]),
            lambda x, y: encode_vec(mul_digits(decode(x), decode(y), vops)),
            lambda x: encode_vec([o.neg(a) for o, a in zip(vops, decode(x))]),
            unit_mask,
        )

    def render(code: int) -> str:
        digs = decode(code)
        if render_digits is not None:
            return render_digits(digs)
        return "(" + ",".join(bases[t].render(digs[t]) for t in range(width)) + ")"

    meta = dict(meta)
    meta["weights"] = tuple(weights)
    meta["slot_sizes"] = tuple(sizes)
    return _TupleRing(
        total,
        one=sum(int(d) * w for d, w in zip(one_digits, weights)),
        label=label,
        kind=kind,
        meta=meta,
        guard=guard,
        render=render,
        kernel=kernel,
    )


def decode_digits(R: FiniteRing, code: int) -> list[int]:
    """Digit tuple of a code in a tuple-presented ring."""
    weights = R.meta["weights"]
    sizes = R.meta["slot_sizes"]
    return [(code // w) % s for w, s in zip(weights, sizes)]


# ---------------------------------------------------------------------------
# residue rings and finite fields
# ---------------------------------------------------------------------------


def make_zmod(n: int, guard: Optional[ResourceGuard] = None, *, label: Optional[str] = None,
              kind: str = "zmod", extra_meta: Optional[dict] = None) -> FiniteRing:
    """The ring of residues modulo n on codes 0..n-1."""
    guard = guard or DEFAULT_GUARD
    if n < 2:
        raise RangeCheckError("modulus must be at least 2")
    guard.check_ring_size(n)

    def kernel() -> ArrayOps:
        return ArrayOps(
            lambda x, y: (np.asarray(x, dtype=np.int64) + y) % n,
            lambda x, y: (np.asarray(x, dtype=np.int64) * y) % n,
            lambda x: -np.asarray(x, dtype=np.int64) % n,
            lambda: np.gcd(np.arange(n), n) == 1,
        )

    meta = {"n": n}
    meta.update(extra_meta or {})
    return FiniteRing(
        n,
        one=1,
        label=label or f"Z({n})",
        kind=kind,
        meta=meta,
        guard=guard,
        kernel=kernel,
    )


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p**e, or None."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    return next(iter(fac.items()))


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division of coefficient lists (constant first) over Z_p; den must be monic."""
    num = list(num)
    dlen = len(den)
    quot = [0] * max(1, len(num) - dlen + 1)
    for shift in range(len(num) - dlen, -1, -1):
        coef = num[shift + dlen - 1] % p
        if coef:
            quot[shift] = coef
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - coef * d) % p
    while len(num) > 1 and num[-1] % p == 0:
        num.pop()
    return quot, [c % p for c in num]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    e = len(coeffs) - 1
    for d in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod(coeffs, den, p)
            if rem == [0]:
                return False
    return True


def smallest_irreducible(p: int, e: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree e over Z_p.

    Coefficient order is constant term first; the returned list has length
    e + 1 and ends with the leading 1.
    """
    for tail in itertools.product(range(p), repeat=e):
        coeffs = list(tail) + [1]
        if coeffs[0] == 0:
            continue  # divisible by x
        if _is_irreducible(coeffs, p):
            return coeffs
    raise NotAPrimePower(f"no irreducible polynomial of degree {e} over Z_{p}")  # unreachable


def make_gf(q: int, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """The field with q = p**e elements.

    For e = 1 this is the residue ring mod p.  For e > 1 the elements are
    polynomial residues modulo the lexicographically smallest monic
    irreducible of degree e (constant-first digit coding, base p).
    """
    guard = guard or DEFAULT_GUARD
    pe = prime_power(q)
    if pe is None:
        raise NotAPrimePower(f"{q} is not a prime power")
    p, e = pe
    guard.check_ring_size(q)
    if e == 1:
        return make_zmod(p, guard, label=f"GF({q})", kind="gf",
                         extra_meta={"p": p, "e": 1, "q": q, "modulus": (0, 1)})

    modulus = smallest_irreducible(p, e)
    # x^m reduced mod the modulus, for m = 0 .. 2e-2
    reductions: list[list[int]] = []
    for m in range(2 * e - 1):
        if m < e:
            vec = [0] * e
            vec[m] = 1
        else:
            prev = reductions[m - 1]
            vec = [0] + prev[: e - 1]
            lead = prev[e - 1]
            if lead:
                for d in range(e):
                    vec[d] = (vec[d] - lead * modulus[d]) % p
        reductions.append([c % p for c in vec])

    base = make_zmod(p, guard)

    def mul_digits(X, Y, ops):
        o = ops[0]
        out = [None] * e
        for m in range(2 * e - 1):
            acc = None
            for i in range(max(0, m - e + 1), min(e, m + 1)):
                term = o.mul(X[i], Y[m - i])
                acc = term if acc is None else o.add(acc, term)
            for d in range(e):
                c = reductions[m][d]
                if c == 0:
                    continue
                part = acc if c == 1 else o.mul(c, acc)
                out[d] = part if out[d] is None else o.add(out[d], part)
        return [t if t is not None else 0 for t in out]

    def render_digits(digs: list[int]) -> str:
        terms = []
        for i, c in enumerate(digs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                terms.append(xpow if c == 1 else f"{c}{xpow}")
        return " + ".join(terms) if terms else "0"

    return _tuple_ring(
        [base] * e,
        mul_digits,
        [1] + [0] * (e - 1),
        label=f"GF({q})",
        kind="gf",
        meta={"p": p, "e": e, "q": q, "modulus": tuple(modulus)},
        guard=guard,
        render_digits=render_digits,
    )


# ---------------------------------------------------------------------------
# matrix-shaped constructions
# ---------------------------------------------------------------------------


def make_matrix(R: FiniteRing, k: int, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """Full k x k matrix ring over R; digits are row-major entries.

    Over a commutative base (symmetric mul table) the digit kernel's unit
    mask is exact: a matrix is a unit when its determinant, computed by the
    Leibniz formula through the base tables, is a unit of R.
    """
    guard = guard or R.guard
    if k < 1:
        raise RangeCheckError("matrix size must be >= 1")
    guard.check_ring_size(R.size ** (k * k), what="matrix ring")

    def mul_digits(X, Y, ops):
        o = ops[0]
        out = []
        for r in range(k):
            for c in range(k):
                acc = o.mul(X[r * k], Y[c])
                for t in range(1, k):
                    acc = o.add(acc, o.mul(X[r * k + t], Y[t * k + c]))
                out.append(acc)
        return out

    one_digits = [R.one if r == c else 0 for r in range(k) for c in range(k)]

    def unit_digits(digits, tabs):
        t = tabs[0]
        if not np.array_equal(t.mul, t.mul.T):
            return None  # determinants need a commutative base
        det = None
        for perm in itertools.permutations(range(k)):
            term = digits[perm[0]]
            for r in range(1, k):
                term = t.mul[term, digits[r * k + perm[r]]]
            inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            if inversions % 2:
                term = t.neg[term]
            det = term if det is None else t.add[det, term]
        return _units_of(t, R.one)[det]

    def render_digits(digs):
        rows = [
            "[" + ",".join(R.render(digs[r * k + c]) for c in range(k)) + "]"
            for r in range(k)
        ]
        return "[" + ",".join(rows) + "]"

    return _tuple_ring(
        [R] * (k * k),
        mul_digits,
        one_digits,
        label=f"M({k},{R.label})",
        kind="matrix",
        meta={"base": R, "k": k},
        guard=guard,
        render_digits=render_digits,
        unit_digits=unit_digits,
    )


def make_triangular(R: FiniteRing, k: int, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """Upper triangular k x k matrices over R; digits are the upper entries, row-major."""
    guard = guard or R.guard
    if k < 2:
        raise RangeCheckError("triangular size must be >= 2")
    positions = [(r, c) for r in range(k) for c in range(r, k)]
    pos = {rc: i for i, rc in enumerate(positions)}
    guard.check_ring_size(R.size ** len(positions), what="triangular ring")

    def mul_digits(X, Y, ops):
        o = ops[0]
        out = []
        for r, c in positions:
            acc = None
            for t in range(r, c + 1):
                term = o.mul(X[pos[(r, t)]], Y[pos[(t, c)]])
                acc = term if acc is None else o.add(acc, term)
            out.append(acc)
        return out

    one_digits = [R.one if r == c else 0 for r, c in positions]

    def render_digits(digs):
        rows = []
        for r in range(k):
            cells = []
            for c in range(k):
                cells.append(R.render(digs[pos[(r, c)]]) if c >= r else R.render(0))
            rows.append("[" + ",".join(cells) + "]")
        return "[" + ",".join(rows) + "]"

    return _tuple_ring(
        [R] * len(positions),
        mul_digits,
        one_digits,
        label=f"T({k},{R.label})",
        kind="triangular",
        meta={"base": R, "k": k, "positions": tuple(positions)},
        guard=guard,
        render_digits=render_digits,
    )


def make_ks(R: FiniteRing, s: int, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """2x2 generalized matrices over R with cross terms weighted by s*1.

    Digits are (a, x, y, b) for the matrix [[a, x], [y, b]]; the scalar s is
    an integer mapped to s*1_R, which is central by construction.
    """
    guard = guard or R.guard
    guard.check_ring_size(R.size ** 4, what="generalized matrix ring")
    s_code = scalar_code(R, s)

    def mul_digits(X, Y, ops):
        o = ops[0]
        a1, x1, y1, b1 = X
        a2, x2, y2, b2 = Y
        return [
            o.add(o.mul(a1, a2), o.mul(s_code, o.mul(x1, y2))),
            o.add(o.mul(a1, x2), o.mul(x1, b2)),
            o.add(o.mul(y1, a2), o.mul(b1, y2)),
            o.add(o.mul(s_code, o.mul(y1, x2)), o.mul(b1, b2)),
        ]

    def render_digits(digs):
        a, x, y, b = (R.render(d) for d in digs)
        return f"[[{a},{x}],[{y},{b}]]"

    return _tuple_ring(
        [R] * 4,
        mul_digits,
        [R.one, 0, 0, R.one],
        label=f"Ks({R.label},{s})",
        kind="ks",
        meta={"base": R, "s": s, "s_code": s_code},
        guard=guard,
        render_digits=render_digits,
    )


def make_trivial_extension(R: FiniteRing, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """Pairs (r, n) over the regular bimodule: (r,n)(r',n') = (rr', rn' + nr')."""
    guard = guard or R.guard
    guard.check_ring_size(R.size ** 2, what="trivial extension")

    def mul_digits(X, Y, ops):
        o = ops[0]
        r1, n1 = X
        r2, n2 = Y
        return [o.mul(r1, r2), o.add(o.mul(r1, n2), o.mul(n1, r2))]

    return _tuple_ring(
        [R, R],
        mul_digits,
        [R.one, 0],
        label=f"TrivExt({R.label})",
        kind="trivext",
        meta={"base": R},
        guard=guard,
        render_digits=lambda d: f"({R.render(d[0])},{R.render(d[1])})",
    )


def make_polyquot(R: FiniteRing, k: int, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """Truncated polynomials R[x]/(x^k); digits are coefficients, constant first."""
    guard = guard or R.guard
    if k < 1:
        raise RangeCheckError("truncation degree must be >= 1")
    guard.check_ring_size(R.size ** k, what="truncated polynomial ring")

    def mul_digits(X, Y, ops):
        o = ops[0]
        out = []
        for d in range(k):
            acc = None
            for i in range(d + 1):
                term = o.mul(X[i], Y[d - i])
                acc = term if acc is None else o.add(acc, term)
            out.append(acc)
        return out

    def render_digits(digs):
        terms = []
        for i, c in enumerate(digs):
            if c == 0:
                continue
            coef = R.render(c)
            if i == 0:
                terms.append(coef)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                terms.append(xpow if c == R.one else f"{coef}{xpow}")
        return " + ".join(terms) if terms else "0"

    return _tuple_ring(
        [R] * k,
        mul_digits,
        [R.one] + [0] * (k - 1),
        label=f"Poly({R.label},{k})",
        kind="polyquot",
        meta={"base": R, "k": k},
        guard=guard,
        render_digits=render_digits,
    )


def make_product(components: Sequence[FiniteRing], guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """Direct product with componentwise operations.

    The digit kernel's unit mask marks the tuples whose every component is
    a unit.
    """
    components = list(components)
    if not components:
        raise RangeCheckError("product needs at least one component")
    guard = guard or components[0].guard
    total = 1
    for c in components:
        total *= c.size
    guard.check_ring_size(total, what="product ring")
    width = len(components)

    def mul_digits(X, Y, ops):
        return [ops[t].mul(X[t], Y[t]) for t in range(width)]

    def unit_digits(digits, tabs):
        # a tuple is a unit exactly when every component is
        return np.logical_and.reduce(
            [_units_of(t, c.one)[d] for c, t, d in zip(components, tabs, digits)]
        )

    return _tuple_ring(
        components,
        mul_digits,
        [c.one for c in components],
        label="Prod(" + ",".join(c.label for c in components) + ")",
        kind="product",
        meta={"components": tuple(components)},
        guard=guard,
        unit_digits=unit_digits,
    )


def make_formal_triangular(R: FiniteRing, S: FiniteRing, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """Triangular matrices [[r, m], [0, s]] with m in the bimodule R x R.

    The bimodule must carry unital actions on both sides, which pins the
    two corner rings to the same construction; the diagonal actions
    r*(a,b) = (ra, rb) and (a,b)*s = (as, bs) then make M = R x R a
    nontrivial square-zero part.  Distinct corner rings are rejected
    because no canonical unital bimodule connects them.
    """
    guard = guard or R.guard
    if R.label != S.label or R.size != S.size:
        raise UnsupportedConstruction(
            "formal triangular rings need equal corner rings at desk scale "
            f"(got {R.label} and {S.label})"
        )
    guard.check_ring_size(R.size ** 3 * S.size, what="formal triangular ring")

    def mul_digits(X, Y, ops):
        o = ops[0]
        r1, a1, b1, s1 = X
        r2, a2, b2, s2 = Y
        return [
            o.mul(r1, r2),
            o.add(o.mul(r1, a2), o.mul(a1, s2)),
            o.add(o.mul(r1, b2), o.mul(b1, s2)),
            o.mul(s1, s2),
        ]

    def render_digits(d):
        return f"[[{R.render(d[0])},({R.render(d[1])},{R.render(d[2])})],[0,{R.render(d[3])}]]"

    return _tuple_ring(
        [R, R, R, R],
        mul_digits,
        [R.one, 0, 0, R.one],
        label=f"FT({R.label},{S.label})",
        kind="ft",
        meta={"base": R, "left": R, "right": S},
        guard=guard,
        render_digits=render_digits,
    )


def make_groupring(R: FiniteRing, G: FiniteGroup, guard: Optional[ResourceGuard] = None) -> FiniteRing:
    """The group ring R[G]: functions G -> R under convolution."""
    guard = guard or R.guard
    guard.check_ring_size(R.size ** G.order, what="group ring")
    n = G.order
    pairs = [(g, h, int(G.table[g, h])) for g in range(n) for h in range(n)]

    def mul_digits(X, Y, ops):
        o = ops[0]
        out = [None] * n
        for g, h, target in pairs:
            term = o.mul(X[g], Y[h])
            out[target] = term if out[target] is None else o.add(out[target], term)
        return out

    one_digits = [0] * n
    one_digits[G.identity] = R.one

    def render_digits(digs):
        terms = []
        for g, c in enumerate(digs):
            if c == 0:
                continue
            coef = R.render(c)
            lbl = G.element_label(g)
            terms.append(lbl if c == R.one else f"{coef}*{lbl}")
        return " + ".join(terms) if terms else "0"

    return _tuple_ring(
        [R] * n,
        mul_digits,
        one_digits,
        label=f"GR({R.label},{G.label})",
        kind="groupring",
        meta={"base": R, "group": G},
        guard=guard,
        render_digits=render_digits,
    )


# ---------------------------------------------------------------------------
# derived carriers: corners, ideals, quotients, subrings
# ---------------------------------------------------------------------------


def _mapped_ring(
    parent: FiniteRing,
    carrier: np.ndarray,
    one_parent: int,
    *,
    label: str,
    kind: str,
    meta: dict,
    reduce: Optional[np.ndarray] = None,
) -> FiniteRing:
    """A ring living on a subset of parent codes, densely re-indexed.

    Its kernel is the parent's ops() read through the carrier.  reduce maps
    every parent code into the carrier (the coset representative, for
    quotients); without it the carrier must be closed under the operations.
    """
    carrier = np.sort(np.asarray(carrier, dtype=np.int64))

    def kernel() -> ArrayOps:
        pops = parent.ops()
        index = np.full(parent.size, -1, dtype=np.int64)
        index[carrier] = np.arange(carrier.size)
        if reduce is not None:
            index = index[reduce]

        def lift(op):
            return lambda *codes: index[op(*(carrier[c] for c in codes))]

        return ArrayOps(lift(pops.add), lift(pops.mul), lift(pops.neg), lambda: None)

    meta = dict(meta)
    meta["parent"] = parent
    meta["carrier"] = carrier
    return FiniteRing(
        carrier.size,
        one=int(np.searchsorted(carrier, one_parent)),
        label=label,
        kind=kind,
        meta=meta,
        guard=parent.guard,
        render=lambda i: parent.render(int(carrier[i])),
        kernel=kernel,
    )


def _codes(R: FiniteRing, elems: Sequence[int | Elem]) -> list[int]:
    """The codes of elements of R, each checked to lie in 0..N-1."""
    codes = [e.code if isinstance(e, Elem) else int(e) for e in elems]
    for c in codes:
        if not 0 <= c < R.size:
            raise RangeCheckError(f"element #{c} outside {R.label} of size {R.size}")
    return codes


def _row_blocks(rows: np.ndarray, cols: np.ndarray):
    """rows as column vectors of at most BLOCK_ENTRIES // |cols| codes, so that
    op(block, cols) is one block of the rows x cols grid of results."""
    step = max(1, BLOCK_ENTRIES // max(1, cols.size))
    for lo in range(0, rows.size, step):
        yield rows[lo : lo + step, None]


def _closed(mask: np.ndarray, op: Callable, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether op(r, c) lies in mask for every r in rows and c in cols."""
    return all(mask[op(block, cols)].all() for block in _row_blocks(rows, cols))


def _mark(reach: np.ndarray, op: Callable, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set reach at op(r, c) for every r in rows and c in cols."""
    for block in _row_blocks(rows, cols):
        reach[op(block, cols)] = True


@dataclass
class IdealSet:
    """A two-sided ideal of a ring, stored as a membership bitset."""

    ring: FiniteRing
    mask: np.ndarray
    generators: list[int] = field(default_factory=list)

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __contains__(self, code: int) -> bool:
        return bool(self.mask[code])

    def verify_ideal(self) -> tuple[bool, Optional[str]]:
        """Closure under add, neg, and left and right multiplication by the
        ring; the reason names the first of these that fails."""
        R = self.ring
        if not self.mask[R.zero]:
            return False, "zero missing"
        ops = R.ops()
        mem = self.members()
        codes = np.arange(R.size, dtype=np.int64)
        if not _closed(self.mask, ops.add, mem, mem):
            return False, "not closed under addition"
        if not self.mask[ops.neg(mem)].all():
            return False, "not closed under negation"
        if not _closed(self.mask, ops.mul, codes, mem):
            return False, "not a left ideal"
        if not _closed(self.mask, ops.mul, mem, codes):
            return False, "not a right ideal"
        return True, None

    def is_nil(self) -> bool:
        """Whether some power of the set multiplies to {0} (nilpotent ideal).

        Each set of k-fold products is a function of the one before, so a
        set that repeats its predecessor without being {0} never becomes it.
        """
        R = self.ring
        mul = R.ops().mul
        mem = self.members()
        current = mem
        for _ in range(R.size + 1):
            if current.size == 1 and int(current[0]) == R.zero:
                return True
            reach = np.zeros(R.size, dtype=bool)
            _mark(reach, mul, current, mem)
            products = np.flatnonzero(reach)
            if np.array_equal(products, current):
                return False
            current = products
        return False


def _closure(R: FiniteRing, seed: Sequence[int], factors: Optional[np.ndarray]) -> np.ndarray:
    """Bitset of the least superset of seed closed under +, negation and
    products on either side with factors (None: the members themselves).

    Each round applies the operations only to pairs with a member found in
    the round before.
    """
    ops = R.ops()
    mask = np.zeros(R.size, dtype=bool)
    mask[seed] = True
    fresh = np.flatnonzero(mask)
    while fresh.size:
        mem = np.flatnonzero(mask)
        reach = np.zeros(R.size, dtype=bool)
        reach[ops.neg(fresh)] = True
        for op, cols in ((ops.add, mem), (ops.mul, mem if factors is None else factors)):
            _mark(reach, op, fresh, cols)
            _mark(reach, op, cols, fresh)
        fresh = np.flatnonzero(reach & ~mask)
        mask |= reach
    return mask


def ideal_closure(R: FiniteRing, gens: Sequence[int | Elem]) -> IdealSet:
    """Smallest two-sided ideal containing the generators."""
    codes = _codes(R, gens)
    return IdealSet(R, _closure(R, [R.zero, *codes], np.arange(R.size, dtype=np.int64)), codes)


def make_quotient(R: FiniteRing, I: IdealSet) -> FiniteRing:
    """R/I on canonical coset representatives (minimal code per coset)."""
    ok, why = I.verify_ideal()
    if not ok:
        raise NotAnIdeal(f"{why} in {R.label}")
    mem = I.members()
    add = R.ops().add
    codes = np.arange(R.size, dtype=np.int64)
    rep_map = np.concatenate([add(block, mem).min(axis=1) for block in _row_blocks(codes, mem)])
    rep_map = rep_map.astype(np.int64)
    reps = np.unique(rep_map)
    if I.generators:
        label = f"Quot({R.label}," + ",".join(f"#{g}" for g in I.generators) + ")"
    else:
        label = f"Quot({R.label},|I|={len(mem)})"
    return _mapped_ring(
        R,
        reps,
        int(rep_map[R.one]),
        label=label,
        kind="quotient",
        meta={"ideal": I, "rep_map": rep_map},
        reduce=rep_map,
    )


def make_corner(R: FiniteRing, e: int | Elem) -> FiniteRing:
    """The corner ring eRe for an idempotent e, with identity e."""
    (code,) = _codes(R, [e])
    if R.mul(code, code) != code:
        raise NotIdempotent(f"code {code} is not idempotent in {R.label}")
    if code == R.zero:
        raise NotIdempotent("the corner at zero is not a unital ring")
    mul = R.ops().mul
    carrier = np.unique(mul(mul(code, np.arange(R.size, dtype=np.int64)), code))
    return _mapped_ring(
        R,
        carrier,
        code,
        label=f"Corner({R.label},#{code})",
        kind="corner",
        meta={"idempotent": code},
    )


def subring_closure(R: FiniteRing, gens: Sequence[int | Elem]) -> FiniteRing:
    """Smallest unital subring containing the generators, densely re-indexed."""
    codes = _codes(R, gens)
    return _mapped_ring(
        R,
        np.flatnonzero(_closure(R, [R.zero, R.one, *codes], None)),
        R.one,
        label=f"Sub({R.label},{len(codes)} gens)",
        kind="subring",
        meta={"generators": codes},
    )


# ---------------------------------------------------------------------------
# the restricted oracle for the integers
# ---------------------------------------------------------------------------


class IntegersOracle:
    """A non-enumerable handle for the ring of integers.

    Exposes exactly the data the unit/nilpotent predicates need: units
    {1, -1}, nilpotents {0}, characteristic 0.  Any operation that would
    enumerate elements must reject this handle.
    """

    label = "Z"
    kind = "integers"
    size = None
    zero = 0
    one = 1
    units = (1, -1)
    nilpotents = (0,)
    characteristic = 0

    def pow(self, a: int, k: int) -> int:
        return a ** k

    def reject(self, operation: str):
        raise UnsupportedPredicate(
            f"{operation} requires enumerating ring elements; the integers oracle cannot"
        )

    def __repr__(self) -> str:
        return "IntegersOracle()"


_INTEGERS = IntegersOracle()


def integers_oracle() -> IntegersOracle:
    return _INTEGERS
