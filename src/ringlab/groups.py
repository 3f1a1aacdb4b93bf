"""Finite groups as Cayley tables, with the small built-in catalog.

The catalog covers cyclic groups C(n), dihedral groups D(n) of order 2n,
the quaternion group Q8, symmetric groups S(n), direct products, and
Cayley tables loaded from JSON files (Latin square, identity at index 0).
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

import numpy as np

from .core import _additive_generators
from .errors import AxiomViolation, RangeCheckError


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at catalog scale."""
    if n < 1:
        raise ValueError("positive integers only")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FiniteGroup:
    """A finite group given by its Cayley table on indices 0..order-1."""

    __slots__ = ("order", "table", "identity", "label", "_inverse", "_elem_labels", "_orders")

    def __init__(self, table, label: str, elem_labels: Optional[list[str]] = None, validate: bool = True):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise AxiomViolation("Cayley table must be square")
        n = table.shape[0]
        self.order = n
        self.table = table
        self.label = label
        self._elem_labels = elem_labels
        self._orders = None
        ident = self._find_identity()
        if validate:
            self._validate(ident)
        if ident is None:
            raise AxiomViolation(f"group table for {label} has no identity")
        self.identity = ident
        inv = np.full(n, -1, dtype=np.int64)
        for g in range(n):
            hits = np.flatnonzero(table[g] == ident)
            if hits.size != 1 or table[int(hits[0]), g] != ident:
                raise AxiomViolation(f"element {g} of {label} has no two-sided inverse")
            inv[g] = int(hits[0])
        self._inverse = inv

    def _validate(self, ident: Optional[int]) -> None:
        n = self.order
        t = self.table
        if (t < 0).any() or (t >= n).any():
            raise AxiomViolation("table entries out of range")
        expect = np.arange(n)
        for i in range(n):
            if not np.array_equal(np.sort(t[i]), expect) or not np.array_equal(np.sort(t[:, i]), expect):
                raise AxiomViolation(f"table is not a Latin square at row/column {i}")
        # Light's test in O(n^2) memory (the s with (xs)y == x(sy) for all x, y are closed under
        # products); a Latin square without identity or log2 n generators is no group.
        gens = None if ident is None else _additive_generators(t, ident)
        if gens is None or not all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in gens):
            raise AxiomViolation("table is not associative")

    def _find_identity(self) -> Optional[int]:
        n = self.order
        expect = np.arange(n)
        for e in range(n):
            if np.array_equal(self.table[e], expect) and np.array_equal(self.table[:, e], expect):
                return e
        return None

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(self._inverse[i])

    def element_order(self, i: int) -> int:
        if self._orders is None:
            orders = []
            for g in range(self.order):
                x, k = g, 1
                while x != self.identity:
                    x = self.mul(x, g)
                    k += 1
                orders.append(k)
            self._orders = orders
        return self._orders[i]

    def element_label(self, i: int) -> str:
        if self._elem_labels is not None:
            return self._elem_labels[i]
        return f"g{i}"

    def p_group_prime(self) -> Optional[int]:
        """The prime p when |G| is a p-power (trivial group counts for any p -> None)."""
        fac = factorize(self.order)
        if len(fac) == 1:
            return next(iter(fac))
        return None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise RangeCheckError("cyclic group order must be >= 1")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(table, f"C({n})", labels, validate=False)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i and reflections r^i*s."""
    if n < 1:
        raise RangeCheckError("dihedral parameter must be >= 1")
    order = 2 * n

    def code(i, s):
        return i + n * s

    table = np.zeros((order, order), dtype=np.int64)
    for i, s in itertools.product(range(n), range(2)):
        for j, t in itertools.product(range(n), range(2)):
            # (r^i s^s)(r^j s^t) = r^(i + (-1)^s j) s^(s+t)
            k = (i + (j if s == 0 else -j)) % n
            table[code(i, s), code(j, t)] = code(k, (s + t) % 2)
    labels = []
    for s in range(2):
        for i in range(n):
            base = "e" if i == 0 else (f"r^{i}" if i > 1 else "r")
            labels.append(base if s == 0 else (("s" if i == 0 else base + "*s")))
    ordered = [None] * order
    for i, s in itertools.product(range(n), range(2)):
        ordered[code(i, s)] = labels[s * n + i]
    return FiniteGroup(table, f"D({n})", ordered, validate=False)


_Q8_SYMS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
# sign, axis pairs; axis 0 is the scalar 1
_Q8_RULES = {
    ("i", "i"): (-1, "1"),
    ("j", "j"): (-1, "1"),
    ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"),
    ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"),
    ("k", "j"): (-1, "i"),
    ("k", "i"): (1, "j"),
    ("i", "k"): (-1, "j"),
}


def quaternion8() -> FiniteGroup:
    def split(idx):
        sym = _Q8_SYMS[idx]
        return (-1 if sym.startswith("-") else 1), sym.lstrip("-")

    def join(sign, sym):
        return _Q8_SYMS.index(sym if sign > 0 else "-" + sym)

    table = np.zeros((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            sa, xa = split(a)
            sb, xb = split(b)
            if xa == "1":
                sign, sym = sa * sb, xb
            elif xb == "1":
                sign, sym = sa * sb, xa
            else:
                s, sym = _Q8_RULES[(xa, xb)]
                sign = sa * sb * s
            table[a, b] = join(sign, sym)
    return FiniteGroup(table, "Q8", list(_Q8_SYMS), validate=False)


def symmetric(n: int) -> FiniteGroup:
    """S(n) on the permutations of 0..n-1 in lexicographic order."""
    if n < 1:
        raise RangeCheckError("symmetric degree must be >= 1")
    if n > 7:
        raise RangeCheckError("symmetric groups above degree 7 exceed desk scale")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.zeros((order, order), dtype=np.int64)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            table[a, b] = index[tuple(p[q[i]] for i in range(n))]
    labels = ["(" + " ".join(map(str, p)) + ")" for p in perms]
    return FiniteGroup(table, f"S({n})", labels, validate=False)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    ng, nh = G.order, H.order
    order = ng * nh
    table = np.zeros((order, order), dtype=np.int64)
    for g1, h1 in itertools.product(range(ng), range(nh)):
        a = g1 + ng * h1
        for g2, h2 in itertools.product(range(ng), range(nh)):
            b = g2 + ng * h2
            table[a, b] = G.mul(g1, g2) + ng * H.mul(h1, h2)
    labels = [
        f"({G.element_label(g)},{H.element_label(h)})"
        for h in range(nh)
        for g in range(ng)
    ]
    ordered = [None] * order
    for g, h in itertools.product(range(ng), range(nh)):
        ordered[g + ng * h] = f"({G.element_label(g)},{H.element_label(h)})"
    return FiniteGroup(table, f"GxG({G.label},{H.label})", ordered, validate=False)


def from_cayley_json(source) -> FiniteGroup:
    """Load {"order": n, "table": [[...]], "label": str}; identity must sit at index 0."""
    try:
        if isinstance(source, (str, bytes)):
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = source
        order = int(data["order"])
        table = np.asarray(data["table"], dtype=np.int64)
        label = str(data.get("label", "G"))
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers JSON syntax, undecodable bytes, a non-integer order and a ragged table
        raise AxiomViolation(f"malformed Cayley JSON: {exc}") from exc
    if table.shape != (order, order):
        raise AxiomViolation(f"Cayley JSON table shape {table.shape} does not match order {order}")
    group = FiniteGroup(table, label, validate=True)
    if group.identity != 0:
        raise AxiomViolation("Cayley JSON must place the identity at index 0")
    return group
