"""Structural invariants of a finite ring, computed lazily and memoized.

The cache holds the unit set with verified two-sided inverses, the
nilpotent bitset, idempotents and n-potents, the Jacobson radical, the
center, per-unit minimal unipotence exponents and the ring's uu-exponent.
All results are in ascending code order, so downstream witnesses are
deterministic.  Powers, nilpotents, idempotents and n-potents are computed
through the ring's ops(), so they exist beyond the memo budget too; the
entries that need N^2 work or unit orders require the tables.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .constructions import IdealSet, IntegersOracle
from .core import BLOCK_ENTRIES, FiniteRing
from .errors import AxiomViolation, UnsupportedPredicate


def vector_pow_by(mul, base: np.ndarray, n: int, one: int) -> np.ndarray:
    """Elementwise base**n by square-and-multiply through mul on code arrays."""
    result = np.full(base.size, one, dtype=np.int64)
    b = base.astype(np.int64)
    k = n
    while k:
        if k & 1:
            result = mul(result, b)
        b = mul(b, b)
        k >>= 1
    return result


class StructureCache:
    """Per-ring memo of the structural sets every predicate consumes."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self._d: dict = {}

    # -- helpers -----------------------------------------------------------

    def _tables(self):
        t = self.ring.try_tables()
        if t is None:
            raise UnsupportedPredicate(
                f"{self.ring.label} (size {self.ring.size}) exceeds the memo budget; "
                "full structural enumeration is not available"
            )
        return t

    def pow_all(self, n: int) -> np.ndarray:
        """Vector of a**n over all codes a."""
        key = ("pow", n)
        if key not in self._d:
            codes = np.arange(self.ring.size, dtype=np.int64)
            self._d[key] = vector_pow_by(self.ring.ops().mul, codes, n, self.ring.one)
        return self._d[key]

    # -- structural sets ----------------------------------------------------

    @property
    def nil_mask(self) -> np.ndarray:
        """Bitset of nilpotents: a^(2^ceil(log2 N)) = 0 is exact for finite rings."""
        if "nil" not in self._d:
            mul = self.ring.ops().mul
            v = np.arange(self.ring.size, dtype=np.int64)
            for _ in range(max(1, math.ceil(math.log2(self.ring.size)))):
                v = mul(v, v)
            self._d["nil"] = v == self.ring.zero
        return self._d["nil"]

    @property
    def unit_mask(self) -> np.ndarray:
        """Bitset of units: left multiplication is injective (trivial kernel)."""
        if "unit_mask" not in self._d:
            self._compute_units()
        return self._d["unit_mask"]

    @property
    def units(self) -> np.ndarray:
        """Unit codes in ascending order."""
        if "units" not in self._d:
            self._compute_units()
        return self._d["units"]

    @property
    def unit_inverses(self) -> np.ndarray:
        """inverse[i] for units[i], verified two-sided."""
        if "unit_inv" not in self._d:
            self._compute_units()
        return self._d["unit_inv"]

    def _compute_units(self) -> None:
        tabs = self._tables()
        R = self.ring
        kernel_sizes = (tabs.mul == R.zero).sum(axis=1)
        mask = kernel_sizes == 1
        units = np.flatnonzero(mask)
        rows = tabs.mul[units]
        hit = rows == R.one
        if not hit.any(axis=1).all():
            raise AxiomViolation(f"injective non-invertible element in {R.label}")
        inv = hit.argmax(axis=1)
        # a right inverse in a finite ring is two-sided; verify explicitly
        if not (tabs.mul[inv, units] == R.one).all():
            raise AxiomViolation(f"one-sided inverse detected in {R.label}")
        self._d["unit_mask"] = mask
        self._d["units"] = units.astype(np.int64)
        self._d["unit_inv"] = inv.astype(np.int64)

    @property
    def idempotents(self) -> np.ndarray:
        if "idem" not in self._d:
            codes = np.arange(self.ring.size, dtype=np.int64)
            self._d["idem"] = np.flatnonzero(self.ring.ops().mul(codes, codes) == codes)
        return self._d["idem"]

    def n_potents(self, n: int) -> np.ndarray:
        """All f with f**n = f, ascending."""
        key = ("npot", n)
        if key not in self._d:
            codes = np.arange(self.ring.size, dtype=np.int64)
            self._d[key] = np.flatnonzero(self.pow_all(n) == codes)
        return self._d[key]

    @property
    def radical_mask(self) -> np.ndarray:
        """J(R) by quasi-regularity: a with 1 - r*a a unit for every r.

        Every code is a candidate (the nil check in radical() relies on it);
        the rows r go in blocks of at most BLOCK_ENTRIES products.
        """
        if "radical" not in self._d:
            tabs = self._tables()
            R = self.ring
            units = self.unit_mask
            one_minus = tabs.add[R.one][tabs.neg]
            mask = np.ones(R.size, dtype=bool)
            step = max(1, BLOCK_ENTRIES // R.size)
            for lo in range(0, R.size, step):
                mask &= units[one_minus[tabs.mul[lo : lo + step]]].all(axis=0)
            self._d["radical"] = mask
        return self._d["radical"]

    def radical(self) -> IdealSet:
        if "radical_ideal" not in self._d:
            ideal = IdealSet(self.ring, self.radical_mask.copy(), [])
            ok, why = ideal.verify_ideal()
            if not ok:
                raise AxiomViolation(f"Jacobson radical of {self.ring.label} failed: {why}")
            if not ideal.is_nil():
                raise AxiomViolation(
                    f"radical of finite ring {self.ring.label} must be nilpotent"
                )
            self._d["radical_ideal"] = ideal
        return self._d["radical_ideal"]

    @property
    def center_mask(self) -> np.ndarray:
        if "center" not in self._d:
            tabs = self._tables()
            self._d["center"] = (tabs.mul == tabs.mul.T).all(axis=1)
        return self._d["center"]

    # -- unipotence data -----------------------------------------------------

    @property
    def unit_unipotence_exponents(self) -> np.ndarray:
        """d_u per unit: least n >= 1 with u**n - 1 nilpotent."""
        if "dexp" not in self._d:
            tabs = self._tables()
            R = self.ring
            units = self.units
            nil = self.nil_mask
            d = np.zeros(units.size, dtype=np.int64)
            current = units.copy()
            n = 1
            # u**ord(u) = 1 guarantees termination within the unit-group exponent
            limit = 4 * max(1, units.size) + 4
            while (d == 0).any():
                defect = tabs.add[current, tabs.neg[R.one]]
                fresh = (d == 0) & nil[defect]
                d[fresh] = n
                current = tabs.mul[current, units]
                n += 1
                if n > limit:
                    raise AxiomViolation(f"unipotence exponents diverge in {R.label}")
            self._d["dexp"] = d
        return self._d["dexp"]

    @property
    def uu_exponent(self) -> int:
        """lcm over units of d_u; the ring is n-UU exactly when this divides n."""
        if "uu" not in self._d:
            self._d["uu"] = int(math.lcm(*self.unit_unipotence_exponents.tolist()))
        return self._d["uu"]


def cache(R: FiniteRing) -> StructureCache:
    if R._cache is None:
        R._cache = StructureCache(R)
    return R._cache


def _need_ring(R, operation: str) -> FiniteRing:
    if isinstance(R, IntegersOracle):
        R.reject(operation)
    return R


# -- public operations -------------------------------------------------------


def units(R) -> list[tuple[int, int]]:
    """Unit codes with their inverses, ascending."""
    if isinstance(R, IntegersOracle):
        return [(1, 1), (-1, -1)]
    c = cache(R)
    return list(zip(c.units.tolist(), c.unit_inverses.tolist()))


def unit_codes(R) -> list[int]:
    if isinstance(R, IntegersOracle):
        return [1, -1]
    return cache(R).units.tolist()


def nilpotents(R) -> np.ndarray:
    """Membership bitset of the nilpotent elements."""
    _need_ring(R, "nilpotents bitset")
    return cache(R).nil_mask


def nilpotent_codes(R) -> list[int]:
    if isinstance(R, IntegersOracle):
        return [0]
    return np.flatnonzero(cache(R).nil_mask).tolist()


def n_potents(R, n: int) -> list[int]:
    _need_ring(R, "n_potents")
    if n < 2:
        raise ValueError("n-potents need n >= 2")
    return cache(R).n_potents(n).tolist()


def idempotents(R) -> list[int]:
    _need_ring(R, "idempotents")
    return cache(R).idempotents.tolist()


def jacobson_radical(R) -> IdealSet:
    _need_ring(R, "jacobson_radical")
    return cache(R).radical()


def center(R) -> np.ndarray:
    _need_ring(R, "center")
    return cache(R).center_mask


def is_nilpotent_code(R: FiniteRing, a: int) -> bool:
    """Whether code a is nilpotent, read from the cached bitset."""
    return bool(cache(R).nil_mask[a])


def unipotence_exponent(u, code: Optional[int] = None) -> int:
    """Least n >= 1 with u**n - 1 nilpotent; the unipotent powers of u are
    exactly the multiples of this exponent.

    Accepts an Elem, or the integers oracle together with one of its units.
    """
    if isinstance(u, IntegersOracle):
        if code not in u.units:
            raise ValueError(f"{code} is not a unit of the integers oracle")
        return 1 if code == 1 else 2
    R = u.ring
    c = cache(R)
    units_arr = c.units
    pos = np.searchsorted(units_arr, u.code)
    if pos >= units_arr.size or units_arr[pos] != u.code:
        raise ValueError(f"code {u.code} is not a unit of {R.label}")
    return int(c.unit_unipotence_exponents[pos])


def uu_exponent(R) -> int:
    """Least n such that every unit's n-th power is unipotent."""
    if isinstance(R, IntegersOracle):
        return 2  # the only nontrivial unit is -1 and (-1)^2 - 1 = 0
    return cache(R).uu_exponent


def multiplicative_order(R: FiniteRing, u: int) -> int:
    x = u
    k = 1
    while x != R.one:
        x = R.mul(x, u)
        k += 1
        if k > R.size + 1:
            raise ValueError(f"code {u} has no multiplicative order in {R.label}")
    return k
