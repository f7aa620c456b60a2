"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is a vector of rational coordinates in the power basis
1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), reduced modulo the N-th
cyclotomic polynomial.  Internally the vector is kept as integer
numerators over one positive denominator with gcd 1, so the
representation is canonical and equality is structural.

Values from different conductors are compared and combined by lifting
both to Q(zeta_lcm) via zeta_N = zeta_M^(M/N); a rational factor only
scales.  A product on one conductor N is one convolution of the two
coordinate vectors and one reduction of its powers x^(deg+k), k < deg - 1,
through a table of their residues mod Phi_N, built once per conductor.
Inverses go through the Galois norm: x times the product of its other
conjugates zeta -> zeta^a is a rational, so every field operation is
integer polynomial work.  ``as_root_exponent`` looks the coordinates up in
a per-(m, conductor) table of the m-th roots of unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


# ----------------------------------------------------------------- #
# integer polynomial helpers (dense, ascending coefficients)
# ----------------------------------------------------------------- #

def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic integer polynomial; stays in integers."""
    if not den or den[-1] != 1:
        raise ArithmeticError("divisor must be a monic polynomial")
    num = list(num)
    d = len(den) - 1
    quot = [0] * max(len(num) - d, 0)
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            quot[k - d] = c
            for j in range(d + 1):
                num[k - d + j] -= c * den[j]
    return _poly_trim(quot), _poly_trim(num[:d])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(1)
    (-1, 1)
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
            if r:
                raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1")
            num = q
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k: the nonzero (j, c) of x^(deg+k) mod Phi_n, for k < deg - 1.

    These are the powers a product of two reduced values can reach.

    >>> _reduction(3)  # x^2 = -1 - x
    (((0, -1), (1, -1)),)
    """
    phi_n = list(cyclotomic_polynomial(n))
    deg = len(phi_n) - 1
    rows = []
    power = [-c for c in phi_n[:-1]]  # x^deg, as Phi_n is monic
    for _ in range(deg - 1):
        rows.append(tuple((j, c) for j, c in enumerate(power) if c))
        top = power[-1]  # x * power, then x^deg replaced as above
        power = [0] + power[:-1]
        if top:
            power = [p - top * c for p, c in zip(power, phi_n)]
    return tuple(rows)


class CycScalar:
    """An exact element of Q(zeta_N).

    ``nums`` holds the numerators of the power-basis coordinates over the
    common positive denominator ``den``; gcd(den, *nums) == 1.
    """

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums, den=1):
        conductor = int(conductor)
        phi_n = cyclotomic_polynomial(conductor)
        deg = len(phi_n) - 1
        nums = [int(x) for x in nums]
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if len(nums) > deg:
            _, nums = _poly_divmod_monic(nums, list(phi_n))
        nums = nums + [0] * (deg - len(nums))
        if den < 0:
            den, nums = -den, [-x for x in nums]
        self._set(conductor, nums, den)

    def _set(self, conductor: int, nums: list[int], den: int) -> "CycScalar":
        """Store reduced coordinates over a positive den, in lowest terms."""
        g = gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [x // g for x in nums]
        self.conductor = conductor
        self.nums = tuple(nums)
        self.den = den
        return self

    # -- constructors ------------------------------------------------ #

    @classmethod
    def rational(cls, value, conductor: int = 1) -> "CycScalar":
        q = Fraction(value)
        return cls(conductor, [q.numerator], q.denominator)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CycScalar":
        return cls(conductor, [])

    @classmethod
    def one(cls, conductor: int = 1) -> "CycScalar":
        return cls(conductor, [1])

    # -- structure --------------------------------------------------- #

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction | None:
        if self.is_rational():
            return Fraction(self.nums[0], self.den)
        return None

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def lift(self, conductor: int) -> "CycScalar":
        """Embed into Q(zeta_M) for a multiple M of the conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only lift to a multiple of the conductor")
        step = conductor // self.conductor
        lifted = [0] * ((len(self.nums) - 1) * step + 1) if self.nums else [0]
        for i, x in enumerate(self.nums):
            lifted[i * step] = x
        return CycScalar(conductor, lifted, self.den)

    def _pair(self, other) -> tuple["CycScalar", "CycScalar"]:
        if not isinstance(other, CycScalar):
            other = CycScalar.rational(other, 1)
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    # -- field operations -------------------------------------------- #

    def __add__(self, other) -> "CycScalar":
        a, b = self._pair(other)
        nums = [
            x * b.den + y * a.den
            for x, y in zip(a.nums, b.nums)
        ]
        return CycScalar(a.conductor, nums, a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.conductor, [-x for x in self.nums], self.den)

    def __sub__(self, other) -> "CycScalar":
        return self + (-other if isinstance(other, CycScalar) else -Fraction(other))

    def __rsub__(self, other) -> "CycScalar":
        return (-self) + other

    def __mul__(self, other) -> "CycScalar":
        if not isinstance(other, CycScalar):
            other = CycScalar.rational(other)
        x, y = self.nums, other.nums
        deg = len(x)
        if other.conductor != self.conductor:
            if len(y) == 1 and self.conductor % other.conductor == 0:
                nums = [c * y[0] for c in x]  # a rational factor: scale
            elif deg == 1 and other.conductor % self.conductor == 0:
                return other * self
            else:
                a, b = self._pair(other)
                return a * b
        elif deg == 1:
            nums = [x[0] * y[0]]
        else:
            # one convolution, then one reduction of the powers >= deg
            full = [0] * (2 * deg - 1)
            for i, c in enumerate(x):
                if c:
                    for j, d in enumerate(y, i):
                        full[j] += c * d
            nums = full[:deg]
            for c, row in zip(full[deg:], _reduction(self.conductor)):
                if c:
                    for j, r in row:
                        nums[j] += c * r
        # already reduced and den > 0: skip the validating constructor
        return object.__new__(CycScalar)._set(self.conductor, nums, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        """Multiplicative inverse by the Galois norm.

        With x = n/den for an integer element n, the product P of the
        conjugates n(zeta^a) over the units a != 1 mod N satisfies
        n*P = norm(n), a nonzero integer, so x^-1 = den*P / norm(n).

        >>> root_of_unity(4, 1).inv() == root_of_unity(4, 3)
        True
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in the field")
        n = self.conductor
        others = CycScalar.one(n)
        for a in range(2, n):
            if gcd(a, n) == 1:
                conjugate = [0] * n
                for i, x in enumerate(self.nums):
                    conjugate[a * i % n] = x
                others = others * CycScalar(n, conjugate)
        norm = CycScalar(n, self.nums) * others
        if not norm.is_rational():
            raise ArithmeticError(f"the norm to Q from Q(zeta_{n}) is not rational")
        return CycScalar(n, [x * self.den for x in others.nums], norm.nums[0])

    def __truediv__(self, other) -> "CycScalar":
        a, b = self._pair(other)
        return a * b.inv()

    def __rtruediv__(self, other) -> "CycScalar":
        return self.inv() * other

    def __pow__(self, exponent: int) -> "CycScalar":
        exponent = int(exponent)
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = CycScalar.one(self.conductor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CycScalar):
            if other.conductor == self.conductor:
                return self.nums == other.nums and self.den == other.den
        elif isinstance(other, (int, Fraction)):
            other = CycScalar.rational(other)
        else:
            return NotImplemented
        a, b = self._pair(other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None  # values from different conductors compare equal; keep unhashable

    def __repr__(self) -> str:
        return f"CycScalar({self})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(Fraction(self.nums[0], self.den))
        if self.conductor == 4:
            re, im = Fraction(self.nums[0], self.den), Fraction(self.nums[1], self.den)
            if re == 0:
                return "i" if im == 1 else ("-i" if im == -1 else f"{im}*i")
            sign = "+" if im > 0 else "-"
            mag = abs(im)
            term = "i" if mag == 1 else f"{mag}*i"
            return f"{re}{sign}{term}"
        k = as_root_exponent(self, self.conductor)
        if k is not None:
            return f"zeta{self.conductor}^{k}" if k != 1 else f"zeta{self.conductor}"
        terms = []
        for i, x in enumerate(self.nums):
            if x:
                z = "1" if i == 0 else (f"zeta{self.conductor}" + (f"^{i}" if i > 1 else ""))
                terms.append(f"{x}*{z}" if i else str(x))
        body = " + ".join(terms).replace("+ -", "- ")
        return body if self.den == 1 else f"({body})/{self.den}"

    # -- JSON form ---------------------------------------------------- #

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coefficients()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CycScalar":
        n = int(data["conductor"])
        coeffs = [Fraction(int(p), int(q)) for p, q in data["coeffs"]]
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        return cls(n, [int(c * den) for c in coeffs], den)


# ----------------------------------------------------------------- #
# roots of unity
# ----------------------------------------------------------------- #

@lru_cache(maxsize=None)
def root_of_unity(conductor: int, k: int = 1) -> CycScalar:
    """zeta_N^k in canonical form.

    >>> root_of_unity(4, 2) == -1
    True
    """
    conductor = int(conductor)
    if conductor < 1:
        raise ValueError("conductor must be a positive integer")
    k = int(k) % conductor
    return CycScalar(conductor, [0] * k + [1])  # constructor reduces mod Phi_N


@lru_cache(maxsize=None)
def _roots(m: int, conductor: int) -> dict[tuple[int, ...], int]:
    """zeta_m^k in Q(zeta_conductor), by its numerators (its den is 1) -> k."""
    return {root_of_unity(m, k).lift(conductor).nums: k for k in range(m)}


def as_root_exponent(x: CycScalar, m: int) -> int | None:
    """The exponent k in [0, m) with x = zeta_m^k, or None.

    >>> as_root_exponent(root_of_unity(3, 2), 6)
    4
    """
    if x.den != 1:
        return None
    n = lcm(x.conductor, m)
    return _roots(m, n).get(x.lift(n).nums)


def is_square_in_mu(x: CycScalar, m: int) -> bool:
    """Whether x is the square of an m-th root of unity."""
    k = as_root_exponent(x, m)
    if k is None:
        raise ValueError("square-class undecidable in this backend")
    if m % 2 == 1:
        return True
    return k % 2 == 0


# ----------------------------------------------------------------- #
# square classes in the ambient field
# ----------------------------------------------------------------- #

def _squarefree_part(n: int) -> int:
    """Signed squarefree part of a nonzero integer."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    part = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            part *= d
        d += 1
    return sign * part * n


def rational_is_square_in_field(q, conductor: int) -> bool:
    """Whether a nonzero rational is a square in Q(zeta_N).

    A rational q = s*t^2 with s its signed squarefree part is a square in
    Q(zeta_N) iff sqrt(s) lies in the field, i.e. iff the conductor of
    Q(sqrt(s)) divides N (s = 1 is always a square).
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no square class in k*")
    s = _squarefree_part(q.numerator * q.denominator)
    if s == 1:
        return True
    field_conductor = abs(s) if s % 4 == 1 else 4 * abs(s)
    return conductor % field_conductor == 0


def square_class(x: CycScalar) -> str:
    """'trivial' / 'nontrivial' / 'undecided' square class of x in k*.

    Decidable inputs are the roots of unity mu_N and the rationals; the
    ambient field is Q(zeta_N) for N the conductor carried by x.
    """
    if x.is_zero():
        raise ValueError("zero has no square class in k*")
    n = x.conductor
    k = as_root_exponent(x, n)
    if k is not None:
        return "trivial" if is_square_in_mu(x, n) else "nontrivial"
    q = x.as_rational()
    if q is not None:
        return "trivial" if rational_is_square_in_field(q, n) else "nontrivial"
    return "undecided"


def coerce(value, conductor: int = 1) -> CycScalar:
    """Turn ints, Fractions, or CycScalars into a CycScalar."""
    if isinstance(value, CycScalar):
        return value
    return CycScalar.rational(value, conductor)
