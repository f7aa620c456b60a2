from fractions import Fraction
from math import lcm

import pytest

from cocycle_lab.scalars import (
    CycScalar,
    as_root_exponent,
    _reduction,
    cyclotomic_polynomial,
    is_square_in_mu,
    rational_is_square_in_field,
    root_of_unity,
    square_class,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity():
    i = root_of_unity(4, 1)
    assert i * i == -1
    assert root_of_unity(4, 2) == -1
    assert i**4 == 1
    # 1 + zeta_3 + zeta_3^2 = 0, by reduction mod the cyclotomic polynomial
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1
    assert root_of_unity(3, 1) ** 3 == 1
    # multiplicative order is N/gcd(N, k)
    z = root_of_unity(12, 8)
    assert (z**3).is_one() and not z.is_one() and not (z**2).is_one()


def test_field_operations():
    i = root_of_unity(4, 1)
    assert (1 + i) * (1 - i) == 2
    assert CycScalar.rational(-1).inv() == -1
    assert (i + 1) - 1 == i
    assert CycScalar.rational(Fraction(2, 3)) / CycScalar.rational(Fraction(1, 6)) == 4
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(4).inv()
    z = root_of_unity(5, 2)
    x = 3 * z**2 - z + Fraction(1, 2)
    assert x * x.inv() == 1
    assert x ** (-2) == (x * x).inv()


def test_canonicality_random_routes(rng):
    # same value along different arithmetic routes gives identical vectors
    for _ in range(1000):
        n = rng.choice([3, 4, 5, 12])
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        z = root_of_unity(n, 1)
        assert z**a * z**b == z ** (a + b)
    for _ in range(50):
        parts = [
            CycScalar.rational(Fraction(rng.randrange(-5, 6), rng.randrange(1, 7)), 4)
            for _ in range(4)
        ]
        left = ((parts[0] + parts[1]) + parts[2]) + parts[3]
        right = parts[3] + (parts[2] + (parts[1] + parts[0]))
        assert left == right
        assert left.nums == right.nums and left.den == right.den


def test_lift_is_field_embedding(rng):
    z = root_of_unity(3, 1)
    for _ in range(100):
        a = z ** rng.randrange(3) + rng.randrange(-2, 3)
        b = z ** rng.randrange(3) - rng.randrange(-2, 3)
        assert (a * b).lift(12) == a.lift(12) * b.lift(12)
        assert (a + b).lift(12) == a.lift(12) + b.lift(12)
    with pytest.raises(ValueError):
        z.lift(4)


def test_field_axioms_sampled(rng):
    z = root_of_unity(4, 1)
    samples = [z, 1 + z, CycScalar.rational(Fraction(3, 2), 4), 2 - z, -z]
    for a in samples:
        for b in samples:
            for c in samples:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
        assert (a * a.inv()).is_one()


def test_as_root_exponent():
    assert as_root_exponent(CycScalar.rational(-1), 4) == 2
    assert as_root_exponent(CycScalar.rational(2), 4) is None
    i = root_of_unity(4, 1)
    assert as_root_exponent(i * i * i, 4) == 3
    assert as_root_exponent(root_of_unity(3, 2), 6) == 4


def test_is_square_in_mu():
    i = root_of_unity(4, 1)
    assert is_square_in_mu(CycScalar.rational(-1), 4) is True
    # exhaustive oracle: no fourth root of unity squares to i
    assert all(root_of_unity(4, k) ** 2 != i for k in range(4))
    assert is_square_in_mu(i, 4) is False
    # odd order: zeta_3 = (zeta_3^2)^2
    assert root_of_unity(3, 2) ** 2 == root_of_unity(3, 1)
    assert is_square_in_mu(root_of_unity(3, 1), 3) is True
    with pytest.raises(ValueError):
        is_square_in_mu(CycScalar.rational(2), 4)


def test_rational_square_classes():
    assert rational_is_square_in_field(4, 4)
    assert rational_is_square_in_field(Fraction(9, 16), 1)
    assert not rational_is_square_in_field(2, 4)
    assert not rational_is_square_in_field(Fraction(1, 2), 4)
    # -4 = (2i)^2 once i is present
    assert rational_is_square_in_field(-4, 4)
    assert not rational_is_square_in_field(-4, 2)
    # sqrt(2) lives in the eighth cyclotomic field
    assert rational_is_square_in_field(2, 8)
    # -3 is a square alongside a primitive cube root: (1 + 2 zeta_3)^2 = -3
    z3 = root_of_unity(3, 1)
    assert (1 + 2 * z3) ** 2 == -3
    assert rational_is_square_in_field(-3, 3)
    assert not rational_is_square_in_field(3, 3)
    assert rational_is_square_in_field(3, 12)


def test_square_class():
    i = root_of_unity(4, 1)
    assert square_class(CycScalar.rational(4, 4)) == "trivial"
    assert square_class(i) == "nontrivial"
    assert square_class(CycScalar.rational(-1, 4)) == "trivial"  # -1 = i^2
    assert square_class(CycScalar.rational(-1, 2)) == "nontrivial"
    assert square_class(1 + i) == "undecided"
    with pytest.raises(ValueError):
        square_class(CycScalar.zero(4))


def test_json_roundtrip():
    i = root_of_unity(4, 1)
    value = (3 * i + Fraction(1, 2)) / 5
    data = value.to_json()
    assert CycScalar.from_json(data) == value
    assert root_of_unity(4, 1).to_json() == {
        "conductor": 4,
        "coeffs": [["0", "1"], ["1", "1"]],
    }


def test_str_forms():
    assert str(root_of_unity(4, 1)) == "i"
    assert str(root_of_unity(4, 3)) == "-i"
    assert str(CycScalar.rational(Fraction(-7, 2))) == "-7/2"
    assert str(root_of_unity(8, 1)) == "zeta8"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 15])
def test_inverse_matches_sympy(n, rng):
    # differential oracle: sympy's inverse modulo its own cyclotomic polynomial
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    modulus = sympy.cyclotomic_poly(n, x)
    degree = sympy.degree(modulus, x)
    values = [root_of_unity(n, k) for k in range(n)]
    while len(values) < n + 12:
        nums = [rng.randint(-6, 6) for _ in range(rng.randint(1, degree + 2))]
        value = CycScalar(n, nums, rng.randint(1, 7))
        if not value.is_zero():
            values.append(value)
    for value in values:
        poly = sum(
            sympy.Rational(c.numerator, c.denominator) * x**i
            for i, c in enumerate(value.coefficients())
        )
        expected = sympy.Poly(sympy.invert(poly, modulus, x), x).all_coeffs()[::-1]
        expected += [0] * (degree - len(expected))
        got = [sympy.Rational(c.numerator, c.denominator) for c in value.inv().coefficients()]
        assert got == expected, value
        assert (value * value.inv()).is_one()
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(n).inv()


def poly_mul(a, b):
    """Dense product of two integer coefficient lists, ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def reference_product(a, b):
    """The product by full polynomial multiplication, reduced by the constructor."""
    n = lcm(a.conductor, b.conductor)
    return CycScalar(n, poly_mul(a.lift(n).nums, b.lift(n).nums), a.den * b.den)


def random_value(rng, n):
    nums = [rng.randint(-6, 6) for _ in range(rng.randint(0, n + 2))]
    if rng.random() < 0.15:
        nums = []  # zero
    return CycScalar(n, nums, rng.choice([1, 1, 2, 3, 4, 9, 12, -5]))


@pytest.mark.parametrize("n", range(1, 25))
def test_product_matches_reference(n, rng):
    # same conductor (the reduction table), mixed conductors (lift first), zeros
    partners = (n, n, 1, 2, 3, 4, 6, 2 * n)
    for _ in range(60):
        a = random_value(rng, n)
        b = random_value(rng, rng.choice(partners))
        for x, y in ((a, b), (b, a)):
            product, expected = x * y, reference_product(x, y)
            assert (product.conductor, product.nums, product.den) == (
                expected.conductor, expected.nums, expected.den)
    for k in range(n):
        z = root_of_unity(n, k)
        assert (z * z).nums == reference_product(z, z).nums


def test_reduction_rows_are_powers_mod_phi():
    for n in range(1, 25):
        phi_n = cyclotomic_polynomial(n)
        deg = len(phi_n) - 1
        for k, row in enumerate(_reduction(n)):
            dense = [0] * deg
            for j, c in row:
                dense[j] = c
            assert CycScalar(n, [0] * (deg + k) + [1]).nums == tuple(dense)
        assert len(_reduction(n)) == max(deg - 1, 0)


def test_as_root_exponent_matches_scan():
    for c in (1, 2, 3, 4, 5, 6, 8, 12):
        values = [sign * root_of_unity(c, k) for k in range(c) for sign in (1, -1)]
        values += [2 * root_of_unity(c, 1), root_of_unity(c, 1) / 2, 1 + root_of_unity(c, 1)]
        for m in (1, 2, 3, 4, 6, 8, 12, 24):
            for x in values:
                scan = next((k for k in range(m) if root_of_unity(m, k) == x), None)
                assert as_root_exponent(x, m) == scan
