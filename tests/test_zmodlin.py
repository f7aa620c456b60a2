import random
import tracemalloc
from collections import defaultdict
from math import gcd

import numpy as np
import pytest

from cocycle_lab.zmodlin import (
    _normalizing_unit,
    howell_form,
    kernel_mod,
    module_size,
    quotient_invariant_factors,
    solve_mod,
    xgcd,
)


def test_xgcd():
    for a, b in [(12, 18), (0, 5), (7, 0), (4, 9), (-6, 15)]:
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g >= 0


def test_howell_form_canonical_sizes():
    h = howell_form([[2, 0], [0, 2]], 4)
    assert module_size(h, 4) == 4
    h = howell_form([[1, 1], [0, 2]], 4)
    assert module_size(h, 4) == 8
    h = howell_form([[0, 0]], 4)
    assert h.shape[0] == 0
    assert module_size(h, 4) == 1


def test_howell_detects_hidden_rows():
    # over Z/4 the span of (2, 1) contains (0, 2) with a later leading index
    h = howell_form([[2, 1]], 4)
    spanned = {tuple((k * np.array([2, 1])) % 4) for k in range(4)}
    assert module_size(h, 4) == len(spanned)
    rows = {tuple(r) for r in h}
    assert all(np.array(r).any() for r in rows)


def test_kernel_mod():
    kernel = kernel_mod([[2]], 4)
    assert module_size(kernel, 4) == 2
    a = np.array([[1, 2, 0], [0, 2, 2]])
    kernel = kernel_mod(a, 4)
    for row in kernel:
        assert not (a @ row % 4).any()
    # brute force the kernel size
    count = sum(
        1
        for x in range(4)
        for y in range(4)
        for z in range(4)
        if not (a @ np.array([x, y, z]) % 4).any()
    )
    assert module_size(kernel, 4) == count


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_solve_mod_random(m, rng):
    shape = (6, 4)
    for _ in range(25):
        a = np.array([[rng.randrange(m) for _ in range(shape[1])] for _ in range(shape[0])])
        x = np.array([rng.randrange(m) for _ in range(shape[1])])
        b = a @ x % m
        solution = solve_mod(a, b, m)
        assert solution is not None
        assert not ((a @ solution - b) % m).any()


def test_solve_mod_unsolvable():
    assert solve_mod([[2]], [1], 4) is None
    assert solve_mod([[2, 2]], [3], 6) is None
    assert solve_mod([[0]], [1], 4) is None


def test_solve_mod_over_z1_solves_everything():
    # every entry is 0 mod 1, so every system holds at x = 0
    assert solve_mod([[2, 3], [5, 7]], [1, 4], 1).tolist() == [0, 0]
    assert solve_mod(np.zeros((0, 3), dtype=np.int64), [], 1).tolist() == [0, 0, 0]


def test_quotient_invariant_factors_basic():
    eye = np.eye(2, dtype=int)
    factors, gens = quotient_invariant_factors(eye, [[2, 0]], 4)
    assert factors == [2, 4]
    factors, _ = quotient_invariant_factors(eye, np.zeros((0, 2), dtype=int), 4)
    assert factors == [4, 4]
    # Z/6 modulo the subgroup {0, 2, 4} has order 2
    factors, _ = quotient_invariant_factors(np.eye(1, dtype=int), [[2]], 6)
    assert factors == [2]
    factors, _ = quotient_invariant_factors(np.eye(1, dtype=int), [[3]], 6)
    assert factors == [3]


def test_quotient_merges_coprime_orders():
    # (Z/6)^2 / <(2,0), (0,3)> = C3 x C2 = C6
    eye = np.eye(2, dtype=int)
    factors, gens = quotient_invariant_factors(eye, [[2, 0], [0, 3]], 6)
    assert factors == [6]
    size_k = module_size(howell_form(eye, 6), 6)
    size_j = module_size(howell_form([[2, 0], [0, 3]], 6), 6)
    assert size_k // size_j == 6
    # the generator really has order 6 in the quotient
    gen = gens[0]
    span = howell_form([[2, 0], [0, 3]], 6)

    def in_sub(vector):
        residual = vector % 6
        for row in span:
            lead = np.nonzero(row)[0][0]
            d = int(row[lead])
            if residual[lead] % d == 0:
                residual = (residual - (residual[lead] // d) * row) % 6
        return not residual.any()

    orders = [k for k in range(1, 7) if in_sub(k * gen)]
    assert orders == [6]


def test_quotient_generator_order(rng):
    for m in (4, 6):
        span = np.array([[rng.randrange(m) for _ in range(3)] for _ in range(4)])
        kernel = howell_form(np.vstack([span, np.eye(3, dtype=int)]), m)
        factors, gens = quotient_invariant_factors(kernel, span, m)
        size_k = module_size(kernel, m)
        size_j = module_size(howell_form(span, m), m)
        assert np.prod(factors or [1]) == size_k // size_j


# ----------------------------------------------------------------- #
# differential oracle: the row-at-a-time Howell elimination
# ----------------------------------------------------------------- #

def _reference_unit(a, m):
    target = gcd(a, m)
    return next(u for u in range(1, m) if gcd(u, m) == 1 and (u * a) % m == target)


def _reference_howell_form(matrix, m):
    """Pending rows merged into the pivot one at a time, by xgcd pairs."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64)) % m
    ncols = a.shape[1]
    pending = defaultdict(list)
    for row in a:
        if row.any():
            pending[int(np.nonzero(row)[0][0])].append(row.copy())
    basis = []
    for j in range(ncols):
        rows = pending.pop(j, None)
        if not rows:
            continue
        piv = rows[0]
        for r in rows[1:]:
            pa, pb = int(piv[j]), int(r[j])
            g, s, t = xgcd(pa, pb)
            combined = (s * piv + t * r) % m
            rest = ((pa // g) * r - (pb // g) * piv) % m
            piv = combined
            if rest.any():
                pending[int(np.nonzero(rest)[0][0])].append(rest)
        piv = (_reference_unit(int(piv[j]), m) * piv) % m
        d = int(piv[j])
        annihilated = ((m // d) * piv) % m
        if annihilated.any():
            pending[int(np.nonzero(annihilated)[0][0])].append(annihilated)
        for row in basis:
            q = int(row[j]) // d
            if q:
                row -= q * piv
                row %= m
        basis.append(piv)
    if not basis:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(basis, dtype=np.int64)


def _random_matrices(m, seed):
    rng = random.Random(seed)
    yield np.zeros((0, 3), dtype=np.int64)
    yield np.zeros((4, 5), dtype=np.int64)
    for _ in range(40):
        rows, cols = rng.randrange(0, 9), rng.randrange(1, 9)
        density = rng.choice([0.2, 0.5, 1.0])
        yield np.array(
            [[rng.randrange(m) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)],
            dtype=np.int64,
        ).reshape(rows, cols)


def _same_bytes(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# 11 | 12, 181 | 182 and 46340 | 46341 straddle the edges of the int8, int16 and int32 cells
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 9, 11, 12, 27, 30, 36, 181, 182, 46340, 46341])
def test_howell_form_matches_sequential_reference(m):
    for a in _random_matrices(m, seed=m):
        assert _same_bytes(howell_form(a, m), _reference_howell_form(a, m))
        nrows = a.shape[0]
        aug = np.hstack([a.T, np.eye(a.shape[1], dtype=np.int64)])
        reference = _reference_howell_form(aug, m)
        expected = np.array([row[nrows:] for row in reference if not row[:nrows].any()],
                            dtype=np.int64).reshape(-1, a.shape[1])
        kernel = kernel_mod(a, m)
        assert np.array_equal(kernel, expected) and kernel.shape == expected.shape
        assert not (a @ kernel.T % m).any()


def _reference_kernel(matrix, m):
    """The rows of the Howell form of [A^T | I] whose left block is zero."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    h = howell_form(np.hstack([a.T % m, np.eye(a.shape[1], dtype=np.int64)]), m)
    return h[~h[:, : a.shape[0]].any(axis=1), a.shape[0]:]


def _kernel_corpus(m, seed):
    rng = np.random.default_rng(seed)
    yield np.array([[rng.integers(m)]])
    yield np.zeros((5, 7), dtype=np.int64)
    yield np.zeros((4, 0), dtype=np.int64)
    yield np.zeros((0, 4), dtype=np.int64)
    for rows, cols in [(3, 20), (20, 3), (12, 12), (40, 9), (9, 40), (1, 15), (15, 1)]:
        for density in (0.15, 0.6, 1.0):
            a = rng.integers(-2 * m, 2 * m, size=(rows, cols))
            yield a * (rng.random((rows, cols)) < density)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 11, 12, 30, 181, 182, 46340, 46341])
def test_kernel_mod_matches_the_full_howell_extraction(m):
    # kernel_mod back-reduces only the pivots of the right block; the full
    # Howell form of [A^T | I] must give the same rows, byte for byte
    for a in _kernel_corpus(m, seed=m):
        assert _same_bytes(kernel_mod(a, m), _reference_kernel(a, m))


@pytest.mark.parametrize("m", [2, 4, 6, 9, 12, 30, 36])
def test_solve_mod_residuals_against_reference_spans(m):
    rng = random.Random(m)
    for a in _random_matrices(m, seed=100 + m):
        if not a.shape[0]:
            continue
        for b in (a @ np.array([rng.randrange(m) for _ in range(a.shape[1])]) % m,
                  np.array([rng.randrange(m) for _ in range(a.shape[0])])):
            x = solve_mod(a, b, m)
            column_span = module_size(_reference_howell_form(a.T, m), m)
            extended = module_size(_reference_howell_form(np.vstack([a.T, b]), m), m)
            # b is in the column span of a exactly when adding it leaves the span unchanged
            assert (x is not None) == (column_span == extended)
            if x is not None:
                assert not ((a @ x - b) % m).any()


def test_normalizing_unit_is_the_smallest():
    for m in range(2, 61):
        for a in range(1, m):
            assert _normalizing_unit(a, m) == _reference_unit(a, m)
    m = 5 * 10**9 + 6
    for a in (2, 6, 12345, m - 1):
        u = _normalizing_unit(a, m)
        assert gcd(u, m) == 1 and (u * a) % m == gcd(a, m)


def test_howell_form_large_modulus():
    # one xgcd step and one pivot normalization, with no enumeration of units
    h = howell_form([[2, 3]], 10**7)
    assert h.tolist() == [[2, 3], [0, 5 * 10**6]]


@pytest.mark.parametrize("call", [
    lambda a, m: howell_form(a, m),
    lambda a, m: kernel_mod(a, m),
    lambda a, m: solve_mod(a, np.zeros(a.shape[0], dtype=np.int64), m),
])
def test_modulus_guard_refuses_before_allocating(call):
    # a zero-stride view: reducing it mod m would allocate 32 MB, and
    # m^2 times 4000 rows and columns overflows int64
    a = np.broadcast_to(np.int64(1), (2000, 2000))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overflows int64"):
            call(a, 2**31)
        with pytest.raises(ValueError, match="positive"):
            call(a, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
