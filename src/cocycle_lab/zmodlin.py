"""Exact linear algebra over Z/m for composite m.

The cohomology engine needs three primitives over Z/m where m need not be
prime: a canonical spanning form for submodules of (Z/m)^n, exact solving
of linear systems, and invariant factors of a quotient of nested
submodules.  All three are built on the Howell form, the strong echelon
form that is canonical over Z/m (Storjohann-Mulders), computed one pivot
column per numpy step and then back-reduced.  The right kernel of A is
read off [A^T | I], built once in one array: its Howell rows with a pivot
in the right block span the kernel.  Only those rows are back-reduced;
they lie below every pivot of the left block, and back-reduction changes
only the rows above a pivot, so they come out as in the full form.
Solving reads the kernel of [rhs | A].  The quotient step
diagonalizes a relation matrix with Smith-style integer row/column
operations; entries may be reduced mod m at any time because the relation
lattice always contains m*Z^r.

Entries are kept in [0, m) between steps, and every intermediate value of
the elimination (r - q*p, (m/d)*p, a basis row minus a multiple of a pivot)
is below m^2 in absolute value.  So its cells have the narrowest signed
integer type that holds -m^2, chosen from m alone: int8 for m <= 11, int16
up to 181, int32 up to 46340, int64 beyond.  Only the pivot combination
s @ block, a sum of up to rows + columns products, is taken in int64, as
the entry points check before allocating: m*m*(rows + columns) < 2^63.
Every public result is int64.  Reductions are a -= (a // m) * m: numpy
vectorizes integer floor division by a scalar, but not its remainder.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, prod

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _check_modulus(m: int, count: int) -> None:
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    if int(m) ** 2 * count >= 2**63:
        raise ValueError(f"modulus {m} overflows int64 sums over {count} rows and columns")


def _cell_type(m: int) -> np.dtype:
    """The narrowest signed integer type that holds -m*m."""
    return np.min_scalar_type(-m * m)


def _reduce(a: np.ndarray, m: int) -> np.ndarray:
    """``a`` mod m, in place."""
    q = a // m
    q *= m
    a -= q
    return a


def _normalizing_unit(a: int, m: int) -> int:
    """The smallest unit u with u*a = g = gcd(a, m) mod m: the first unit
    among the solutions u0 + t*(m/g), u0 = (a/g)^(-1) mod m/g."""
    g = gcd(a, m)
    u = pow(a // g, -1, m // g)
    while gcd(u, m) != 1:
        u += m // g
    return u


def _push(pending: dict, block: np.ndarray, start: int) -> None:
    """File each nonzero row of ``block`` (first column ``start``) as its tail
    from its leading column on; zero rows are skipped without copying."""
    if not block.size:
        return
    nonzero = block != 0
    leads = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1)
    for lead in dict.fromkeys(leads.tolist()):
        if lead >= 0:
            pending[start + lead].append(block[leads == lead, lead:])


def _pivot_coefficients(column: list[int], m: int) -> list[int]:
    """s with gcd(s . column, m) = gcd(column, m), by an early-stopping xgcd chain."""
    target = gcd(*column, m)
    s, g = [1], column[0]
    for c in column[1:]:
        if gcd(g, m) == target:
            break
        g, a, b = xgcd(g, c)
        s = [a * x % m for x in s] + [b % m]
    return s


def _eliminate(a: np.ndarray, m: int) -> list[tuple[int, np.ndarray]]:
    """Pivot rows of the Howell form of ``a`` (entries already in [0, m)),
    before back-reduction: (pivot column j, the row's tail from column j).

    Column j is one step over the block of pending rows leading there: an
    xgcd chain down its first column gives s, the pivot s @ block times a
    unit leads with d = gcd(column, m), each row r becomes r - (r_j/d) *
    pivot (r = rest + (r_j/d) * pivot keeps the span), and the annihilator
    (m/d) * pivot joins the pending rows.
    """
    pending: dict[int, list[np.ndarray]] = defaultdict(list)
    _push(pending, a, 0)
    pivots: list[tuple[int, np.ndarray]] = []
    for j in range(a.shape[1]):
        chunks = pending.pop(j, None)
        if chunks is None:
            continue
        block = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        s = _pivot_coefficients(block[:, 0].tolist(), m)
        # s = [1] takes the first row as it is; a longer s sums its products in int64
        pivot = block[0] if len(s) == 1 else (
            _reduce(np.array(s, dtype=np.int64) @ block[: len(s)], m).astype(block.dtype))
        u = _normalizing_unit(int(pivot[0]), m)
        pivot = _reduce(u * pivot, m) if u != 1 else pivot.copy()  # a view would keep block alive
        d = int(pivot[0])
        if len(block) > 1:  # a lone row's rest is a multiple of the annihilator
            rest = np.multiply.outer(block[:, 0] // d, pivot[1:])
            np.subtract(block[:, 1:], rest, out=rest)
            _push(pending, _reduce(rest, m), j + 1)
        if d != 1:
            _push(pending, _reduce((m // d) * pivot[None, 1:], m), j + 1)
        pivots.append((j, pivot))
    return pivots


def _back_reduce(pivots: list[tuple[int, np.ndarray]], ncols: int, m: int) -> np.ndarray:
    """The (column, tail) pivot rows as a basis of width ``ncols``, with the
    entries above each pivot reduced below it; pivot k changes only rows above k."""
    basis = np.zeros((len(pivots), ncols), dtype=_cell_type(m))
    for k, (j, pivot) in enumerate(pivots):
        basis[k, j:] = pivot
        above = basis[:k, j] // pivot[0]
        rows = np.nonzero(above)[0]
        basis[rows, j:] = _reduce(basis[rows, j:] - above[rows, None] * pivot, m)
    return basis.astype(np.int64)


def howell_form(matrix, m: int) -> np.ndarray:
    """Canonical Howell basis of the row span of ``matrix`` over Z/m.

    Rows come out with strictly increasing pivot columns; each pivot
    divides m, and entries above a pivot are reduced below it.  The key
    property beyond echelon form: every element of the span whose leading
    entry sits in column >= j already lies in the span of the rows with
    pivot column >= j.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    # at most nrows + one annihilator per column are ever pending
    _check_modulus(m, sum(a.shape))
    cells = np.remainder(a, m, out=np.empty(a.shape, dtype=_cell_type(m)))
    return _back_reduce(_eliminate(cells, m), a.shape[1], m)


def module_size(howell_rows: np.ndarray, m: int) -> int:
    """Number of elements of the module spanned by a Howell basis."""
    return prod(m // int(row[np.flatnonzero(row)[0]]) for row in np.atleast_2d(howell_rows) if row.any())


def _transpose_system(matrix, m: int) -> tuple[int, np.ndarray]:
    """(rows of A, [A^T | I] mod m) for A = matrix, built as one array of cells."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    nrows, ncols = a.shape
    _check_modulus(m, nrows + 2 * ncols)
    system = np.zeros((ncols, nrows + ncols), dtype=_cell_type(m))
    np.remainder(a.T, m, out=system[:, :nrows])
    system[np.arange(ncols), nrows + np.arange(ncols)] = 1 % m
    return nrows, system


def kernel_mod(matrix, m: int) -> np.ndarray:
    """Howell basis of the right kernel {v : matrix @ v = 0 mod m}.

    The rows of the span of [matrix^T | I] are (matrix @ c | c), so the
    Howell rows whose pivot lies in the right block carry kernel vectors,
    and by the Howell property they generate the whole kernel.  Only those
    pivots are back-reduced: they sit below every pivot of the left block,
    and reducing a pivot touches only the rows above it.
    """
    nrows, system = _transpose_system(matrix, m)
    kernel = [(j - nrows, pivot) for j, pivot in _eliminate(system, m) if j >= nrows]
    return _back_reduce(kernel, system.shape[1] - nrows, m)


def solve_mod(matrix, rhs, m: int) -> np.ndarray | None:
    """One solution x of matrix @ x = rhs over Z/m, or None.

    The kernel of [rhs | matrix] holds the (t, y) with t*rhs + matrix @ y = 0.
    Its t values are the multiples of the first Howell row's column-0 entry,
    so a solution exists exactly when that entry is 1, and then x = -y.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    _check_modulus(m, a.shape[0] + 2 * (a.shape[1] + 1))
    if m == 1:  # Z/1 = 0 solves everything, and its kernel rows are all zero
        return np.zeros(a.shape[1], dtype=np.int64)
    kernel = kernel_mod(np.column_stack([np.asarray(rhs, dtype=np.int64), a]), m)
    if not len(kernel) or kernel[0, 0] != 1:
        return None
    return (-kernel[0, 1:]) % m


def _diagonalize_with_basis(relations: np.ndarray, r: int, m: int):
    """Diagonalize a relation matrix for Z^r mod the implicit m*I rows.

    Returns (orders, basis) where orders[i] is the order of the i-th new
    basis vector in Z^r / (row span + m*Z^r) and basis rows express the
    new basis in the original coordinates (mod m, which is all the
    quotient can see).
    """
    a = _reduce(np.array(relations, dtype=np.int64, ndmin=2), m)
    basis = np.eye(r, dtype=np.int64)
    nrows, rank = a.shape[0], 0
    while rank < min(nrows, r):
        sub = a[rank:, rank:]
        if not sub.any():
            break
        # move the smallest nonzero entry to the pivot position
        nz = np.nonzero(sub)
        k = int(np.argmin(sub[nz]))
        i, j = int(nz[0][k]) + rank, int(nz[1][k]) + rank
        a[[rank, i]] = a[[i, rank]]
        a[:, [rank, j]] = a[:, [j, rank]]
        basis[[rank, j]] = basis[[j, rank]]
        p = int(a[rank, rank])
        cleared = not a[rank + 1:, rank].any() and not (a[rank, rank + 1:] % p).any()
        if not cleared:
            # reduce column entries; remainders become new (smaller) pivots
            a[rank + 1:] = _reduce(a[rank + 1:] - np.outer(a[rank + 1:, rank] // p, a[rank]), m)
        # reduce row entries mod p (clearing the row once the pivot is settled);
        # column ops update the tracked basis
        q = a[rank, rank + 1:] // p
        a[:, rank + 1:] = _reduce(a[:, rank + 1:] - np.outer(a[:, rank], q), m)
        basis[rank] = _reduce(basis[rank] + q @ basis[rank + 1:], m)
        rank += cleared
    return [gcd(int(a[i, i]) if i < nrows else 0, m) for i in range(r)], basis


def _factorize(n: int) -> dict[int, int]:
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


def quotient_invariant_factors(
    span_rows, sub_rows, m: int
) -> tuple[list[int], list[np.ndarray]]:
    """Invariant factors (ascending chain) and generators of K/J over Z/m.

    K and J are given by spanning rows with J contained in K; the result
    describes the finite abelian group K/J, and each generator is a vector
    of (Z/m)^n whose class generates the corresponding cyclic factor.
    """
    k_basis = howell_form(span_rows, m)
    if k_basis.shape[0] == 0:
        return [], []
    r = k_basis.shape[0]
    j_rows = np.atleast_2d(np.asarray(sub_rows, dtype=np.int64)) % m
    stacked = np.vstack([k_basis, j_rows]) if j_rows.size else k_basis
    left_kernel = kernel_mod(stacked.T, m)
    orders, new_basis = _diagonalize_with_basis(left_kernel[:, :r], r, m)
    # regroup cyclic orders into an invariant-factor chain, prime by prime
    slots: dict[int, list[tuple[int, int]]] = defaultdict(list)  # prime -> [(exp, pos)]
    for pos, c in enumerate(orders):
        for p, e in _factorize(c).items():
            slots[p].append((e, pos))
    for p in slots:
        slots[p].sort(reverse=True)
    depth = max((len(v) for v in slots.values()), default=0)
    factors: list[int] = []
    generators: list[np.ndarray] = []
    for k in range(depth):
        value = 1
        combo = np.zeros(r, dtype=np.int64)
        for p, entries in slots.items():
            if k < len(entries):
                e, pos = entries[k]
                value *= p**e
                cofactor = orders[pos] // p**e
                combo = (combo + cofactor * new_basis[pos]) % m
        factors.append(value)
        generators.append((combo @ k_basis) % m)
    order = np.argsort(factors, kind="stable")
    return [factors[i] for i in order], [generators[i] for i in order]
