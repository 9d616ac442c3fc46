"""The fraction-free elimination against the routines it replaced.

The adjugate solver, field Gaussian elimination, the probe's rank over a
field, the saturation quotient's stabilised power loop and the pullback
instance's own image-basis solve are kept here as oracles, as they were
written before one elimination took their place.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import altkit
from altkit.errors import VerificationFailed
from altkit.gen_etale import BPlus
from altkit.ring_core import (
    GF,
    QQ,
    ZZ,
    FiniteFreeAlgebra,
    PolyRing,
    det_generic,
    echelon,
    nullspace,
    solve,
)

KS = PolyRing(QQ, ("s",))
RINGS = [ZZ, QQ, GF(5), KS]


# -- oracles: the replaced routines
#
# Field values are the ring's own plain numbers, normalized after every
# operation, with the inverse taken by exact division of one.


def _minor(rows, i, j):
    return [
        [rows[r][c] for c in range(len(rows)) if c != j]
        for r in range(len(rows))
        if r != i
    ]


def adjugate(rows):
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = det_generic(_minor(rows, i, j))
            adj[j][i] = -d if (i + j) % 2 else d
    return adj


def solve_adjugate(rows, vec, scalars):
    n = len(rows)
    det = scalars.normalize(det_generic(rows))
    if not scalars.is_unit(det):
        return None
    inv = scalars.divide_exact(scalars.one(), det)
    if n == 1:
        return [scalars.normalize(inv * vec[0])]
    adj = adjugate(rows)
    out = []
    for i in range(n):
        acc = adj[i][0] * vec[0]
        for j in range(1, n):
            acc = acc + adj[i][j] * vec[j]
        out.append(scalars.normalize(inv * acc))
    return out


def _field_rref(aug, ring, width):
    norm = ring.normalize
    rows = len(aug)
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, rows) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = ring.divide_exact(ring.one(), aug[r][c])
        aug[r] = [norm(x * inv) for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [norm(a - f * b) for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def field_solve(A, b, ring):
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(row) + [y] for row, y in zip(A, b)]
    pivots = _field_rref(aug, ring, n)
    rank = len(pivots)
    for i in range(rank, m):
        if aug[i][n]:
            return None
    x = [ring.zero()] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    return [ring.normalize(v) for v in x]


def basis_coords_loop(A, bs, ring):
    # PullbackInstance.basis_coords_of before it called solve: [A | every
    # b] eliminated, the pivots checked to be A's columns, and each entry
    # divided exactly by the final leading minor; None for its NotABasis
    r = len(A)
    d, rows = echelon(
        [list(A[i]) + [b[i] for b in bs] for i in range(r)],
        ring,
    )
    if [p for p, _ in rows] == list(range(r)):
        coords = [
            [ring.divide_exact(row[r + k], d) for _, row in rows]
            for k in range(len(bs))
        ]
        if all(v is not None for col in coords for v in col):
            return [list(map(ring.normalize, col)) for col in coords]
    return None


def field_nullspace(A, ring):
    m = len(A)
    n = len(A[0]) if m else 0
    mat = [list(row) for row in A]
    pivots = _field_rref(mat, ring, n)
    pivot_set = set(pivots)
    basis = []
    one = ring.one()
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [ring.zero()] * n
        vec[free] = one
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][free]
        basis.append([ring.normalize(v) for v in vec])
    return basis


def field_mat_mul(A, B, ring):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero()
            for t in range(k):
                acc = acc + A[i][t] * B[t][j]
            row.append(ring.normalize(acc))
        out.append(row)
    return out


def field_rank(columns, field, n):
    # the repeated-point probe's rank, over a field
    norm = field.normalize
    basis = []
    for v in columns:
        for p, b in basis:
            if v[p]:
                f = v[p]
                v = [norm(x - f * y) for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            inv = field.divide_exact(field.one(), v[p])
            basis.append((p, [norm(x * inv) for x in v]))
            if len(basis) == n:
                break
    return len(basis)


def power_loop_kernel(base, d):
    # BPlus before Fitting's lemma: multiply by d until the kernel stops
    # growing, then row-reduce the kernel; returns (_kernel, _pivots)
    field = base.base
    rank = base.rank
    M = base.mult_matrix(d)
    power = M
    kernel = field_nullspace(power, field)
    while len(kernel) < rank:
        power = field_mat_mul(power, M, field)
        bigger = field_nullspace(power, field)
        if len(bigger) == len(kernel):
            break
        kernel = bigger
    rows = [list(vec) for vec in kernel]
    lead_cols = _field_rref(rows, field, rank)
    return list(zip(lead_cols, rows)), [c for c in range(rank) if c not in lead_cols]


def minor_rank(A, ring):
    # the largest r with a nonzero r x r minor, by determinants
    m, k = len(A), len(A[0])
    for r in range(min(m, k), 0, -1):
        for rs in itertools.combinations(range(m), r):
            for cs in itertools.combinations(range(k), r):
                sub = [[A[i][j] for j in cs] for i in rs]
                if not ring.is_zero(ring.normalize(det_generic(sub))):
                    return r
    return 0


# -- strategies


def _entries(ring):
    if ring == ZZ:
        return st.integers(-4, 4)
    if ring == QQ:
        return (st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=3)).map(
            QQ.normalize
        )
    if ring == KS:
        s = KS.variable("s")
        return st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
            lambda cs: sum((c * s**i for i, c in enumerate(cs)), KS.zero())
        )
    return st.integers(0, 4)


@st.composite
def _matrices(draw, square):
    ring = draw(st.sampled_from(RINGS))
    entry = _entries(ring)
    m = draw(st.integers(1, 4))
    k = m if square else draw(st.integers(1, 4))
    rows = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # a dependent row: a multiple of one row plus a multiple of another
        a, b = draw(entry), draw(entry)
        i, j = draw(st.integers(0, m - 2)), draw(st.integers(0, m - 2))
        rows[-1] = [ring.normalize(a * x + b * y) for x, y in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        col = draw(st.integers(0, k - 1))
        for row in rows:
            row[col] = ring.zero()
    return ring, rows, draw(st.lists(entry, min_size=m, max_size=m))


# -- the elimination against the oracles


@settings(max_examples=250, deadline=None)
@given(_matrices(square=True))
def test_solve_matches_adjugate_and_field_solve(case):
    ring, A, b = case
    (x,) = solve(A, [b], ring) or (None,)
    det = ring.normalize(det_generic(A))
    if ring.is_zero(det):
        assert x is None
        return
    # Cramer over the ring: the unique solution is adj(A) b / det(A),
    # and it exists exactly when every entry divides
    adj = adjugate(A) if len(A) > 1 else [[ring.one()]]
    num = [sum((a * y for a, y in zip(row, b)), ring.zero()) for row in adj]
    cramer = [ring.divide_exact(v, det) for v in num]
    assert x == (None if any(v is None for v in cramer) else cramer)
    if ring.is_unit(det):
        assert x == solve_adjugate(A, b, ring)
    if ring.is_field:
        assert x == field_solve(A, b, ring)


@settings(max_examples=250, deadline=None)
@given(_matrices(square=True), st.data())
def test_several_sides_solve_as_one_each(case, data):
    ring, A, b = case
    side = st.lists(_entries(ring), min_size=len(A), max_size=len(A))
    bs = data.draw(st.lists(side, max_size=3), label="sides")
    if data.draw(st.booleans(), label="with b"):
        bs.append(b)
    singular = ring.is_zero(ring.normalize(det_generic(A)))
    each = [solve(A, [b], ring) for b in bs]
    event("singular" if singular else "no sides" if not bs else "solved")
    if None in each and not singular:
        event("a side leaves the ring")
    want = None if singular or None in each else [x for (x,) in each]
    assert solve(A, bs, ring) == want
    assert basis_coords_loop(A, bs, ring) == want


def test_sides_edge_cases():
    assert solve([[2, 1], [1, 1]], [], ZZ) == []
    assert solve([[1, 1], [1, 1]], [], QQ) is None
    assert solve([[1, 1], [1, 1]], [[1, 1], [0, 1]], QQ) is None
    # x = (1/2, 1) leaves Z for the second side, so no side is returned
    assert solve([[2, 0], [0, 1]], [[2, 1], [1, 1]], ZZ) is None
    half = [[1, 1], [Fraction(1, 2), 1]]
    assert solve([[2, 0], [0, 1]], [[2, 1], [1, 1]], QQ) == half
    assert solve([], [[], []], QQ) == [[], []]


@settings(max_examples=250, deadline=None)
@given(_matrices(square=False))
def test_rank_and_nullspace_match_the_oracles(case):
    ring, A, _ = case
    k = len(A[0])
    lead, rows = echelon(A, ring)
    rank = len(rows)
    assert rank == minor_rank(A, ring)
    # Gauss-Jordan shape: lead at the own pivot, zero at the others
    pivots = [p for p, _ in rows]
    assert pivots == sorted(set(pivots))
    for p, row in rows:
        assert [row[q] for q in pivots] == [
            lead if q == p else ring.zero() for q in pivots
        ]
    if len(A) == k and rank == k:
        det = det_generic(A)
        assert lead in (ring.normalize(det), ring.normalize(-det))
    ker = nullspace(A, ring)
    assert len(ker) == k - rank
    for vec in ker:
        for row in A:
            assert ring.is_zero(
                ring.normalize(sum((a * x for a, x in zip(row, vec)), ring.zero()))
            )
    if ring == KS:
        return
    field = QQ if ring == ZZ else ring
    assert rank == field_rank(iter(A), field, k)
    reduced = [[field.divide_exact(x, lead) for x in vec] for vec in ker]
    assert reduced == field_nullspace(A, field)


@settings(max_examples=60, deadline=None)
@given(_matrices(square=False), st.integers(1, 4))
def test_limit_stops_at_that_many_rows(case, limit):
    ring, A, _ = case
    _, full = echelon(A, ring)
    consumed = []

    def vectors():
        for row in A:
            consumed.append(row)
            yield row

    _, rows = echelon(vectors(), ring, limit=limit)
    assert len(rows) == min(limit, len(full))
    if len(full) >= limit:
        # not one vector is read past the one that reached the limit
        assert len(echelon(consumed[:-1], ring)[1]) == limit - 1


def _monogenic(field, coeffs):
    """field[x]/(f) on the basis 1, x, ..., x^(r-1), f = x^r + sum c_i x^i."""
    r = len(coeffs)
    powers = [[int(i == j) for i in range(r)] for j in range(r)]
    for _ in range(r - 1):
        top = powers[-1]
        shifted = [0] + top[:-1]
        powers.append([a - top[-1] * c for a, c in zip(shifted, coeffs)])
    lift = [[field.from_int(c) for c in vec] for vec in powers]
    structure = [[lift[i + j] for j in range(r)] for i in range(r)]
    return FiniteFreeAlgebra(field, r, structure, lift[0])


@st.composite
def _bplus_cases(draw):
    field = draw(st.sampled_from([QQ, GF(5)]))
    r = draw(st.integers(1, 4))
    # a factor x^a makes x nilpotent on part of the algebra
    a = draw(st.integers(0, r))
    g = draw(st.lists(st.integers(-2, 2), min_size=r - a, max_size=r - a))
    # coefficients of x^a * (x^(r-a) + g) below x^r
    base = _monogenic(field, [0] * a + g)
    x = base.basis_elem(1) if r > 1 else base.zero()
    shape = draw(st.sampled_from(["x", "random", "x times random"]))
    coords = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    d = base.element([field.from_int(c) for c in coords])
    if shape == "x":
        d = x
    elif shape == "x times random":
        d = x * d
    return base, d


@settings(max_examples=150, deadline=None)
@given(_bplus_cases())
def test_bplus_matches_the_stabilised_power_loop(case):
    base, d = case
    kernel, pivots = power_loop_kernel(base, d)
    bp = BPlus(base, d)
    assert bp._kernel == kernel
    assert bp._pivots == pivots
    assert bp.is_zero_ring == (not pivots)


# -- off a domain, Sylvester's identity fails and the elimination raises


def _dual_numbers():
    return FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))


class _RefusingIntegers:
    """Z whose exact division never finds a quotient."""

    def one(self):
        return 1

    def zero(self):
        return 0

    def normalize(self, v):
        return v

    def divide_exact(self, a, b):
        return None


def test_elimination_raises_off_a_domain():
    dual = _dual_numbers()
    e, one, zero = dual.basis_elem(1), dual.one(), dual.zero()
    # the second pivot rescales the first row by e / e, and 0 / e has no
    # unique quotient in Q[e]/(e^2)
    with pytest.raises(VerificationFailed, match="domain"):
        echelon([[e, one, zero], [zero, e, one]], dual)
    with pytest.raises(VerificationFailed):
        solve([[2, 1], [1, 1]], [[1, 1]], _RefusingIntegers())
    # over a domain the same shapes go through
    assert solve([[2, 1], [1, 1]], [[1, 1]], ZZ) == [[0, 1]]


_OPTIMIZE_SCRIPT = """
import sys
from altkit.errors import VerificationFailed
from altkit.ring_core import QQ, FiniteFreeAlgebra, echelon, solve

stripped = True
try:
    assert False
except AssertionError:
    stripped = False
print("optimize", sys.flags.optimize, stripped)


class Refusing:
    one = lambda self: 1
    zero = lambda self: 0
    normalize = lambda self, v: v
    divide_exact = lambda self, a, b: None


dual = FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))
e, one, zero = dual.basis_elem(1), dual.one(), dual.zero()
for run in (
    lambda: echelon([[e, one, zero], [zero, e, one]], dual),
    lambda: solve([[2, 1], [1, 1]], [[1, 1]], Refusing()),
):
    try:
        run()
        print("returned")
    except VerificationFailed as err:
        print("raised", type(err).__name__)
"""


def test_elimination_raises_under_optimize():
    # python -O strips assert statements; the division check must not be one
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZE_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "optimize 1 True",
        "raised VerificationFailed",
        "raised VerificationFailed",
    ]
