"""GF(p) values are plain ints in 0..p-1 wherever they are stored.

A sum, difference or product of two such ints is not reduced, so every
operation that stores a GF(p) value, or tests it for zero, normalizes it
first.  These properties run the operations over GF(2), GF(5) and
GF(2^61 - 1) and read back every value they stored: each must be an int
in range(p), and each term-dict coefficient must be nonzero.  Decisions
taken on a determinant must read a nonzero multiple of p as zero.
"""

import math
import warnings
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altkit import gen_etale
from altkit.alternator import alpha_map, alpha_n11
from altkit.errors import NotABasis, RingMismatch
from altkit.gen_etale import NormMapPlus, diagonal_support_probe
from altkit.norm_universal import PullbackInstance, discriminant, is_nonzerodivisor
from altkit.ring_core import (
    GF,
    AlgebraMap,
    FiniteFreeAlgebra,
    MultiPoly,
    PolyRing,
    dict_divide_exact,
    echelon,
    nullspace,
    solve,
)
from altkit.span_solver import coordinates
from altkit.tensor_algebra import Permutation, Tensor, TensorSpace
from norm_helpers import presentation_image

PRIMES = (2, 5, 2**61 - 1)
VARS = ("s", "t")


def assert_reduced(values, p):
    bad = [v for v in values if type(v) is not int or not 0 <= v < p]
    assert bad == []


def assert_terms(terms, p):
    # a term dict holds only reduced, nonzero coefficients
    assert_reduced(terms.values(), p)
    assert all(terms.values())


def value(p):
    # small representatives, the top of the field, and anything between
    top = st.integers(max(p - 3, 0), p - 1)
    return st.one_of(st.integers(0, min(p - 1, 4)), top, st.integers(0, p - 1))


@st.composite
def field_terms(draw, length, max_size=4):
    """A prime, two term dicts and a scalar; b cancels some terms of a."""
    p = draw(st.sampled_from(PRIMES))
    key = st.tuples(*[st.integers(0, 2)] * length)
    nonzero = value(p).filter(lambda v: v % p)
    a = draw(st.dictionaries(key, nonzero, max_size=max_size))
    b = draw(st.dictionaries(key, nonzero, max_size=max_size))
    # p - c is the negative of c: a + b drops those keys
    for k in draw(st.lists(st.sampled_from(sorted(a)), max_size=2) if a else st.just([])):
        b[k] = p - a[k]
    return p, a, b, draw(st.integers(-2 * p, 2 * p))


def poly(p, terms):
    return MultiPoly(PolyRing(GF(p), VARS), terms)


@settings(max_examples=150, deadline=None)
@given(field_terms(2), st.integers(0, 3))
@example((5, {(1, 0): 2, (0, 1): 4}, {(1, 0): 3, (0, 1): 1}, 7), 2)
def test_polynomial_operations_store_reduced_values(case, k):
    p, a, b, c = case
    x, y = poly(p, a), poly(p, b)
    assert_terms(x.terms, p)
    for z in (x + y, x - y, -x, y - x, x * c, c * x, x * y, x**k, x + c):
        assert_terms(z.terms, p)
    # a product divides back to its factor, and every quotient and
    # remainder coefficient stays reduced
    if y:
        quot = dict_divide_exact((x * y).terms, y.terms, GF(p))
        assert quot == x.terms
        assert_terms(quot, p)
        bumped = dict_divide_exact((x * y + 1).terms, y.terms, GF(p))
        if bumped is not None:
            assert_terms(bumped, p)


@pytest.mark.parametrize("p", PRIMES)
def test_fraction_scalars_are_refused_over_gf_p(p):
    # GF(p).normalize is v % p, which gives NotImplemented for a Fraction;
    # each coercion into GF(p)[t] refuses a non-int before it stores one
    ring = PolyRing(GF(p), ("t",))
    t = ring.variable("t")
    space = TensorSpace(2, ring)
    half = Fraction(1, 2)
    forms = (
        lambda: t + half,
        lambda: half + t,
        lambda: t - half,
        lambda: half - t,
        lambda: t == half,
        lambda: t * half,
        lambda: half * t,
        lambda: space.as_element(Fraction(3, 2)),
        lambda: ring.embed_scalar(half),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for form in forms:
            with pytest.raises(RingMismatch, match="cannot coerce"):
                form()
        # ints still coerce, reduced
        for z in (t + (p + 3), t * (2 * p + 1), space.as_element(p + 2)):
            assert_terms(z.terms, p)
        assert t * (2 * p + 1) == t and t != p + 1


def tensor_space(p, n):
    return TensorSpace(n, PolyRing(GF(p), ("t",)))


@st.composite
def orbit_tensors(draw):
    """Tensors whose keys are slot permutations of one key, so that the
    signed sums land several terms on one orbit."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, 3))
    base = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    keys = sorted(set(permutations(base)))
    nonzero = value(p).filter(lambda v: v % p)
    t = draw(st.dictionaries(st.sampled_from(keys), nonzero, min_size=1))
    u = draw(st.dictionaries(st.sampled_from(keys), nonzero))
    return p, n, t, u


@settings(max_examples=150, deadline=None)
@given(orbit_tensors())
# over GF(2) the even keys (0,1,2) and (1,2,0) add 1 + 1 on one orbit
@example((2, 3, {(0, 1, 2): 1, (1, 2, 0): 1}, {(0, 1, 2): 1}))
@example((5, 3, {(0, 1, 2): 3, (2, 0, 1): 2}, {(1, 0, 2): 3}))
def test_tensor_operations_store_reduced_values(case):
    p, n, t, u = case
    space = tensor_space(p, n)
    x, y = Tensor(space, t), Tensor(space, u)
    assert_terms(x.terms, p)
    swap = Permutation.transposition(n, 0, 1)
    for z in (
        x + y,
        x - y,
        -x,
        x.scale(p + 2),
        x * y,
        x**2,
        x.permute(swap),
        x + x.permute(swap),
        alpha_map(x),
        alpha_n11(x),
        alpha_map(x + y),
        alpha_n11(x - y),
    ):
        assert_terms(z.terms, p)


def split_or_field(p, a):
    # GF(p)[u]/(u^2 - a), on the basis (1, u)
    return FiniteFreeAlgebra(GF(p), 2, (((1, 0), (0, 1)), ((0, 1), (a, 0))), (1, 0))


@st.composite
def algebra_elements(draw):
    """A prime, the a of u^2 = a, and the coordinates of two elements."""
    p = draw(st.sampled_from(PRIMES))
    coords = st.tuples(value(p), value(p))
    return p, draw(value(p)), draw(coords), draw(coords)


def build_elements(case):
    p, a, x, y = case
    alg = split_or_field(p, a)
    return p, alg, alg.element(x), alg.element(y)


@settings(max_examples=150, deadline=None)
@given(algebra_elements(), st.integers(0, 4))
# 3 + 4 and 4 + 4 are unreduced sums, -3 an unreduced negation
@example((5, 1, (3, 4), (4, 4)), 2)
def test_algebra_operations_store_reduced_values(case, k):
    p, alg, x, y = build_elements(case)
    for z in (x + y, x - y, -x, y - x, x * y, x**k, x * 7, 3 + x, 1 - x):
        assert_reduced(z.coords, p)
    assert_reduced(alg.mult_matrix(x)[0] + alg.mult_matrix(x)[1], p)
    inv = alg.divide_exact(alg.one(), x)
    if inv is not None:
        assert_reduced(inv.coords, p)
        assert x * inv == alg.one()


@st.composite
def field_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = value(p)
    rows = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    return p, rows


@settings(max_examples=150, deadline=None)
@given(field_matrices())
# clearing the first pivot leaves 4 - 3 * 2 = -2 and 1 - 4 * 2 = -7
@example((5, [[1, 2], [3, 4], [4, 1]]))
@example((2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
def test_elimination_stores_reduced_values(case):
    p, rows = case
    F = GF(p)
    d, ech = echelon(rows, F)
    assert_reduced([d], p)
    for pivot, row in ech:
        assert_reduced(row, p)
        assert row[pivot] == d
    for vec in nullspace(rows, F):
        assert_reduced(vec, p)
    if len(rows) == len(rows[0]):
        x = solve(rows, [1] * len(rows), F)
        if x is not None:
            assert_reduced(x, p)


@settings(max_examples=100, deadline=None)
@given(algebra_elements())
# over GF(5) with u^2 = 1, 3 + 2u has raw determinant 9 - 4 = 5, and the
# basis (2 + u, 1 + 3u) of u^2 = 2 has raw coordinate determinant 5
@example((5, 1, (3, 2), (2, 1)))
@example((5, 2, (2, 1), (1, 3)))
def test_determinant_decisions_read_multiples_of_p_as_zero(case):
    p, alg, x, y = build_elements(case)
    # over a field, a finite algebra element is a unit exactly when it
    # divides one, and a nonzerodivisor exactly when it is a unit
    unit = alg.divide_exact(alg.one(), x) is not None
    assert alg.is_unit(x) is unit
    assert is_nonzerodivisor(alg, x) is unit
    # (x, y) is a basis exactly when the two coordinate vectors are
    # independent
    independent = len(echelon([x.coords, y.coords], GF(p))[1]) == 2
    if independent:
        assert_reduced([discriminant(alg, [x, y])], p)
    else:
        with pytest.raises(NotABasis):
            discriminant(alg, [x, y])


@pytest.mark.parametrize("p", PRIMES)
def test_pair_fractions_store_reduced_values(p):
    # u^2 = u + 2 has discriminant 9 on (1, u), a unit mod every prime
    # here; term coefficients are plain ints, reduced or not, and every
    # image, of a pair or of a coordinate fraction, must come back reduced
    F = GF(p)
    alg = FiniteFreeAlgebra(F, 2, (((1, 0), (0, 1)), ((0, 1), (2, 1))), (1, 0))
    ring = PolyRing(F, ("t",))
    t = ring.variable("t")
    f = AlgebraMap(ring, alg, [alg.basis_elem(1)])
    inst = PullbackInstance(f, [ring.one(), t])
    assert inst.d == 9 % p
    nm = NormMapPlus(inst)
    x = inst.ctx.x
    pair = ((ring.one(), t + 1), (t, ring.one()))
    image = nm.pair_image(*pair)
    assert_reduced([image], p)
    for c in (-1, p - 1, p + 3, p):
        one = nm.fraction_image([(c, ((x, x),))], 1)
        two = nm.fraction_image([(c, (pair, (x, x)))], 2)
        diff = nm.fraction_image([(c, (pair,)), (-1, ((x, x),))], 1)
        assert_reduced([one, two, diff], p)
        assert one == c % p
        assert two == c * image % p
        assert diff == (c * image - 1) % p
    # coordinate fractions go through the norm, and land where the
    # replaced presentation route did
    for k in range(5):
        for entry in coordinates(inst.ctx, t**k * (p - 1) + 3):
            image = nm.localized_image(entry)
            assert_reduced([image], p)
            assert image == presentation_image(nm, entry)


@pytest.mark.parametrize("p", PRIMES)
def test_probe_entries_are_reduced(p):
    # every factor the probe multiplies and every column it eliminates is
    # reduced, so exponents up to 1000 over a modulus near 2^61 never
    # build a large int; repeated points make the elimination read every
    # column
    seen = []
    real_echelon, real_prod = gen_etale.echelon, math.prod

    def checked_echelon(vectors, ring, limit=None):
        def read():
            for v in vectors:
                v = list(v)
                seen.append(v)
                assert_reduced(v, p)
                yield v

        return real_echelon(read(), ring, limit)

    def checked_prod(factors):
        factors = list(factors)
        assert_reduced(factors, p)
        return real_prod(factors)

    F = GF(p)
    points = [(p - 1, 3), (2, p - 2), (p - 1, 3)]
    tuples = [((1000, 0), (0, 999), (1, 1)), ((0, 0), (7, 3), (1000, 1000))]
    with mock.patch.object(gen_etale, "echelon", checked_echelon), mock.patch.object(
        math, "prod", checked_prod
    ):
        assert diagonal_support_probe(F, points, tuples)
        assert diagonal_support_probe(F, [(p + 2, -1), (3, 4), (2, p - 1)])
    assert len(seen) > 9
