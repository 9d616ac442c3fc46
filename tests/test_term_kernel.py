"""The sparse term kernel against the per-class loops it replaced.

MultiPoly and Tensor once carried their own add, subtract, scale,
multiply and power loops.  Those loops are kept here, as they were, as
the oracle: every kernel result must equal theirs term for term,
coefficient type and insertion order included.  A tensor over a
polynomial ring with w variables at arity n is also a polynomial in n*w
variables, so both classes must agree on one term dict.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit.ring_core import GF, QQ, ZZ, FiniteFreeAlgebra, MultiPoly, PolyRing, power
from altkit.span_solver import tensor_divide_exact
from altkit.tensor_algebra import Tensor, TensorSpace, unit_tensor

RINGS = {"q": QQ, "z": ZZ, "fp:5": GF(5)}
VARS = ("s", "t")


# -- the replaced loops, kept as the oracle


def oracle_multipoly_add(a, b, norm):
    terms = dict(a)
    for k, c in b.items():
        s = terms.get(k)
        if s is None:
            terms[k] = c
        else:
            s = norm(s + c)
            if s:
                terms[k] = s
            else:
                del terms[k]
    return terms


def oracle_multipoly_sub(a, b, norm):
    return oracle_multipoly_add(a, {k: -c for k, c in b.items()}, norm)


def oracle_tensor_add(a, b, norm):
    terms = dict(a)
    for k, c in b.items():
        s = terms.get(k)
        if s is None:
            terms[k] = c
        else:
            s = s + c
            if s:
                terms[k] = norm(s)
            else:
                del terms[k]
    return terms


def oracle_tensor_sub(a, b, norm):
    terms = dict(a)
    for k, c in b.items():
        s = terms.get(k)
        if s is None:
            terms[k] = -c
        else:
            s = s - c
            if s:
                terms[k] = norm(s)
            else:
                del terms[k]
    return terms


def oracle_scale(a, c, norm):
    if not c:
        return {}
    return {k: norm(v * c) for k, v in a.items()}


def oracle_mul_poly(a, b, norm):
    acc = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            c = c1 * c2
            s = acc.get(k)
            acc[k] = c if s is None else s + c
    return {k: norm(c) for k, c in acc.items() if c}


def oracle_pow(x, k, one):
    acc = one
    base = x
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


# -- strategies


def exact(terms):
    # equal dicts can still differ in coefficient type (2 vs Fraction(2))
    # or in insertion order; both must match as well
    return [(k, type(c), c) for k, c in terms.items()]


def scalar(scalars, raw):
    if scalars.kind == "Q":
        return scalars.normalize(Fraction(*raw))
    return scalars.from_int(raw[0])


@st.composite
def setup(draw):
    ring = draw(st.sampled_from(sorted(RINGS)))
    n = draw(st.integers(1, 3))
    w = draw(st.integers(1, 2))
    scalars = RINGS[ring]
    raw = st.tuples(st.integers(-4, 4), st.integers(1, 3))
    key = st.tuples(*[st.integers(0, 2)] * (n * w))

    def terms():
        pairs = draw(st.lists(st.tuples(key, raw), max_size=4))
        return {k: scalar(scalars, r) for k, r in pairs}

    a, b = terms(), terms()
    # a share of b's terms cancels a's exactly, so sums drop keys
    for k in draw(st.lists(st.sampled_from(sorted(a)), max_size=3) if a else st.just([])):
        b[k] = -a[k]
    c = scalar(scalars, draw(raw))
    return scalars, n, w, a, b, c


def build(scalars, n, w, terms):
    space = TensorSpace(n, PolyRing(scalars, VARS[:w]))
    flat = tuple(f"{v}{i}" for i in range(n) for v in VARS[:w])
    return Tensor(space, terms), MultiPoly(scalars, flat, terms)


@settings(max_examples=150, deadline=None)
@given(setup())
def test_kernel_matches_replaced_loops(case):
    scalars, n, w, a, b, c = case
    ta, pa = build(scalars, n, w, a)
    tb, pb = build(scalars, n, w, b)
    norm = scalars.normalize
    A, B = ta.terms, tb.terms
    assert pa.terms == A and pb.terms == B
    assert exact((pa + pb).terms) == exact(oracle_multipoly_add(A, B, norm))
    assert exact((pa - pb).terms) == exact(oracle_multipoly_sub(A, B, norm))
    assert exact((ta + tb).terms) == exact(oracle_tensor_add(A, B, norm))
    assert exact((ta - tb).terms) == exact(oracle_tensor_sub(A, B, norm))
    for s in (c, scalars.zero()):
        assert exact((pa * s).terms) == exact(oracle_scale(A, s, norm))
        assert exact(ta.scale(s).terms) == exact(oracle_scale(A, s, norm))
    assert exact((pa * pb).terms) == exact(oracle_mul_poly(A, B, norm))
    assert exact((ta * tb).terms) == exact(oracle_mul_poly(A, B, norm))


@settings(max_examples=60, deadline=None)
@given(setup(), st.integers(0, 3))
def test_power_matches_square_and_multiply(case, k):
    scalars, n, w, a, _, _ = case
    ta, pa = build(scalars, n, w, a)
    pone = MultiPoly.const(scalars, pa.vars, scalars.one())
    assert exact((pa**k).terms) == exact(oracle_pow(pa, k, pone).terms)
    assert exact((ta**k).terms) == exact(oracle_pow(ta, k, unit_tensor(ta.space)).terms)
    assert exact((ta**k).terms) == exact((pa**k).terms)


@settings(max_examples=150, deadline=None)
@given(setup())
def test_tensor_and_polynomial_agree(case):
    # one term dict read as a tensor and as a polynomial in n*w variables
    scalars, n, w, a, b, c = case
    ta, pa = build(scalars, n, w, a)
    tb, pb = build(scalars, n, w, b)
    assert exact((ta + tb).terms) == exact((pa + pb).terms)
    assert exact((ta - tb).terms) == exact((pa - pb).terms)
    assert exact((ta * tb).terms) == exact((pa * pb).terms)
    assert exact(ta.scale(c).terms) == exact((pa * c).terms)
    assert exact((-ta).terms) == exact((-pa).terms)
    # exact division: a product divides, a perturbed product mostly not
    ring = PolyRing(scalars, pa.vars)
    for num_t, num_p in ((ta * tb, pa * pb), (ta * tb + tb, pa * pb + pb), (ta, pa)):
        tq = tensor_divide_exact(num_t, tb)
        pq = ring.divide_exact(num_p, pb)
        assert (tq is None) == (pq is None)
        if tq is not None:
            assert exact(tq.terms) == exact(pq.terms)


def test_products_divide_back():
    # the division comparison above is not vacuous: a nonzero divisor
    # always divides its own product back out
    ta, pa = build(QQ, 2, 2, {(1, 0, 0, 1): Fraction(1, 2), (0, 0, 0, 0): 3})
    tb, pb = build(QQ, 2, 2, {(0, 1, 1, 0): 2, (1, 0, 0, 0): -1})
    assert tensor_divide_exact(ta * tb, tb) == ta
    assert PolyRing(QQ, pa.vars).divide_exact(pa * pb, pb) == pa
    assert tensor_divide_exact(ta * tb + ta, tb) is None


def negative_power_cases():
    ring = PolyRing(QQ, ("t",))
    t = ring.variable("t")
    alg = FiniteFreeAlgebra(QQ, 1, [[[1]]], [1])
    return {
        "MultiPoly": t,
        "Tensor": unit_tensor(TensorSpace(2, ring)),
        "AlgebraElem": alg.one(),
    }


@pytest.mark.parametrize("kind", sorted(negative_power_cases()))
def test_negative_power_raises(kind):
    # -1 >> 1 == -1, so square-and-multiply never ends on k < 0
    x = negative_power_cases()[kind]
    with pytest.raises(ValueError):
        x**-1
    assert x**1 == x


class Counted:
    """An int that records each multiply it takes part in."""

    def __init__(self, v, log):
        self.v, self.log = v, log

    def __mul__(self, other):
        self.log.append((self.v, other.v))
        return Counted(self.v * other.v, self.log)


@pytest.mark.parametrize(
    "k, multiplies", [(0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3), (13, 5)]
)
def test_power_makes_no_wasted_multiplies(k, multiplies):
    # one squaring per bit below the top one and one product per further
    # set bit; the unit never enters a product
    log = []
    got = power(Counted(3, log), k, Counted(1, log))
    assert got.v == 3**k
    assert len(log) == multiplies
    assert all(1 not in pair for pair in log)
