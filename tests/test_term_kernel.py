"""The sparse term kernel against the per-class loops it replaced.

MultiPoly and Tensor once carried their own add, subtract, scale,
multiply and power loops.  Those loops are kept here, as they were, as
the oracle: every kernel result must equal theirs term for term,
coefficient type and insertion order included.  A tensor over a
polynomial ring with w variables at arity n is also a polynomial in n*w
variables, so both classes must agree on one term dict.

The kernel's multiply and exact division later moved to plain-int GF(p)
coefficients, and division to keys with their total degree in front;
the scalar-object loops they replaced are kept here the same way.

Those loops once ran on GF(p) values that reduced themselves.  GF(p)
values are now plain ints in 0..p-1, so each oracle normalizes a sum,
difference or product before its zero test, as those values did.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit.ring_core import (
    GF,
    QQ,
    ZZ,
    FiniteFreeAlgebra,
    MultiPoly,
    PolyRing,
    _monomial_pairs,
    dict_divide_exact,
    divide_terms,
    power,
    terms_add,
    terms_mul,
    terms_neg,
    terms_sub,
)
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
    return oracle_multipoly_add(a, {k: norm(-c) for k, c in b.items()}, norm)


def oracle_tensor_add(a, b, norm):
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


def oracle_tensor_sub(a, b, norm):
    terms = dict(a)
    for k, c in b.items():
        s = terms.get(k)
        if s is None:
            terms[k] = norm(-c)
        else:
            s = norm(s - c)
            if s:
                terms[k] = s
            else:
                del terms[k]
    return terms


def oracle_scale(a, c, norm):
    if not c:
        return {}
    return {k: norm(v * c) for k, v in a.items()}


def oracle_mul_poly(a, b, norm):
    # also the tuple-key, scalar-object loop of terms_mul before its GF(p)
    # coefficients became plain ints
    acc = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            c = c1 * c2
            s = acc.get(k)
            acc[k] = c if s is None else s + c
    out = {}
    for k, c in acc.items():
        c = norm(c)
        if c:
            out[k] = c
    return out


def oracle_deglex(key):
    return (sum(key), key)


def oracle_dict_divide_exact(num, den, ring):
    # the tuple-key, scalar-object division that the kernel replaced
    coeff_div, norm = ring.divide_exact, ring.normalize
    if not den:
        return None
    if not num:
        return {}
    dkey = max(den, key=oracle_deglex)
    dc = den[dkey]
    rem = dict(num)
    quot = {}
    while rem:
        rkey = max(rem, key=oracle_deglex)
        qkey = tuple(a - b for a, b in zip(rkey, dkey))
        if any(e < 0 for e in qkey):
            return None
        qc = coeff_div(rem[rkey], dc)
        if qc is None or not qc:
            return None
        quot[qkey] = qc
        for k, c in den.items():
            kk = tuple(a + b for a, b in zip(qkey, k))
            s = rem.get(kk)
            s = norm(-qc * c if s is None else s - qc * c)
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return quot


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
    return Tensor(space, terms), MultiPoly(PolyRing(scalars, flat), terms)


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
    assert exact((pa**k).terms) == exact(oracle_pow(pa, k, pa.parent.one()).terms)
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
    ring = pa.parent
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
    assert pa.parent.divide_exact(pa * pb, pb) == pa
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


# -- exact division and multiply on the wider rings and keys they meet

# 2**61 - 1 is prime and near MAX_MODULUS, so products of two
# coefficients pass 2**64 before they are reduced
MERSENNE_61 = 2**61 - 1
KERNEL_RINGS = {
    "q": QQ,
    "z": ZZ,
    "fp:2": GF(2),
    "fp:5": GF(5),
    "fp:2^61-1": GF(MERSENNE_61),
}

# 0, 2^k - 1 and 2^k: totals on either side of a field width; 1000 at
# key length 10 runs the total degree past 2^13
EXPONENTS = st.one_of(
    st.sampled_from([0, 0, 1, 2, 3, 7, 8, 15, 16, 63, 64, 127, 128, 255, 256, 1000]),
    st.integers(0, 1000),
)


def kernel_scalar(scalars, raw):
    num, den = raw
    if scalars.kind == "Q":
        return scalars.normalize(Fraction(num, den))
    if scalars.kind == "Z":
        return num
    # reach the whole field, not only small representatives
    return scalars.from_int(num * 0x9E3779B97F4A7C15 + den)


@st.composite
def kernel_terms(draw, scalars, length, exps, max_size=4):
    raw = st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 4))
    pairs = draw(
        st.lists(st.tuples(st.tuples(*[exps] * length), raw), max_size=max_size)
    )
    return {k: c for k, r in pairs if (c := kernel_scalar(scalars, r))}


@st.composite
def division_case(draw):
    ring = draw(st.sampled_from(sorted(KERNEL_RINGS)))
    scalars = KERNEL_RINGS[ring]
    # length 0 is the constants of PolyRing(R, ())
    length = draw(st.integers(0, 10))
    # a few large exponents per key keep products of large totals cheap
    exps = st.one_of(st.integers(0, 2), EXPONENTS)
    quot = draw(kernel_terms(scalars, length, exps))
    den = draw(kernel_terms(scalars, length, exps))
    norm = scalars.normalize
    num = oracle_mul_poly(quot, den, norm)
    shape = draw(
        st.sampled_from(["product", "perturbed", "free", "zero_num", "zero_den"])
    )
    if shape == "perturbed":
        extra = draw(kernel_terms(scalars, length, exps, max_size=2))
        num = oracle_multipoly_add(num, extra, norm)
    elif shape == "free":
        num = draw(kernel_terms(scalars, length, exps, max_size=6))
    elif shape == "zero_num":
        num = {}
    elif shape == "zero_den":
        den = {}
    return scalars, num, den


def check_division(scalars, num, den):
    got = dict_divide_exact(num, den, scalars)
    want = oracle_dict_divide_exact(num, den, scalars)
    assert (got is None) == (want is None)
    if got is not None:
        assert exact(got) == exact(want)
        assert list(got) == sorted(got, key=oracle_deglex, reverse=True)
    return got


@settings(max_examples=400, deadline=None)
@given(division_case())
def test_division_matches_replaced_loop(case):
    scalars, num, den = case
    check_division(scalars, num, den)


@settings(max_examples=150, deadline=None)
@given(division_case())
def test_multiply_matches_replaced_loop(case):
    scalars, a, b = case
    got = terms_mul(a, b, scalars)
    assert exact(got) == exact(oracle_mul_poly(a, b, scalars.normalize))
    if scalars.kind == "Fp":
        assert all(type(c) is int and 0 < c < scalars.p for c in got.values())


def nonunit(scalars):
    # a leading coefficient other than +-1 wherever the ring has one
    return scalars.from_int(3) if scalars.p not in (2, 3) else scalars.one()


def test_division_covers_each_outcome():
    # products divide back, on a leading coefficient other than +-1 too;
    # a leading monomial that the divisor's does not divide (an exponent
    # would go negative) and a Z quotient that does not exist both give
    # None, as do a zero divisor and a remainder term
    for scalars in KERNEL_RINGS.values():
        one, c = scalars.one(), nonunit(scalars)
        den = {(1, 0, 0): c, (0, 1, 128): one}
        quot = {(0, 2, 127): c, (0, 0, 0): one}
        num = oracle_mul_poly(quot, den, scalars.normalize)
        assert exact(check_division(scalars, num, den)) == exact(quot)
        assert check_division(scalars, {(0, 1, 0): one}, den) is None
        assert check_division(scalars, num, {}) is None
        assert check_division(scalars, {}, den) == {}
        bump = oracle_multipoly_add(num, {(0, 0, 1): one}, scalars.normalize)
        assert check_division(scalars, bump, den) is None
    assert check_division(ZZ, {(1,): 2}, {(0,): 4}) is None
    assert check_division(ZZ, {(1,): 8, (0,): 4}, {(0,): 4}) == {(1,): 2, (0,): 1}
    assert check_division(QQ, {(1,): 2}, {(0,): 4}) == {(1,): Fraction(1, 2)}


def test_monomial_rule_is_total_on_the_empty_key():
    # a ring with no variables has the one key (); the monomial rule once
    # raised on it (min of an empty sequence) instead of dividing
    assert divide_terms({(): 2}, [((), 1)], QQ, _monomial_pairs) == {(): 2}
    assert divide_terms({(): 3}, [((), 2)], QQ, _monomial_pairs) == {
        (): Fraction(3, 2)
    }
    assert divide_terms({(): 3}, [((), 2)], ZZ, _monomial_pairs) is None
    assert divide_terms({(): 4}, [((), 2)], ZZ, _monomial_pairs) == {(): 2}
    assert _monomial_pairs((), ()) == (((), 1),)
    assert _monomial_pairs((0, -1), (1, 1)) is None


@pytest.mark.parametrize("ring", sorted(KERNEL_RINGS))
def test_division_past_eight_byte_fields(ring):
    # a total degree past 2**63, beyond any fixed-width machine int
    scalars = KERNEL_RINGS[ring]
    big = 2**70
    one, c = scalars.one(), nonunit(scalars)
    den = {(1, 0): c, (0, 1): one}
    quot = {(big, 5): one, (big - 1, 0): c}
    num = oracle_mul_poly(quot, den, scalars.normalize)
    assert exact(check_division(scalars, num, den)) == exact(quot)
    assert check_division(scalars, {(big, 0): one}, {(0, 1): one}) is None


def test_unreduced_ints_over_gf_p_are_reduced():
    # an int coefficient over GF(p) once stayed an unreduced int: 5 over
    # GF(5) was a nonzero term printing as 0*t, and 3t squared kept 9
    ring = PolyRing(GF(5), ("t",))
    five = MultiPoly(ring, {(1,): 5})
    assert five.terms == {} and not five
    assert five == ring.zero()
    assert five.to_text() == "0"
    q = MultiPoly(ring, {(1,): 3})
    assert exact(q.terms) == [((1,), int, 3)]
    assert exact((q * q).terms) == [((2,), int, 4)]
    assert (q * q).to_text() == "4*t^2"
    assert GF(5).normalize(7) == 2 and type(GF(5).normalize(7)) is int
    assert (q * 5).terms == {} and (q * 6) == q


@st.composite
def subtraction_case(draw):
    ring = draw(st.sampled_from(sorted(KERNEL_RINGS)))
    scalars = KERNEL_RINGS[ring]
    length = draw(st.integers(1, 3))
    exps = st.integers(0, 2)
    a = draw(kernel_terms(scalars, length, exps, max_size=6))
    b = draw(kernel_terms(scalars, length, exps, max_size=6))
    # some of b's terms equal a's, so the difference drops those keys
    for k in draw(st.lists(st.sampled_from(sorted(a)), max_size=3) if a else st.just([])):
        b[k] = a[k]
    return scalars, a, b


@settings(max_examples=200, deadline=None)
@given(subtraction_case())
def test_subtraction_matches_add_of_negation(case):
    scalars, a, b = case
    norm = scalars.normalize
    expected = terms_add(a, terms_neg(b, norm), norm)
    assert exact(terms_sub(a, b, norm)) == exact(expected)
    assert exact(terms_sub(b, a, norm)) == exact(terms_add(b, terms_neg(a, norm), norm))
    assert terms_sub(a, a, norm) == {}


def test_subtraction_normalizes_once_per_key():
    # one normalize per key of b: a new key is negated, a shared one merged
    calls = []

    def norm(v):
        calls.append(v)
        return QQ.normalize(v)

    a = {(0,): 3, (1,): 2}
    b = {(1,): 2, (2,): Fraction(1, 2), (3,): 5}
    assert terms_sub(a, b, norm) == {(0,): 3, (2,): Fraction(-1, 2), (3,): -5}
    assert len(calls) == len(b)
