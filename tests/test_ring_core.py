"""Scalar rings, polynomials, matrices and finite free algebras."""

import operator
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from altkit.errors import (
    BadUnit,
    NonAssociative,
    NonCommutative,
    ParseError,
    RingMismatch,
    UnsupportedBase,
    VariableMismatch,
)
from altkit.gen_etale import BPlus
from altkit.ring_core import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    FiniteFreeAlgebra,
    MAX_MODULUS,
    MAX_POWER_DEGREE,
    MAX_POWER_EXPONENT,
    MultiPoly,
    PolyRing,
    det_generic,
    echelon,
    evaluate_terms,
    nullspace,
    parse_expression,
    solve,
)
from altkit.ring_core import _ExprParser, _is_prime, _tokenize
from altkit.tensor_algebra import TensorSpace, unit_tensor
from norm_helpers import monogenic


def sqrt2_algebra():
    # Q[t]/(t^2 - 2) on the basis (1, t)
    structure = [
        [(1, 0), (0, 1)],
        [(0, 1), (2, 0)],
    ]
    return FiniteFreeAlgebra(QQ, 2, structure, (1, 0))


def t2_minus_s_algebra():
    # Q[s][t]/(t^2 - s) on the basis (1, t)
    base = PolyRing(QQ, ("s",))
    s = base.variable("s")
    one, zero = base.one(), base.zero()
    structure = [
        [(one, zero), (zero, one)],
        [(zero, one), (s, zero)],
    ]
    return FiniteFreeAlgebra(base, 2, structure, (one, zero))


# -- prime field elements


def test_fp_arithmetic():
    # values are plain ints in 0..p-1; the ring reduces sums and products
    F = GF(5)
    a, b = 3, 4
    assert F.normalize(a + b) == 2
    assert F.normalize(a - b) == 4
    assert F.normalize(a * b) == 2
    assert F.normalize(-a) == 2
    assert F.divide_exact(a, b) == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2
    assert F.divide_exact(a, 0) is None
    assert F.normalize(F.divide_exact(a, b) * b) == a
    assert F.normalize(5) == 0 and F.from_int(-1) == 4
    values = [F.zero(), F.one(), F.from_int(7), F.normalize(-8), F.divide_exact(a, b)]
    assert values == [0, 1, 2, 2, 2]
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_fp_hash_matches_representative(p):
    # a value is its representative, so values built different ways
    # meet in one set or dict key
    F = GF(p)
    for k in range(-p, 2 * p):
        v = F.from_int(k)
        assert type(v) is int and v == k % p and hash(v) == hash(k % p)
    assert len({F.from_int(1), F.normalize(p + 1), 1}) == 1


def test_fp_modulus_must_be_prime():
    with pytest.raises(UnsupportedBase):
        GF(6)
    with pytest.raises(UnsupportedBase):
        GF(1)


def _trial_division_prime(p):
    # the primality test that Miller-Rabin replaced, kept as the oracle
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_primality_matches_trial_division():
    assert [p for p in range(10**5) if _is_prime(p)] == [
        p for p in range(10**5) if _trial_division_prime(p)
    ]


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to every prime base up to 7 and up to 23
    assert 151 * 751 * 28351 == 3215031751
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1)
    assert not _is_prime(2**61 + 1)


def test_fp_modulus_is_bounded():
    largest = 2**64 - 59  # the largest prime below 2**64
    assert GF(largest).p == largest
    assert GF(10**18 + 3).p == 10**18 + 3
    with pytest.raises(UnsupportedBase, match=f"below {MAX_MODULUS}"):
        GF(MAX_MODULUS + 13)
    with pytest.raises(UnsupportedBase):
        GF(MAX_MODULUS)


def test_fp_mixed_modulus_rejected():
    # a value carries no modulus, so the objects that hold values check
    # that their rings agree
    with pytest.raises(RingMismatch):
        unit_tensor(TensorSpace(2, PolyRing(GF(3), ("t",)))) + unit_tensor(
            TensorSpace(2, PolyRing(GF(5), ("t",)))
        )
    with pytest.raises(VariableMismatch):
        PolyRing(GF(3), ("t",)).one() + PolyRing(GF(5), ("t",)).one()
    alg = FiniteFreeAlgebra(GF(5), 1, [[(1,)]], (1,))
    with pytest.raises(RingMismatch):
        AlgebraMap(PolyRing(GF(3), ("t",)), alg, [(1,)])


def test_coeff_ring_services():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == -2 and isinstance(QQ.parse("-2"), int)
    assert QQ.to_text(Fraction(3, 4)) == "3/4"
    assert GF(7).parse("3/4") == 6  # 4 * 6 = 24 = 3
    assert type(GF(7).parse("3/4")) is int
    assert ZZ.divide_exact(6, 3) == 2
    assert ZZ.divide_exact(7, 3) is None
    assert QQ.divide_exact(7, 3) == Fraction(7, 3)
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)


def _scalar_entry_forms(scalars):
    # every way a scalar from outside enters a stored value: the constant
    # polynomial, a polynomial times it, a structure constant, an algebra
    # coordinate, the algebra's scalar action, and a tensor scaled by it
    ring = PolyRing(scalars, ("t",))
    t = ring.variable("t")

    def algebra(c):
        structure = [[(1, 0), (0, 1)], [(0, 1), (c, 0)]]
        return FiniteFreeAlgebra(scalars, 2, structure, (1, 0))

    alg = algebra(2)
    unit = unit_tensor(TensorSpace(2, ring))
    return {
        "embed_scalar": lambda c: ring.embed_scalar(c).terms[(0,)],
        "poly_times": lambda c: (t * c).terms[(1,)],
        "structure": lambda c: algebra(c).structure[1][1][0],
        "element": lambda c: alg.element((c, 0)).coords[0],
        "algebra_times": lambda c: (alg.one() * c).coords[0],
        "tensor_scale": lambda c: unit.scale(c).terms[(0, 0)],
    }


@pytest.mark.parametrize(
    "scalars, value",
    [
        (QQ, 0.1),
        (QQ, 0.5),
        (ZZ, 0.5),
        (ZZ, Fraction(1, 2)),
        (GF(5), Fraction(1, 2)),
        (GF(5), Fraction(2, 1)),
        (GF(5), 0.5),
    ],
)
def test_scalar_gate_refuses_foreign_values(scalars, value):
    # a float, or a Fraction with no value in the ring, is refused before
    # it is stored, in every form
    for name, form in _scalar_entry_forms(scalars).items():
        if name == "poly_times" and isinstance(value, float):
            # a polynomial only multiplies by ints and Fractions; Python
            # refuses the rest through the operator protocol
            with pytest.raises(TypeError):
                form(value)
            continue
        with pytest.raises(RingMismatch, match="cannot coerce"):
            form(value)
    with pytest.raises(RingMismatch, match="cannot coerce"):
        scalars.coerce(value)


@pytest.mark.parametrize("scalars", [QQ, ZZ, GF(5)])
def test_scalar_gate_refuses_bools(scalars):
    # a bool is an int that would be stored, and rendered, as True; the
    # algebra's scalar action takes ints through from_int instead, which
    # multiplies them into the unit
    forms = _scalar_entry_forms(scalars)
    for name in ("embed_scalar", "poly_times", "structure", "element", "tensor_scale"):
        with pytest.raises(RingMismatch, match="cannot coerce"):
            forms[name](True)
    got = forms["algebra_times"](True)
    assert got == 1 and type(got) is int


@pytest.mark.parametrize(
    "scalars, value, stored",
    [
        (QQ, Fraction(1, 2), Fraction(1, 2)),
        (QQ, Fraction(4, 2), 2),
        (QQ, -3, -3),
        (ZZ, Fraction(4, 2), 2),
        (ZZ, -3, -3),
        (GF(5), 7, 2),
        (GF(5), -1, 4),
    ],
)
def test_scalar_gate_stores_ring_values(scalars, value, stored):
    for name, form in _scalar_entry_forms(scalars).items():
        got = form(value)
        assert got == stored and type(got) is type(stored), name
    got = scalars.coerce(value)
    assert got == stored and type(got) is type(stored)


_rationals = st.integers(-(10**30), 10**30) | st.fractions()


@settings(max_examples=300, deadline=None)
@given(_rationals, _rationals.filter(bool))
def test_rational_division_matches_fraction_quotient(a, b):
    # two ints divide by divmod, and build a Fraction only when the
    # quotient is not an integer; the value and its type match the
    # Fraction quotient normalized back
    expected = QQ.normalize(Fraction(a) / Fraction(b))
    got = QQ.divide_exact(a, b)
    assert got == expected and type(got) is type(expected)


def test_rational_division_keeps_integral_quotients_as_ints():
    assert type(QQ.divide_exact(-12, 4)) is int and QQ.divide_exact(-12, 4) == -3
    assert QQ.divide_exact(7, -14) == Fraction(-1, 2)
    assert QQ.divide_exact(0, -5) == 0 and type(QQ.divide_exact(0, -5)) is int
    assert QQ.divide_exact(3, 0) is None


# -- polynomials


def test_poly_canonical_form_prunes_zeros():
    t = PolyRing(QQ, ("t",)).variable("t")
    p = (t + 1) * (t - 1)
    assert p.terms == {(2,): 1, (0,): -1}
    assert (p - p).terms == {}
    assert not (p - p)


def test_poly_product_golden():
    t = PolyRing(QQ, ("t",)).variable("t")
    assert ((t + 1) * (t - 1)).to_text() == "t^2-1"
    assert ((t + 2) ** 3).to_text() == "t^3+6*t^2+12*t+8"


def test_poly_mismatch_raises():
    t = PolyRing(QQ, ("t",)).variable("t")
    s = PolyRing(QQ, ("s",)).variable("s")
    u = PolyRing(GF(5), ("t",)).variable("t")
    for other, text in (
        (s, "(Q, ('t',)) vs (Q, ('s',))"),
        (u, "(Q, ('t',)) vs (GF(5), ('t',))"),
    ):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(VariableMismatch) as info:
                op(t, other)
            assert str(info.value) == text
        assert t != other


def test_equal_parents_meet_as_one():
    # two PolyRing objects for one ring: their polynomials add,
    # multiply, compare and hash as if they shared one parent
    one, two = PolyRing(QQ, ("t",)), PolyRing(QQ, ("t",))
    assert one is not two and one == two and hash(one) == hash(two)
    a, b = one.parse("t+1"), two.parse("t+1")
    assert a == b and hash(a) == hash(b)
    assert (a + b).to_text() == "2*t+2"
    assert a * b == one.parse("t^2+2*t+1") == two.parse("t^2+2*t+1")
    assert not a - b
    assert len({a, b, one.parse("1+t")}) == 1


def test_foreign_polynomials_rejected_by_space_and_map():
    ring = PolyRing(QQ, ("t",))
    space = TensorSpace(2, ring)
    alg = sqrt2_algebra()
    f = AlgebraMap(ring, alg, [alg.basis_elem(1)])
    twin = PolyRing(QQ, ("t",)).variable("t")
    assert space.as_element(twin) is twin
    assert f(twin) == alg.basis_elem(1)
    for foreign in (
        PolyRing(QQ, ("s",)).variable("s"),
        PolyRing(GF(5), ("t",)).variable("t"),
    ):
        with pytest.raises(RingMismatch, match=r"^MultiPoly\('\w'\) not in Q\[t\]$"):
            space.as_element(foreign)
        with pytest.raises(
            VariableMismatch, match="^polynomial from a different source ring$"
        ):
            f(foreign)


def test_poly_evaluate_and_substitute():
    ring = PolyRing(QQ, ("t",))
    p = ring.parse("t^2+1")
    assert p.evaluate([3]) == 10
    assert p.evaluate([Fraction(1, 2)]) == Fraction(5, 4)


def test_poly_division_exact():
    ring = PolyRing(QQ, ("t",))
    num, den = ring.parse("t^2-1"), ring.parse("t-1")
    assert ring.divide_exact(num, den) == ring.parse("t+1")
    assert ring.divide_exact(ring.parse("t^2+1"), den) is None
    two = PolyRing(GF(2), ("t",))
    assert two.divide_exact(two.parse("t^2+1"), two.parse("t+1")) == two.parse("t+1")


def test_poly_division_multivariate():
    ring = PolyRing(QQ, ("s", "t"))
    a = ring.parse("s^2*t - t^3")
    b = ring.parse("s - t")
    assert ring.divide_exact(a, b) == ring.parse("s*t + t^2")


def test_parse_expression_round_trip():
    ring = PolyRing(QQ, ("s",))
    for text in ("2*s+1", "s^2-s+1", "0", "-s", "1/2*s"):
        assert ring.parse(text).to_text() == text
    assert ring.parse("s**2") == ring.parse("s^2")
    assert ring.parse("-(s^2-1)") == ring.parse("1-s^2")
    assert ring.parse("(s+1)*(s-1)") == ring.parse("s^2-1")


def test_parse_errors():
    ring = PolyRing(QQ, ("s",))
    for bad in ("s+", "2$", "x", "1/s", "(s", "s^s", ""):
        with pytest.raises(ParseError):
            ring.parse(bad)


def test_parse_power_bounds():
    ring = PolyRing(QQ, ("s", "t"))
    assert ring.parse(f"(s+1)^{MAX_POWER_DEGREE}").total_degree() == MAX_POWER_DEGREE
    assert ring.parse(f"2^{MAX_POWER_EXPONENT}") == 2**MAX_POWER_EXPONENT
    for bad, why in (
        (f"2^{MAX_POWER_EXPONENT + 1}", "exponent"),
        (f"(s+1)^{MAX_POWER_DEGREE + 1}", "degree"),
        ("(s+t+1)^44", "terms"),
        ("(2^1000)^11", "bits"),
        ("1" * 5000, "too long"),
    ):
        with pytest.raises(ParseError, match=why):
            ring.parse(bad)
    # prime-field constants stay small whatever the exponent
    assert PolyRing(GF(5), ("s",)).parse(f"3^{MAX_POWER_EXPONENT}") == 1


small_qq = st.integers(min_value=-5, max_value=5)


def poly_from(coeffs):
    # a new parent per polynomial: equal parents meet like one parent
    return MultiPoly(PolyRing(QQ, ("t",)), {(i,): c for i, c in enumerate(coeffs)})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_qq, min_size=1, max_size=4),
    st.lists(small_qq, min_size=1, max_size=4),
    st.lists(small_qq, min_size=1, max_size=4),
)
def test_poly_ring_axioms(a, b, c):
    p, q, r = poly_from(a), poly_from(b), poly_from(c)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


@settings(max_examples=40, deadline=None)
@given(st.lists(small_qq, min_size=1, max_size=4), st.lists(small_qq, min_size=1, max_size=4))
def test_poly_eval_is_homomorphism(a, b):
    p, q = poly_from(a), poly_from(b)
    at = Fraction(2, 3)
    assert (p * q).evaluate([at]) == p.evaluate([at]) * q.evaluate([at])
    assert (p + q).evaluate([at]) == p.evaluate([at]) + q.evaluate([at])


# -- matrices


def test_det_generic_known_values():
    assert det_generic([[1, 2], [3, 4]]) == -2
    assert det_generic([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert det_generic([[7]]) == 7
    # over GF(p) the determinant is the integer one; callers reduce it
    assert GF(5).normalize(det_generic([[4, 2], [3, 4]])) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_qq, min_size=3, max_size=3), min_size=3, max_size=3))
def test_adjugate_identity(rows):
    # Cramer: det(M) times the solution of M x = e_j is column j of the
    # adjugate, whose entry i is the signed minor without row j, column i
    d = det_generic(rows)
    lead, ech = echelon(rows, QQ)
    assert len(ech) == 3 if d else len(ech) < 3
    if d:
        assert lead in (d, -d)
    for j in range(3):
        x = solve(rows, [int(i == j) for i in range(3)], QQ)
        if not d:
            assert x is None
            continue
        for i in range(3):
            minor = [
                [rows[r][c] for c in range(3) if c != i] for r in range(3) if r != j
            ]
            assert d * x[i] == (-1) ** (i + j) * det_generic(minor)


def dense_det(rows):
    """The expansion det_generic replaced, kept as its oracle: every
    entry multiplied into every minor, zero or not."""
    n = len(rows)
    cur = {1 << j: rows[0][j] for j in range(n)}
    for r in range(1, n):
        nxt = {}
        for mask, minor in cur.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                term = rows[r][j] * minor
                if (r + (mask & (bit - 1)).bit_count()) % 2:
                    term = -term
                key = mask | bit
                nxt[key] = term if key not in nxt else nxt[key] + term
        cur = nxt
    return cur[(1 << n) - 1]


def split_algebra(scalars, rank):
    # scalars^rank with componentwise product: every idempotent but 0
    # and 1 is a zero divisor
    unit = tuple(scalars.one() for _ in range(rank))
    structure = [
        [
            tuple(scalars.one() if k == i == j else scalars.zero() for k in range(rank))
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    return FiniteFreeAlgebra(scalars, rank, structure, unit)


_QS = PolyRing(QQ, ("s",))
# GF(5)[t]/(t^2): t is nilpotent, so t * t is a zero product
_DUAL = FiniteFreeAlgebra(GF(5), 2, (((1, 0), (0, 1)), ((0, 1), (0, 0))), (1, 0))
# Q^3 modulo what (1, 1, 0) kills: the quotient Q^2 keeps zero divisors
_Q3 = split_algebra(QQ, 3)
_BPLUS = BPlus(_Q3, _Q3.element((1, 1, 0))).desc
DET_RINGS = {
    "Q": (QQ, lambda a, b: Fraction(a, b)),
    "GF(2)": (GF(2), lambda a, b: GF(2).from_int(a * b)),
    "GF(5)": (GF(5), lambda a, b: GF(5).from_int(a * b)),
    "Q[s]": (_QS, lambda a, b: _QS.from_int(a) + _QS.variable("s") * b),
    "GF(5)[t]/(t^2)": (_DUAL, lambda a, b: _DUAL.element((a % 5, b % 5))),
    "B+ quotient": (_BPLUS, lambda a, b: _BPLUS.element((a, b - 2))),
}


@st.composite
def det_cases(draw):
    name = draw(st.sampled_from(sorted(DET_RINGS)))
    ring, make = DET_RINGS[name]
    n = draw(st.integers(1, 5))
    # mostly zeros, dense, or a repeated row
    zeros = draw(st.sampled_from((0.0, 0.5, 0.8)))
    pair = st.tuples(st.integers(-3, 3), st.integers(1, 3))
    rows = [
        [
            ring.zero() if draw(st.floats(0, 1)) < zeros else make(*draw(pair))
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    if n > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return ring, rows


@settings(max_examples=150, deadline=None)
@given(det_cases())
def test_sparse_det_matches_dense_expansion(case):
    # the sparse expansion skips every value whose truth value is false:
    # that must be a zero of the ring, and for a normalized value exactly
    # the zero (an unreduced int over GF(p) such as -5 is only kept)
    ring, rows = case
    got, want = det_generic(rows), dense_det(rows)
    assert ring.normalize(got) == ring.normalize(want)
    zero = ring.zero()
    for v in [got, want] + [a * b for a in rows[0] for b in rows[-1]]:
        if not v:
            assert ring.normalize(v) == zero
        v = ring.normalize(v)
        assert (not v) == (v == zero)


def test_sparse_det_zero_matrices():
    assert det_generic([[0, 0], [0, 0]]) == 0
    qs = _QS.variable("s")
    assert det_generic([[qs, qs], [qs, qs]]) == _QS.zero()
    dual = _DUAL.basis_elem(1)
    # the one product left is t * t = 0, so no term reaches the full mask
    assert det_generic([[dual, _DUAL.one()], [dual * 0, dual]]) == _DUAL.zero()
    assert not det_generic([[dual, dual], [dual, dual]])


def test_field_solve_and_nullspace():
    A = [[2, 1], [1, 3]]
    x = solve(A, [5, 5], QQ)
    assert x == [2, 1]
    assert solve([[1, 1], [1, 1]], [0, 1], QQ) is None
    # consistent but singular: a solution exists, a unique one does not
    assert solve([[1, 1], [1, 1]], [1, 1], QQ) is None
    ker = nullspace([[1, 1]], GF(5))
    assert len(ker) == 1
    v = ker[0]
    assert GF(5).normalize(v[0] + v[1]) == 0 and any(v)
    assert nullspace([[1, 0], [0, 1]], QQ) == []


# -- finite free algebras


def test_sqrt2_validates_and_multiplies():
    alg = sqrt2_algebra()
    t = alg.element((0, 1))
    assert (t * t).coords == (2, 0)
    assert ((1 + t) * (1 + t)).coords == (3, 2)
    assert alg.one() * t == t


def test_sqrt2_mult_matrix_golden():
    # columns of multiplication by t on the basis (1, t), worked by hand:
    # t*1 = t -> (0,1), t*t = 2 -> (2,0)
    alg = sqrt2_algebra()
    assert alg.mult_matrix((0, 1)) == [[0, 2], [1, 0]]
    assert alg.trace((0, 1)) == 0
    assert det_generic(alg.mult_matrix((0, 1))) == -2
    assert alg.trace(alg.unit) == 2


def test_trace_is_linear():
    alg = sqrt2_algebra()
    a, b = alg.element((1, 2)), alg.element((-3, 1))
    assert alg.trace(a + b) == alg.trace(a) + alg.trace(b)
    assert alg.trace(a * 5) == 5 * alg.trace(a)


def trace_by_matrix(alg, e):
    """The diagonal sum of the multiplication matrix: the trace as it was
    read before it became a linear form, kept as the oracle."""
    M = alg.mult_matrix(e)
    acc = M[0][0]
    for i in range(1, alg.rank):
        acc = acc + M[i][i]
    return alg.base.normalize(acc)


def monogenic(base, coeffs):
    """base[x]/(f) on the basis 1, x, ..., x^(r-1), f = x^r + sum c_i x^i."""
    r = len(coeffs)
    zero, one = base.zero(), base.one()
    powers = [[one if i == j else zero for i in range(r)] for j in range(r)]
    for _ in range(r - 1):
        top = powers[-1]
        shifted = [zero] + top[:-1]
        powers.append(
            [base.normalize(a - top[-1] * c) for a, c in zip(shifted, coeffs)]
        )
    structure = [[powers[i + j] for j in range(r)] for i in range(r)]
    return FiniteFreeAlgebra(base, r, structure, powers[0])


TRACE_BASES = {"q": QQ, "fp:5": GF(5), "q[s]": PolyRing(QQ, ("s",))}


@st.composite
def trace_cases(draw):
    name = draw(st.sampled_from(sorted(TRACE_BASES)))
    base = TRACE_BASES[name]
    pair = st.tuples(st.integers(-3, 3), st.integers(1, 3))

    def scalar():
        a, b = draw(pair)
        if name == "q":
            return Fraction(a, b)
        if name == "fp:5":
            return base.from_int(a)
        return base.from_int(a) + base.variable("s") * base.from_int(b - 2)

    r = draw(st.integers(1, 4))
    alg = monogenic(base, [scalar() for _ in range(r)])
    return alg, alg.element([scalar() for _ in range(r)])


@settings(max_examples=100, deadline=None)
@given(trace_cases())
def test_trace_matches_the_multiplication_matrix(case):
    alg, e = case
    got, want = alg.trace(e), trace_by_matrix(alg, e)
    assert got == want and type(got) is type(want)
    assert alg.trace(e.coords) == got
    # on a product, where most of the matrix is off the diagonal
    assert alg.trace(e * e) == trace_by_matrix(alg, e * e)


def test_det_norm_is_multiplicative():
    alg = sqrt2_algebra()
    a, b = alg.element((1, 2)), alg.element((-3, 1))

    def norm(e):
        return det_generic(alg.mult_matrix(e))

    assert norm(a * b) == norm(a) * norm(b)


def test_poly_base_algebra():
    alg = t2_minus_s_algebra()
    base = alg.base
    t = alg.element((base.zero(), base.one()))
    assert alg.trace(t) == base.zero()
    assert det_generic(alg.mult_matrix(t)) == -base.variable("s")
    assert (t * t).coords == (base.variable("s"), base.zero())


def test_validator_rejects_nonassociative():
    # e2^2 = e3, e2*e3 = 1, e3^2 = 0 breaks (e2*e2)*e3 = e2*(e2*e3)
    z, o = 0, 1
    structure = [
        [(o, z, z), (z, o, z), (z, z, o)],
        [(z, o, z), (z, z, o), (o, z, z)],
        [(z, z, o), (o, z, z), (z, z, z)],
    ]
    with pytest.raises(NonAssociative) as err:
        FiniteFreeAlgebra(QQ, 3, structure, (1, 0, 0))
    assert "e" in str(err.value)


def test_validator_rejects_noncommutative():
    structure = [
        [(1, 0), (0, 1)],
        [(0, 0), (2, 0)],
    ]
    with pytest.raises(NonCommutative):
        FiniteFreeAlgebra(QQ, 2, structure, (1, 0))


def test_validator_rejects_bad_unit():
    structure = [
        [(1, 0), (0, 1)],
        [(0, 1), (2, 0)],
    ]
    with pytest.raises(BadUnit):
        FiniteFreeAlgebra(QQ, 2, structure, (0, 1))


def test_algebra_unit_inverse_and_division():
    alg = sqrt2_algebra()
    t = alg.element((0, 1))
    inv = alg.divide_exact(alg.one(), t)
    assert t * inv == alg.one()
    assert inv.coords == (0, Fraction(1, 2))
    assert alg.divide_exact(alg.element((0, 2)), t).coords == (2, 0)
    zero_div = FiniteFreeAlgebra(
        QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0)
    )  # Q[t]/(t^2)
    assert zero_div.divide_exact(zero_div.element((1, 0)), zero_div.element((0, 1))) is None


def test_algebra_divide_exact_returns_the_unique_quotient():
    # Z[u]/(u^2 - 2): u is no unit, yet 2u / u = 2 exists and is unique
    zalg = FiniteFreeAlgebra(ZZ, 2, [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (1, 0))
    u = zalg.element((0, 1))
    assert zalg.divide_exact(u * 2, u).coords == (2, 0)
    assert zalg.divide_exact(zalg.one(), u) is None
    # Q[s][u]/(u^2 - s): s*u / u = s
    alg = t2_minus_s_algebra()
    s = alg.base.variable("s")
    u = alg.basis_elem(1)
    assert alg.divide_exact(u * s, u) == alg.one() * s
    # Q[e]/(e^2): e = e * 1 = e * (1 + e), so e / e has no unique answer
    dual = FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))
    e = dual.basis_elem(1)
    assert e * dual.one() == e * (dual.one() + e)
    assert dual.divide_exact(e, e) is None


def test_algebra_map_evaluation():
    alg = sqrt2_algebra()
    ring = PolyRing(QQ, ("t",))
    f = AlgebraMap(ring, alg, [(0, 1)])
    assert f(ring.parse("t^2")).coords == (2, 0)
    assert f(ring.parse("t^2-2")) == alg.zero()
    assert f(ring.parse("(t+1)^2")).coords == (3, 2)
    p, q = ring.parse("t^2+3*t"), ring.parse("2*t-1")
    assert f(p * q) == f(p) * f(q)


def test_algebra_map_scalar_mismatch():
    alg = sqrt2_algebra()
    ring = PolyRing(GF(5), ("t",))
    with pytest.raises(RingMismatch):
        AlgebraMap(ring, alg, [(0, 1)])


def test_validator_rejects_commutative_nonassociative():
    # commutative with a unit, so only the associativity check can refuse
    # it, and it names the first failing triple as it did on every triple
    z, o = 0, 1
    structure = [
        [(o, z, z), (z, o, z), (z, z, o)],
        [(z, o, z), (z, z, o), (o, z, z)],
        [(z, z, o), (o, z, z), (z, z, z)],
    ]
    assert all(structure[i][j] == structure[j][i] for i in range(3) for j in range(3))
    with pytest.raises(NonAssociative) as err:
        FiniteFreeAlgebra(QQ, 3, structure, (1, 0, 0))
    assert str(err.value) == "(e2*e2)*e3 != e2*(e2*e3)"


def first_nonassociative_triple(structure):
    # the validator's old loop over every triple (i, j, k), on plain ints
    r = len(structure)

    def mul(a, b):
        return tuple(
            sum(a[i] * b[j] * structure[i][j][m] for i in range(r) for j in range(r))
            for m in range(r)
        )

    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                left = mul(mul(basis[i], basis[j]), basis[k])
                if left != mul(basis[i], mul(basis[j], basis[k])):
                    return f"(e{i + 1}*e{j + 1})*e{k + 1} != e{i + 1}*(e{j + 1}*e{k + 1})"
    return None


@st.composite
def commutative_tables(draw):
    # rank 2..4 with e1 the unit and symmetric products of the others
    r = draw(st.integers(2, 4))
    entry = st.tuples(*[st.integers(-1, 1)] * r)
    structure = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            if i == 0:
                v = tuple(int(m == j) for m in range(r))
            else:
                v = draw(entry)
            structure[i][j] = structure[j][i] = v
    return structure


@settings(max_examples=200, deadline=None)
@given(commutative_tables())
def test_associativity_check_matches_every_triple(structure):
    want = first_nonassociative_triple(structure)
    r = len(structure)
    unit = tuple(int(m == 0) for m in range(r))
    event("associative" if want is None else "refused")
    if want is None:
        assert FiniteFreeAlgebra(QQ, r, structure, unit).rank == r
    else:
        with pytest.raises(NonAssociative) as err:
            FiniteFreeAlgebra(QQ, r, structure, unit)
        assert str(err.value) == want


# -- the map by its monomial table, against the lift it replaced


def old_map(f, poly):
    # AlgebraMap.__call__ before the monomial table: every coefficient
    # lifted as one * embed(c), every power formed again per term
    E = f.target
    return evaluate_terms(poly.terms, f.images, E.zero(), lambda c: E.one() * f._embed(c))


_MAP_TARGETS = {
    "Q": lambda: monogenic(QQ, [QQ.from_int(2), QQ.from_int(-1), QQ.zero()]),
    "GF(5)": lambda: monogenic(GF(5), [3, 0, 1]),
    "Q[s]": lambda: t2_minus_s_algebra(),
    "B+": lambda: monogenic(_BPLUS, [_BPLUS.element((2, -1)), _BPLUS.zero()]),
}


@pytest.mark.parametrize("name", sorted(_MAP_TARGETS))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_monomial_table_map_matches_the_old_lift(name, data):
    E = _MAP_TARGETS[name]()
    base = E.base
    if isinstance(base, PolyRing):
        source = PolyRing(base.coeff, ("s", "t", "v"))
        images = [E.element([base.variable("s") * c for c in E.unit])]
    else:
        scalars = base.base if isinstance(base, FiniteFreeAlgebra) else base
        source = PolyRing(scalars, ("t", "v"))
        images = []
    coordinate = st.integers(-3, 3)
    if isinstance(base, PolyRing):
        coordinate = coordinate.map(base.from_int)
    elif isinstance(base, FiniteFreeAlgebra):
        coordinate = st.tuples(coordinate, coordinate).map(base.element)
    else:
        coordinate = coordinate.map(base.from_int)
    images += [
        E.element([data.draw(coordinate) for _ in range(E.rank)]) for _ in range(2)
    ]
    try:
        f = AlgebraMap(source, E, images)
    except RingMismatch:
        return  # a drawn image the spot-check refuses is no map
    exps = st.tuples(*[st.integers(0, 4)] * len(source.vars))
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3, Fraction(1, 2)))
    if source.coeff.kind == "Fp":
        coeff = st.integers(1, 4)
    p, q = (
        MultiPoly(source, data.draw(st.dictionaries(exps, coeff, max_size=5)))
        for _ in range(2)
    )
    # twice: the second call reads the monomials the first one kept
    assert f(p * q) == f(p) * f(q) == f(p * q)
    assert f(p - q) == f(p) - f(q)
    if name != "B+":
        # the old lift multiplied E's one by an element of E's base, which
        # an algebra base refuses as an element of another algebra
        for poly in (p, q, p * q):
            want = old_map(f, poly)
            assert f(poly) == want and f(poly).coords == want.coords


# -- plain decimal literals skip the tokenizer


def tokenizer_route(text, parent):
    # parse_expression before the literal path
    return _ExprParser(_tokenize(text), parent).parse()


def _outcome(route, *args):
    try:
        return route(*args)
    except ParseError as e:
        return ParseError, str(e)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789٣１²", min_size=1, max_size=6))
def test_literal_path_matches_the_tokenizer_route(text):
    # Arabic-Indic and fullwidth digits are decimal and read as ints; a
    # superscript two is a digit but not decimal, so it still reaches the
    # tokenizer and fails there as before
    event("decimal" if text.isdecimal() else "to the tokenizer")
    for scalars in (QQ, GF(5)):
        ring = PolyRing(scalars, ("t",))
        want = _outcome(tokenizer_route, text, ring)
        assert _outcome(parse_expression, text, ring) == want
        constant = want if isinstance(want, tuple) else want.constant()
        assert _outcome(scalars.parse, text) == constant
    assert _outcome(QQ.parse, "٣") == 3 and _outcome(QQ.parse, "１") == 1
    assert _outcome(QQ.parse, "²")[0] is ParseError


def test_a_long_literal_raises_the_tokenizer_text():
    # 5000 digits pass the int-conversion limit on both routes alike
    text = "1" * 5000
    ring = PolyRing(QQ, ("t",))
    kind, message = _outcome(tokenizer_route, text, ring)
    assert kind is ParseError and message.startswith("number literal too long")
    assert _outcome(parse_expression, text, ring) == (kind, message)
    assert _outcome(QQ.parse, text) == (kind, message)
    assert _outcome(GF(5).parse, text) == (kind, message)
