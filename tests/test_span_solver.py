"""Localized fractions, coordinates and the basis validator."""

import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import altkit
from altkit import span_solver
from altkit.alternator import (
    AlternatorInstance,
    alpha,
    alpha_map,
    alpha_orbits,
    divide_orbits,
    divide_symmetric,
    expand_orbits,
    expand_symmetric,
    flat_orbits,
    multiply_symmetric,
    random_invariant,
    signed_orbits,
    symmetric_orbits,
    wedge_orbits,
)
from altkit.cli import make_suite_config, run_suite
from altkit.errors import (
    ContextMismatch,
    NonCommutative,
    NotInvariant,
    RingMismatch,
    UnsupportedAmbient,
    VerificationFailed,
)
from altkit.norm_universal import trace_formula_check
from altkit.ring_core import GF, QQ, ZZ, FiniteFreeAlgebra, MultiPoly, PolyRing
from altkit.span_solver import (
    LocalizedElem,
    LocalizedScalars,
    coordinates,
    coordinates_of_invariant,
    r_algebra,
    structure_constants_R,
    tensor_divide_exact,
)
from altkit.tensor_algebra import (
    Tensor,
    TensorSpace,
    coprojection,
    polarized_power_sum,
    pure_tensor,
    unit_tensor,
)


def qt_context(n):
    ring = PolyRing(QQ, ("t",))
    t = ring.variable("t")
    space = TensorSpace(n, ring)
    return space, AlternatorInstance(space, [t**i for i in range(n)]), t


# -- localized element arithmetic


def test_zero_numerator_collapses_exponent():
    space, ctx, t = qt_context(2)
    z = LocalizedElem(ctx, space.zero(), 3)
    assert z.exp == 0
    assert not z
    assert z == 0


def test_rejects_wrong_space():
    space, ctx, t = qt_context(2)
    other_space = TensorSpace(3, space.ring)
    with pytest.raises(ContextMismatch):
        LocalizedElem(ctx, unit_tensor(other_space), 0)


def test_invariance_guard_on_construction():
    space, ctx, t = qt_context(3)
    skew = pure_tensor(space, [t, space.ring.one(), space.ring.one()])
    with pytest.raises(NotInvariant):
        LocalizedElem(ctx, skew, 0)
    # invariant in the first two slots only, which is not enough
    partial = pure_tensor(space, [t, t, t * t])
    with pytest.raises(NotInvariant):
        LocalizedElem(ctx, partial, 0)


def test_context_mixing_rejected():
    space, ctx, t = qt_context(2)
    ctx2 = AlternatorInstance(space, [t, t * t])
    with pytest.raises(ContextMismatch):
        LocalizedElem.from_scalar(ctx, 1) + LocalizedElem.from_scalar(ctx2, 1)


def test_equality_by_cross_multiplication():
    space, ctx, t = qt_context(2)
    tt = pure_tensor(space, [t, t])
    plain = LocalizedElem(ctx, tt, 0)
    padded = LocalizedElem(ctx, tt * ctx.alpha_sq, 1)
    assert plain == padded
    assert padded.normalize().exp == 0
    assert padded.normalize().num == tt
    assert plain != LocalizedElem(ctx, tt + tt, 0)


def test_addition_promotes_to_common_exponent():
    space, ctx, t = qt_context(2)
    tt = pure_tensor(space, [t, t])
    a = LocalizedElem(ctx, tt, 0)
    b = LocalizedElem(ctx, tt * ctx.alpha_sq, 1)
    s = a + b
    assert s.exp == 1
    assert s == LocalizedElem(ctx, tt + tt, 0)
    assert (a - b) == 0
    assert (a + LocalizedElem.zero(ctx)).normalize().exp == 0


def test_scalar_action_and_text():
    space, ctx, t = qt_context(2)
    a = LocalizedElem.from_scalar(ctx, 3)
    assert (a * 2) == LocalizedElem.from_scalar(ctx, 6)
    assert (2 * a) == LocalizedElem.from_scalar(ctx, 6)
    frac = LocalizedElem(ctx, ctx.alpha_sq * ctx.alpha_sq, 1)
    assert "asq^" not in frac.normalize().to_text()
    raw = LocalizedElem(ctx, pure_tensor(space, [t, t]), 1)
    assert raw.to_text().endswith("/ asq^1")


@pytest.mark.parametrize("k", [0, 1, -3])
def test_plain_ints_are_scalar_fractions(k):
    # an int on either side of ==, + and - stands for from_scalar(ctx, k),
    # also when the fraction carries a square power
    space, ctx, t = qt_context(2)
    a = LocalizedElem.from_scalar(ctx, k)
    padded = LocalizedElem(ctx, a.num * ctx.alpha_sq, 1)
    for frac in (a, padded):
        assert frac == k
        assert k == frac
        assert frac != k + 1
        assert k + 1 != frac
    tt = LocalizedElem(ctx, pure_tensor(space, [t, t]), 0)
    assert tt + k == tt + a
    assert k + tt == tt + a
    assert padded + k == LocalizedElem.from_scalar(ctx, 2 * k)
    assert k + padded == 2 * k
    assert (tt + k) - k == tt
    assert k - tt == -(tt - k)
    assert k - padded == 0


def test_multiplication_divides_out_square_factors():
    space, ctx, t = qt_context(2)
    c = coordinates(ctx, t * t)
    prod = c[0] * c[1]
    assert prod.exp <= 1


def test_tensor_division_agrees_with_multiplication():
    space, ctx, t = qt_context(2)
    rng = random.Random(11)
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        f = space.zero()
        for k, c in enumerate(coeffs):
            if c:
                f = f + pure_tensor(space, [t**(k % 2), t**(k // 2)]).scale(c)
        prod = f * ctx.alpha_sq
        if not f:
            continue
        assert tensor_divide_exact(prod, ctx.alpha_sq) == f
    # non-divisible case
    assert tensor_divide_exact(pure_tensor(space, [t, t]), ctx.alpha_sq) is None


def test_algebra_ambient_is_rejected():
    structure = (((1, 0), (0, 1)), ((0, 1), (2, 0)))
    alg = FiniteFreeAlgebra(QQ, 2, structure, (1, 0))
    space = TensorSpace(2, alg)
    ctx = AlternatorInstance(space, [alg.one(), alg.basis_elem(1)])
    with pytest.raises(UnsupportedAmbient):
        LocalizedElem.from_scalar(ctx, 1)
    with pytest.raises(UnsupportedAmbient):
        LocalizedElem.zero(ctx)
    with pytest.raises(UnsupportedAmbient):
        coordinates(ctx, alg.one())


# -- coordinates of ring elements


def test_coordinates_of_square_golden():
    space, ctx, t = qt_context(2)
    c = coordinates(ctx, t * t)
    assert isinstance(c, tuple)
    assert len(c) == 2
    assert c[0].exp == 0 and c[1].exp == 0
    assert c[0].num == -pure_tensor(space, [t, t])
    assert c[1].num == polarized_power_sum(space, t)


def test_coordinates_of_basis_elements_are_unit_vectors():
    space, ctx, t = qt_context(2)
    one = LocalizedElem.from_scalar(ctx, 1)
    zero = LocalizedElem.zero(ctx)
    c1 = coordinates(ctx, space.ring.one())
    assert c1[0] == one and c1[1] == zero
    ct = coordinates(ctx, t)
    assert ct[0] == zero and ct[1] == one


def test_coordinates_reconstruction_random():
    rng = random.Random(7)
    for scalars, n in ((QQ, 2), (QQ, 3), (GF(5), 2), (GF(5), 3)):
        ring = PolyRing(scalars, ("t",))
        t = ring.variable("t")
        space = TensorSpace(n, ring)
        ctx = AlternatorInstance(space, [t**i for i in range(n)])
        for _ in range(8):
            z = ring.zero()
            for d in range(4):
                c = rng.randint(-2, 2)
                if c:
                    z = z + ring.embed_scalar(scalars.from_int(c)) * t**d
            coords = coordinates(ctx, z)
            lhs = space.zero()
            for entry, phi in zip(coords, ctx.phi_n_x):
                lhs = lhs + entry.num * phi * ctx.alpha_sq ** (1 - entry.exp)
            assert lhs == coprojection(space, n, z) * ctx.alpha_sq


def test_coordinates_two_variable_ambient():
    ring = PolyRing(QQ, ("u", "v"))
    u, v = ring.variable("u"), ring.variable("v")
    space = TensorSpace(2, ring)
    ctx = AlternatorInstance(space, [ring.one(), u + v])
    c = coordinates(ctx, u * v)
    lhs = space.zero()
    for entry, phi in zip(c, ctx.phi_n_x):
        lhs = lhs + entry.num * phi * ctx.alpha_sq ** (1 - entry.exp)
    assert lhs == coprojection(space, 2, u * v) * ctx.alpha_sq


# -- coordinates of partially invariant tensors


def test_invariant_coordinates_golden():
    space, ctx, t = qt_context(2)
    y = pure_tensor(space, [space.ring.one(), t])  # vacuously partial-invariant
    c = coordinates_of_invariant(ctx, y)
    assert c[0] == LocalizedElem.zero(ctx)
    assert c[1] == LocalizedElem.from_scalar(ctx, 1)


def test_invariant_coordinates_reject_noninvariant():
    space, ctx, t = qt_context(3)
    y = pure_tensor(space, [t, space.ring.one(), space.ring.one()])
    with pytest.raises(NotInvariant):
        coordinates_of_invariant(ctx, y)


def test_invariant_coordinates_reconstruction_random():
    rng = random.Random(19)
    for scalars, n in ((QQ, 2), (QQ, 3), (GF(5), 3)):
        ring = PolyRing(scalars, ("t",))
        t = ring.variable("t")
        space = TensorSpace(n, ring)
        ctx = AlternatorInstance(space, [t**i for i in range(n)])
        for _ in range(6):
            # symmetrize a random seed tensor over the first n-1 slots
            seed = pure_tensor(space, [t ** rng.randint(0, 2) for _ in range(n)])
            y = space.zero()
            from altkit.tensor_algebra import Permutation, all_signed_permutations

            for perm, _sign in all_signed_permutations(n - 1):
                ext = Permutation(tuple(perm.images) + (n - 1,))
                y = y + seed.permute(ext)
            coords = coordinates_of_invariant(ctx, y)
            lhs = space.zero()
            for entry, phi in zip(coords, ctx.phi_n_x):
                lhs = lhs + entry.num * phi * ctx.alpha_sq ** (1 - entry.exp)
            assert lhs == y * ctx.alpha_sq


# -- the direct division by alpha(x) against the route through the square


def _route_through_square(ctx, num):
    # the former coordinate route, kept as the oracle: numerator times
    # alpha(x) over the alternator square, then normalized
    return LocalizedElem(ctx, num * ctx.alpha_x, 1).normalize()


def _assert_matches_square_route(ctx, z, y):
    """Compare both coordinate routines entry by entry; return the
    exponents the entries of z came out at."""
    space, n = ctx.space, ctx.space.n
    exps = set()
    for i, entry in enumerate(coordinates(ctx, z), start=1):
        old = _route_through_square(ctx, alpha(space, ctx.x_replaced(i, z)))
        assert entry.num.terms == old.num.terms and entry.exp == old.exp
        exps.add(entry.exp)
    for i, entry in enumerate(coordinates_of_invariant(ctx, y), start=1):
        num = alpha_map(ctx.x_dropped(i) * y)
        old = _route_through_square(ctx, -num if (n - i) % 2 else num)
        assert entry.num.terms == old.num.terms and entry.exp == old.exp
    return exps


_UV_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    min_size=1,
    max_size=2,
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([QQ, GF(5)]),
    st.integers(2, 3),
    st.lists(_UV_TERMS, min_size=4, max_size=4),
    st.integers(0, 2**32),
)
def test_direct_division_matches_square_route(scalars, n, polys, seed):
    ring = PolyRing(scalars, ("u", "v"))
    space = TensorSpace(n, ring)
    elems = [
        MultiPoly(ring, {k: scalars.from_int(c) for k, c in p.items()})
        for p in polys
    ]
    ctx = AlternatorInstance(space, elems[:n])
    y = random_invariant(random.Random(seed), space, 1, full=False)
    for exp in _assert_matches_square_route(ctx, elems[n], y):
        event(f"an entry at exponent {exp}")


@pytest.mark.parametrize("scalars", [QQ, GF(5)])
def test_direct_division_matches_square_route_on_fixed_anchors(scalars):
    ring = PolyRing(scalars, ("t",))
    t = ring.variable("t")
    rng = random.Random(3)
    anchors = {
        "vandermonde": [t**i for i in range(5)],
        "degenerate": [t, t],  # alpha(x) = 0
        "not_dividing": [t * t, t],
    }
    exps = {}
    for name, xs in anchors.items():
        space = TensorSpace(len(xs), ring)
        ctx = AlternatorInstance(space, xs)
        assert bool(ctx.alpha_x) == (name != "degenerate")
        z = t**3 + ring.embed_scalar(scalars.from_int(2))
        y = random_invariant(rng, space, 1, full=False)
        exps[name] = _assert_matches_square_route(ctx, z, y)
    assert exps == {"vandermonde": {0}, "degenerate": {0}, "not_dividing": {1}}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([QQ, GF(5)]),
    st.integers(2, 3),
    st.lists(_UV_TERMS, min_size=4, max_size=4),
    st.integers(0, 2**32),
)
def test_trusted_constructions_are_fully_invariant(scalars, n, polys, seed):
    # every fraction built from orbits skips the invariance check; rebuilt
    # through the checking constructor, none may raise NotInvariant
    ring = PolyRing(scalars, ("u", "v"))
    space = TensorSpace(n, ring)
    elems = [
        MultiPoly(ring, {k: scalars.from_int(c) for k, c in p.items()})
        for p in polys
    ]
    ctx = AlternatorInstance(space, elems[:n])
    rng = random.Random(seed)
    y = random_invariant(rng, space, 1, full=False)
    entries = [*coordinates(ctx, elems[n]), *coordinates_of_invariant(ctx, y)]
    for row in structure_constants_R(ctx):
        for coords in row:
            entries.extend(coords)
    a, b = rng.choice(entries), rng.choice(entries)
    witness = trace_formula_check(ctx, elems[n])
    entries += [a + b, a * b, witness.lhs, witness.rhs]
    for e in entries:
        LocalizedElem(ctx, e.num, e.exp)


def test_vandermonde_checks_never_build_the_square():
    for scalars in (QQ, GF(5)):
        ring = PolyRing(scalars, ("t",))
        t = ring.variable("t")
        space = TensorSpace(4, ring)
        ctx = AlternatorInstance(space, [t**i for i in range(4)])
        assert "alpha_sq" not in ctx.__dict__
        z = t**5 - t
        coordinates(ctx, z)
        coordinates_of_invariant(ctx, pure_tensor(space, [t, t, t, t * t]))
        assert trace_formula_check(ctx, z).ok
        assert "alpha_sq" not in ctx.__dict__
        # read on demand, and then kept
        assert ctx.alpha_sq == ctx.alpha_x * ctx.alpha_x
        assert ctx.alpha_sq is ctx.__dict__["alpha_sq"]


def test_fraction_arithmetic_never_builds_the_full_square():
    # padding, products and normalize read the square's orbits, and those
    # are taken on orbits too, on an anchor whose entries are no powers
    ring = PolyRing(QQ, ("t",))
    t = ring.variable("t")
    space = TensorSpace(3, ring)
    ctx = AlternatorInstance(space, [ring.one(), t**2 + t, t**4 + t])
    rng = random.Random(0)
    a = LocalizedElem(ctx, random_invariant(rng, space, 2), 0)
    b = LocalizedElem(ctx, random_invariant(rng, space, 2), 1)
    assert (a + b).exp == 1 and (a + b) - b == a
    assert (a * b).exp == 1 and a * b * b == b * (a * b)
    square = multiply_symmetric(space, a._orbits, ctx.alpha_sq_orbits)
    padded = LocalizedElem._from_orbits(ctx, square, 1)
    assert padded.normalize().exp == 0 and padded.normalize() == a
    assert "alpha_sq" not in ctx.__dict__


def _square_anchors():
    for scalars in (QQ, GF(2), GF(5)):
        ring = PolyRing(scalars, ("t",))
        t = ring.variable("t")
        yield TensorSpace(3, ring), [ring.one(), t**2 + t, t**4 + t]
        yield TensorSpace(4, ring), [t**i for i in range(4)]
    ring = PolyRing(QQ, ("s", "t"))
    s, t = ring.variable("s"), ring.variable("t")
    xs = [ring.one(), s * t**2 + 3 * s * t, s**2 * t, t**2, s**2 * t**2]
    yield TensorSpace(5, ring), xs


@pytest.mark.parametrize("space, xs", list(_square_anchors()))
def test_square_orbits_equal_the_full_square(space, xs):
    # alpha(x)^2 on orbits is symmetric_orbits of the full-tensor square,
    # key for key and type for type
    ctx = AlternatorInstance(space, xs)
    want = symmetric_orbits(ctx.alpha_x * ctx.alpha_x)
    exact = {k: (type(c), c) for k, c in want.items()}
    assert {k: (type(c), c) for k, c in ctx.alpha_sq_orbits.items()} == exact
    assert want


@pytest.mark.parametrize("scalars", [QQ, ZZ, GF(5)])
def test_scalar_action_takes_what_coerce_takes(scalars):
    # a fraction times a scalar scales its numerator, for exactly the
    # values the ring's coerce takes; 5 is zero in GF(5)
    ring = PolyRing(scalars, ("t",))
    t = ring.variable("t")
    space = TensorSpace(2, ring)
    ctx = AlternatorInstance(space, [ring.one(), t])
    a = LocalizedElem(ctx, pure_tensor(space, [t, t]), 1)
    assert (a * 2)._orbits == {(1, 1): 2} and (2 * a).exp == 1
    if scalars is QQ:
        half = a * Fraction(1, 2)
        assert half._orbits == {(1, 1): Fraction(1, 2)} and half.exp == 1
        assert half + half == a
    else:
        with pytest.raises(RingMismatch):
            a * Fraction(1, 2)
    if scalars is GF(5):
        assert not a * 5 and (a * 5).exp == 0
    for c in (0.5, True, "2"):
        with pytest.raises(RingMismatch):
            a * c


# -- sums and compares on orbits


def _asq_times(ctx, num, k):
    for _ in range(k):
        num = num * ctx.alpha_sq
    return num


def full_sum(a, b):
    # LocalizedElem.__add__ before orbit sums: both numerators as full
    # tensors, raised to the larger exponent and added
    ctx, m = a.ctx, max(a.exp, b.exp)
    num = _asq_times(ctx, a.num, m - a.exp) + _asq_times(ctx, b.num, m - b.exp)
    return LocalizedElem(ctx, num, m)


def full_equal(a, b):
    # LocalizedElem.__eq__ before orbit compares: cross-multiplication
    ctx = a.ctx
    return _asq_times(ctx, a.num, b.exp) == _asq_times(ctx, b.num, a.exp)


def exact_terms(t):
    return {k: (type(c), c) for k, c in t.terms.items()}


@st.composite
def fraction_pairs(draw):
    """Two fractions over one anchor, each at exponent 0 or 1, each held
    as a full tensor or by its orbits; the second is often the first, its
    negative or the first padded by a square."""
    scalars = draw(st.sampled_from([QQ, ZZ, GF(5)]))
    n = draw(st.integers(2, 3))
    ring = PolyRing(scalars, ("t",))
    space = TensorSpace(n, ring)
    label = st.tuples(st.integers(0, 3))
    coeff = st.sampled_from((-2, -1, 1, 2)).map(scalars.from_int)
    xs = [
        MultiPoly(ring, draw(st.dictionaries(label, coeff, min_size=1, max_size=2)))
        for _ in range(n)
    ]
    ctx = AlternatorInstance(space, xs)
    assume(ctx.alpha_x_orbits)
    rng = random.Random(draw(st.integers(0, 2**32)))

    def fraction(num, exp):
        if draw(st.booleans()):
            return LocalizedElem._from_orbits(ctx, symmetric_orbits(num), exp)
        return LocalizedElem(ctx, num, exp)

    num = random_invariant(rng, space, 1, full=True)
    exp = draw(st.integers(0, 1))
    a = fraction(num, exp)
    kind = draw(st.sampled_from(("other", "same", "negative", "padded")))
    if kind == "other":
        b = fraction(random_invariant(rng, space, 1, full=True), draw(st.integers(0, 1)))
    elif kind == "same":
        b = fraction(num, exp)
    elif kind == "negative":
        b = fraction(-num, exp)
    else:
        b = fraction(num * ctx.alpha_sq, exp + 1)
    return kind, a, b


@settings(max_examples=200, deadline=None)
@given(fraction_pairs())
def test_orbit_sums_and_compares_match_full_tensors(case):
    # add and == run on sorted-key coefficients, the operand at the lower
    # exponent padded by the square; they must agree with the full-tensor
    # route over Q, Z and GF(5)
    kind, a, b = case
    event(kind)
    event("equal exponents" if a.exp == b.exp else "unequal exponents")
    # the first pair runs on the forms as drawn; the oracles then expand
    # every numerator, so the second runs with both forms at hand
    for x, y in ((a, b), (b, a)):
        got, diff, same = x + y, x - y, x == y
        equal = full_equal(x, y)
        if kind in ("same", "padded"):
            assert equal
        want = full_sum(x, y)
        assert got.exp == want.exp
        assert exact_terms(got.num) == exact_terms(want.num)
        assert (got == 0) is (not want.num)
        assert same is equal
        assert (diff == 0) is equal


# -- the re-check through the quotients, on orbits of the first n-1 slots


@st.composite
def recheck_cases(draw):
    """A non-monomial anchor over Q[u, v] or GF(5)[u, v] with alpha(x) != 0,
    and symmetric tensors q_1..q_n by their coefficients at sorted keys."""
    scalars = draw(st.sampled_from([QQ, GF(5)]))
    n = draw(st.integers(2, 4))
    ring = PolyRing(scalars, ("u", "v"))
    space = TensorSpace(n, ring)
    label = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3)).map(scalars.from_int)

    def poly(low):
        terms = draw(st.dictionaries(label, coeff, min_size=low, max_size=2))
        return MultiPoly(ring, terms)

    ctx = AlternatorInstance(space, [poly(2)] + [poly(1) for _ in range(n - 1)])
    assume(ctx.alpha_x_orbits)
    small = st.tuples(st.integers(0, 1), st.integers(0, 1))
    slots = st.lists(small, min_size=n, max_size=n)
    key = slots.map(lambda ls: sum(sorted(ls, reverse=True), ()))
    orbits = st.dictionaries(key, coeff, max_size=2)
    return ctx, [draw(orbits) for _ in range(n)]


def strict_heads(space, key):
    # the first n-1 slots of a flat key strictly descend
    slots = [key[j : j + space.width] for j in range(0, space.n * space.width, space.width)]
    return all(a > b for a, b in zip(slots[: space.n - 2], slots[1 : space.n - 1]))


def full_expansion(ctx, quots):
    # sum q_i * phi_n(x_i) on full tensors
    lhs = ctx.space.zero()
    for q, phi in zip(quots, ctx.phi_n_x):
        lhs = lhs + expand_symmetric(ctx.space, q) * phi
    return lhs


@settings(max_examples=60, deadline=None)
@given(recheck_cases())
def test_orbit_recheck_matches_full_reconstruction(case):
    # the orbit check reads the full reconstruction at the keys whose
    # first n-1 slots descend, and those keys fix it
    ctx, quots = case
    space = ctx.space
    full = full_expansion(ctx, quots)
    heads = span_solver._expansion_heads(space, quots, ctx.x_terms)
    assert heads == {
        k: c for k, c in full.terms.items() if span_solver._heads_descend(space, k)
    }
    event("zero" if not full else "nonzero")
    # so a y built from the quotients gives them back as its coordinates,
    # each expanded when read, and equal to the eager tensor
    entries = coordinates_of_invariant(ctx, full)
    for entry, q in zip(entries, quots):
        assert entry.exp == 0 and entry._orbits == q
        eager = LocalizedElem(ctx, expand_symmetric(space, q), 0)
        assert entry.num == eager.num
        assert entry == eager


def oracle_expansion_heads(ctx, quots):
    # _expansion_heads before its head-key table: the keys are rebuilt
    # for every term of every quotient
    space = ctx.space
    n, w = space.n, space.width
    acc = {}
    for q, terms in zip(quots, ctx.x_terms):
        for lam, c in q.items():
            for j in range(0, n * w, w):
                v = lam[j : j + w]
                if lam[j + w : j + 2 * w] == v:
                    continue
                head = lam[:j] + lam[j + w :]
                for label, a in terms:
                    k = head + tuple(map(operator.add, v, label))
                    m = c * a
                    s = acc.get(k)
                    acc[k] = m if s is None else s + m
    norm = space.scalars.normalize
    return {k: c for k, c in ((k, norm(c)) for k, c in acc.items()) if c}


@settings(max_examples=60, deadline=None)
@given(recheck_cases())
def test_expansion_heads_match_the_replaced_loop(case):
    ctx, quots = case
    got = span_solver._expansion_heads(ctx.space, quots, ctx.x_terms)
    want = oracle_expansion_heads(ctx, quots)
    event("zero" if not want else "nonzero")
    assert {k: (type(c), c) for k, c in got.items()} == {
        k: (type(c), c) for k, c in want.items()
    }


_Z_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from((-2, -1, 1, 2)),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(recheck_cases(), _Z_TERMS)
def test_coordinate_heads_are_the_coprojection_heads(case, terms):
    # coordinates() hands the check z's terms behind the unit prefix; they
    # are the co-projection's terms whose first n-1 slots descend.  The
    # fallback check reads the co-projection times alpha(x) where those
    # slots strictly descend, built on orbits with no full co-projection
    ctx, _ = case
    space = ctx.space
    z = MultiPoly(space.ring, {k: space.scalars.from_int(c) for k, c in terms.items()})
    seen = []
    real = span_solver._over_alpha

    def spy(ctx, nums, heads, target, failure):
        seen.append((heads, target))
        return real(ctx, nums, heads, target, failure)

    span_solver._over_alpha = spy
    try:
        coordinates(ctx, z)
    finally:
        span_solver._over_alpha = real
    [(heads, target)] = seen
    full = coprojection(space, space.n, z)
    assert target() == {
        k: c
        for k, c in (full * ctx.alpha_x).terms.items()
        if strict_heads(space, k)
    }
    assert heads == {
        k: c for k, c in full.terms.items() if span_solver._heads_descend(space, k)
    }


@settings(max_examples=60, deadline=None)
@given(recheck_cases(), st.data())
def test_orbit_recheck_catches_any_corrupted_coefficient(case, data):
    ctx, quots = case
    space = ctx.space
    y = full_expansion(ctx, quots)
    n = space.n
    # one coefficient of one quotient, at a key it has or a new one
    i = data.draw(st.integers(0, n - 1))
    known = sorted(quots[i])
    label = st.tuples(st.integers(0, 2), st.integers(0, 2))
    slots = st.lists(label, min_size=n, max_size=n)
    keys = slots.map(lambda ls: sum(sorted(ls, reverse=True), ()))
    if known and data.draw(st.booleans()):
        keys = st.sampled_from(known)
    key = data.draw(keys)
    delta = data.draw(st.sampled_from((1, 2, -1)).map(space.scalars.from_int))
    bad = dict(quots[i])
    c = space.scalars.normalize(bad.get(key, 0) + delta)
    if c:
        bad[key] = c
    else:
        del bad[key]
    corrupted = quots[:i] + [bad] + quots[i + 1 :]
    # the full reconstruction sees the corruption, and so must the check
    assert full_expansion(ctx, corrupted) != y
    real = span_solver.divide_orbits
    calls = []

    def divide(space, num, den):
        calls.append(num)
        q = real(space, num, den)
        return bad if len(calls) == i + 1 else q

    span_solver.divide_orbits = divide
    try:
        with pytest.raises(VerificationFailed):
            coordinates_of_invariant(ctx, y)
    finally:
        span_solver.divide_orbits = real


def test_passing_basis_cases_expand_no_quotient(monkeypatch):
    # basis reads no entry, so no quotient may be expanded; trace_formula
    # adds one entry of each coordinate vector and compares the sum on
    # orbits, so a passing case expands none either
    expanded = []

    def record(space, orbits):
        expanded.append(space.n)
        return expand_symmetric(space, orbits)

    monkeypatch.setattr(span_solver, "expand_symmetric", record)
    for ring in ("q", "fp:5"):
        config = make_suite_config(cases=3, n="2,3,4,5", identities="basis", ring=ring)
        assert run_suite(config)["failures_total"] == 0
    assert expanded == []
    space, ctx, t = qt_context(4)
    assert trace_formula_check(ctx, t**5 + 2).ok
    assert expanded == []


# -- structure constants and the validated basis algebra


def test_structure_constants_golden_n2():
    space, ctx, t = qt_context(2)
    c = structure_constants_R(ctx)
    one = LocalizedElem.from_scalar(ctx, 1)
    zero = LocalizedElem.zero(ctx)
    assert c[0][0] == (one, zero)
    assert c[0][1] == (zero, one)
    assert c[0][1] == c[1][0]
    tt = LocalizedElem(ctx, -pure_tensor(space, [t, t]), 0)
    ps = LocalizedElem(ctx, polarized_power_sum(space, t), 0)
    assert c[1][1] == (tt, ps)


def test_r_algebra_passes_validator():
    for n in (2, 3):
        space, ctx, t = qt_context(n)
        alg = r_algebra(ctx)
        assert alg.rank == n
        # multiplication in the validated algebra matches raw coordinates
        prod = alg.mul_vec(alg.basis_elem(n - 1).coords, alg.basis_elem(n - 1).coords)
        direct = coordinates(ctx, ctx.x[n - 1] * ctx.x[n - 1])
        assert all(p == d for p, d in zip(prod, direct))


def test_r_algebra_validator_rejects_tampering():
    space, ctx, t = qt_context(2)
    c = [list(map(list, row)) for row in structure_constants_R(ctx)]
    c[0][1], c[1][0] = list(coordinates(ctx, t)), list(coordinates(ctx, t * t))
    unit = coordinates(ctx, space.ring.one())
    with pytest.raises(NonCommutative):
        FiniteFreeAlgebra(LocalizedScalars(ctx), 2, c, unit)


def test_r_algebra_trace_is_power_sum():
    space, ctx, t = qt_context(2)
    alg = r_algebra(ctx)
    tr = alg.trace(alg.basis_elem(1))
    expected = LocalizedElem(ctx, polarized_power_sum(space, t), 0)
    assert tr == expected


# -- torsion in the co-projections


def test_torsion_relation_over_nilpotent_algebra():
    # GF(2)[t]/(t^2): t tensor t kills the co-projection of t, so a
    # nonzero invariant relation exists and the alternator absorbs it
    structure = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    alg = FiniteFreeAlgebra(GF(2), 2, structure, (1, 0))
    t = alg.basis_elem(1)
    space = TensorSpace(2, alg)
    ctx = AlternatorInstance(space, [alg.one(), t])
    a2 = pure_tensor(space, [t, t])
    assert a2 * ctx.phi_n_x[1] == space.zero()
    assert a2 * ctx.alpha_x == space.zero()


_OPTIMIZE_PRELUDE = """
import sys
from altkit import span_solver
from altkit.alternator import AlternatorInstance
from altkit.cli import make_suite_config, run_suite
from altkit.errors import VerificationFailed
from altkit.ring_core import QQ, PolyRing
from altkit.tensor_algebra import TensorSpace, pure_tensor

stripped = True
try:
    assert False
except AssertionError:
    stripped = False
print("optimize", sys.flags.optimize, stripped)
ring = PolyRing(QQ, ("t",))
t = ring.variable("t")


def doubled(orbits):
    return {k: 2 * c for k, c in orbits.items()}
"""

# each script doubles the numerators of one coordinate routine at the
# step that builds them, so the reconstruction check must fail
_BROKEN_ALPHA_SCRIPT = _OPTIMIZE_PRELUDE + """
real = span_solver.wedge_orbits
span_solver.wedge_orbits = lambda space, w, terms: doubled(real(space, w, terms))
ctx = AlternatorInstance(TensorSpace(2, ring), [ring.one(), t])
try:
    span_solver.coordinates(ctx, t * t)
except VerificationFailed as e:
    print("raised", type(e).__name__)
report = run_suite(make_suite_config(cases=2, n="2", identities="basis"))
print("row", report["failures_total"], report["suites"][0]["failures"][0]["lhs"])
"""

_BROKEN_INVARIANT_SCRIPT = _OPTIMIZE_PRELUDE + """
real = span_solver.signed_orbits
span_solver.signed_orbits = lambda t, fix_last=False: doubled(real(t, fix_last))
space = TensorSpace(3, ring)
ctx = AlternatorInstance(space, [ring.one(), t, t * t])
try:
    span_solver.coordinates_of_invariant(ctx, pure_tensor(space, [t, t, t * t]))
except VerificationFailed as e:
    print("raised", type(e).__name__)
report = run_suite(make_suite_config(cases=2, n="3", identities="basis"))
print("row", report["failures_total"], report["suites"][0]["failures"][0]["lhs"])
"""

# alpha(x) = t^2 (x) t - t (x) t^2 does not divide the entries of
# t^3 + 2, so the check runs on the numerators' orbits
_BROKEN_FALLBACK_SCRIPT = _OPTIMIZE_PRELUDE + """
ctx = AlternatorInstance(TensorSpace(2, ring), [t * t, t])
z = t**3 + 2
print("exponents", [e.exp for e in span_solver.coordinates(ctx, z)])
real = span_solver.wedge_orbits
span_solver.wedge_orbits = lambda space, w, terms: doubled(real(space, w, terms))
try:
    span_solver.coordinates(ctx, z)
except VerificationFailed as e:
    print("raised", type(e).__name__, e)
"""


def _run_optimized(script):
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_broken_reconstruction_raises_under_optimize():
    # python -O strips assert statements; the reconstruction check must
    # still fire, both directly and inside a basis suite row
    assert _run_optimized(_BROKEN_ALPHA_SCRIPT) == [
        "optimize 1 True",
        "raised VerificationFailed",
        "row 2 VerificationFailed: coordinate expansion failed to "
        "reconstruct the input",
    ]


def test_broken_invariant_reconstruction_raises_under_optimize():
    assert _run_optimized(_BROKEN_INVARIANT_SCRIPT) == [
        "optimize 1 True",
        "raised VerificationFailed",
        "row 2 VerificationFailed: invariant expansion failed to reconstruct",
    ]


def test_broken_fallback_reconstruction_raises_under_optimize():
    assert _run_optimized(_BROKEN_FALLBACK_SCRIPT) == [
        "optimize 1 True",
        "exponents [1, 1]",
        "raised VerificationFailed coordinate expansion failed to "
        "reconstruct the input",
    ]


# -- products, scalar action, padding and normalize on orbits


def full_normalize(a):
    # LocalizedElem.normalize before orbit division: the full numerator
    # divided by the full square while it divides
    num, exp = a.num, a.exp
    while exp:
        quot = tensor_divide_exact(num, a.ctx.alpha_sq)
        if quot is None:
            break
        num, exp = quot, exp - 1
    return LocalizedElem(a.ctx, num, exp)


def full_mul(a, b):
    # LocalizedElem.__mul__ before orbit products: the full numerators
    # multiplied, or the full numerator scaled
    if not isinstance(b, LocalizedElem):
        return LocalizedElem(a.ctx, a.num.scale(b), a.exp)
    prod = LocalizedElem(a.ctx, a.num * b.num, a.exp + b.exp)
    return full_normalize(prod)


@st.composite
def localized_cases(draw):
    """Two fractions over one anchor at exponents 0..2, over Q, Z, GF(2)
    or GF(5), n = 2 or 3.  Anchor entries have one or two terms, so most
    anchors are not Vandermonde; a numerator is an invariant times 0 to 2
    squares, so it divides by the square, or not, to any depth."""
    scalars = draw(st.sampled_from([QQ, ZZ, GF(2), GF(5)]))
    n = draw(st.integers(2, 3))
    ring = PolyRing(scalars, ("t",))
    space = TensorSpace(n, ring)
    label = st.tuples(st.integers(0, 3 if n == 2 else 2))
    coeff = st.sampled_from((-1, 1, 3)).map(scalars.from_int)
    # distinct leading monomials, and a second term for some entries
    leads = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    xs = [
        MultiPoly(ring, {**draw(st.dictionaries(label, coeff, max_size=1)), k: c})
        for k, c in zip(leads, draw(st.lists(coeff, min_size=n, max_size=n)))
    ]
    ctx = AlternatorInstance(space, xs)
    assume(ctx.alpha_x_orbits)
    rng = random.Random(draw(st.integers(0, 2**32)))

    def fraction():
        num = _asq_times(ctx, random_invariant(rng, space, 1), draw(st.integers(0, 2)))
        return LocalizedElem(ctx, num, draw(st.integers(0, 2)))

    return ctx, fraction(), fraction(), draw(st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(localized_cases())
def test_orbit_products_and_normalize_match_full_tensors(case):
    # products, the scalar action, padding and normalize run on orbits;
    # they must agree with the full-tensor route, type for type
    ctx, a, b, c = case
    for x, y in ((a, b), (b, a)):
        got, want = x * y, full_mul(x, y)
        event(f"product at exponent {want.exp}")
        assert got.exp == want.exp
        assert exact_terms(got.num) == exact_terms(want.num)
    for x in (a, b):
        norm, want = x.normalize(), full_normalize(x)
        event(f"normalize {x.exp} -> {want.exp}")
        assert norm.exp == want.exp
        assert exact_terms(norm.num) == exact_terms(want.num)
        scaled, want = x * c, full_mul(x, ctx.space.scalars.from_int(c))
        assert scaled.exp == want.exp
        assert exact_terms(scaled.num) == exact_terms(want.num)
        for k in range(3):
            padded = symmetric_orbits(_asq_times(ctx, x.num, k))
            assert x._padded(x.exp + k) == padded


def parent_from_scalar(ctx, c):
    # from_scalar before one coercion: the unit tensor scaled by c, with
    # Tensor.scale's coercion, through the checking constructor
    return LocalizedElem(ctx, unit_tensor(ctx.space).scale(c), 0)


_SCALARS = st.one_of(
    st.integers(-7, 7),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4)),
    st.sampled_from([0.5, True, "1", None, Fraction(1, 2)]),
)


@settings(max_examples=150, deadline=None)
@given(localized_cases(), _SCALARS)
def test_scalar_operands_match_from_scalar(case, c):
    # a scalar on either side of +, - and == stands for from_scalar of
    # it, for every c the ring's coerce accepts; == with any other value
    # answers False, and + and - raise RingMismatch
    ctx, a, _, _ = case
    try:
        want = parent_from_scalar(ctx, c)
    except RingMismatch:
        event("refused")
        assert not a == c and not c == a
        assert a != c and c != a
        for op in (operator.add, operator.sub):
            with pytest.raises(RingMismatch):
                op(a, c)
            with pytest.raises(RingMismatch):
                op(c, a)
        return
    event(f"{type(c).__name__} over {ctx.space.scalars!r}")
    got = LocalizedElem.from_scalar(ctx, c)
    assert (got._orbits, got.exp) == (want._orbits, want.exp)
    assert got == c and c == got
    assert got + c == LocalizedElem.from_scalar(ctx, 2 * c)
    for x, y in ((a + c, a + want), (c + a, a + want), (a - c, a - want), (c - a, want - a)):
        assert (x._orbits, x.exp) == (y._orbits, y.exp)
    assert (a == c) is (a == want) is (c == a)
    assert (a != c) is (a != want)


_CONSTRUCTOR_SCRIPT = _OPTIMIZE_PRELUDE + """
from fractions import Fraction
from altkit.errors import NotInvariant
from altkit.span_solver import LocalizedElem
space = TensorSpace(2, ring)
ctx = AlternatorInstance(space, [ring.one(), t])
try:
    LocalizedElem(ctx, pure_tensor(space, [t, ring.one()]), 0)
except NotInvariant as e:
    print("raised", type(e).__name__, e)
half = LocalizedElem.from_scalar(ctx, Fraction(1, 2))
print("half", half == Fraction(1, 2), half + Fraction(1, 2) == 1)
"""


def test_constructor_checks_invariance_under_optimize():
    assert _run_optimized(_CONSTRUCTOR_SCRIPT) == [
        "optimize 1 True",
        "raised NotInvariant numerator is not fully invariant",
        "half True True",
    ]


@pytest.mark.parametrize("scalars", [QQ, GF(5), GF(2)], ids=["q", "fp5", "fp2"])
@pytest.mark.parametrize("anchor", ["1, t^2+t", "t+1, t^2"])
def test_r_algebra_matches_the_full_tensor_route(monkeypatch, scalars, anchor):
    # r_algebra's structure constants and unit coordinates, with the
    # validator's products on orbits, read as with the full-tensor route
    ring = PolyRing(scalars, ("t",))
    space = TensorSpace(2, ring)

    def texts():
        ctx = AlternatorInstance(space, [ring.parse(x) for x in anchor.split(", ")])
        alg = r_algebra(ctx)
        structure = [[[c.to_text() for c in e] for e in row] for row in alg.structure]
        return structure, [c.to_text() for c in alg.unit]

    got = texts()
    monkeypatch.setattr(LocalizedElem, "__mul__", full_mul)
    monkeypatch.setattr(LocalizedElem, "__rmul__", full_mul)
    monkeypatch.setattr(LocalizedElem, "normalize", full_normalize)
    assert got == texts()


# -- one key form: every orbit dict keys its orbit by the sorted key


def _keys_descend(space, orbits, strict, count=None):
    # the first `count` slots of every key, all n by default, descend
    # strictly or weakly
    w, count = space.width, space.n if count is None else count
    cmp = operator.gt if strict else operator.ge
    for key in orbits:
        blocks = [key[j : j + w] for j in range(0, count * w, w)]
        if not all(map(cmp, blocks, blocks[1:])):
            return False
    return True


@st.composite
def key_form_cases(draw):
    """An anchor of distinct monomials, one perhaps with a second term,
    with alpha(x) != 0 over Q, Z, GF(2) or GF(5), n = 1..5 and widths 1
    and 2; a ring element z, a tensor t and two fully invariant tensors."""
    scalars = draw(st.sampled_from([QQ, ZZ, GF(2), GF(5)]))
    w = draw(st.integers(1, 2))
    n = draw(st.integers(1, 5))
    ring = PolyRing(scalars, ("s", "t")[:w])
    space = TensorSpace(n, ring)
    label = st.tuples(*[st.integers(0, 4 if w == 1 else 2)] * w)
    coeff = st.sampled_from((-1, 1, 3)).map(scalars.from_int)
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    xs = [MultiPoly(ring, {k: draw(coeff)}) for k in labels]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        xs[i] = xs[i] + MultiPoly(ring, {draw(label): draw(coeff)})
    ctx = AlternatorInstance(space, xs)
    assume(ctx.alpha_x_orbits)
    z = MultiPoly(ring, draw(st.dictionaries(label, coeff, min_size=1, max_size=2)))
    key = st.tuples(*[st.integers(0, 2)] * (n * w))
    t = Tensor(space, draw(st.dictionaries(key, coeff, max_size=4)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    invs = [random_invariant(rng, space, 2) for _ in range(2)]
    return ctx, z, t, invs, [draw(st.integers(0, 1)) for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(key_form_cases())
def test_orbit_dicts_keep_one_key_form(case):
    # every orbit dict keys an orbit by its slots in descending order,
    # strictly for alternating tensors, and a quotient lists its keys in
    # descending tuple order
    ctx, z, t, invs, exps = case
    space, xs = ctx.space, ctx.x
    event(f"n = {space.n}, width {space.width}")
    assert _keys_descend(space, signed_orbits(t), True)
    assert _keys_descend(space, signed_orbits(t, True), True, space.n - 1)
    assert _keys_descend(space, alpha_orbits(space, xs), True)
    nums = [
        flat_orbits(wedge_orbits(space, w, space.decompose(z)))
        for w in ctx.cofactor_wedges
    ]
    # the coordinate numerators of z, and a multiple of alpha(x)
    nums.append(signed_orbits(invs[0] * pure_tensor(space, xs)))
    quots = [divide_orbits(space, num, ctx.alpha_x_orbits) for num in nums]
    assert quots[-1] is not None
    event("every entry divides" if None not in quots else "some entry fails")
    for num, q in zip(nums, quots):
        assert _keys_descend(space, num, True)
        if q is not None:
            assert _keys_descend(space, q, False)
            assert list(q) == sorted(q, reverse=True)
    asq = ctx.alpha_sq_orbits
    a, b = (symmetric_orbits(inv) for inv in invs)
    product = multiply_symmetric(space, a, asq)
    quot = divide_symmetric(space, product, asq)
    assert quot == a and list(quot) == sorted(quot, reverse=True)
    for orbits in (asq, a, b, product, multiply_symmetric(space, a, b)):
        assert _keys_descend(space, orbits, False)
    x, y = (LocalizedElem(ctx, inv, e) for inv, e in zip(invs, exps))
    square = LocalizedElem(ctx, ctx.alpha_sq, 0)
    for v in (x, y, x + y, x * y, x * square, (x + y).normalize()):
        assert _keys_descend(space, v._orbits, False)


# -- the fallback on orbits, against the full-tensor fallback it replaced


def full_fallback(ctx, nums, target):
    # _over_alpha's fallback before orbits: the numerators expanded, the
    # check on full tensors, and each num * alpha(x) multiplied out
    space = ctx.space
    full = [expand_orbits(space, num) for num in nums]
    lhs = space.zero()
    for num, phi in zip(full, ctx.phi_n_x):
        lhs = lhs + num * phi
    stored = [symmetric_orbits(num * ctx.alpha_x) for num in full]
    return lhs == target * ctx.alpha_x, stored


@st.composite
def fallback_cases(draw):
    """An anchor over Q[t] or GF(5)[t] whose entries reach past degree
    n - 1, so that alpha(x) need not divide, and z or a y invariant in
    the first n-1 slots."""
    scalars = draw(st.sampled_from([QQ, GF(5)]))
    n = draw(st.integers(2, 4))
    ring = PolyRing(scalars, ("t",))
    space = TensorSpace(n, ring)
    coeff = st.sampled_from((-2, -1, 1, 2)).map(scalars.from_int)

    def poly(top):
        exps = st.tuples(st.integers(0, top))
        return MultiPoly(ring, draw(st.dictionaries(exps, coeff, min_size=1, max_size=2)))

    ctx = AlternatorInstance(space, [poly(n + 1) for _ in range(n)])
    assume(ctx.alpha_x_orbits)
    if draw(st.booleans(), label="invariant"):
        y = random_invariant(random.Random(draw(st.integers(0, 2**32))), space, 2, full=False)
        return ctx, None, y
    return ctx, poly(3), None


@settings(max_examples=60, deadline=None)
@given(fallback_cases(), st.data())
def test_orbit_fallback_matches_the_full_tensor_one(case, data):
    ctx, z, y = case
    space, n = ctx.space, ctx.space.n
    norm = space.scalars.normalize
    if z is not None:
        terms = space.decompose(z)
        nums = [flat_orbits(wedge_orbits(space, w, terms)) for w in ctx.cofactor_wedges]
        unit = (0,) * (n - 1)
        heads = {unit + label: c for label, c in terms}
        target = coprojection(space, n, z)

        def target_alpha():
            return span_solver._expansion_heads(
                space, [ctx.alpha_x_orbits], [terms], signed=True
            )
    else:
        nums = []
        for i in range(1, n + 1):
            num = signed_orbits(ctx.x_dropped(i) * y)
            nums.append({k: norm(-c) for k, c in num.items()} if (n - i) % 2 else num)
        heads = {k: c for k, c in y.terms.items() if span_solver._heads_descend(space, k)}
        target = y

        def target_alpha():
            return {
                k: c
                for k, c in (y * ctx.alpha_x).terms.items()
                if strict_heads(space, k)
            }

    if data.draw(st.booleans(), label="corrupt") and any(nums):
        # one coefficient of one numerator moved by one
        i = data.draw(st.sampled_from([i for i, num in enumerate(nums) if num]))
        key = data.draw(st.sampled_from(sorted(nums[i])))
        nums[i] = {**nums[i], key: norm(nums[i][key] + 1)}
        nums[i] = {k: c for k, c in nums[i].items() if c}
    quots = [divide_orbits(space, num, ctx.alpha_x_orbits) for num in nums]
    assume(any(q is None for q in quots))
    event("z" if z is not None else "y")
    ok, stored = full_fallback(ctx, nums, target)
    event("reconstructs" if ok else "fails")
    try:
        entries = span_solver._over_alpha(ctx, nums, heads, target_alpha, "failed")
    except VerificationFailed:
        assert not ok
        return
    assert ok
    for entry, q, s in zip(entries, quots, stored):
        if q is None:
            assert entry.exp == 1 and entry._orbits == s
        else:
            assert entry.exp == 0 and entry._orbits == q
