"""Monogenic instances K[s][u]/(g): trace pairings, discriminants, norm maps.

The trace-pairing determinant of two mapped tuples is computed as
det A * disc(e) * det B from coordinate determinants.  The route it
replaced, r^2 algebra products and traces under one determinant, stays
here as the oracle.  Generated instances u^r = s and u^r = s*u + 1 check
the discriminant against a Sylvester resultant and the norm map against
the algebra's own structure constants, and random ones of ranks 2-5 the
laws of the norm.  Points of the line moving over
Q[s] and GF(5)[s] check the discriminant against the repeated-point
probe.
"""

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit import norm_universal
from altkit.alternator import alpha, expand_symmetric, multiply_symmetric
from altkit.cli import build_instance
from altkit.errors import AltkitError, ContextMismatch, NotABasis, NotGenericallyEtale
from altkit.gen_etale import (
    BPlus,
    NormMapPlus,
    check_pullback_plus,
    diagonal_support_probe,
)
from altkit.norm_universal import (
    PullbackInstance,
    discriminant,
    norm,
    norm_orbits,
    trace_pairing_det,
)
from altkit.ring_core import (
    GF,
    QQ,
    AlgebraMap,
    FiniteFreeAlgebra,
    PolyRing,
    det_generic,
    solve,
)
from altkit.tensor_algebra import TensorSpace, unit_tensor
from norm_helpers import monogenic, monogenic_source, power_anchor


def old_trace_pairing_det(inst, vs, ws):
    # the replaced route: f on both tuples, r^2 products and traces
    E, f, space = inst.E, inst.f, inst.space
    fvs = [f(space.as_element(v)) for v in vs]
    fws = [f(space.as_element(w)) for w in ws]
    rows = [[E.trace(fv * fw) for fw in fws] for fv in fvs]
    return E.base.normalize(det_generic(rows))


def gram_discriminant(alg, basis):
    # the replaced route: the Gram matrix of the basis itself
    return alg.base.normalize(
        det_generic([[alg.trace(bi * bj) for bj in basis] for bi in basis])
    )


# -- random monogenic algebras over Q, GF(5) and Q[s]

QS = PolyRing(QQ, ("s",))
BASES = {"Q": QQ, "GF(5)": GF(5), "Q[s]": QS}


def _draw_scalar(data, ring, nonzero=False):
    # a constant of the ring, plus a multiple of s where the ring has s;
    # a nonzero draw is a nonzero constant, so a unit
    coeff = ring.coeff if isinstance(ring, PolyRing) else ring
    c = coeff.normalize(data.draw(st.integers(1 if nonzero else -3, 3)))
    if not isinstance(ring, PolyRing):
        return c
    c = ring.embed_scalar(c)
    if "s" in ring.vars and not nonzero:
        c = c + ring.variable("s") * data.draw(st.integers(-2, 2))
    return c


def _draw_algebra(data, base):
    r = data.draw(st.integers(2, 4), label="rank")
    return monogenic(base, [_draw_scalar(data, base) for _ in range(r)])


def _draw_source_poly(data, source):
    t = source.variable("t")
    z = source.zero()
    for e in range(data.draw(st.integers(0, 2)) + 1):
        z = z + _draw_scalar(data, source) * t**e
    return z


def _draw_anchor(data, source, r):
    # c_k t^k plus lower powers, c_k a nonzero constant: the image
    # f(x) = (c_k u^k + ...) has unit coordinate determinant prod c_k
    t = source.variable("t")
    xs = []
    for k in range(r):
        x = _draw_scalar(data, source, nonzero=True) * t**k
        for j in range(k):
            x = x + _draw_scalar(data, source) * t**j
        xs.append(x)
    return xs


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_trace_pairing_det_matches_trace_route(name, data):
    base = BASES[name]
    E = _draw_algebra(data, base)
    source, f = monogenic_source(E)
    inst = PullbackInstance(f, _draw_anchor(data, source, E.rank))
    x = inst.ctx.x
    vs, ws = (
        tuple(_draw_source_poly(data, source) for _ in range(E.rank))
        for _ in range(2)
    )
    # the stored anchor side, an equal tuple that is not the anchor, and
    # two drawn sides
    for ys, zs in ((x, x), (x, ws), (vs, x), (vs, ws), (list(x), ws)):
        assert trace_pairing_det(inst, ys, zs) == old_trace_pairing_det(inst, ys, zs)
    assert trace_pairing_det(inst, x, x) == inst.d


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_discriminant_matches_gram_route(name, data):
    base = BASES[name]
    E = _draw_algebra(data, base)
    r = E.rank
    # a unimodular change: a unit diagonal and elementary row additions
    change = [
        [_draw_scalar(data, base, nonzero=True) if i == j else base.zero()
         for j in range(r)]
        for i in range(r)
    ]
    for _ in range(data.draw(st.integers(0, 2 * r))):
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
        if i != j:
            a = _draw_scalar(data, base)
            change[i] = [
                base.normalize(p + a * q) for p, q in zip(change[i], change[j])
            ]
    basis = [E.element([change[row][col] for row in range(r)]) for col in range(r)]
    assert discriminant(E, basis) == gram_discriminant(E, basis)
    assert E.disc == gram_discriminant(E, [E.basis_elem(k) for k in range(r)])
    if isinstance(base, PolyRing):
        # s times a basis vector: no longer a basis over Q[s]
        s = base.variable("s")
        with pytest.raises(NotABasis, match="is not a unit"):
            discriminant(E, [basis[0] * s] + basis[1:])


# -- the shared anchor side, against a table cleared before each instance


def _clear_anchor_tables():
    norm_universal._anchor.cache_clear()
    norm_universal._norm_prefixes.cache_clear()


def _checked(inst):
    # the witnesses and rows of one instance as text, or its refusal
    base = inst.E.base
    try:
        witnesses, rows = check_pullback_plus(inst, NormMapPlus(inst))
    except AltkitError as e:
        return f"{type(e).__name__}: {e}"
    return (
        [(w.name, w.ok, w.lhs_text, w.rhs_text) for w in witnesses],
        [
            (i, j, p.to_text(), [base.to_text(v) for v in [*mapped, *direct]])
            for i, j, p, mapped, direct in rows
        ],
    )


def _constant_orbits(side):
    unit, table = side.constants
    fractions = [*unit, *(c for row in table for entry in row for c in entry)]
    return [(c.exp, dict(c._orbits)) for c in fractions]


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_shared_anchor_side_matches_a_cleared_table(name, data):
    # monogenic algebras of ranks 2-4 over one to three anchors, the
    # powers of t or drawn ones, checked in a drawn interleaved order on
    # the warm tables and again with both tables cleared before each
    # instance: the reports agree, instances over one anchor share its
    # side, and no instance changes a shared fraction.  A drawn rank-4
    # anchor over Q[s] has s in its entries, and one check over it took
    # about 22 s, so drawn anchors stop at rank 3 there
    base = BASES[name]
    source = monogenic_source(monogenic(base, [base.one(), base.zero()]))[0]
    anchors = []
    for _ in range(data.draw(st.integers(1, 3), label="anchors")):
        r = data.draw(st.integers(2, 4), label="rank")
        drawn = r < 4 or "s" not in source.vars
        drawn = drawn and data.draw(st.booleans(), label="drawn anchor")
        anchors.append(
            _draw_anchor(data, source, r) if drawn else power_anchor(source, r)
        )
    order = data.draw(
        st.lists(st.integers(0, len(anchors) - 1), min_size=2, max_size=4),
        label="order",
    )
    instances = []
    for k in order:
        E = monogenic(base, [_draw_scalar(data, base) for _ in anchors[k]])
        instances.append((k, monogenic_source(E)[1]))

    _clear_anchor_tables()
    warm, sides, first = [], {}, {}
    for k, f in instances:
        inst = PullbackInstance(f, anchors[k])
        side = sides.setdefault(k, inst.anchor)
        assert inst.anchor is side
        if k not in first:
            first[k] = _constant_orbits(side)
        warm.append(_checked(inst))
    cold = []
    for k, f in instances:
        _clear_anchor_tables()
        cold.append(_checked(PullbackInstance(f, anchors[k])))
    assert warm == cold
    assert {k: _constant_orbits(side) for k, side in sides.items()} == first


# -- image-basis coordinates by one elimination, against per-element solve


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_batched_basis_coords_match_per_element_solve(name, data):
    base = BASES[name]
    E = _draw_algebra(data, base)
    source, f = monogenic_source(E)
    inst = PullbackInstance(f, _draw_anchor(data, source, E.rank))
    count = data.draw(st.integers(0, 4), label="elements")
    elems = [
        E.element([_draw_scalar(data, base) for _ in range(E.rank)])
        for _ in range(count)
    ]
    change = [[b.coords[i] for b in inst.fx] for i in range(E.rank)]
    want = [tuple(solve(change, e.coords, base)) for e in elems]
    assert inst.basis_coords_of(elems) == want
    assert [inst.basis_coords(e) for e in elems] == want


def test_batched_basis_coords_refuse_a_non_basis():
    # u^2 = s over Q[s]: (1, s*u) spans only part of E, and (1, 1) is
    # singular, so its pivots are not the change matrix's columns
    E = monogenic(QS, [QS.variable("s"), QS.zero()])
    source, f = monogenic_source(E)
    inst = PullbackInstance(f, power_anchor(source, 2))
    one, u = E.basis_elem(0), E.basis_elem(1)
    inst.fx = (one, u * QS.variable("s"))
    assert inst.basis_coords_of([one, inst.fx[1]]) == [
        (QS.one(), QS.zero()),
        (QS.zero(), QS.one()),
    ]
    with pytest.raises(NotABasis, match="failed to solve"):
        inst.basis_coords_of([one, u])
    inst.fx = (one, one)
    with pytest.raises(NotABasis, match="failed to solve"):
        inst.basis_coords_of([one])


# -- the norm's own laws, at ranks 2-5
#
# N(q) = sum_k c_k det R_k, row i of R_k from the multiplication matrix
# of f(e_{k_i}).  It is multiplicative on fully invariant tensors, sends
# alpha(y)*alpha(z) to the trace-pairing determinant of y and z, and over
# a split algebra B^n it is q evaluated at the n points of f.

LAW_BASES = dict(BASES, **{"GF(5)[s]": PolyRing(GF(5), ("s",))})


def _draw_label(data, source, r, s_degree=1):
    # a monomial of the source ring: s^a t^e, t-degree at most r
    return tuple(
        data.draw(st.integers(0, r if v == "t" else s_degree), label=v)
        for v in source.vars
    )


def _draw_invariant(data, space, r):
    # one or two orbit sums of drawn sorted keys, each with a coefficient
    orbits = {}
    for _ in range(data.draw(st.integers(1, 2), label="orbits")):
        labels = sorted(_draw_label(data, space.ring, r) for _ in range(space.n))
        key = tuple(v for label in labels for v in label)
        orbits[key] = _draw_scalar(data, space.scalars, nonzero=True)
    return expand_symmetric(space, orbits)


def _law_instance(data, base, top=5):
    r = data.draw(st.integers(2, top), label="rank")
    E = monogenic(base, [_draw_scalar(data, base) for _ in range(r)])
    source, f = monogenic_source(E)
    return PullbackInstance(f, power_anchor(source, r))


@pytest.mark.parametrize("name", sorted(LAW_BASES))
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_norm_of_an_alternator_pair_is_its_pairing_determinant(name, data):
    # a rank-5 pair has thousands of keys, one determinant each: over
    # Q[s] and GF(5)[s] that is seconds per draw, so those stop at rank 4
    # here and meet rank 5 in the two laws below
    base = LAW_BASES[name]
    inst = _law_instance(data, base, 4 if isinstance(base, PolyRing) else 5)
    space, r = inst.space, inst.E.rank
    # one term per entry keeps alpha at r! terms at most, distinct
    # t-degrees keep it nonzero, and s in one entry keeps the keys few
    t = space.ring.variable("t")
    degrees = st.lists(st.integers(0, r), min_size=r, max_size=r, unique=True)
    ys, zs = (
        [t**e * _draw_scalar(data, space.scalars, nonzero=True) for e in data.draw(degrees)]
        for _ in range(2)
    )
    ys[0] = ys[0] * space.label_elem(_draw_label(data, space.ring, 0))
    pair = alpha(space, ys) * alpha(space, zs)
    assert norm(inst, pair) == trace_pairing_det(inst, ys, zs)


@pytest.mark.parametrize("name", sorted(LAW_BASES))
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_norm_is_multiplicative(name, data):
    inst = _law_instance(data, LAW_BASES[name])
    q, q2 = (_draw_invariant(data, inst.space, 2) for _ in range(2))
    assert norm(inst, q * q2) == inst.E.base.normalize(norm(inst, q) * norm(inst, q2))


# -- the norm on orbits against the per-key norm it replaced


def per_key_norm(inst, q):
    # the replaced route: one det_generic per full key of q
    base, space = inst.E.base, inst.space
    total = base.zero()
    for key, c in q.terms.items():
        rows = [inst.mult_matrix(lab)[i] for i, lab in enumerate(space.key_slots(key))]
        total = total + inst.emb(c) * det_generic(rows)
    return base.normalize(total)


def _split_q3():
    idem = [tuple(int(k == i) for k in range(3)) for i in range(3)]
    structure = tuple(
        tuple(idem[i] if i == j else (0, 0, 0) for j in range(3)) for i in range(3)
    )
    return FiniteFreeAlgebra(QQ, 3, structure, (1, 1, 1))


_Q3 = _split_q3()
# Q^3 modulo what (1, 1, 0) kills: Q^2, whose zero divisors stay
BPLUS_BASE = BPlus(_Q3, _Q3.element((1, 1, 0))).desc
ORBIT_NORM_BASES = dict(LAW_BASES, **{"B+": BPLUS_BASE})


def _draw_base_element(data, base):
    if isinstance(base, FiniteFreeAlgebra):
        return base.element(
            [data.draw(st.integers(-3, 3), label="coordinate") for _ in range(base.rank)]
        )
    return _draw_scalar(data, base)


def _draw_orbits(data, space, r, top):
    # up to top orbit sums of drawn sorted keys: numerators that share
    # prefixes and ones that do not
    orbits = {}
    for _ in range(data.draw(st.integers(1, top), label="orbits")):
        labels = sorted(
            (_draw_label(data, space.ring, r) for _ in range(space.n)), reverse=True
        )
        key = tuple(v for label in labels for v in label)
        orbits[key] = _draw_scalar(data, space.scalars, nonzero=True)
    return orbits


@pytest.mark.parametrize("name", sorted(ORBIT_NORM_BASES))
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_orbit_norm_matches_the_per_key_norm(name, data):
    base = ORBIT_NORM_BASES[name]
    r = data.draw(st.integers(2, 5), label="rank")
    E = monogenic(base, [_draw_base_element(data, base) for _ in range(r)])
    source, f = monogenic_source(E)
    inst = PullbackInstance(f, power_anchor(source, r))
    orbits = _draw_orbits(data, inst.space, r, 4)
    q = expand_symmetric(inst.space, orbits)
    assert norm_orbits(inst, orbits) == norm(inst, q) == per_key_norm(inst, q)


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_orbit_norm_is_multiplicative(name, data):
    # N(q * q') = N(q) * N(q') with the product taken on orbits too, at
    # ranks 2-4
    inst = _law_instance(data, BASES[name], 4)
    space = inst.space
    q, q2 = (_draw_orbits(data, space, 2, 3) for _ in range(2))
    got = norm_orbits(inst, multiply_symmetric(space, q, q2))
    assert got == inst.E.base.normalize(norm_orbits(inst, q) * norm_orbits(inst, q2))


# tensor powers other than sqrt2.json's, n = 2 over Q[t]
OTHER_SPACES = {
    "arity 3 over Q[t]": TensorSpace(3, PolyRing(QQ, ("t",))),
    "arity 2 over Q[t, u]": TensorSpace(2, PolyRing(QQ, ("t", "u"))),
    "arity 2 over GF(5)[t]": TensorSpace(2, PolyRing(GF(5), ("t",))),
}


@pytest.mark.parametrize("name", sorted(OTHER_SPACES))
def test_norm_refuses_a_tensor_from_another_tensor_power(name):
    data = json.loads(resources.files("altkit").joinpath("fixtures", "sqrt2.json").read_text())
    inst, _ = build_instance(data)
    assert norm(inst, unit_tensor(inst.space)) == 1
    with pytest.raises(ContextMismatch, match="different tensor power"):
        norm(inst, unit_tensor(OTHER_SPACES[name]))


def _split_instance(base, points):
    # E = B^n, unit (1, ..., 1), with f(t) = points and each base
    # variable to itself; anchored on (1, t, ..., t^(n-1))
    n = len(points)
    zero, one = base.zero(), base.one()
    idem = [tuple(one if k == i else zero for k in range(n)) for i in range(n)]
    structure = tuple(
        tuple(idem[i] if i == j else (zero,) * n for j in range(n)) for i in range(n)
    )
    E = FiniteFreeAlgebra(base, n, structure, (one,) * n)
    if isinstance(base, PolyRing):
        source = PolyRing(base.coeff, base.vars + ("t",))
        images = [E.element([base.variable(v)] * n) for v in base.vars]
    else:
        source = PolyRing(base, ("t",))
        images = []
    f = AlgebraMap(source, E, images + [E.element(points)])
    return PullbackInstance(f, power_anchor(source, n))


@pytest.mark.parametrize("name", sorted(LAW_BASES))
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_norm_over_a_split_algebra_evaluates_at_the_points(name, data):
    # distinct constants plus one common drawn element: the Vandermonde
    # of the anchor is then a unit
    base = LAW_BASES[name]
    n = data.draw(st.integers(2, 5), label="rank")
    consts = data.draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n, unique=True),
        label="constants",
    )
    shift = _draw_scalar(data, base)
    points = [base.normalize(base.from_int(c) + shift) for c in consts]
    inst = _split_instance(base, points)
    space = inst.space
    q = _draw_invariant(data, space, n)
    emb = base.embed_scalar if isinstance(base, PolyRing) else base.normalize
    expected = base.zero()
    for key, c in q.terms.items():
        term = emb(c)
        for label, p in zip(space.key_slots(key), points):
            # the source monomial at t = p, each base variable to itself
            for v, e in zip(space.ring.vars, label):
                term = term * (p if v == "t" else base.variable(v)) ** e
        expected = expected + term
    assert norm(inst, q) == base.normalize(expected)


# -- the image memo belongs to its instance


def _witness_rows(inst):
    witnesses, _ = check_pullback_plus(inst, NormMapPlus(inst))
    return [(w.name, w.ok, w.lhs_text, w.rhs_text) for w in witnesses]


def test_memo_is_per_instance():
    # one source ring and anchor tuple, two algebras: u^2 = 2 and u^2 = 3
    source = PolyRing(QQ, ("t",))
    anchor = power_anchor(source, 2)

    def build(c):
        E = monogenic(QQ, [c, 0])
        return PullbackInstance(AlgebraMap(source, E, [E.basis_elem(1)]), anchor)

    alone = {c: _witness_rows(build(c)) for c in (2, 3)}
    assert alone[2] != alone[3]
    insts = {c: build(c) for c in (2, 3)}
    assert [insts[c].d for c in (2, 3)] == [8, 12]
    for c in (2, 3, 2, 3):
        rows = _witness_rows(insts[c])
        assert rows == alone[c]
        assert all(ok for _, ok, _, _ in rows)


# -- generated instances u^r = s and u^r = s*u + 1


def sylvester_resultant(g, h, zero):
    """Res(g, h) as the Sylvester determinant; coefficients highest first."""
    m, n = len(g) - 1, len(h) - 1
    rows = [[zero] * i + list(g) + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + list(h) + [zero] * (m - 1 - i) for i in range(m)]
    return det_generic(rows)


def family_tail(base, family, r):
    s = base.variable("s")
    zero = base.zero()
    if family == "u^r = s":
        return [s] + [zero] * (r - 1)
    return [base.one(), s] + [zero] * (r - 2)


# ROADMAP's closed forms, as the report prints them
CLOSED_FORMS = {
    "u^r = s": {2: "4*s", 3: "-27*s^2", 4: "-256*s^3", 5: "3125*s^4"},
    "u^r = s*u + 1": {2: "s^2+4", 3: "4*s^3-27", 4: "-27*s^4-256", 5: "-256*s^5+3125"},
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_generated_instance(family, r):
    base = QS
    tail = family_tail(base, family, r)
    E = monogenic(base, tail)
    source, f = monogenic_source(E)
    inst = PullbackInstance(f, power_anchor(source, r))

    # g = u^r - sum tail_i u^i and g' = r u^(r-1) - ..., highest first
    g = [base.one()] + [base.normalize(-c) for c in reversed(tail)]
    dg = [base.normalize(c * (r - k)) for k, c in enumerate(g[:-1])]
    res = sylvester_resultant(g, dg, base.zero())
    sign = -1 if r * (r - 1) // 2 % 2 else 1
    assert inst.d == base.normalize(res * sign)
    assert base.to_text(inst.d) == CLOSED_FORMS[family][r]

    witnesses, rows = check_pullback_plus(inst, NormMapPlus(inst))
    assert len(rows) == r * (r + 1) // 2
    assert [w.name for w in witnesses if not w.ok] == []


@pytest.mark.parametrize("p, r", [(5, 5), (3, 3)])
def test_generated_instance_with_p_dividing_r_is_refused(p, r):
    base = PolyRing(GF(p), ("s",))
    E = monogenic(base, family_tail(base, "u^r = s", r))
    source, f = monogenic_source(E)
    inst = PullbackInstance(f, power_anchor(source, r))
    assert not inst.d
    with pytest.raises(NotGenericallyEtale):
        NormMapPlus(inst)


# -- colliding points: the discriminant against the repeated-point probe
#
# n points p_1(s), ..., p_n(s) of the line over a base K[s] are the
# algebra K[s][u]/(prod (u - p_i(s))).  Its discriminant on 1, u, ...,
# u^(n-1) is prod_{i<j} (p_j - p_i)^2, which vanishes at s0 exactly when
# two points collide there; the probe decides the same at the points
# p_i(s0) by a rank test that shares no code with the norm map.


def _point_algebra(base, points):
    # prod (u - p_i) = u^n - sum tail_i u^i, coefficients lowest first
    g = [base.one()]
    for p in points:
        shifted = [base.zero()] + g
        g = [base.normalize(a - p * b) for a, b in zip(shifted, g + [base.zero()])]
    return monogenic(base, [base.normalize(-c) for c in g[:-1]])


@pytest.mark.parametrize("scalars", [QQ, GF(5)], ids=["Q[s]", "GF(5)[s]"])
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_colliding_points_discriminant_matches_probe(scalars, data):
    base = PolyRing(scalars, ("s",))
    s = base.variable("s")
    n = data.draw(st.integers(2, 5), label="n")
    # integer coefficients, degree at most 2 below n = 5 and 1 at n = 5
    top = 1 if n == 5 else 2
    points = [
        sum(
            (s**k * data.draw(st.integers(-2, 2)) for k in range(1, top + 1)),
            base.from_int(data.draw(st.integers(-3, 3))),
        )
        for _ in range(n)
    ]
    E = _point_algebra(base, points)
    source, f = monogenic_source(E)
    inst = PullbackInstance(f, power_anchor(source, n))
    vandermonde = base.one()
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde = vandermonde * (points[j] - points[i]) ** 2
    assert inst.d == vandermonde
    if inst.d:
        witnesses, _ = check_pullback_plus(inst, NormMapPlus(inst))
        assert [w.name for w in witnesses if not w.ok] == []
    else:
        with pytest.raises(NotGenericallyEtale):
            NormMapPlus(inst)
    # every fibre over GF(5), a window of them over Q
    fibres = range(scalars.p) if scalars.p else range(-4, 5)
    for s0 in fibres:
        at = [[p.evaluate([scalars.from_int(s0)])] for p in points]
        collide = not inst.d.evaluate([scalars.from_int(s0)])
        assert diagonal_support_probe(scalars, at) == collide


def test_colliding_points_fixed_family():
    # 0, s, s^2 + 1 and s + 2 collide at s = 0 and s = -2 only, among
    # the integers -4..4
    base = PolyRing(QQ, ("s",))
    s = base.variable("s")
    points = [base.zero(), s, s**2 + 1, s + 2]
    source, f = monogenic_source(_point_algebra(base, points))
    inst = PullbackInstance(f, power_anchor(source, 4))
    witnesses, _ = check_pullback_plus(inst, NormMapPlus(inst))
    assert all(w.ok for w in witnesses)
    on_locus = [
        s0
        for s0 in range(-4, 5)
        if diagonal_support_probe(QQ, [[p.evaluate([s0])] for p in points])
    ]
    assert on_locus == [-2, 0]
    assert [s0 for s0 in range(-4, 5) if not inst.d.evaluate([s0])] == [-2, 0]
