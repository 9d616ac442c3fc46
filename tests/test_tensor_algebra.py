"""Tensor powers, slot permutations and invariance predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit.errors import ArityMismatch, IndexOutOfRange, RingMismatch, UnsupportedBase
from altkit.ring_core import GF, QQ, FiniteFreeAlgebra, MultiPoly, PolyRing
from altkit.tensor_algebra import (
    Permutation,
    Tensor,
    TensorSpace,
    all_signed_permutations,
    coprojection,
    is_sym_n11,
    is_symmetric,
    polarized_power_sum,
    pure_tensor,
    unit_tensor,
)

RT = PolyRing(QQ, ("t",))


def space(n, ring=RT):
    return TensorSpace(n, ring)


def sqrt2_algebra():
    return FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (1, 0))


# -- permutations


def test_permutation_basics():
    p = Permutation((1, 2, 0))  # 3-cycle
    assert p.sign() == 1
    assert p.inverse().images == (2, 0, 1)
    tau = Permutation.transposition(3, 0, 2)
    assert tau.sign() == -1
    assert tau.compose(tau) == Permutation.identity(3)
    assert Permutation.identity(4).sign() == 1


def test_permutation_compose_order():
    # (sigma . tau)(i) = sigma(tau(i))
    sigma = Permutation((1, 0, 2))
    tau = Permutation((0, 2, 1))
    st_ = sigma.compose(tau)
    for i in range(3):
        assert st_(i) == sigma(tau(i))


def test_permutation_rejects_non_bijection():
    with pytest.raises(IndexOutOfRange):
        Permutation((0, 0, 1))


def test_all_signed_permutations():
    signed = all_signed_permutations(3)
    assert len(signed) == 6
    assert sum(s for _, s in signed) == 0
    assert signed[0][0] == Permutation.identity(3)


# -- construction and arithmetic


def test_pure_tensor_monomials():
    sp = space(2)
    t = RT.variable("t")
    x = pure_tensor(sp, [t, t * t])
    assert x.terms == {(1, 2): 1}
    assert x.to_text() == "1*[t|t^2]"


def test_pure_tensor_expands_multilinearly():
    sp = space(2)
    t = RT.variable("t")
    x = pure_tensor(sp, [t + 1, t])
    assert x.terms == {(0, 1): 1, (1, 1): 1}
    assert x.to_text() == "1*[1|t] + 1*[t|t]"


def test_pure_tensor_zero_factor():
    sp = space(2)
    assert not pure_tensor(sp, [RT.zero(), RT.variable("t")])


def test_coprojection_and_product():
    sp = space(2)
    t = RT.variable("t")
    left = coprojection(sp, 1, t)
    right = coprojection(sp, 2, t)
    assert left.terms == {(1, 0): 1}
    assert (left * right).terms == {(1, 1): 1}
    with pytest.raises(IndexOutOfRange):
        coprojection(sp, 3, t)


def test_coprojection_is_multiplicative():
    sp = space(3)
    t = RT.variable("t")
    r, s = t + 2, t * t - 1
    for p in (1, 2, 3):
        assert coprojection(sp, p, r * s) == coprojection(
            sp, p, r
        ) * coprojection(sp, p, s)
    assert coprojection(sp, 2, RT.one()) == unit_tensor(sp)


def test_coprojection_matches_pure_tensor_in_every_slot():
    # the frame co-projection against the multilinear expansion of
    # 1 (x) .. (x) r (x) .. (x) 1, on two variables and on an algebra
    # whose unit has two basis terms, r = 0 included
    ring = PolyRing(GF(5), ("s", "t"))
    s, t = ring.variable("s"), ring.variable("t")
    split = FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1))
    assert len(TensorSpace(3, split).decompose(split.one())) == 2
    cases = (
        (TensorSpace(3, ring), [s * t + s * 3 + 2, t**2, ring.zero(), 0]),
        (TensorSpace(3, split), [split.element((2, -1)), split.one(), split.zero()]),
    )
    for sp, rs in cases:
        for r in rs:
            for p in range(1, sp.n + 1):
                elems = [sp.ring.one()] * sp.n
                elems[p - 1] = sp.as_element(r)
                got, want = coprojection(sp, p, r), pure_tensor(sp, elems)
                assert got == want
                assert {k: type(c) for k, c in got.terms.items()} == {
                    k: type(c) for k, c in want.terms.items()
                }


def test_tensor_sum_cancels():
    sp = space(2)
    t = RT.variable("t")
    a = pure_tensor(sp, [t, RT.one()])
    b = pure_tensor(sp, [RT.one(), t])
    assert (a + b - a).terms == b.terms
    assert not (a - a)
    assert (b - a).to_text() == "1*[1|t] - 1*[t|1]"


def test_scale_and_normalization():
    sp = space(2)
    t = RT.variable("t")
    a = pure_tensor(sp, [t, t])
    assert a.scale(3).terms == {(1, 1): 3}
    assert not a.scale(0)
    from fractions import Fraction

    half = a.scale(Fraction(1, 2))
    assert half.scale(2).terms == {(1, 1): 1}
    assert isinstance(half.scale(2).terms[(1, 1)], int)


def test_permute_moves_slots():
    sp = space(3)
    t = RT.variable("t")
    x = pure_tensor(sp, [t, t * t, RT.one()])  # [t|t^2|1]
    cyc = Permutation((1, 2, 0))  # slot i -> slot i+1
    assert x.permute(cyc).terms == {(0, 1, 2): 1}  # [1|t|t^2]


def test_permute_is_group_action():
    sp = space(3)
    t = RT.variable("t")
    x = pure_tensor(sp, [t, t + 1, t * t]) - 2 * unit_tensor(sp)
    for sigma, _ in all_signed_permutations(3):
        for rho, _ in all_signed_permutations(3):
            lhs = x.permute(sigma).permute(rho)
            assert lhs == x.permute(rho.compose(sigma))


def test_mul_commutes_and_associates():
    sp = space(2)
    t = RT.variable("t")
    a = pure_tensor(sp, [t + 1, t])
    b = pure_tensor(sp, [t, t - 2]) + unit_tensor(sp)
    c = coprojection(sp, 1, t * t)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * unit_tensor(sp) == a


def test_mismatched_spaces_raise():
    t = RT.variable("t")
    a = pure_tensor(space(2), [t, t])
    b = pure_tensor(space(3), [t, t, t])
    with pytest.raises(ArityMismatch):
        a + b
    other = PolyRing(GF(5), ("t",))
    c = pure_tensor(space(2, other), [other.variable("t")] * 2)
    with pytest.raises(RingMismatch):
        a + c
    with pytest.raises(ArityMismatch):
        pure_tensor(space(2), [t, t, t])


def test_arity_envelope():
    with pytest.raises(UnsupportedBase):
        TensorSpace(6, RT)
    with pytest.raises(UnsupportedBase):
        TensorSpace(0, RT)


# -- invariance predicates


def test_is_symmetric_examples():
    sp = space(2)
    t = RT.variable("t")
    assert is_symmetric(pure_tensor(sp, [t, t]))
    assert not is_symmetric(coprojection(sp, 1, t))
    both = coprojection(sp, 1, t) + coprojection(sp, 2, t)
    assert is_symmetric(both)


def test_is_sym_n11_examples():
    sp = space(3)
    t = RT.variable("t")
    assert is_sym_n11(pure_tensor(sp, [t, t, RT.one()]))
    assert not is_sym_n11(pure_tensor(sp, [RT.one(), t, t]))
    # arity 2 leaves nothing to permute in the first n-1 slots
    assert is_sym_n11(pure_tensor(space(2), [t, RT.one()]))


def random_tensor_terms():
    key = st.tuples(*[st.integers(0, 3) for _ in range(3)])
    coeff = st.integers(-4, 4)
    return st.dictionaries(key, coeff, min_size=0, max_size=5)


@settings(max_examples=60, deadline=None)
@given(random_tensor_terms())
def test_adjacent_transpositions_detect_full_invariance(terms):
    # symmetrize, then check the adjacent-swap predicate agrees with
    # invariance under every element of S_3
    sp = space(3)
    raw = Tensor(sp, terms)
    sym = sp.zero()
    for sigma, _ in all_signed_permutations(3):
        sym = sym + raw.permute(sigma)
    assert is_symmetric(sym)
    for probe in (raw, sym):
        full = all(
            probe.permute(sigma) == probe for sigma, _ in all_signed_permutations(3)
        )
        assert is_symmetric(probe) == full


@settings(max_examples=40, deadline=None)
@given(random_tensor_terms())
def test_sym_n11_matches_subgroup_orbit(terms):
    sp = space(3)
    raw = Tensor(sp, terms)
    sub = [
        Permutation((0, 1, 2)),
        Permutation((1, 0, 2)),
    ]  # S_2 on the first two slots
    full = all(raw.permute(sigma) == raw for sigma in sub)
    assert is_sym_n11(raw) == full


# -- polarized power sums


def test_polarized_power_sum_small():
    t = RT.variable("t")
    sp2 = space(2)
    assert polarized_power_sum(sp2, t).terms == {(1, 0): 1, (0, 1): 1}
    sp3 = space(3)
    got = polarized_power_sum(sp3, t)
    assert got.terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert is_symmetric(got)


def test_polarized_power_sum_additive():
    sp = space(3)
    t = RT.variable("t")
    r, s = t * t, t + 3
    assert polarized_power_sum(sp, r + s) == polarized_power_sum(
        sp, r
    ) + polarized_power_sum(sp, s)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from([("t",), ("t", "u")]),
    st.sampled_from([QQ, GF(2), GF(5)]),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3)),
)
def test_polarized_power_sum_matches_coprojection_sum(n, names, scalars, terms):
    # the sum of the n co-projections, added one tensor at a time: the
    # oracle for the one-dict build
    ring = PolyRing(scalars, names)
    z = ring.zero()
    for key, c in terms.items():
        z = z + MultiPoly(ring, {key[: len(names)]: c})
    sp = TensorSpace(n, ring)
    acc = sp.zero()
    for p in range(1, n + 1):
        acc = acc + coprojection(sp, p, z)
    assert polarized_power_sum(sp, z) == acc


def test_polarized_power_sum_over_algebra():
    # a unit that is not a basis element: e1 + e2 in the split algebra
    alg = FiniteFreeAlgebra(
        QQ, 2, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1)
    )
    for n in (1, 2, 3):
        sp = space(n, alg)
        z = alg.element((2, -3))
        acc = sp.zero()
        for p in range(1, n + 1):
            acc = acc + coprojection(sp, p, z)
        assert polarized_power_sum(sp, z) == acc


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.dictionaries(
        st.tuples(*[st.integers(0, 1)] * 8), st.integers(-2, 2), max_size=4
    ),
    st.booleans(),
)
def test_invariance_predicates_match_every_permutation(n, terms, symmetrize):
    # width-2 keys: every permutation applied in full is the oracle for
    # the adjacent-swap lookups
    sp = space(n, PolyRing(QQ, ("t", "u")))
    raw = Tensor(sp, {k[: 2 * n]: c for k, c in terms.items()})
    if symmetrize:
        sym = sp.zero()
        for sigma, _ in all_signed_permutations(n):
            sym = sym + raw.permute(sigma)
        raw = sym
    perms = [sigma for sigma, _ in all_signed_permutations(n)]
    assert is_symmetric(raw) == all(raw.permute(s) == raw for s in perms)
    fixing_last = [s for s in perms if s(n - 1) == n - 1]
    assert is_sym_n11(raw) == all(raw.permute(s) == raw for s in fixing_last)


# -- tensors over a finite algebra


def test_algebra_labels():
    alg = sqrt2_algebra()
    sp = TensorSpace(2, alg)
    t = alg.element((0, 1))
    x = pure_tensor(sp, [t, t])
    assert x.terms == {(1, 1): 1}
    assert x.to_text() == "1*[e2|e2]"
    sq = x * x
    assert sq.terms == {(0, 0): 4}  # (t (x) t)^2 = t^2 (x) t^2 = 4
    mixed = pure_tensor(sp, [alg.element((1, 1)), t])
    assert mixed.terms == {(0, 1): 1, (1, 1): 1}


def test_algebra_unit_tensor_and_power_sum():
    alg = sqrt2_algebra()
    sp = TensorSpace(2, alg)
    t = alg.element((0, 1))
    assert unit_tensor(sp).terms == {(0, 0): 1}
    ps = polarized_power_sum(sp, t)
    assert ps.terms == {(1, 0): 1, (0, 1): 1}
    assert is_symmetric(ps)


def test_text_rendering_over_gf():
    ring = PolyRing(GF(5), ("t",))
    sp = TensorSpace(2, ring)
    t = ring.variable("t")
    x = pure_tensor(sp, [t, t]).scale(GF(5).from_int(7))
    assert x.to_text() == "2*[t|t]"
    y = x - pure_tensor(sp, [ring.one(), t])
    assert y.to_text() == "4*[1|t] + 2*[t|t]"
