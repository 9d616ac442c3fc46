"""Discriminants, trace formulas and the mapped coordinate fractions."""

import random

import pytest

from altkit import norm_universal
from altkit.alternator import AlternatorInstance, alpha
from altkit.errors import (
    ContextMismatch,
    NotABasis,
    NotEtale,
    NotInvariant,
)
from altkit.norm_universal import (
    NormMap,
    PullbackInstance,
    discriminant,
    free_case_check,
    is_nonzerodivisor,
    norm,
    trace_formula_check,
    trace_pairing_det,
    traceexp_check,
    verify_pullback,
)
from altkit.ring_core import GF, QQ, ZZ, AlgebraMap, FiniteFreeAlgebra, PolyRing
from altkit.span_solver import LocalizedElem, coordinates
from altkit.tensor_algebra import TensorSpace, pure_tensor
from norm_helpers import alternator_pair_presentation


def sqrt2_algebra():
    structure = (((1, 0), (0, 1)), ((0, 1), (2, 0)))
    return FiniteFreeAlgebra(QQ, 2, structure, (1, 0))


def split_algebra(scalars):
    structure = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    return FiniteFreeAlgebra(scalars, 2, structure, (1, 1))


def dual_numbers():
    structure = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    return FiniteFreeAlgebra(QQ, 2, structure, (1, 0))


def theta_algebra():
    # rank 2 over Q[s]: second generator squares to s
    B = PolyRing(QQ, ("s",))
    s = B.variable("s")
    one, zero = B.one(), B.zero()
    structure = (((one, zero), (zero, one)), ((zero, one), (s, zero)))
    return FiniteFreeAlgebra(B, 2, structure, (one, zero)), B, s


def qt_context(n):
    ring = PolyRing(QQ, ("t",))
    t = ring.variable("t")
    space = TensorSpace(n, ring)
    return space, AlternatorInstance(space, [t**i for i in range(n)]), t


# -- discriminant


def test_discriminant_goldens():
    alg = sqrt2_algebra()
    t = alg.basis_elem(1)
    assert discriminant(alg, [alg.one(), t]) == 8
    assert discriminant(split_algebra(QQ), [(1, 0), (0, 1)]) == 1
    assert discriminant(dual_numbers(), [(1, 0), (0, 1)]) == 0
    E, B, s = theta_algebra()
    assert discriminant(E, [E.one(), E.basis_elem(1)]) == s * 4


def test_discriminant_change_of_basis():
    alg = sqrt2_algebra()
    t = alg.basis_elem(1)
    # unimodular change leaves it alone; scaling multiplies by the square
    assert discriminant(alg, [alg.one(), t + alg.one()]) == 8
    assert discriminant(alg, [alg.one(), t * 2]) == 32


def test_discriminant_rejects_non_basis():
    alg = sqrt2_algebra()
    with pytest.raises(NotABasis):
        discriminant(alg, [alg.one(), alg.from_int(2)])
    with pytest.raises(NotABasis):
        discriminant(alg, [alg.one()])
    # integer scalars: determinant 2 is invertible only rationally
    zalg = FiniteFreeAlgebra(ZZ, 2, (((1, 0), (0, 1)), ((0, 1), (2, 0))), (1, 0))
    with pytest.raises(NotABasis):
        discriminant(zalg, [zalg.one(), zalg.basis_elem(1) * 2])


def test_determinants_that_are_multiples_of_p_read_as_zero():
    # raw determinants 2*3 - 1*1 = 5 and 3*3 - 2*2 = 5 are zero in GF(5)
    gf5 = GF(5)
    sqrt2 = FiniteFreeAlgebra(gf5, 2, (((1, 0), (0, 1)), ((0, 1), (2, 0))), (1, 0))
    with pytest.raises(NotABasis):
        discriminant(sqrt2, [(2, 1), (1, 3)])
    # u^2 = 1 splits GF(5)[u]: 3 + 2u vanishes at u = 1
    split = FiniteFreeAlgebra(gf5, 2, (((1, 0), (0, 1)), ((0, 1), (1, 0))), (1, 0))
    v = split.element((3, 2))
    assert not split.is_unit(v)
    assert not is_nonzerodivisor(split, v)
    assert split.is_unit(split.element((3, 1)))
    assert is_nonzerodivisor(split, split.element((3, 1)))


# -- trace formula


def test_trace_formula_golden():
    space, ctx, t = qt_context(2)
    w = trace_formula_check(ctx, t)
    assert w.ok
    assert w.name == "trace_formula"
    assert "[1|t]" in w.rhs_text and "[t|1]" in w.rhs_text


def test_trace_formula_random():
    rng = random.Random(23)
    for scalars, n in ((QQ, 2), (QQ, 3), (GF(5), 3)):
        ring = PolyRing(scalars, ("t",))
        t = ring.variable("t")
        space = TensorSpace(n, ring)
        ctx = AlternatorInstance(space, [t**i for i in range(n)])
        for _ in range(5):
            z = ring.zero()
            for d in range(3):
                c = rng.randint(-2, 2)
                if c:
                    z = z + ring.embed_scalar(scalars.from_int(c)) * t**d
            assert trace_formula_check(ctx, z).ok


# -- alternator pair vs trace pairing determinant


def test_traceexp_matches_square():
    space, ctx, t = qt_context(2)
    w = traceexp_check(ctx, [space.ring.one(), t])
    assert w.ok
    assert w.lhs == ctx.alpha_sq


def test_traceexp_random_tuples():
    rng = random.Random(29)
    for scalars, n in ((QQ, 2), (QQ, 3), (GF(5), 2)):
        ring = PolyRing(scalars, ("t",))
        t = ring.variable("t")
        space = TensorSpace(n, ring)
        ctx = AlternatorInstance(space, [t**i for i in range(n)])
        for _ in range(5):
            ys = []
            for _k in range(n):
                y = ring.zero()
                for d in range(3):
                    c = rng.randint(-2, 2)
                    if c:
                        y = y + ring.embed_scalar(scalars.from_int(c)) * t**d
                ys.append(y)
            assert traceexp_check(ctx, ys).ok


@pytest.mark.parametrize("scalars", [QQ, GF(5)])
@pytest.mark.parametrize("n", [4, 5])
def test_traceexp_nonzero_sides_at_high_arity(monkeypatch, scalars, n):
    # verify's default draws at n >= 4 have degree <= 2: their n ys lie in
    # a 3-dimensional space, so alpha(y) = 0 and both sides are 0.  Here
    # the ys have degree n - 1 and span the same space as the anchor
    ring = PolyRing(scalars, ("t",))
    t = ring.variable("t")
    space = TensorSpace(n, ring)
    ctx = AlternatorInstance(space, [t**i for i in range(n)])
    ys = [t**j + t ** (j + 1) * 2 for j in range(n - 1)] + [t ** (n - 1) + 3]
    w = traceexp_check(ctx, ys)
    assert w.lhs and w.ok
    # the same check with one power sum altered must fail: the first
    # entry x_1 * y_1 gains t, so its power sum P(z) gains P(t).  (A
    # constant would add n times the unit, which is 0 over GF(5) at n = 5)
    real = norm_universal.det_power_sums

    def altered(space, zs):
        zs = [list(row) for row in zs]
        zs[0][0] = zs[0][0] + t
        return real(space, zs)

    monkeypatch.setattr(norm_universal, "det_power_sums", altered)
    assert not traceexp_check(ctx, ys).ok


def test_traceexp_over_algebra_ambient():
    alg = sqrt2_algebra()
    t = alg.basis_elem(1)
    space = TensorSpace(2, alg)
    ctx = AlternatorInstance(space, [alg.one(), t])
    assert traceexp_check(ctx, [t, t + alg.one()]).ok


# -- presentation through plain alternators, the norm's oracle


def test_presentation_round_trip_random():
    from altkit.alternator import random_invariant

    rng = random.Random(31)
    for n in (2, 3):
        ring = PolyRing(QQ, ("t",))
        space = TensorSpace(n, ring)
        t = ring.variable("t")
        ctx = AlternatorInstance(space, [t**i for i in range(n)])
        for _ in range(6):
            num = random_invariant(rng, space, max_degree=2)
            terms = alternator_pair_presentation(ctx, num)
            rebuilt = space.zero()
            for c, w in terms:
                rebuilt = rebuilt + alpha(space, w).scale(c)
            assert rebuilt == num * ctx.alpha_x


def test_presentation_rejects_noninvariant():
    space, ctx, t = qt_context(2)
    with pytest.raises(NotInvariant):
        alternator_pair_presentation(ctx, pure_tensor(space, [t, space.ring.one()]))


# -- pullback instances and the norm map


def sqrt2_instance(shift=0):
    alg = sqrt2_algebra()
    source = PolyRing(QQ, ("t",))
    image = alg.basis_elem(1) + alg.from_int(shift)
    f = AlgebraMap(source, alg, [image])
    return PullbackInstance(f, [source.one(), source.variable("t")])


def test_instance_discriminant_and_flags():
    inst = sqrt2_instance()
    assert inst.d == 8
    assert inst.is_etale
    inst.require_etale()


def test_instance_rejects_non_basis_image():
    alg = sqrt2_algebra()
    source = PolyRing(QQ, ("t",))
    f = AlgebraMap(source, alg, [alg.from_int(2)])
    with pytest.raises(NotABasis):
        PullbackInstance(f, [source.one(), source.variable("t")])


def test_instance_takes_one_coordinate_determinant(monkeypatch):
    # the discriminant's unit check and det_x share one determinant
    calls = []
    real = norm_universal._coordinate_det

    def counted(alg, elems):
        calls.append(len(elems))
        return real(alg, elems)

    monkeypatch.setattr(norm_universal, "_coordinate_det", counted)
    inst = sqrt2_instance(shift=1)
    assert calls == [2]
    assert inst.det_x == real(inst.E, inst.fx)
    assert inst.d == discriminant(inst.E, inst.fx) == 8
    assert inst.tuple_det(inst.ctx.x) is inst.det_x
    # the shared route keeps the refusal text of discriminant
    alg = sqrt2_algebra()
    source = PolyRing(QQ, ("t",))
    f = AlgebraMap(source, alg, [alg.from_int(2)])
    with pytest.raises(NotABasis) as err:
        PullbackInstance(f, [source.one(), source.variable("t")])
    assert str(err.value) == "coordinate determinant 0 is not a unit"
    with pytest.raises(NotABasis) as err:
        discriminant(alg, [alg.one()])
    assert str(err.value) == "1 elements for rank 2"


def test_norm_map_square_goes_to_discriminant():
    inst = sqrt2_instance()
    nm = NormMap(inst)
    asq = LocalizedElem(inst.ctx, inst.ctx.alpha_sq, 0)
    assert nm.localized_image(asq) == 8
    one = LocalizedElem.from_scalar(inst.ctx, 1)
    assert nm.localized_image(one) == 1


def test_norm_map_structure_constant_goldens():
    inst = sqrt2_instance()
    nm = NormMap(inst)
    t = inst.space.ring.variable("t")
    c = coordinates(inst.ctx, t * t)
    assert nm.localized_image(c[0]) == 2
    assert nm.localized_image(c[1]) == 0


def test_norm_map_pair_routes_agree():
    inst = sqrt2_instance()
    nm = NormMap(inst)
    space = inst.space
    t = space.ring.variable("t")
    ys = (t, t * t)
    via_det = trace_pairing_det(inst, inst.ctx.x, ys)
    pair = inst.ctx.alpha_x * alpha(space, ys)
    via_norm = nm.localized_image(LocalizedElem(inst.ctx, pair, 0))
    assert via_det == via_norm == norm(inst, pair)


def test_norm_map_guards():
    inst = sqrt2_instance()
    nm = NormMap(inst)
    t = inst.space.ring.variable("t")
    other_ctx = AlternatorInstance(inst.space, [t, t * t])
    with pytest.raises(ContextMismatch):
        nm.localized_image(LocalizedElem.from_scalar(other_ctx, 1))
    # a numerator that is not fully invariant has no norm, and no
    # fraction holds one
    lopsided = pure_tensor(inst.space, [t, inst.space.ring.one()])
    with pytest.raises(NotInvariant):
        norm(inst, lopsided)
    with pytest.raises(NotInvariant):
        nm.localized_image(LocalizedElem(inst.ctx, lopsided, 0))


def test_verify_pullback_sqrt2():
    for shift in (0, 1):
        witnesses = verify_pullback(sqrt2_instance(shift=shift))
        assert len(witnesses) == 4
        assert all(w.ok for w in witnesses)


def test_verify_pullback_shifted_basis_coords():
    inst = sqrt2_instance(shift=1)
    fx2 = inst.fx[1]
    assert inst.basis_coords_of([fx2 * fx2]) == [(1, 2)]


def test_verify_pullback_split_gf5():
    alg = split_algebra(GF(5))
    source = PolyRing(GF(5), ("t",))
    f = AlgebraMap(source, alg, [alg.element((1, 4))])
    inst = PullbackInstance(f, [source.one(), source.variable("t")])
    assert inst.is_etale
    assert all(w.ok for w in verify_pullback(inst))


def theta_instance():
    E, B, s = theta_algebra()
    source = PolyRing(QQ, ("s", "t"))
    s_img = E.element((s, B.zero()))
    f = AlgebraMap(source, E, [s_img, E.basis_elem(1)])
    inst = PullbackInstance(f, [source.one(), source.variable("t")])
    return inst, B, s


def test_theta_instance_is_not_etale():
    inst, B, s = theta_instance()
    assert inst.d == s * 4
    assert not inst.is_etale
    with pytest.raises(NotEtale):
        NormMap(inst)


# -- the free case


def test_free_case_sqrt2():
    alg = sqrt2_algebra()
    t = alg.basis_elem(1)
    witnesses = free_case_check(alg, [alg.one(), t], extra=[t + alg.from_int(3)])
    assert len(witnesses) == 4
    assert all(w.ok for w in witnesses)
    assert witnesses[-1].detail == "d = 8"


def test_free_case_split():
    alg = split_algebra(QQ)
    witnesses = free_case_check(alg, [alg.basis_elem(0), alg.basis_elem(1)])
    assert all(w.ok for w in witnesses)


def test_free_case_poly_base():
    E, B, s = theta_algebra()
    witnesses = free_case_check(E, [E.one(), E.basis_elem(1)])
    assert all(w.ok for w in witnesses)
    assert witnesses[-1].detail == "d = 4*s"
