"""Monogenic instances, polynomial values, and the norm-map route that
the norm replaced.

``alternator_pair_presentation`` rewrote a fully invariant tensor times
alpha(x) as a signed sum of plain alternators and re-checked the sum;
``presentation_image`` took each alternator pair to its trace-pairing
determinant and divided once by the (exp + 1)-th discriminant power.
Both stay here as the oracle of ``norm_universal.norm`` and of
``NormMapPlus.localized_image``.
"""

from altkit.alternator import alpha
from altkit.errors import NotInvariant, VerificationFailed
from altkit.ring_core import AlgebraMap, FiniteFreeAlgebra, PolyRing
from altkit.tensor_algebra import Tensor, is_symmetric


def alternator_pair_presentation(ctx, num):
    """A fully invariant tensor times alpha(x), as signed plain alternators.

    Term by term: the slot labels of the tensor multiply into the anchor
    entries, giving one alternator per term.  The rewriting is re-checked
    exactly before returning.
    """
    space = ctx.space
    if not is_symmetric(num):
        raise NotInvariant("presentation needs a fully invariant tensor")
    terms = []
    # one dict for the whole sum, normalized once into one tensor: a
    # tensor per partial sum would copy the growing sum once per term
    acc = {}
    for key, c in num.terms.items():
        labels = space.key_slots(key)
        w = tuple(xj * space.label_elem(lab) for xj, lab in zip(ctx.x, labels))
        terms.append((c, w))
        for k, v in alpha(space, w).terms.items():
            acc[k] = acc[k] + v * c if k in acc else v * c
    if Tensor(space, acc) != num * ctx.alpha_x:
        raise VerificationFailed("presentation failed to rebuild the input")
    return tuple(terms)


def presentation_image(nm, le):
    """localized_image before the norm: num * alpha_sq as pairs
    alpha(x)*alpha(w), each to its pairing determinant, over d^(exp + 1)."""
    x = nm.inst.ctx.x
    terms = [
        (c, ((x, w),)) for c, w in alternator_pair_presentation(nm.inst.ctx, le.num)
    ]
    return nm.fraction_image(terms, le.exp + 1)


def monogenic(base, tail):
    """base[u]/(u^r - sum_i tail[i] u^i) on the basis 1, u, ..., u^(r-1)."""
    r = len(tail)
    zero, one = base.zero(), base.one()
    powers = []
    cur = [one] + [zero] * (r - 1)
    for _ in range(2 * r - 1):
        powers.append(tuple(cur))
        top = cur[-1]
        cur = [
            base.normalize(c + top * t) for c, t in zip([zero] + cur[:-1], tail)
        ]
    structure = tuple(tuple(powers[i + j] for j in range(r)) for i in range(r))
    return FiniteFreeAlgebra(base, r, structure, powers[0])


def monogenic_source(E):
    """The source ring and f: t -> u, with the base variables mapped to
    themselves times the unit, as `altkit instance` builds it."""
    base = E.base
    if isinstance(base, PolyRing):
        source = PolyRing(base.coeff, base.vars + ("t",))
        images = [E.element([base.variable(v) * c for c in E.unit]) for v in base.vars]
    else:
        # an algebra base takes the source scalars through its unit
        scalars = base.base if isinstance(base, FiniteFreeAlgebra) else base
        source = PolyRing(scalars, ("t",))
        images = []
    images.append(E.basis_elem(1))
    return source, AlgebraMap(source, E, images)


def value_at(poly, point):
    """poly at a point of its coefficient ring, one value per variable."""
    coeff = poly.parent.coeff
    acc = coeff.zero()
    for k, c in poly.terms.items():
        for x, e in zip(point, k):
            c = c * x**e
        acc = acc + c
    return coeff.normalize(acc)


def power_anchor(source, r):
    t = source.variable("t")
    return [t**k for k in range(r)]
