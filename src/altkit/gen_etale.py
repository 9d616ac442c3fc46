"""The saturated base, the single-pair pullback, and the repeated-point probe.

When the discriminant is a nonzerodivisor but not a unit, dividing by it
outright is no longer available.  The fix is to shrink the source to the
subring generated by pair fractions: products of two alternators over one
power of the alternator square.  Those generators map to trace-pairing
determinants over one power of the discriminant.  The norm map lives in
norm_universal and is re-exported here: NormMapPlus.localized_image takes
a coordinate fraction through the norm, NormMapPlus.fraction_image takes
pair fractions as plain (c, pairs) terms, and both divide by exact
solving, never by inverting.

The quotient that makes the discriminant a nonzerodivisor is computed
explicitly: for a finite-dimensional base of rank r the annihilator of
all powers of the discriminant is the kernel of its r-th power (Fitting's
lemma), and the quotient ring is rebuilt with its own validated
structure constants.  A separate probe decides repeated-point support by
the rank of the table of monomial evaluations at the points: its maximal
minors all vanish exactly on the blow-up's degenerate locus in
coordinates.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    ArityMismatch,
    PreconditionViolated,
    UnsupportedBase,
    VerificationFailed,
)
from .norm_universal import (
    NormMapPlus,
    constants_witness,
    is_nonzerodivisor,
    pullback_constants,
)
from .ring_core import (
    CoeffRing,
    FiniteFreeAlgebra,
    PolyRing,
    echelon,
    nullspace,
)

__all__ = [
    "is_nonzerodivisor",
    "is_generically_etale",
    "BPlus",
    "b_plus",
    "NormMapPlus",
    "check_pullback_plus",
    "verify_pullback_plus",
    "diagonal_support_probe",
    "MAX_PROBE_WORK",
]


# ---------------------------------------------------------------------------
# the saturated quotient


def is_generically_etale(inst):
    """The instance discriminant is a nonzerodivisor in the base."""
    return is_nonzerodivisor(inst.E.base, inst.d)


class BPlus:
    """The base ring modulo everything some discriminant power kills.

    For domains that is the base itself, or the zero ring when the
    discriminant is zero.  For a finite-dimensional base of rank r over a
    field the annihilator of all discriminant powers is the kernel of
    multiplication by d^r, and the quotient comes back as a validated
    algebra on the coordinates that are not pivots of that kernel.
    Afterwards the reduced discriminant is always a nonzerodivisor, which
    is checked before returning.
    """

    def __init__(self, base, d):
        self.base = base
        self.d = d
        if isinstance(base, (CoeffRing, PolyRing)):
            self.is_zero_ring = base.is_zero(d)
            self.desc = None if self.is_zero_ring else base
            self._kernel = []
            self._pivots = []
        elif isinstance(base, FiniteFreeAlgebra):
            if not (isinstance(base.base, CoeffRing) and base.base.is_field):
                raise UnsupportedBase(
                    "saturation needs a finite-dimensional base over a field"
                )
            self._build_quotient(base, d)
        else:
            raise UnsupportedBase(f"no saturation for {base!r}")
        if not self.is_zero_ring and not is_nonzerodivisor(
            self.desc, self.reduce(d)
        ):
            raise VerificationFailed("reduced discriminant still kills something")

    def _build_quotient(self, base, d):
        field = base.base
        rank = base.rank
        # the kernels of the powers of d stop growing by power rank, so
        # that power's kernel is everything some power of d kills
        kernel = nullspace(base.mult_matrix(d**rank), field)
        # reduced so each row is 1 at its own pivot and 0 at the others
        lead, rows = echelon(kernel, field)
        self._kernel = [
            (p, [field.divide_exact(x, lead) for x in row]) for p, row in rows
        ]
        lead_cols = {p for p, _ in rows}
        self._pivots = [c for c in range(rank) if c not in lead_cols]
        self.is_zero_ring = not self._pivots
        if self.is_zero_ring:
            self.desc = None
            return
        structure = [
            [
                self._restrict(self._clear(base.mul_vec(
                    base.basis_elem(p).coords, base.basis_elem(q).coords
                )))
                for q in self._pivots
            ]
            for p in self._pivots
        ]
        unit = self._restrict(self._clear(list(base.unit)))
        self.desc = FiniteFreeAlgebra(field, len(self._pivots), structure, unit)

    def _clear(self, coords):
        coords = list(coords)
        for col, vec in self._kernel:
            f = coords[col]
            if f:
                coords = [a - f * b for a, b in zip(coords, vec)]
        return coords

    def _restrict(self, coords):
        return tuple(coords[p] for p in self._pivots)

    @property
    def rank(self):
        if self.is_zero_ring:
            return 0
        if isinstance(self.desc, FiniteFreeAlgebra):
            return self.desc.rank
        return 1

    def reduce(self, v):
        """Image of a base element in the quotient; None in the zero ring."""
        if self.is_zero_ring:
            return None
        if self.desc is self.base:
            return v
        coords = v.coords if hasattr(v, "coords") else tuple(v)
        return self.desc.element(self._restrict(self._clear(list(coords))))


def b_plus(inst):
    return BPlus(inst.E.base, inst.d)


# ---------------------------------------------------------------------------
# the pullback along the solving norm map


def check_pullback_plus(inst, nm):
    """Witnesses of the solving norm map nm and the constant rows they compare.

    Route one takes the norm of each coordinate fraction
    (nm.localized_image).  Route two expresses each coordinate directly
    as a single pair, the anchor with one entry replaced by the product
    against the anchor, and takes its trace-pairing determinant
    (nm.pair_image).  The routes meet only in the map f and the
    determinant routine, and both must land on the image-basis
    coordinates computed in the algebra.
    """
    ctx, base = inst.ctx, inst.E.base
    unit, rows = pullback_constants(inst, nm)
    witnesses = [constants_witness("pullback_plus[unit]", base, *unit)]
    for i, j, prod, mapped, direct in rows:
        single = [
            nm.pair_image(ctx.x_replaced(k, prod), ctx.x)
            for k in range(1, inst.E.rank + 1)
        ]
        witnesses.append(
            constants_witness(
                f"pullback_plus[{i + 1},{j + 1}]", base, mapped, direct
            )
        )
        witnesses.append(
            constants_witness(f"pair_route[{i + 1},{j + 1}]", base, single, direct)
        )
    return witnesses, rows


def verify_pullback_plus(inst):
    """Mapped constants against the algebra's own, along two routes."""
    return check_pullback_plus(inst, NormMapPlus(inst))[0]


# ---------------------------------------------------------------------------
# repeated-point support probe


# Elimination steps one probe may take: n^2 per evaluated monomial plus
# n^3 per explicit group, for n points.  The dearest accepted grid probes
# have a repeated point (64 points of dimension 1, 8 of dimension 4, 4 of
# 7, 3 of 9, 2 of 16, 22 of 2): with coordinates in -9..9 over Q each
# takes 0.07-0.16 s, and over GF(10007) 0.15-0.66 s, on Python 3.11.7
# with 2 vCPUs.  The bound counts steps, not bits: every entry of the
# elimination is a minor of the table, so large coordinates cost more,
# most with many points of dimension 1.  64 such points with a repeat
# and coordinates up to 10^6 take about 55 s.
MAX_PROBE_WORK = 2**18


def _grid_work(n, k):
    # n^k grows step by step and stops once past the bound, so a huge k
    # never forms it
    size = 1
    for _ in range(k):
        if n * n * size > MAX_PROBE_WORK:
            break
        size *= n
    return n * n * size


class _ExponentBlock(tuple):
    """Explicit probe groups already in the probe's own form.

    A nonempty tuple of groups of one length, each a tuple of nonempty
    row tuples of exact ints in 0..MAX_POWER_EXPONENT.  ``columns`` lists
    the distinct rows in first-seen order.  Only ``cli._parse_tuples``
    builds one, after checking every exponent, so the probe takes its
    columns as they are and the report renderer writes it with no
    further check.
    """


def _explicit_columns(n, groups):
    """The distinct monomials the groups name, after checking each group.

    Group lengths are checked in one pass.  The columns are the distinct
    rows themselves, so the groups hold hashable rows; a checked block
    lists them already.
    """
    if set(map(len, groups)) - {n}:
        raise ArityMismatch(f"need {n} monomials per determinant")
    if type(groups) is _ExponentBlock:
        columns = groups.columns
    else:
        columns = list(dict.fromkeys(itertools.chain.from_iterable(groups)))
    # a negative power would leave the ring: over Z, 2**-1 is a float
    if any(type(e) is not int or e < 0 for m in columns for e in m):
        raise PreconditionViolated("monomial exponents are non-negative integers")
    return columns


def _grid_row(point, n, scalars):
    """The point at each monomial with exponents below n, in product order.

    Entries come lazily, so the table is never held whole: with large
    coordinates it can take gigabytes.  The trailing half of the
    coordinates is multiplied out once, so an entry costs about one
    product.
    """
    norm, p = scalars.normalize, scalars.p
    powers = [[pow(c, e, p) for e in range(n)] for c in point]
    half = len(powers) // 2
    tail = [math.prod(t) for t in itertools.product(*powers[half:])]
    for t in itertools.product(*powers[:half]):
        a = math.prod(t)
        yield from [norm(a * b) for b in tail]


def diagonal_support_probe(scalars, points, tuples=None):
    """Do the points sit on the repeated-point locus?

    Evaluates monomials at the points, one row per point, and asks
    whether every n x n minor of that table vanishes, which holds exactly
    when its rank is below n.  A repeated point repeats a row, so every
    minor vanishes; pairwise distinct points leave a nonzero one among
    the monomials of a full degree-below-n grid per variable, the default.
    Explicit ``tuples`` name the minors instead, as groups of n vectors
    of non-negative exponents; a group with a repeated monomial is
    singular.  Returns True exactly when every named minor vanishes.

    Rank is found by fraction-free elimination over the given scalars,
    which streams the table's columns, keeps none and stops at rank n.
    Every group length and the work bound MAX_PROBE_WORK are checked
    before any evaluation.
    """
    n = len(points)
    if n == 0:
        raise ArityMismatch("no points given")
    k = len(points[0])
    if any(len(p) != k for p in points):
        raise ArityMismatch("points of mixed dimension")
    if not isinstance(scalars, CoeffRing):
        raise UnsupportedBase(f"no probe over {scalars!r}; expected Q, Z or GF(p)")
    if tuples is None:
        work = _grid_work(n, k)
    else:
        groups = (
            tuples
            if type(tuples) is _ExponentBlock
            else [tuple(map(tuple, monos)) for monos in tuples]
        )
        columns = _explicit_columns(n, groups)
        work = n * n * len(columns) + n**3 * len(groups)
    if work > MAX_PROBE_WORK:
        raise PreconditionViolated(
            f"probing {n} points of dimension {k} takes more than "
            f"MAX_PROBE_WORK = {MAX_PROBE_WORK} elimination steps"
        )
    pts = [
        [scalars.from_int(c) if isinstance(c, int) else c for c in p] for p in points
    ]
    # over GF(p) each power is taken mod p, so a large exponent never
    # builds a large int
    norm, p = scalars.normalize, scalars.p

    def full_rank(cols):
        return len(echelon(cols, scalars, limit=n)[1]) == n

    if tuples is None:
        return not full_rank(zip(*[_grid_row(pt, n, scalars) for pt in pts]))

    def column(m):
        # evaluated on use and not kept, like the grid's entries
        return [
            norm(math.prod(pow(c, e, p) for c, e in zip(pt, m) if e)) for pt in pts
        ]

    if not full_rank(map(column, columns)):
        return True
    return not any(full_rank(map(column, monos)) for monos in groups)
