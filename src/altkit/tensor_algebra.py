"""n-fold tensor powers of a free ring, with the symmetric group action.

A tensor lives in the n-fold tensor power of R over its scalar ring A,
where R is either a polynomial ring (labels are monomials) or a finite
free algebra (labels are basis elements).  Terms are stored sparsely as a
dict from a flat label tuple to a nonzero coefficient: each slot
contributes ``width`` integers to the key (the exponent vector of its
monomial, or a single basis index), so permuting factors is a tuple
reshuffle and multiplying monomial labels is a pointwise sum.

Supported arity is 1 <= n <= 5; everything here is exact.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, permutations, product
from operator import itemgetter

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    RingMismatch,
    UnsupportedBase,
)
from .ring_core import (
    AlgebraElem,
    CoeffRing,
    FiniteFreeAlgebra,
    Fraction,
    MultiPoly,
    PolyRing,
    monomial_text,
    power,
    terms_add,
    terms_clean,
    terms_mul,
    terms_neg,
    terms_scale,
    terms_sub,
)

__all__ = [
    "Permutation",
    "TensorSpace",
    "Tensor",
    "pure_tensor",
    "coprojection",
    "is_symmetric",
    "is_sym_n11",
    "polarized_power_sum",
    "unit_tensor",
    "all_signed_permutations",
]

MAX_ARITY = 5


class Permutation:
    """Permutation of n slots, 0-based images: i goes to images[i]."""

    __slots__ = ("n", "images")

    def __init__(self, images):
        self.images = tuple(images)
        self.n = len(self.images)
        if sorted(self.images) != list(range(self.n)):
            raise IndexOutOfRange(f"not a permutation of 0..{self.n - 1}: {images}")

    @classmethod
    def transposition(cls, n, a, b):
        images = list(range(n))
        images[a], images[b] = images[b], images[a]
        return cls(images)

    def inverse(self):
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)

    def sign(self):
        inversions = sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.images[i] > self.images[j]
        )
        return -1 if inversions % 2 else 1

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.images})"


@lru_cache(maxsize=None)
def all_signed_permutations(n):
    """All of S_n with signs, identity first, in a fixed enumeration order."""
    out = []
    for images in permutations(range(n)):
        p = Permutation(images)
        out.append((p, p.sign()))
    return tuple(out)


class TensorSpace:
    """The n-fold tensor power of R over its scalars, as a key codec.

    Knows how to decompose an element of R into (label, coefficient)
    pairs, how to multiply labels, and how to render them; tensors defer
    to their space for everything that depends on R.
    """

    def __init__(self, n, ring):
        if not 1 <= n <= MAX_ARITY:
            raise UnsupportedBase(f"arity {n} outside 1..{MAX_ARITY}")
        if isinstance(ring, PolyRing):
            self.width = len(ring.vars)
            if self.width == 0:
                raise UnsupportedBase("polynomial ambient needs at least one variable")
            self.scalars = ring.coeff
        elif isinstance(ring, FiniteFreeAlgebra):
            self.width = 1
            self.scalars = ring.base
        else:
            raise UnsupportedBase(f"tensor ambient must be PolyRing or FiniteFreeAlgebra, got {ring!r}")
        self.n = n
        self.ring = ring

    @property
    def is_poly(self):
        return isinstance(self.ring, PolyRing)

    def __eq__(self, other):
        return (
            isinstance(other, TensorSpace)
            and self.n == other.n
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.n, self.width))

    def __repr__(self):
        return f"TensorSpace(n={self.n}, ring={self.ring!r})"

    def as_element(self, x):
        """Coerce x to an element of R."""
        if self.is_poly:
            if isinstance(x, MultiPoly):
                if x.parent != self.ring:
                    raise RingMismatch(f"{x!r} not in {self.ring!r}")
                return x
            if isinstance(x, (int, Fraction)):
                return self.ring.embed_scalar(x)
            raise RingMismatch(f"cannot coerce {x!r} into {self.ring!r}")
        if isinstance(x, AlgebraElem):
            if x.alg != self.ring:
                raise RingMismatch("element of a different algebra")
            return x
        if isinstance(x, (tuple, list)):
            return self.ring.element(x)
        if isinstance(x, int):
            return self.ring.from_int(x)
        raise RingMismatch(f"cannot coerce {x!r} into {self.ring!r}")

    def decompose(self, x):
        """(label, coefficient) pairs of an element of R; labels are tuples."""
        x = self.as_element(x)
        if self.is_poly:
            return list(x.terms.items())
        return [((i,), c) for i, c in enumerate(x.coords) if c]

    @cached_property
    def coprojection_frames(self):
        """The unit's terms around each slot, built once.

        Frame p (0-based) holds one (prefix, suffix, c) per pair of unit
        terms on the slots before and after p: the co-projection of r into
        slot p has c * c' at prefix + label + suffix for each term
        (label, c') of r.
        """
        one = self.decompose(self.ring.one())
        units = [[((), self.one_coeff())]]
        for _ in range(self.n - 1):
            units.append([(k + lbl, c * c2) for k, c in units[-1] for lbl, c2 in one])
        return tuple(
            tuple(
                (k1, k3, c1 * c3)
                for k1, c1 in units[p]
                for k3, c3 in units[self.n - 1 - p]
            )
            for p in range(self.n)
        )

    def label_elem(self, label):
        """The element of R carried by one slot label."""
        if self.is_poly:
            return MultiPoly(self.ring, {label: self.scalars.one()}, _clean=True)
        return self.ring.basis_elem(label[0])

    def label_text(self, label):
        if self.is_poly:
            return monomial_text(self.ring.vars, label)
        return f"e{label[0] + 1}"

    def label_sort_key(self, label):
        if self.is_poly:
            return (sum(label), label)
        return label

    def key_slots(self, key):
        w = self.width
        return [key[i * w : (i + 1) * w] for i in range(self.n)]

    def zero(self):
        return Tensor(self, {})

    def one_coeff(self):
        return self.scalars.one()


class Tensor:
    """Sparse tensor: flat label keys to nonzero scalar coefficients."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms, _clean=False):
        self.space = space
        self.terms = terms if _clean else terms_clean(terms, space.scalars.normalize)

    def _compat(self, other):
        if not isinstance(other, Tensor):
            raise RingMismatch(f"expected a tensor, got {other!r}")
        if self.space.n != other.space.n:
            raise ArityMismatch(f"{self.space.n} vs {other.space.n}")
        if self.space.ring != other.space.ring:
            raise RingMismatch("tensors over different rings")

    def __add__(self, other):
        self._compat(other)
        terms = terms_add(self.terms, other.terms, self.space.scalars.normalize)
        return Tensor(self.space, terms, _clean=True)

    def __neg__(self):
        terms = terms_neg(self.terms, self.space.scalars.normalize)
        return Tensor(self.space, terms, _clean=True)

    def __sub__(self, other):
        self._compat(other)
        terms = terms_sub(self.terms, other.terms, self.space.scalars.normalize)
        return Tensor(self.space, terms, _clean=True)

    def scale(self, c):
        scalars = self.space.scalars
        if isinstance(scalars, CoeffRing):
            c = scalars.coerce(c)
        terms = terms_scale(self.terms, c, scalars.normalize)
        return Tensor(self.space, terms, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            return self.scale(other)
        self._compat(other)
        if not self.space.is_poly:
            return self._mul_algebra(other)
        terms = terms_mul(self.terms, other.terms, self.space.scalars)
        return Tensor(self.space, terms, _clean=True)

    def __rmul__(self, other):
        if isinstance(other, Tensor):
            return NotImplemented
        return self.scale(other)

    def _mul_algebra(self, other):
        alg = self.space.ring
        pairs = alg._pairs
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c12 = c1 * c2
                slot_lists = [pairs[a][b] for a, b in zip(k1, k2)]
                for choice in product(*slot_lists):
                    key = tuple(k for k, _ in choice)
                    c = c12
                    for _, sc in choice:
                        c = c * sc
                    s = acc.get(key)
                    acc[key] = c if s is None else s + c
        return Tensor(self.space, acc)

    def __pow__(self, k):
        return power(self, k, unit_tensor(self.space))

    def permute(self, perm):
        """Move the factor in slot i to slot perm.images[i]."""
        n, w = self.space.n, self.space.width
        if perm.n != n:
            raise ArityMismatch(f"permutation of {perm.n} on arity {n}")
        inv = perm.inverse().images
        idx = [inv[i] * w + c for i in range(n) for c in range(w)]
        return Tensor(
            self.space,
            {tuple(key[t] for t in idx): c for key, c in self.terms.items()},
            _clean=True,
        )

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.space.n == other.space.n
            and self.space.ring == other.space.ring
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def sorted_keys(self):
        space = self.space
        return sorted(
            self.terms,
            key=lambda k: tuple(space.label_sort_key(s) for s in space.key_slots(k)),
        )

    def to_text(self):
        """Stable text form: ``2*[t|1] - 1*[1|t^2]`` style, sorted terms."""
        if not self.terms:
            return "0"
        space = self.space
        scalars = space.scalars
        # a GF(p) value lies in 0..p-1, so it never takes the minus sign
        signable = isinstance(scalars, CoeffRing)
        chunks = []
        for key in self.sorted_keys():
            c = self.terms[key]
            body = "[" + "|".join(space.label_text(s) for s in space.key_slots(key)) + "]"
            if signable:
                neg = c < 0
                mag = -c if neg else c
                text = f"{scalars.to_text(mag)}*{body}"
                if not chunks:
                    chunks.append(f"-{text}" if neg else text)
                else:
                    chunks.append(f" - {text}" if neg else f" + {text}")
            else:
                ctext = scalars.to_text(c)
                if "+" in ctext or "-" in ctext:
                    ctext = f"({ctext})"
                text = f"{ctext}*{body}"
                chunks.append(text if not chunks else f" + {text}")
        return "".join(chunks)

    def __repr__(self):
        return f"Tensor({self.to_text()!r})"


def pure_tensor(space, elems):
    """Expand r_1 (x) ... (x) r_n multilinearly into a tensor."""
    if len(elems) != space.n:
        raise ArityMismatch(f"{len(elems)} factors for arity {space.n}")
    items = [((), space.one_coeff())]
    for e in elems:
        decomp = space.decompose(e)
        items = [(k + lbl, c * c2) for k, c in items for lbl, c2 in decomp]
        if not items:
            return space.zero()
    return Tensor(space, dict(items))


def _frame_sum(space, frames, r):
    # r placed into every frame, in one dict
    rs = space.decompose(r)
    acc = {}
    for prefix, suffix, c1 in frames:
        for label, c2 in rs:
            k = prefix + label + suffix
            c = c1 * c2
            s = acc.get(k)
            acc[k] = c if s is None else s + c
    return Tensor(space, acc)


def coprojection(space, p, r):
    """The tensor 1 (x) .. (x) r (x) .. (x) 1 with r in slot p (1-based)."""
    if not 1 <= p <= space.n:
        raise IndexOutOfRange(f"slot {p} outside 1..{space.n}")
    return _frame_sum(space, space.coprojection_frames[p - 1], r)


def unit_tensor(space):
    return pure_tensor(space, [space.ring.one()] * space.n)


@lru_cache(maxsize=None)
def _adjacent_swaps(n, width):
    """Getters of flat keys with slots i and i+1 exchanged, i < n - 1."""
    swaps = []
    for i in range(n - 1):
        idx = list(range(n * width))
        lo, mid, hi = i * width, (i + 1) * width, (i + 2) * width
        idx[lo:hi] = idx[mid:hi] + idx[lo:mid]
        swaps.append(itemgetter(*idx))
    return tuple(swaps)


def _fixed_by_adjacent(t, slots):
    # invariance under the group the transpositions (i, i+1), i < slots - 1,
    # generate: the symmetric group on the first ``slots`` slots.  A
    # transposition s fixes t when t[s(k)] = t[k] at every term k: s is a
    # bijection of keys, so it then maps the support onto itself
    terms = t.terms
    swaps = _adjacent_swaps(t.space.n, t.space.width)
    for i in range(slots - 1):
        swap = swaps[i]
        for k, c in terms.items():
            d = terms.get(swap(k))
            if d is None or d != c:
                return False
    return True


def is_symmetric(t):
    """Invariance under all of S_n, checked on adjacent transpositions."""
    return _fixed_by_adjacent(t, t.space.n)


def is_sym_n11(t):
    """Invariance under S_{n-1} permuting the first n-1 slots only."""
    return _fixed_by_adjacent(t, t.space.n - 1)


def polarized_power_sum(space, z):
    """Sum of the n co-projections of z, an S_n-invariant tensor, built in
    one dict over every slot's co-projection frames."""
    return _frame_sum(space, chain.from_iterable(space.coprojection_frames), z)
