"""Iterated wreath products of cyclic schemes and their class bookkeeping.

Classes of C_{p_1} wr ... wr C_{p_d} carry two coordinate systems: a flat
index 0..sum(p_i - 1) matching the Scheme class numbering, and a
(level, offset) pair where level i in 1..d names the cyclic factor and
offset runs over 1..p_i - 1 (the identity relation is the single
level-0 index).  Vertices are mixed-radix tuples with the last factor
most significant, so vertex = x_1 + p_1*(x_2 + p_2*(...)).  The translation
certificate tests that adding 1 to any one digit keeps the class table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from math import prod

from .scheme import AxiomViolation, CheckResult, FrozenRecord, Scheme

__all__ = [
    "WreathIndex",
    "check_moduli",
    "num_classes",
    "class_indices",
    "index_from_flat",
    "indices_below_level",
    "cyclic_scheme",
    "wreath_product",
    "wreath_of_cyclics",
    "predict_vanishing",
    "check_vanishing_criterion",
    "check_translation_certificate",
]


def check_moduli(moduli) -> tuple[int, ...]:
    """The moduli as a tuple; a ValueError unless each is an int (not a
    bool) of at least 2 and there is one or more."""
    m = tuple(moduli)
    bad = next((p for p in m if not isinstance(p, int) or isinstance(p, bool)), None)
    if bad is not None:
        raise ValueError(f"every modulus must be an integer, got {bad!r}")
    if not m:
        raise ValueError("at least one modulus is required")
    if any(p < 2 for p in m):
        raise ValueError("every modulus must be at least 2")
    return m


class WreathIndex(FrozenRecord):
    """A wreath class label: level 0 is the identity class, level i >= 1
    carries an offset in 1..p_i - 1, read modulo p_i.  ``flat``, its index
    in the Scheme class numbering, is set at construction."""

    __slots__ = ("level", "offset", "moduli", "flat")
    _fields = ("level", "offset", "moduli")

    def __init__(self, level: int, offset: int, moduli: tuple[int, ...]):
        moduli = check_moduli(moduli)
        if not 0 <= level <= len(moduli):
            raise ValueError(f"level {level} out of range for {moduli}")
        if level == 0:
            if offset != 0:
                raise ValueError("the level-0 class has no offset")
            flat = 0
        else:
            off = offset % moduli[level - 1]
            if off == 0:
                raise ValueError(f"offset {offset} collapses to 0 modulo {moduli[level - 1]}")
            offset = off
            flat = sum(p - 1 for p in moduli[: level - 1]) + offset
        self._freeze(level=level, offset=offset, moduli=moduli, flat=flat)

    def __repr__(self):
        return f"WreathIndex({self.level},{self.offset})"


def num_classes(moduli) -> int:
    return 1 + sum(p - 1 for p in check_moduli(moduli))


@lru_cache(maxsize=None)
def _class_indices(moduli: tuple[int, ...]) -> tuple[WreathIndex, ...]:
    out = [WreathIndex(0, 0, moduli)]
    for level, p in enumerate(moduli, start=1):
        for offset in range(1, p):
            out.append(WreathIndex(level, offset, moduli))
    return tuple(out)


def class_indices(moduli) -> tuple[WreathIndex, ...]:
    """All class labels in flat order."""
    return _class_indices(check_moduli(moduli))


def index_from_flat(moduli, k: int) -> WreathIndex:
    indices = class_indices(moduli)
    if not 0 <= k < len(indices):
        raise ValueError(f"flat index {k} out of range")
    return indices[k]


def indices_below_level(moduli, level: int) -> tuple[WreathIndex, ...]:
    """All class labels whose level is strictly below ``level`` (flat order)."""
    return tuple(ix for ix in class_indices(moduli) if ix.level < level)


def _as_index(moduli, value) -> WreathIndex:
    if isinstance(value, WreathIndex):
        if value.moduli != tuple(moduli):
            raise ValueError("index belongs to different moduli")
        return value
    return index_from_flat(moduli, value)


# -- constructors ---------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclic_scheme(n: int) -> Scheme:
    """The group scheme of Z/n: classify(x, y) = (y - x) mod n."""
    if n < 1:
        raise ValueError("cyclic scheme needs at least one vertex")
    return Scheme.from_classifier(n, lambda x, y: (y - x) % n, classes=n)


def wreath_product(inner: Scheme, outer: Scheme) -> Scheme:
    """Wreath product: copies of ``inner`` indexed by ``outer`` vertices.

    Pairs inside one copy are classified by ``inner``; pairs across copies
    by ``outer`` shifted past the inner classes.  Vertex (x, y_j) is
    encoded as j*|inner| + x.
    """
    for name, factor in (("inner", inner), ("outer", outer)):
        axioms = factor.verify_axioms()
        if not axioms.passed:
            raise ValueError(f"{name} factor fails the scheme axioms: {axioms.witness}")
    u = inner.order
    d = inner.classes - 1

    def classify(v, w):
        xv, jv = v % u, v // u
        xw, jw = w % u, w // u
        if jv == jw:
            return inner.table[xv][xw]
        return d + outer.table[jv][jw]

    return Scheme.from_classifier(u * outer.order, classify, classes=inner.classes + outer.classes - 1)


@lru_cache(maxsize=None)
def _wreath_of_cyclics(moduli: tuple[int, ...]) -> Scheme:
    scheme = cyclic_scheme(moduli[0])
    for p in moduli[1:]:
        scheme = wreath_product(scheme, cyclic_scheme(p))
    return scheme


def wreath_of_cyclics(moduli) -> Scheme:
    """Left fold of wreath products over cyclic factors; class k has flat index k."""
    return _wreath_of_cyclics(check_moduli(moduli))


# -- the vanishing criterion ------------------------------------------------------


def predict_vanishing(moduli, a, b, c) -> bool:
    """Closed-form test: is the intersection number p_{ab}^c of three wreath
    classes zero?  Accepts WreathIndex labels or flat indices."""
    m = check_moduli(moduli)
    return _vanishes(m, _as_index(m, a), _as_index(m, b), _as_index(m, c))


def _vanishes(m: tuple[int, ...], a: WreathIndex, b: WreathIndex, c: WreathIndex) -> bool:
    """``predict_vanishing`` on labels of the checked moduli ``m``."""
    i, al = a.level, a.offset
    j, be = b.level, b.offset
    h, ga = c.level, c.offset
    if i == j == h:
        if i == 0:
            return False
        return (al + be - ga) % m[i - 1] != 0
    if i == j:
        if h > i:
            return True
        return (al + be) % m[i - 1] != 0
    if i == h:
        if j > i:
            return True
        return al != ga
    if j == h:
        if i > j:
            return True
        return be != ga
    return True


def check_vanishing_criterion(scheme: Scheme, moduli) -> CheckResult:
    """Cross-check the closed form against the intersection numbers of
    ``scheme`` for every triple of classes of the moduli.

    A scheme with another number of classes raises ValueError.  Where an
    intersection number is not well defined, the check fails with the
    scheme's witness, after the triples ``checked`` before it."""
    m = check_moduli(moduli)
    indices = _class_indices(m)
    if scheme.classes != len(indices):
        raise ValueError(f"a table of {scheme.classes} classes has no class labels over {m}")
    checked = 0
    for a, b, c in iter_product(indices, repeat=3):
        try:
            count = scheme.intersection_number(a.flat, b.flat, c.flat)
        except AxiomViolation as exc:
            return CheckResult("vanishing", False, str(exc), checked)
        checked += 1
        if _vanishes(m, a, b, c) != (count == 0):
            witness = (f"classes ({a},{b},{c}): predicted "
                       f"{'nonzero' if count == 0 else 'zero'} but count is {count}")
            return CheckResult("vanishing", False, witness, checked)
    return CheckResult("vanishing", True, None, checked)


# -- the translation certificate ------------------------------------------------------


def check_translation_certificate(scheme: Scheme, moduli) -> CheckResult:
    """Test that every translation of Z/p_1 x ... x Z/p_d preserves the table.

    The unit translation sigma_i adds 1 to digit i modulo p_i, digit 1
    being the least significant as in the vertex encoding; the check
    compares t[sigma_i(y)][sigma_i(z)] with t[y][z] for every i, y and z,
    d * n^2 comparisons.  The sigma_i generate the translations, and the
    translation by x maps 0 to x.  A table automorphism fixes every A_j and
    conjugates E*_j(0) to E*_j(x), so once this passes, every check at x is
    the conjugate of the same check at 0 (Terwilliger 1992).  The witness
    names the first translation and pair (y, z) whose class is not kept.
    """
    m = check_moduli(moduli)
    n = scheme.order
    if n != prod(m):
        raise ValueError(f"a table of order {n} has no vertex encoding over {m}")
    t = scheme.table
    checked = 0
    stride = 1
    for i, p in enumerate(m, start=1):
        sigma = [v - (p - 1) * stride if v // stride % p == p - 1 else v + stride
                 for v in range(n)]
        for y in range(n):
            image = t[sigma[y]]
            row = tuple(image[sz] for sz in sigma)
            if row != t[y]:
                z = next(z for z in range(n) if row[z] != t[y][z])
                return CheckResult(
                    "translation-certificate",
                    False,
                    f"sigma_{i} (+1 on digit {i} mod {p}) maps ({y},{z}) in class "
                    f"{t[y][z]} to ({sigma[y]},{sigma[z]}) in class {row[z]}",
                    checked + z + 1,
                )
            checked += n
        stride *= p
    return CheckResult("translation-certificate", True, None, checked)
