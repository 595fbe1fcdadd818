"""Irreducible characters of GL_n(q) and GU_n(q) by Jordan parameters.

A character is a pair: a semisimple class s together with one partition
per eigenvalue-orbit factor of s (a unipotent label of the centralizer).
Its degree is the p'-part of the index of the centralizer times the
product of the generic degrees of the partitions, an exact integer.

The central translation group Z/M_1 acts on characters by translating s
and carrying the partitions along; stabilizer orders drive both the
restriction combinatorics to the determinant-one subgroup and the
relevance tests used by the local-global comparison.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iproduct
from typing import NamedTuple

from .exactfield import (
    CertificateError,
    SignedPrimePower,
    cycles,
    ell_part,
    ell_val,
    factor_field,
    group_order,
    order_for_ell,
)
from .partitions import e_core_quotient, generic_degree, partitions, wreath_degree
from .ssclasses import (
    centralizer_order,
    centralizer_type,
    eigen_modulus,
    enumerate_ss_classes,
    norm_exponent,
    pgl_ss_classes,
    zhat_translate,
)


class GlobalChar(NamedTuple):
    """Jordan parameter: semisimple class plus one partition per factor."""

    cls: tuple
    parts: tuple


@cache
def enumerate_irr(n: int, sp: SignedPrimePower) -> tuple:
    out = []
    for cls in enumerate_ss_classes(n, sp):
        mults = [m for _, m in cls]
        for parts in iproduct(*(partitions(m) for m in mults)):
            out.append(GlobalChar(cls, parts))
    return tuple(out)


def char_type(chi: GlobalChar) -> tuple:
    """The type of chi: its (orbit degree, multiplicity, partition) triples,
    sorted.  The degree, the centralizer index and the ell-prime tests read
    chi only through its type (J. A. Green, Trans. AMS 80, 1955)."""
    return tuple(sorted((k, m, lam) for ((k, _), m), lam
                        in zip(chi.cls, chi.parts)))


@cache
def index_order(ctype: tuple, n: int, sp: SignedPrimePower) -> int:
    """|G : C_G(s)| for the semisimple classes s of centralizer type ctype."""
    return group_order(n, sp) // centralizer_order(ctype, sp)


def degree(chi: GlobalChar, n: int, sp: SignedPrimePower) -> int:
    idx = ell_part(index_order(centralizer_type(chi.cls), n, sp), sp.p)[1]
    for ((k, _), _), lam in zip(chi.cls, chi.parts):
        idx *= generic_degree(lam, factor_field(k, sp))
    return idx


def zhat_act(chi: GlobalChar, sp: SignedPrimePower, z: int) -> GlobalChar:
    """Tensor by the z-th power of the determinant-type linear character."""
    moved = zhat_translate([(lab, (m, lam)) for (lab, m), lam
                            in zip(chi.cls, chi.parts)], sp, z)
    return GlobalChar(tuple((lab, m) for lab, (m, _) in moved),
                      tuple(lam for _, (_, lam) in moved))


class LabelTable:
    """Label-level facts of every irreducible character on one side.

    Entry i describes chars[i]: its degree, central character, translation
    stabilizer order, and shift[i], the position of its translate by 1 in
    Z/M_1 (by z: shift applied z times).  The same type serves G and N.
    index maps each character to its position.
    """

    __slots__ = ("chars", "index", "degrees", "centrals", "shift", "stabs")

    def __init__(self, chars: tuple, index: dict, degrees: tuple,
                 centrals: tuple, shift: tuple, stabs: tuple) -> None:
        self.chars, self.index, self.degrees = chars, index, degrees
        self.centrals, self.shift, self.stabs = centrals, shift, stabs

    def relevant(self, ell: int) -> tuple:
        """Positions of the characters over an ell-prime character of the
        determinant-one part.

        Restriction to that part is multiplicity free with t = |stab|
        constituents of equal degree, so the constituents are ell-prime
        exactly when the valuations of degree and stabilizer order agree.
        """
        return tuple(i for i, (d, t) in enumerate(zip(self.degrees, self.stabs))
                     if ell_val(d, ell) == ell_val(t, ell))

    def ellprime(self, ell: int) -> tuple:
        """Positions of the characters of ell-prime degree."""
        return tuple(i for i, d in enumerate(self.degrees) if d % ell)


def label_table(chars: tuple, degree, central, shift, m1: int) -> LabelTable:
    """Tabulate degree(c), central(c) and shift(c), the translate of c by 1.

    Z/m1 is cyclic, so a character's orbit is its cycle under shift and its
    stabilizer order is m1 over the cycle length.  Raises CertificateError
    unless shift^m1 is the identity, which also makes shift a permutation.
    """
    index = {c: i for i, c in enumerate(chars)}
    step = tuple(index[shift(c)] for c in chars)
    stabs = [0] * len(chars)
    for cycle in cycles(len(chars), step.__getitem__, m1):
        for i in cycle:
            stabs[i] = m1 // len(cycle)
    return LabelTable(
        chars=chars,
        index=index,
        degrees=tuple(degree(c) for c in chars),
        centrals=tuple(central(c) for c in chars),
        shift=step,
        stabs=tuple(stabs),
    )


@cache
def group_table(n: int, sp: SignedPrimePower) -> LabelTable:
    """The table of Irr(GL_n(eps q)), built once for the life of the process.

    degree runs on the first character of each type and its value is
    repeated over the type; the per-type values are dropped with the build.
    """
    by_type: dict = {}

    def type_degree(chi: GlobalChar) -> int:
        t = char_type(chi)
        deg = by_type.get(t)
        if deg is None:
            deg = by_type[t] = degree(chi, n, sp)
        return deg

    return label_table(enumerate_irr(n, sp), type_degree,
                       lambda chi: norm_exponent(chi.cls, sp),
                       lambda chi: zhat_act(chi, sp, 1), eigen_modulus(1, sp))


def is_ellprime(chi: GlobalChar, n: int, sp: SignedPrimePower, ell: int) -> bool:
    table = group_table(n, sp)
    return table.index[chi] in table.ellprime(ell)


def count_ellprime(n: int, sp: SignedPrimePower, ell: int) -> int:
    return len(group_table(n, sp).ellprime(ell))


def _factors_ellprime(chi: GlobalChar, sp: SignedPrimePower, ell: int) -> bool:
    """Every factor has an e-core smaller than e and an ell-prime quotient."""
    for ((k, _), _), lam in zip(chi.cls, chi.parts):
        e = order_for_ell(factor_field(k, sp).eq, ell)
        core, quot, _ = e_core_quotient(lam, e)
        if sum(core) >= e or ell_val(wreath_degree(quot), ell) != 0:
            return False
    return True


def ellprime_structural(chi: GlobalChar, n: int, sp: SignedPrimePower, ell: int) -> bool:
    """Hook-free test for an ell-prime degree.

    The valuation of the degree splits as the valuation of the
    centralizer index plus, per factor, the valuations of the core
    degree, of the wreath-label degree of the quotient, and of a
    binomial tail.  All three vanish exactly when the core is small and
    the quotient's wreath degree is prime to ell, so no big integers
    need to be formed.
    """
    return (ell_val(index_order(centralizer_type(chi.cls), n, sp), ell) == 0
            and _factors_ellprime(chi, sp, ell))


def global_relevant(chi: GlobalChar, n: int, sp: SignedPrimePower, ell: int) -> bool:
    """Does chi lie over an ell-prime character of the det-one subgroup?"""
    table = group_table(n, sp)
    return table.index[chi] in table.relevant(ell)


def count_irr_sl(n: int, sp: SignedPrimePower) -> int:
    """Number of irreducible characters of the det-one subgroup.

    Each translation orbit of size o contributes s = M_1/o constituents,
    which is s^2/M_1 from each of its o members; a remainder means a
    corrupt stabilizer column and raises CertificateError.
    """
    count, rem = divmod(sum(s * s for s in group_table(n, sp).stabs),
                        eigen_modulus(1, sp))
    if rem:
        raise CertificateError("stabilizer squares do not divide by M_1")
    return count


@cache
def count_jordan_params(n: int, sp: SignedPrimePower) -> int:
    """Same count organized by adjoint semisimple classes, once per group.

    For each translation orbit of semisimple classes and each orbit of
    A(s) on the attached multipartitions, the packet contributes the
    order of the stabilizer of the multipartition in A(s), the subgroup
    of Z/M_1 of order M_1 / |orbit(s)|.  A(s) is cyclic, generated by
    |orbit(s)|, which fixes s, so its orbits are the cycles of that
    translate on the multipartitions.
    """
    m1 = eigen_modulus(1, sp)
    total = 0
    for orbit in pgl_ss_classes(n, sp):
        cls, o = orbit[0], len(orbit)
        a = m1 // o   # |A(s)|
        multis = list(iproduct(*(partitions(m) for _, m in cls)))
        index = {parts: i for i, parts in enumerate(multis)}
        step = lambda i: index[zhat_act(GlobalChar(cls, multis[i]), sp, o).parts]
        total += sum(a // len(c) for c in cycles(len(multis), step, a))
    return total


def to_params(chi: GlobalChar) -> dict:
    return {
        "factors": [[k, e, m] for (k, e), m in chi.cls],
        "parts": [list(p) for p in chi.parts],
    }
