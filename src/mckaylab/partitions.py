"""Partition combinatorics.

Hook lengths, e-core/e-quotient decompositions via beta-sets, generic degrees
of unipotent characters of GL_n(eps*q) evaluated exactly at the signed prime
power, and irreducible labels and degrees of wreath products C_e wr S_w
(for w = |mu|, the label (mu,) gives the S_w dimension by the hook formula).
Partitions are weakly decreasing tuples of positive ints.
"""

from __future__ import annotations

import math
from functools import cache

from .exactfield import CertificateError, SignedPrimePower

Partition = tuple[int, ...]
WreathLabel = tuple[Partition, ...]


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order; (()) for n = 0.

    Each partition after (n,) is the successor of the one before: its last
    part above 1 and the 1s after it are taken off, and their total is put
    back as copies of that part minus one, with any smaller remainder last.
    The walk ends at (1,) * n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out, lam = [(n,)], [n]
    while lam[0] > 1:
        ones = 0
        while lam[-1] == 1:
            lam.pop()
            ones += 1
        part = lam.pop() - 1
        whole, rest = divmod(part + 1 + ones, part)
        lam.extend([part] * whole)
        if rest:
            lam.append(rest)
        out.append(tuple(lam))
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def hook_lengths(lam: Partition) -> tuple[int, ...]:
    """Multiset of hook lengths, sorted descending."""
    conj = conjugate(lam)
    hooks = []
    for i, row in enumerate(lam):
        for j in range(row):
            hooks.append(row - j + conj[j] - i - 1)
    return tuple(sorted(hooks, reverse=True))


def n_lambda(lam: Partition) -> int:
    """sum_i (i-1) * lam_i with rows numbered from 1."""
    return sum(i * part for i, part in enumerate(lam))


def beta_set(lam: Partition, length: int) -> tuple[int, ...]:
    """First-column hook lengths of lam padded to the given number of beads."""
    if length < len(lam):
        raise ValueError("beta-set length too small")
    padded = lam + (0,) * (length - len(lam))
    return tuple(padded[i] + (length - 1 - i) for i in range(length))


def _partition_from_beta(beta: tuple[int, ...]) -> Partition:
    desc = sorted(beta, reverse=True)
    k = len(desc)
    parts = tuple(desc[i] - (k - 1 - i) for i in range(k))
    return tuple(p for p in parts if p > 0)


@cache
def e_core_quotient(lam: Partition, e: int) -> tuple[Partition, WreathLabel, int]:
    """(e-core, e-quotient, weight) of lam.

    Uses a beta-set whose length is a multiple of e (the convention that
    makes the quotient independent of padding).  |core| + e*w = |lam| and the
    quotient's component sizes sum to w.  Memoised, so each distinct
    (lam, e) is split and certified once.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    length = e * (len(lam) // e + 1)
    beta = beta_set(lam, length)
    runners: list[list[int]] = [[] for _ in range(e)]
    for b in beta:
        runners[b % e].append(b // e)
    quotient = tuple(_partition_from_beta(tuple(r)) for r in runners)
    core_beta = []
    for r, runner in enumerate(runners):
        core_beta.extend(e * j + r for j in range(len(runner)))
    core = _partition_from_beta(tuple(core_beta))
    w = sum(sum(mu) for mu in quotient)
    if sum(core) + e * w != sum(lam):
        raise CertificateError("|core| + e * weight differs from |lam|")
    return core, quotient, w


def generic_degree(lam: Partition, sp: SignedPrimePower) -> int:
    """|Deg_lam(eps*q)| for the unipotent character labelled by lam.

    Deg_lam(x) = x^n(lam) * prod_{k<=|lam|}(x^k - 1) / prod_hooks(x^h - 1),
    evaluated exactly; the division is checked to be exact.
    """
    x = sp.eq
    size = sum(lam)
    if size == 0:
        return 1
    num = x ** n_lambda(lam)
    for k in range(1, size + 1):
        num *= x**k - 1
    den = 1
    for h in hook_lengths(lam):
        den *= x**h - 1
    quotient, rem = divmod(num, den)
    if rem:
        raise CertificateError(f"generic degree of {lam} is not a polynomial")
    return abs(quotient)


@cache
def wreath_labels(e: int, w: int) -> tuple[WreathLabel, ...]:
    """All e-tuples of partitions with total size w, in a fixed order."""
    if e < 1 or w < 0:
        raise ValueError("need e >= 1, w >= 0")

    def gen(slots: int, remaining: int):
        if slots == 1:
            for lam in partitions(remaining):
                yield (lam,)
            return
        for here in range(remaining + 1):
            for lam in partitions(here):
                for rest in gen(slots - 1, remaining - here):
                    yield (lam,) + rest

    return tuple(gen(e, w))


@cache
def wreath_degree(label: WreathLabel) -> int:
    """Degree of the C_e wr S_w irreducible with the given label:
    multinomial over component sizes times product of S_k dimensions."""
    w = sum(sum(mu) for mu in label)
    den = 1
    for mu in label:
        for h in hook_lengths(mu):
            den *= h
    deg, rem = divmod(math.factorial(w), den)
    if rem:
        raise CertificateError(f"hook product of {label} does not divide {w}!")
    return deg
