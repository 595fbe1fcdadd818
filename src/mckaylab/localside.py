"""Characters of the normalizer of a maximal ell-split Levi torus.

For ell not dividing q, let d0 be the multiplicative order of the
signed field size eq modulo ell (modulo 4 when ell = 2), a = n // d0
and m = n % d0.  The relevant local subgroup is

    N = (GL_m(eq) x (C_Q)^a) : (C_d0 wr S_a),    Q = |q^d0 - eps^d0|,

where the cyclic C_d0 acts on each torus coordinate C_Q by the eq-power
map.  Its irreducible characters are Clifford data: a character of the
GL_m factor, a multiset of eq-power orbits on Z/Q with multiplicities
summing to a, and per orbit a wreath label for the inertia quotient
C_t wr S_s with t = d0 / (orbit size).

The transport map carries a character of GL_n(eq) lying over an
ell-prime character of the determinant-one subgroup to such local data:
per eigenvalue factor, the e-core goes into the GL_m part and the
e-quotient becomes the wreath label of a torus-character block.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product as iproduct
from typing import NamedTuple

from .charparams import (
    GlobalChar,
    LabelTable,
    enumerate_irr,
    group_table,
    index_order,
    label_table,
)
from .exactfield import (
    CertificateError,
    SignedPrimePower,
    ell_val,
    factor_field,
    group_order,
    order_for_ell,
)
from .partitions import (
    e_core_quotient,
    partitions,
    wreath_degree,
    wreath_labels,
)
from .ssclasses import (
    centralizer_type,
    eigen_modulus,
    enumerate_ss_classes,
    eq_orbits,
    multisets,
)


class TransportError(ValueError):
    """A supposedly relevant global character has no local image."""


class TorusData:
    """The shape of N at one cell: d0, a = n // d0, m = n % d0, the torus
    modulus Q = M_d0, the sign sigma = eps^(d0 + 1) and M_1."""

    __slots__ = ("d0", "a", "m", "Q", "sigma", "m1")

    def __init__(self, d0: int, a: int, m: int, Q: int, sigma: int, m1: int) -> None:
        self.d0, self.a, self.m, self.Q, self.sigma, self.m1 = d0, a, m, Q, sigma, m1


@cache
def torus_data(n: int, sp: SignedPrimePower, ell: int) -> TorusData:
    if sp.q % ell == 0:
        raise ValueError("ell divides q")
    d0 = order_for_ell(sp.eq, ell)
    return TorusData(
        d0=d0,
        a=n // d0,
        m=n % d0,
        Q=eigen_modulus(d0, sp),
        sigma=sp.eps ** (d0 + 1),
        m1=eigen_modulus(1, sp),
    )


def local_order(n: int, sp: SignedPrimePower, ell: int) -> int:
    td = torus_data(n, sp, ell)
    return group_order(td.m, sp) * td.Q**td.a * td.d0**td.a * math.factorial(td.a)


def canonical_theta(theta: int, n: int, sp: SignedPrimePower, ell: int) -> int:
    """Minimal member of the eq-power orbit of theta in Z/Q."""
    td = torus_data(n, sp, ell)
    least, _ = eq_orbits(td.d0, sp)
    return least[theta % td.Q]


@cache
def theta_orbits(n: int, sp: SignedPrimePower, ell: int) -> tuple:
    """All eq-power orbits on Z/Q, Q = M_d0, as (representative, size), sorted."""
    least, size = eq_orbits(torus_data(n, sp, ell).d0, sp)
    return tuple((theta, size[theta]) for theta in range(len(least))
                 if least[theta] == theta)


class LocalChar(NamedTuple):
    """Clifford data: GL_m part, torus-orbit blocks, wreath labels.

    blocks is a sorted tuple of (orbit representative, multiplicity)
    with distinct representatives; etas[i] is a wreath label of length
    d0 / (orbit size) whose partitions sum to the multiplicity.
    """

    chi_m: GlobalChar
    blocks: tuple
    etas: tuple


@cache
def enumerate_local_irr(n: int, sp: SignedPrimePower, ell: int) -> tuple:
    td = torus_data(n, sp, ell)
    # a trivial torus (a = 0) has the one empty shape and reads no orbit
    orbits = theta_orbits(n, sp, ell) if td.a else ()
    # the shapes: multisets of orbits with multiplicities summing to a
    shapes = multisets([rep for rep, _ in orbits], [1] * len(orbits), td.a)
    size_of = {rep: size for rep, size in orbits}
    out = []
    for chi_m in enumerate_irr(td.m, sp):
        for shape in shapes:
            eta_pools = [
                wreath_labels(td.d0 // size_of[rep], mult) for rep, mult in shape
            ]
            for etas in iproduct(*eta_pools):
                out.append(LocalChar(chi_m, shape, etas))
    return tuple(out)


def wreath_index(psi: LocalChar, n: int, sp: SignedPrimePower, ell: int) -> int:
    """Index of the inertia subgroup inside C_d0 wr S_a, exactly."""
    td = torus_data(n, sp, ell)
    num = td.d0**td.a * math.factorial(td.a)
    den = 1
    for (_, mult), eta in zip(psi.blocks, psi.etas):
        den *= len(eta) ** mult * math.factorial(mult)
    index, rem = divmod(num, den)
    if rem:
        raise CertificateError("inertia order does not divide the Weyl order")
    return index


def local_degree(psi: LocalChar, n: int, sp: SignedPrimePower, ell: int) -> int:
    table = group_table(torus_data(n, sp, ell).m, sp)
    out = table.degrees[table.index[psi.chi_m]] * wreath_index(psi, n, sp, ell)
    for eta in psi.etas:
        out *= wreath_degree(eta)
    return out


def local_ellprime_structural(
    psi: LocalChar, n: int, sp: SignedPrimePower, ell: int
) -> bool:
    """Two-condition form: wreath index and wreath degrees both ell-prime.

    The GL_m factor degree is automatically prime to ell because m is
    smaller than the order of eq at ell; checked, not assumed.
    """
    table = group_table(torus_data(n, sp, ell).m, sp)
    if ell_val(table.degrees[table.index[psi.chi_m]], ell) != 0:
        raise CertificateError("GL_m factor degree is divisible by ell")
    if ell_val(wreath_index(psi, n, sp, ell), ell) != 0:
        return False
    return all(ell_val(wreath_degree(eta), ell) == 0 for eta in psi.etas)


def local_zhat_act(
    psi: LocalChar, n: int, sp: SignedPrimePower, ell: int, z: int
) -> LocalChar:
    """Tensor by the central translation z, on local Clifford data.

    The determinant pulls the z-th central character back to the torus
    coordinate as the character with index sigma * z * Q / M_1, which is
    invariant under the eq-power action, so blocks shift rigidly and
    the wreath labels ride along unchanged.  The GL_m part moves along
    the shift column of its own label table.
    """
    td = torus_data(n, sp, ell)
    table = group_table(td.m, sp)
    i = table.index[psi.chi_m]
    for _ in range(z % td.m1):
        i = table.shift[i]
    delta = td.sigma * z * (td.Q // td.m1)
    moved = [
        ((canonical_theta(rep + delta, n, sp, ell), mult), eta)
        for (rep, mult), eta in zip(psi.blocks, psi.etas)
    ]
    moved.sort(key=lambda pair: pair[0])
    return LocalChar(
        table.chars[i],
        tuple(block for block, _ in moved),
        tuple(eta for _, eta in moved),
    )


def local_central_label(psi: LocalChar, n: int, sp: SignedPrimePower, ell: int) -> int:
    """Exponent in Z/M_1 by which the centre of the big group acts.

    A central scalar with exponent w embeds into each torus coordinate
    with exponent w * Q / M_1, so a block character theta evaluates on
    it through theta mod M_1; this is orbit-invariant since eq = 1
    modulo M_1.
    """
    td = torus_data(n, sp, ell)
    table = group_table(td.m, sp)
    nu = table.centrals[table.index[psi.chi_m]]
    for (rep, mult) in psi.blocks:
        nu += mult * (rep % td.m1)
    return nu % td.m1


@cache
def local_table(n: int, sp: SignedPrimePower, ell: int) -> LabelTable:
    """The table of Irr(N) for the cell, built once for the life of the process."""
    return label_table(enumerate_local_irr(n, sp, ell),
                       lambda psi: local_degree(psi, n, sp, ell),
                       lambda psi: local_central_label(psi, n, sp, ell),
                       lambda psi: local_zhat_act(psi, n, sp, ell, 1),
                       torus_data(n, sp, ell).m1)


def local_relevant(psi: LocalChar, n: int, sp: SignedPrimePower, ell: int) -> bool:
    """Does psi lie over an ell-prime character of the det-one part?"""
    table = local_table(n, sp, ell)
    return table.index[psi] in table.relevant(ell)


def transport(chi: GlobalChar, n: int, sp: SignedPrimePower, ell: int) -> LocalChar:
    """Local image of a global character, factor by factor.

    Eigenvalue factor (k, e) with partition lam splits into its e_k-core
    (toward the GL_m part) and e_k-quotient (the wreath label of a torus
    block at theta = sigma * e * Q / M_k).  Requires k | d0 whenever the
    quotient is nonempty and the cores to fill GL_m exactly; violations
    raise TransportError with the offending factor.
    """
    td = torus_data(n, sp, ell)
    core_factors = []
    blocks = []
    for ((k, e_lab), mult), lam in zip(chi.cls, chi.parts):
        sub = factor_field(k, sp)
        e = order_for_ell(sub.eq, ell)
        core, quot, w = e_core_quotient(lam, e)
        if core:
            core_factors.append(((k, e_lab), sum(core), core))
        if w:
            if td.d0 % k != 0 or e * k != td.d0:
                raise TransportError(
                    f"factor of degree {k} with nonempty quotient, d0={td.d0}"
                )
            mk = eigen_modulus(k, sp)
            least, size = eq_orbits(td.d0, sp)
            rep = least[td.sigma * e_lab * (td.Q // mk) % td.Q]
            if size[rep] != k:
                raise TransportError(
                    f"transported torus character has orbit size != {k}"
                )
            blocks.append(((rep, w), quot))

    m_used = sum(k * c for (k, _), c, _ in core_factors)
    if m_used != td.m or sum(w for (_, w), _ in blocks) != td.a:
        raise TransportError("core and quotient ranks do not fill m + d0*a")

    core_factors.sort(key=lambda t: (t[0], t[1]))
    chi_m = GlobalChar(
        tuple((lab, c) for lab, c, _ in core_factors),
        tuple(core for _, _, core in core_factors),
    )
    blocks.sort(key=lambda pair: pair[0])
    reps = [rep for (rep, _), _ in blocks]
    if len(set(reps)) != len(reps):
        raise CertificateError("transported blocks collide")
    return LocalChar(
        chi_m,
        tuple(block for block, _ in blocks),
        tuple(eta for _, eta in blocks),
    )


def enumerate_ellprime_params(n: int, sp: SignedPrimePower, ell: int) -> tuple:
    """Independent enumeration of the ell-prime global characters.

    Walks semisimple classes with ell-prime centralizer index and, per
    factor, the partitions assembled from a small core and an ell-prime
    wreath label; returns (class, cores, quotients) triples.  The count
    must agree with filtering all characters by degree valuation.  The
    index test and the factor pools depend only on the centralizer type and
    on (k, multiplicity), so each is formed once per call.
    """
    prime_index: dict = {}
    pools: dict = {}
    out = []
    for cls in enumerate_ss_classes(n, sp):
        ctype = centralizer_type(cls)
        if ctype not in prime_index:
            prime_index[ctype] = ell_val(index_order(ctype, n, sp), ell) == 0
        if not prime_index[ctype]:
            continue
        for (k, _), mult in cls:
            if (k, mult) not in pools:
                e = order_for_ell(factor_field(k, sp).eq, ell)
                quots = [
                    lab
                    for lab in wreath_labels(e, mult // e)
                    if ell_val(wreath_degree(lab), ell) == 0
                ]
                pools[k, mult] = [(c, qu) for c in partitions(mult % e)
                                  for qu in quots]
        for combo in iproduct(*(pools[k, mult] for (k, _), mult in cls)):
            out.append(
                (cls, tuple(c for c, _ in combo), tuple(qu for _, qu in combo))
            )
    return tuple(out)
