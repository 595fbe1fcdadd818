"""Pins the content and order of the Dixon character tables.

Each table is serialised as the (degree, values) pair of every character in
table order, with each value the little-endian coefficient list of a
cyclotomic integer in the power basis of Z[zeta_N], so a pin reads the exact
values and the canonical character order, not any object's repr.
"""

import hashlib
import json

import pytest

from mckaylab import dixon
from mckaylab.matrixoracle import build_group


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


PINS = [
    ("GL", 2, 2, "17655e1e82ee2a1abd261f6d845e71115fc9e3511506fbb779ba0b31cfdad807"),
    ("GL", 2, 3, "a146eda96ac173d156a5ee054fd94f3b99770a6ec60b195aa761ac09029fc3b4"),
    ("GL", 2, 4, "975552caf09142a8799309cfcac7f3f24676a2a61b538f56691d973e7db24c63"),
    ("GL", 2, 5, "e38069cfaa1fa3c6f9d40213f38874c47ba965fbbe11fa86cd9836e0b444184d"),
    ("GU", 2, 2, "a11d66c270937b1a24261196a9c34c5ea97ee7b91b279232ded7148c96448872"),
    ("GU", 2, 3, "86b6f99c7abbb94241d2f6ba881715a89bc7935afc864ffa2ff69fe707364414"),
    ("GU", 2, 4, "a88dda63243e7fc2b9f14ea4ea958d1bcfabd5139e22e1c4e216b0a271de6544"),
    ("GL", 3, 2, "a81776c4d5643fade0322ba0361362565b301da8dc78876358fe8b40bda699f1"),
    ("GU", 3, 2, "f5958f8308040e08fb01bedfb434a6c4f401a64a78942d0032087f2ea30f54cf"),
    ("SL", 2, 5, "0c5a8311b32e338f41aa8e168ea40bec9c859d752a47892c9cc530876ef51965"),
    # k = 48 and k = 64, past the |G| = 480, k = 24 of the pins above
    ("GL", 2, 7, "d522aba6db59173e95583b525f378aefe9adb4cdc3dad7dc81f8549469f8a477"),
    ("GU", 2, 7, "4a9c41df773f208b004eb4fa9f7a3243bfe9453d2aead68962cf6664c138c39a"),
]


@pytest.mark.parametrize("kind,n,q,digest", PINS,
                         ids=[f"{kind}({n},{q})" for kind, n, q, _ in PINS])
def test_character_tables_are_pinned(kind, n, q, digest):
    table = dixon.character_table(build_group(kind, n, q))
    assert _digest([[chi.degree, chi.values] for chi in table.chars]) == digest
