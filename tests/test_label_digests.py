"""Pins the order and content of the label enumerations.

Each enumeration is serialised through to_params / local_to_params, so the
pins read the label fields and their order, not any object's repr.
"""

import hashlib
import json

import pytest

from mckaylab.bijection import local_to_params
from mckaylab.charparams import GlobalChar, enumerate_irr, to_params
from mckaylab.exactfield import spp
from mckaylab.localside import enumerate_local_irr
from mckaylab.ssclasses import enumerate_ss_classes, pgl_ss_classes


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _class_params(cls) -> list:
    return to_params(GlobalChar(cls, ()))["factors"]


@pytest.mark.parametrize("n,eps,q,classes,irr,pgl", [
    (3, 1, 4,
     "aa9494330f7e792b52cbb165a066ee27eb55909183785ab5c22f1a3731118af5",
     "ed0eba539f5c07392d8e90d1ad229c96750b123f06d7bb9a76a83b640ad79955",
     "6ce7b2f8625c19334bbe5f4eb292a36904517028083d60f299d6d73f639e1a03"),
    (3, -1, 3,
     "2e4192621af94568cb7a73959ede8a3c2626a66c422febc401c2fbfdd7c3b6a7",
     "36a0c5d7a01a70ca1c6d0e6b4b7f0c179c79d51dbdbd1f7b29ab28e8a3afd8f7",
     "62119dad27b7300d5d5128edb2400d23e489836e3a83c8060a270bb3bc6b3f2e"),
    (4, 1, 3,
     "b50abee2b0de0717c63cd61cabad83e7864bfd6c68f61b52859eba3877140e84",
     "9571adbcd2a670850b3006479cc80a77ab09cbbd82e76395b87b4a774d24ec15",
     "e816e8127d00d09377cca5261299860da5cefb77a1d04630b6c4ce1a0bc31fac"),
])
def test_global_enumerations_are_pinned(n, eps, q, classes, irr, pgl):
    sp = spp(eps, q)
    assert _digest([_class_params(c)
                    for c in enumerate_ss_classes(n, sp)]) == classes
    assert _digest([to_params(chi) for chi in enumerate_irr(n, sp)]) == irr
    assert _digest([[_class_params(c) for c in orbit]
                    for orbit in pgl_ss_classes(n, sp)]) == pgl


def test_local_enumeration_is_pinned():
    assert _digest([local_to_params(psi)
                    for psi in enumerate_local_irr(4, spp(-1, 3), 2)]) \
        == "bd7ce579e219f92d18a908a22d4d2267eadd385e291477662d951efb466e1175"
