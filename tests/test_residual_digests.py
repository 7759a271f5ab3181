"""The exact residual text of every sign-flip mutation control, pinned by
sha256.  A change to the exact layer (Q(z8) arithmetic, the Laurent ring, the
certificates) must leave each FAIL residual byte-identical; the digests were
recorded with the Fraction-coefficient CycloRat that the integer form
replaced."""

import hashlib

import pytest

from hamfam.hamiltonian import make_system
from hamfam.symmetry import certificate_battery

FAIL_DIGESTS = {
    ("autonomous5", "ode"): {
        "second-order form equivalence":
            "89109f1db17403db3ff29f45d6c5bec3ab7b4d4865491d090470ea3fff6d4074"},
    ("autonomous5", "hamiltonian"): {
        "second-order form equivalence":
            "3f05c8e3ce3ee20aece19ac180bca4f775933d04ba590df3777fcb4a4e829512"},
    ("autonomous5", "map"): {
        "invariance under s-auto":
            "597ce0671175130413c66257f9136377a51ce12fbcdabbb8de9c4762eda623cf"},
    ("general:12", "ode"): {
        "second-order form equivalence":
            "6f44a96e1f7aa7acc2f4fced50fc111ac24b509619e76e038fc419abdde4a5be"},
    ("general:12", "hamiltonian"): {
        "second-order form equivalence":
            "a8706fab4084afba682287b22d6ae39f157e129f76fe5d5486bb1e7fd585e022"},
    ("general:12", "map"): {
        "invariance under s-auto":
            "0f1e006029f69d04fd60c1606b9a4fb4481d02324bb398268f65f810ba6b8b31"},
    ("nonautonomous3", "ode"): {
        "second-order form equivalence":
            "37aa1ccf80e481832b2db282d4d4f895ee1e31219b7d0f6aee8dc8968828341b"},
    ("nonautonomous3", "hamiltonian"): {
        "second-order form equivalence":
            "620b6b5e836542de20da4ec425d7423f9b6bc563fc8a9f0f2bf7195f878da049"},
    ("nonautonomous3", "map"): {
        "invariance under s-nonauto[z]":
            "40c4aafa06ab6f956387bf45218c101e2eec0c6798ebf1756f3f64dd8c36fe6b",
        "invariance under s-nonauto[z^7]":
            "8b50706a81a0114829ecf9cf217e5967f01afb0585cf2fb2778b7386adb46fdc"},
}


def _system(family: str):
    name, _, n = family.partition(":")
    return make_system(name, int(n)) if n else make_system(name)


@pytest.mark.parametrize("family,mutate", sorted(FAIL_DIGESTS))
def test_mutation_residuals_are_byte_identical(family, mutate):
    fails = {e["check"]: hashlib.sha256(e["residual"].encode()).hexdigest()
             for e in certificate_battery(_system(family), mutate)
             if e["status"] == "FAIL"}
    assert fails == FAIL_DIGESTS[family, mutate]
