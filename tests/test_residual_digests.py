"""The exact residual text of every sign-flip mutation control, pinned by
sha256.  A change to the exact layer (Q(z8) arithmetic, the Laurent ring, the
certificates) must leave each FAIL residual byte-identical; the digests were
recorded with the Fraction-coefficient CycloRat that the integer form
replaced.

Passing certificates serialize to "0", so the nonzero exact objects they are
built from are pinned as well: the second-order form and the pushed-forward
Hamiltonian of each autonomous family, and every rule of the order-8 map's
iterates.  Their digests were recorded with exponent-tuple keys, before the
Laurent ring packed each monomial into one int."""

import hashlib

import pytest

from hamfam.hamiltonian import make_system, second_order_form
from hamfam.symmetry import (autonomous_map, certificate_battery, iterate_map,
                             nonautonomous_map, pushforward_H)

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

# family -> sha256 of serialize() of (second_order_form(sys).rhs,
# pushforward_H(autonomous_map(sys), sys))
FORM_DIGESTS = {
    "autonomous5": (
        "14c5f26190820da0ed5f8adb7741c61bf8de83216c5a9535d8320a3195ae9181",
        "4d73ad279188bfaf90d58193bcea508e6d109a71a41e555b07e3374ff1610271"),
    "general:2": (
        "9f33997f3cb79c21d0d926255f49078a07522953ef9334c5f94bb22477d94bd9",
        "949d7c464d7d1bb2ec78888eed5b4b708bb768f058eaba73d535f6331d58105e"),
    "general:5": (
        "57386416d411133293f22a0a45225efce800b1aa3a0e94e7a399f041b5e282a5",
        "6e809db90f6ae3306a050fe767c78e747113a553b10d0f946c0d41a5f8970a0e"),
    "general:12": (
        "04b2676563d21928eeb0049a4a2911510562766288cb22e8102693fe121f4e73",
        "a3dc14c3ba3164b3cba8c91de231b057cd7d29c770b038fa2f1b968a7f8dd43c"),
    "general:31": (
        "d0bf024ee264834887dfb404f7e9006d62239a9dd24968409e42bcc6fecd87f8",
        "d21e86824359fa53089a4b2668cdae19e8e832a911e431de98fbc5c72d42e71a"),
    "general:64": (
        "553fd282254714b115b70e17f171e7b975dcdfba9bd7dae29990b67751f6cd1b",
        "fdcad4f5d0ad446525e9c8174cb9f84c4d3d8fceeb3c195cbc9de22d6d5b8d52"),
}

# (branch, k) -> sha256 of the rules of iterate_map(nonautonomous_map(branch),
# k), one "name: serialize()" line each for q, p, t and the parameters
ITERATE_DIGESTS = {
    (1, 1): "13e78345304de310a073e7dec2e7c47d9c836f72e5debb67b1b6386bd05d7f7f",
    (1, 2): "163baebe06c8e9f083c41acc54e186796d72c754932d91c115555d09ca02e819",
    (1, 3): "fee66952d6a14cb3b9cd65949325721ff8e52e1bc29b3f22cc63f6a5b44b72d0",
    (1, 4): "3bd0115e5256d1661b12a700e0ebd330fc85dfaad3fd7fbc942acb5c1c296c83",
    (1, 5): "460b6418496aeb57cc0832e279bbcf790d7999255ae965d0241ca5d0767033a7",
    (1, 6): "ff502bec4aa0debaca70ef0e655ae5bd741365b4698eacc890c2824e085425d3",
    (1, 7): "049adb439f9d4fe50f48c1bf26c675f11a8aca572144f4fbfabae5c84fbc7a8e",
    (1, 8): "687ef688cd542f2da446673187259ab66be827000234c0d36ee6be5473700425",
    (7, 1): "049adb439f9d4fe50f48c1bf26c675f11a8aca572144f4fbfabae5c84fbc7a8e",
    (7, 2): "ff502bec4aa0debaca70ef0e655ae5bd741365b4698eacc890c2824e085425d3",
    (7, 3): "460b6418496aeb57cc0832e279bbcf790d7999255ae965d0241ca5d0767033a7",
    (7, 4): "3bd0115e5256d1661b12a700e0ebd330fc85dfaad3fd7fbc942acb5c1c296c83",
    (7, 5): "fee66952d6a14cb3b9cd65949325721ff8e52e1bc29b3f22cc63f6a5b44b72d0",
    (7, 6): "163baebe06c8e9f083c41acc54e186796d72c754932d91c115555d09ca02e819",
    (7, 7): "13e78345304de310a073e7dec2e7c47d9c836f72e5debb67b1b6386bd05d7f7f",
    (7, 8): "687ef688cd542f2da446673187259ab66be827000234c0d36ee6be5473700425",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _system(family: str):
    name, _, n = family.partition(":")
    return make_system(name, int(n)) if n else make_system(name)


@pytest.mark.parametrize("family,mutate", sorted(FAIL_DIGESTS))
def test_mutation_residuals_are_byte_identical(family, mutate):
    fails = {e["check"]: hashlib.sha256(e["residual"].encode()).hexdigest()
             for e in certificate_battery(_system(family), mutate)
             if e["status"] == "FAIL"}
    assert fails == FAIL_DIGESTS[family, mutate]


@pytest.mark.parametrize("family", sorted(FORM_DIGESTS))
def test_forms_are_byte_identical(family):
    sys = _system(family)
    got = (_sha(second_order_form(sys).rhs.serialize()),
           _sha(pushforward_H(autonomous_map(sys), sys).serialize()))
    assert got == FORM_DIGESTS[family]


@pytest.mark.parametrize("branch", [1, 7])
def test_iterate_rules_are_byte_identical(branch):
    m = nonautonomous_map(branch)
    for k in range(1, 9):
        mk = iterate_map(m, k)
        rules = {"q": mk.q_rule, "p": mk.p_rule, "t": mk.t_rule,
                 **mk.param_rules}
        text = "\n".join(f"{name}: {rule.serialize()}"
                         for name, rule in rules.items())
        assert _sha(text) == ITERATE_DIGESTS[branch, k], f"s^{k}"
