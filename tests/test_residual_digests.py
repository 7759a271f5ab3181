"""The exact residual text of every sign-flip mutation control, pinned by
sha256.  A change to the exact layer (Q(z8) arithmetic, the Laurent ring, the
certificates) must leave each FAIL residual byte-identical; the digests were
recorded with the Fraction-coefficient CycloRat that the integer form
replaced.

Passing certificates serialize to "0", so the nonzero exact objects they are
built from are pinned as well: the second-order form and the pushed-forward
Hamiltonian of each autonomous family, and every rule of the order-8 map's
iterates.  Their digests were recorded with exponent-tuple keys, before the
Laurent ring packed each monomial into one int.

The numeric kernels sum a polynomial's terms in ``.terms`` order, so that
order is pinned too, for every polynomial the numeric layer compiles; and the
FAIL residuals of all three controls are pinned for every general:n,
n = 2..64.  Both were recorded while the ring still held CycloRat values."""

import hashlib

import pytest

from hamfam.hamiltonian import (hamilton_equations, make_system,
                                second_order_form)
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
# k), one "name: serialize()" line each for q, p, t and the parameters; the
# entries of branches 3 and 5 were recorded with the linear compose chain,
# before iterate_map squared
ITERATE_DIGESTS = {
    (1, 1): "13e78345304de310a073e7dec2e7c47d9c836f72e5debb67b1b6386bd05d7f7f",
    (1, 2): "163baebe06c8e9f083c41acc54e186796d72c754932d91c115555d09ca02e819",
    (1, 3): "fee66952d6a14cb3b9cd65949325721ff8e52e1bc29b3f22cc63f6a5b44b72d0",
    (1, 4): "3bd0115e5256d1661b12a700e0ebd330fc85dfaad3fd7fbc942acb5c1c296c83",
    (1, 5): "460b6418496aeb57cc0832e279bbcf790d7999255ae965d0241ca5d0767033a7",
    (1, 6): "ff502bec4aa0debaca70ef0e655ae5bd741365b4698eacc890c2824e085425d3",
    (1, 7): "049adb439f9d4fe50f48c1bf26c675f11a8aca572144f4fbfabae5c84fbc7a8e",
    (1, 8): "687ef688cd542f2da446673187259ab66be827000234c0d36ee6be5473700425",
    (3, 1): "fee66952d6a14cb3b9cd65949325721ff8e52e1bc29b3f22cc63f6a5b44b72d0",
    (3, 2): "ff502bec4aa0debaca70ef0e655ae5bd741365b4698eacc890c2824e085425d3",
    (3, 3): "13e78345304de310a073e7dec2e7c47d9c836f72e5debb67b1b6386bd05d7f7f",
    (3, 4): "3bd0115e5256d1661b12a700e0ebd330fc85dfaad3fd7fbc942acb5c1c296c83",
    (3, 5): "049adb439f9d4fe50f48c1bf26c675f11a8aca572144f4fbfabae5c84fbc7a8e",
    (3, 6): "163baebe06c8e9f083c41acc54e186796d72c754932d91c115555d09ca02e819",
    (3, 7): "460b6418496aeb57cc0832e279bbcf790d7999255ae965d0241ca5d0767033a7",
    (3, 8): "687ef688cd542f2da446673187259ab66be827000234c0d36ee6be5473700425",
    (5, 1): "460b6418496aeb57cc0832e279bbcf790d7999255ae965d0241ca5d0767033a7",
    (5, 2): "163baebe06c8e9f083c41acc54e186796d72c754932d91c115555d09ca02e819",
    (5, 3): "049adb439f9d4fe50f48c1bf26c675f11a8aca572144f4fbfabae5c84fbc7a8e",
    (5, 4): "3bd0115e5256d1661b12a700e0ebd330fc85dfaad3fd7fbc942acb5c1c296c83",
    (5, 5): "13e78345304de310a073e7dec2e7c47d9c836f72e5debb67b1b6386bd05d7f7f",
    (5, 6): "ff502bec4aa0debaca70ef0e655ae5bd741365b4698eacc890c2824e085425d3",
    (5, 7): "fee66952d6a14cb3b9cd65949325721ff8e52e1bc29b3f22cc63f6a5b44b72d0",
    (5, 8): "687ef688cd542f2da446673187259ab66be827000234c0d36ee6be5473700425",
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


@pytest.mark.parametrize("family,mutate", sorted(FAIL_DIGESTS))
def test_mutation_residuals_are_byte_identical(family, mutate):
    fails = {e["check"]: hashlib.sha256(e["residual"].encode()).hexdigest()
             for e in certificate_battery(make_system(family), mutate)
             if e["status"] == "FAIL"}
    assert fails == FAIL_DIGESTS[family, mutate]


@pytest.mark.parametrize("family", sorted(FORM_DIGESTS))
def test_forms_are_byte_identical(family):
    sys = make_system(family)
    got = (_sha(second_order_form(sys).rhs.serialize()),
           _sha(pushforward_H(autonomous_map(sys), sys).serialize()))
    assert got == FORM_DIGESTS[family]


@pytest.mark.parametrize("branch", [1, 3, 5, 7])
def test_iterate_rules_are_byte_identical(branch):
    m = nonautonomous_map(branch)
    for k in range(1, 9):
        mk = iterate_map(m, k)
        rules = {"q": mk.q_rule, "p": mk.p_rule, "t": mk.t_rule,
                 **mk.param_rules}
        text = "\n".join(f"{name}: {rule.serialize()}"
                         for name, rule in rules.items())
        assert _sha(text) == ITERATE_DIGESTS[branch, k], f"s^{k}"


def _term_order_text(polys) -> str:
    return repr([list(p.terms.items()) for p in polys])


def _compiled_polys(family: str) -> list:
    """H, f_q and f_p of a family and, for an autonomous one, every rule of
    its shear: the polynomials the numeric layer compiles, in the order
    their ``.terms`` feed it."""
    sys = make_system(family)
    polys = [sys.H, *hamilton_equations(sys)]
    if sys.autonomous:
        m = autonomous_map(sys)
        polys += [m.q_rule, m.p_rule, m.t_rule, *m.param_rules.values()]
    return polys


def _iterate_polys(branch: int) -> list:
    polys = []
    for k in range(1, 9):
        mk = iterate_map(nonautonomous_map(branch), k)
        polys += [mk.q_rule, mk.p_rule, mk.t_rule, *mk.param_rules.values()]
    return polys


def _general_fail_text(n: int) -> str:
    sys = make_system(f"general:{n}")
    return "\n".join(f"{mutate} {e['check']}: {e['residual']}"
                     for mutate in ("ode", "hamiltonian", "map")
                     for e in certificate_battery(sys, mutate)
                     if e["status"] == "FAIL")


# family (or "s-nonauto:<branch>" for the iterates s^1..s^8) -> sha256 of the
# repr of the ``.terms`` items of every polynomial the numeric layer compiles
# from it; recorded with CycloRat-valued terms, before the ring stored integer
# numerators over one denominator
TERM_ORDER_DIGESTS = dict(line.split() for line in """
autonomous5 cb3142e449448265b6e3c6864db013b621b0a8c43467035443de3a123671a46c
nonautonomous3 091a0979df6dc499780aa685bfe3d5050cfbcd5622c50a687a4930a1c872d008
general:2 ff3f884c20bb33d4a86a4334874419628e34a5a1deb384ec782d095418d09239
general:3 2688af48b5a611c2ec32f2f317285c2a7f6a0160af6f3b0e494645337d96e9ac
general:4 f53977f7c5b511fd43476076213a410f8f72dc41d5d71904c2774049dea2bfbb
general:5 d9c24f087d62534055d128b390726b207c589602fd760f502900f9fc79a29845
general:6 4e1ca4409d85cc86ba5ff039f3d0ee2cb60fbf600c4c302be610efd2d3bfb594
general:7 8427c9ed27446798fc567de261755882b408f6b4bdc1434d6900736f0e839083
general:8 f082babbb3306540b71a0de82833b61132c87baa4ea0c88d710e4c0ad97f74ab
general:9 5e3aa5e50988f2a6f783edc76d8569c9beb15a65ad96ff2f657e4a813995055a
general:10 3715e6a782dfb87a105fa8512c0752b353a3fcca6376ec83e008519978700e05
general:11 2f842d0e54810afee66112ea91428b877abb3286953755d02960b73ff58b1df2
general:12 fa027399c6d7308c624a5937c52d59e3025f341ab3fe0666030f2d7e0e0dee83
general:13 9a908e1554d71f8dde2bcfe5b7f222ef10f12bb360018790e20e3e38ba1375b1
general:14 9f4e2d203f5d657645470c628a31b1d567b0ccd5c8591f3260ab2c4234226a0f
general:15 606d5327fcf1afae216650f6eae860fdbe8cebb3dfcafcedfb433375d8e33cb7
general:16 9168ea52b72def5eb3affecb51110d688fc78f7bb6658b98503683d5b04f1109
general:17 9bceb86c40d019e5c10689da97d842d35d5c41eaae8be4a57c69ddbc8f06819e
general:18 db11a042b4973195909d4bddb3948b9d78bf5c428f8812b1da7c9df02a96b635
general:19 79b1e1eb740501f490bbeb1dd9e1b5ea9d230abc66b5571134696dec9579a9de
general:20 97ec01ca4e564307814dada95d90fb47c79c96646ad74131df38a1a431aad9bd
general:21 bb73defb2e8a59175ccc23b973913aca99b16516a2d135f7cc0f548ff3d453c7
general:22 a55ab05c393ccd5328a848e807f5cfe21309d98df4f43a8c47d55cf36731abd6
general:23 bb8aa773ed1f57aeb6861fb3e47541638fdc6972a769011bd7566c9b96f60bc4
general:24 d810a122fff2ead68395dfd20e6ad78a36a87e23e63659f9675842d98d46b7c4
general:25 0d00c76c23f6332ab0c337c24388d212be7fd8394435757ab026dad13eafd100
general:26 3aa2de45313f1972d8104e30155750baa749ee918b20df341b064b48711e9133
general:27 813b115adc88eeee62456a0e134fb19c28c9b7e0d82b560fd5aac82e3b6e42e9
general:28 7df93057774094bcd557913b420966a387a948895fa7856fcc4152b0cc401db6
general:29 f17c8fa7de7c85733a4b0cc3c05a9b2bd258b7573955beb0d8a3f2a15bc24349
general:30 49015ac33dab0f653bd7221b6e59ccfcf5228386cd5951f7fefe137fcd0fa25b
general:31 bb2f0aaf124922736b6eb19139ef0e95591ed36719f6c5a7abe93b95a8d49d13
general:32 c416c9c8d95b88302970371ff1f0bed995936ac40d11f81623dda43ae6098ced
general:33 a2709f395325d8826a0a3fe16eba0405ad7bf122d3d6ecdd9b8726390ad112b0
general:34 0bff800fa12929306b869fd9f31facbf04094b92b3f8e66398438df9b3f7614f
general:35 dd753f7753b755fd58671de06fea205c508dc503cb199e5ab4bdf25d56040782
general:36 4e7159da04dff507c9eab5889a4c41503d0f1766bd429dc77957c8bed6baf70c
general:37 1235d66cab02e2d1c16277d53654e0a9515293484d40ce18b34e5983038636fe
general:38 65ed25815cb4184525f7cb7ef3ed72cd37b4e9879c30925c80e873e3144a9205
general:39 44a0318d0e3c18ebf1446a3a3c9a03cce2d9640506e900566152fca8c780108c
general:40 231bb7f196a919a0fe33fd4abfb410044293d9f0b3e9056466425a5d5cd26ae0
general:41 04eb83faba6974e18159bd944b5d91836bc1a66f7aef5c09f448f2c82b1728b5
general:42 256b0157f1cdef3c8a5d1777c1846c69f7fa38996737559529d000da8e6efb2c
general:43 a2dfb28f5aceadcc0a9eadc3c6673457108183e91ec42968f20357d4461b9b7c
general:44 20af5992057d2d81ce3f5a00520928b6675176c76980ecc0891edc5f63f8c773
general:45 573b5c44bbb941d79473c1a9adce760e79028ee044c6a1ff4f3b533832f4acdd
general:46 fec30cba66228513e27f50ddd899a93df073af504d068cbd69aedfe06cc4490b
general:47 45faffae03e8207472933014505e593f55e9e90829b1f271807d90e2b157d8ae
general:48 60ddea53b2f06a81adf043fff5c22bcf64340a3dc2a6df670c906f8879332970
general:49 48b62ab0d836e24da3c704a4b6588ed7627987b8c55b5c5a0c268e17c8f01eed
general:50 b467f9361c2480d6cb462b2ad1c4c3bbc5bffd31003c5bc0a05a2f614381570b
general:51 f2b5370155c2047da8f6733600514f297102587258e0c5ed98c282a71f4a73a8
general:52 c0754ddb8f6c889362bb2761962bf79c4abaf2a371c548b602d66d70320aab44
general:53 c2cb074348d32d0d7106ee37e06940a68a34e131060f7bb4f1b1eb2f8b62c5b2
general:54 aad1dbfff0d5f9cc2f91ee0d70decd3edc97bc2a77e3035c32588f9dbb803262
general:55 0eb5aa6aee81c3b74a45b44eb62a7dc76ad5c5ef602755d22a991726bbb28361
general:56 5bc5023e246fdcc06dc9a51d74966aa0977e29d9d8430711ec2b714ac9ccaf1d
general:57 046b1d6ac4eb83cfa4fd9bfa9589f929e49d79904cfe1a10271d9c7a873c6cbd
general:58 ddea4ae3c9e5045b8b108eb40792e086a1a678d1774d84b6250a6d1c70269c45
general:59 a3ecda80641d2235e73c5c0ea7e50aff5f9bce226e465184426e499f3fedf988
general:60 1a046743e489b7952ed1a0ba3c19c439ec4d0a493c3ebba9b1509128d2fff7db
general:61 cfc2d94ae8854c4082e9840099d4155e1eaef70a6c358514681a84ba5d3f8bc3
general:62 95d161bb8fedb9508bd285dd78854a946e1f1b3ca1b5b9de41c953084bd16021
general:63 79c4968ab373820b1c2418220b61204534afc3659c601f9700a1c5201da46110
general:64 871ce677e2a9cc10c7e666d58a5d85193c23175380751fc34c45ce04d71836ee
s-nonauto:1 2d257d9090e81943a5a5f976fb473e194a08d5d855baeb27a5f8d9216942e5c2
s-nonauto:3 d18854f5d5e1544582cdfc6f1fa5a608effdaa8181b2315f340f7e40b242dd7c
s-nonauto:5 91b73bacf2366f858997ed63663d3ef393733a5ecee2bb7751f341a5d8c7ecb0
s-nonauto:7 94386c1d21dea05525734128cf10ae91d6135017978188cbd79b1b98e7fa356b
""".strip().split("\n"))

# general:n -> sha256 of the FAIL residuals of the ode, hamiltonian and map
# mutation controls, recorded with the same ring as TERM_ORDER_DIGESTS
GENERAL_FAIL_DIGESTS = dict(line.split() for line in """
general:2 378d09922b54076711d1601fe51ef3439afc631b18a9c42021d0b59cf18a5c40
general:3 87fa4ba6e7d597f66fb4646b2f491f961cf605be0d9da8681f20a5aeb0586c4d
general:4 6213f3ed7a7cd6335da135b108935af8655b66613f1f48fabdf58396a438a7c2
general:5 37fc94ab77be85b4c1a8916c73e812ae8cdbe0466e55843bd1f7a821221e668d
general:6 54bbdde52b88b7496bbe6b2fd2026a355a6167729d85893607e0dd9d6d7730a0
general:7 7bafdbbe9923fa33652f8545caa3be57d1df0094b7fbf3485b7fafe2be7cdde1
general:8 b5f3507ed36574b5a991620050d76f531593b5810cb347eb0e8a7eb94e1f5c4d
general:9 ddaac925ac17c7753ac953fcf998f1f4598f8c20f9ef569f5be81da193f605ad
general:10 72ecbcd91c3b73b46033450989f0c662031ee01056a3113f80cc49321f63aa82
general:11 2db7b8d98c7b4f7668b83004981db59dfb81f650dc563cfe4c363608178da0ad
general:12 0c85166536d6d752de86f15cc1dee90d56658f5f9cdaed097bd99abf5440ac7c
general:13 025080ee814a1fa6e2edee7764d44e7a09346825e7b38ba0c191ba13498abe9b
general:14 ac7c85e38ed6dd6369a72a564ce579fd3a2e569c19b7d00f79ddf9d9943fae2e
general:15 c37207c9000b8786c39d31a8d190325fdc347c2a816cd04a21af55f6dc4545a8
general:16 a9b8e7f983fb0c1a9d6619f2be8edfc1eb380971e1f29ab15e20eafe8c7559d3
general:17 85ee7af5cd47f1f0ebaacb4d1a1d674e46e591f7fc0726368e7c7b80eefddec7
general:18 9a12cc9095a0d6390fc701a2a67026dba4da37995d4339d96488e0b5e65840fe
general:19 6808e33d258c18cc5cacd1583951c10cb4e2a4e80b95d270065249b2e99b19fb
general:20 510f36ca22d6c4bace959f9e79d8e0e79a51776a86536775212e4a5cf457b917
general:21 ef5892a7d9de5b781383dd3f4e89d30343165f9acc4c409a23b5729cab870408
general:22 edd0667e99cefab183242131d2d94f1652b893086a48dc517c55e718bce11d6d
general:23 0856fec251f97e71cb781c87a83eee0c45b94535bb4f0b36b2e2c7e996bc9585
general:24 10f72d997cc4bcb7d7c088262fbc6b2b9ff8fa850a638542f9621f6c30ea10c2
general:25 9218c8365fcdbc7058122b640b438cc5709e308249b79769b984c78b77646d54
general:26 04a6cd18ac3715cad8eed98e9a8a4453d1bd6d0c2810db2703efd16736eecb67
general:27 2f4dcc291aad6d69d456d0a6238d2f880a2f6b9c677e83631082d40463682459
general:28 421d7db0df9d7f4213d4efa064fdebbd105c701f3f774793c4bc689e3f64ba6b
general:29 8908addb83ebdc6525ea998b756c5b9ecfd755fde31cb2ff8c60a3dd838bf851
general:30 a0b520cf91e61474a6d97d9bd47115dddb373886772b9ad36c7c0e3b32cf1a3e
general:31 f0037104adbfae0cd50767f77f6f4de10403cfc817188afc313541c0d7a05f49
general:32 20634f5cd95c9aa9532a140772d9fcf6e5dc06250c084be6456325706c79528d
general:33 371c2eec9ccdfa330efa98fe12a4f7804ccc5c7381392d58cca7fed38d13a116
general:34 094fbf5c46ac224b8bf5bbc45a1717fc8905f154ff019147a47f0c6026be5ff6
general:35 4f0f7cff0d6ddfaf49e1f140bd9440787902cedde14e89dc35e9d805283d7049
general:36 141d668d8726df5dbce77c9aac570b1bb5ffe5b365fbda476105c8de18f0fba0
general:37 f15c3be61a4122e5bf9a9cc4f1b4553c13100d81243b91c1ed6d0b780e2f8eec
general:38 cda6c9f71c228d186ec48e611f5f6a03fc9d4284ccec5958d7c07703c38dc744
general:39 0f4a8477a0ee3a4336623a682f88a1b14df65a452c57b9d70ffa874043b35d2d
general:40 9cdcab600deadf4f3cd968cb782a34e8ebe7610ab464068bae9c2047a2475874
general:41 96fa70bd3140c1cbf6fc87d440fbc920f7192ad586fc48f82d23b37e3b490b6d
general:42 bf218f597b859ad0852312bb5956cb24320d9b8ebf05381e0489224719e1411c
general:43 dafdd1630f10cf1c0a9395fb40a9c1b8d475d5ad84d690e0274fd3a0e4a148a7
general:44 ba75db61eb04cce3aab2c9300ffc4595fbe614f1a5263abde9ebe2a194810b71
general:45 135dce25fd7dae76a5a9954ba03b8d3a325619dabfd552c9aad1fd6ea5db6831
general:46 9e06d8c54b281304c7a76800f6b782b75f65d36a1fb8f65f15002866c9f1f16e
general:47 f7a338317d8641a91b34ad2d7e1864a2f12a26f96140649ad5b8eb833331d909
general:48 066245ca9b8c72e4efaa73d29c7e651a8a685fde09063a45b0e2ca4cbfb7009a
general:49 6f6616cbe2461c32024a546054342e26d204dfbb100ed484e04dab5aeb6eb505
general:50 7b4b848c13376eda5bfbeff0833ea0c12f8830a66e462c0e09eee686b13b0623
general:51 40d5f3ed5d262f76849bb53f424dd7c42f5d4cea5bed7fd5b40724b4421ad3c7
general:52 dfa7493677722efca082a39ab3f05aa787a1437f2dc8f8e42ed14ba2a1f3e0ee
general:53 dd769d9c5f689258ef3ed4e6c03781863f285c33265e412078c3c0bfb2e8fe58
general:54 a3804073a884794d2e26a01c93116d5221bc232c1fc77b24fad583b88c4ccbd5
general:55 7ad1117f101007fd7ae2b6f2a07fa25867ea32f6ad337d5dbd717b97496a597b
general:56 5e40fcbfaa7882969f0a24b909726d4daf9a757d36a1a74abe42217485513216
general:57 a6378ba1e3b82495a1602239df3d82ec96b2ad7ecbedeefdf2653c69377797c6
general:58 6fe50114d5df993a0e8871b8c447d8880b682929cfbfefaf487db6ed975f0acd
general:59 22ac25ffc78472581ca00c780222141b9d79a89dbf30e382e5011d4553cf0604
general:60 99820ffaee93a07ffc6a0936346b0e92747521983abab2ace80688756f22f0b0
general:61 a6a026ed9c2e8b8416894628b2f48b23571319a22502194b2bdcc0459ba464b4
general:62 7bec1ad01027f5e81d2775944dadc48ec0ed98b88c6613d1868aa5b327fec023
general:63 f7189672795a0c6d11c916236b649d3620f305b7d9b3c4389d26315a452f3c2d
general:64 3c826cbdb232c1659322c2f01d59b44b4f8d56524c7fce9f5f06467d5e6eab47
""".strip().split("\n"))


@pytest.mark.parametrize("name", sorted(TERM_ORDER_DIGESTS))
def test_term_order_is_pinned(name):
    # the order of .terms is the order the compiled kernels sum their terms
    # in, so it fixes every float of the flows
    family, _, branch = name.partition(":")
    polys = _iterate_polys(int(branch)) if family == "s-nonauto" \
        else _compiled_polys(name)
    assert _sha(_term_order_text(polys)) == TERM_ORDER_DIGESTS[name]


@pytest.mark.parametrize("n", range(2, 65))
def test_general_mutation_residuals_are_byte_identical(n):
    assert _sha(_general_fail_text(n)) == GENERAL_FAIL_DIGESTS[f"general:{n}"]
