"""Golden digests: the sha256 of the `result` JSON of fixed CLI runs.

Every verifier, builder and JSON layout that feeds a `result` is pinned
here, so a refactor that changes one result byte fails.  A change that
alters a result on purpose updates the digest and says why in
CHANGES.md.
"""

import hashlib
import json

import pytest

from subspace_forge.cli import main

# The four lines e1, e2, e3, (1,1,1) of GF(2)^3.
FOUR_LINES = {
    "field": {"p": 2, "m": 1, "modulus": [0, 1], "gamma": 1},
    "n": 3,
    "k": 1,
    "members": [
        {"n": 3, "k": 1, "basis": [v]} for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])
    ],
}

# Planes <e1, e2>, <e2, e3> and <e4, e5> of GF(2)^5: the first two share e2.
NON_SPREAD = {
    "field": {"p": 2, "m": 1, "modulus": [0, 1], "gamma": 1},
    "n": 5,
    "k": 2,
    "members": [
        {"n": 5, "k": 2, "basis": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]},
        {"n": 5, "k": 2, "basis": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]},
        {"n": 5, "k": 2, "basis": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]},
    ],
}

# Fifteen planes of GF(4)^6, the family that `search --mode greedy --n 6
# --k 2 --L 2 --q 4 --seed 1` returns.  No RS family has these parameters
# (it needs q >= nk), and n - k = 4 > k + 1, so the residues of a member
# pair span a proper subspace of the quotient.
PLANES_GF4_6 = """
130222 001201  120310 001133  010103 001221  130321 001231  103002 000011
103202 012101  103001 012130  120020 001220  102303 013332  100022 012322
101333 010032  101020 011222  130030 000130  100202 011012  120132 001222
""".split()
PLANES = {
    "field": {"p": 2, "m": 2, "modulus": [1, 1, 1], "gamma": 2},
    "n": 6,
    "k": 2,
    "members": [
        {"n": 6, "k": 2, "basis": [list(map(int, a)), list(map(int, b))]}
        for a, b in zip(PLANES_GF4_6[::2], PLANES_GF4_6[1::2])
    ],
}

# (name, argv, pinned digest), run in order.  "@name" stands for the
# output file of an earlier run, or of one of the inline families above.
RUNS = [
    (
        "construct-rs-k1",
        ["construct", "rs", "--n", "4", "--k", "1", "--q", "4"],
        "805a4da44758835686c1dee1d64eeb5269e1edc13a7e8ba8f79d6f4dda1db67f",
    ),
    (
        "construct-rs-k2",
        ["construct", "rs", "--n", "5", "--k", "2", "--q", "11"],
        "53243ef97c574a4785b7bace029a4e3fd4603874fa44794dfe170bf32533f062",
    ),
    (
        "construct-code-based",
        ["construct", "code-based", "--n", "3", "--k", "1", "--q", "5"],
        "28737a9ac3b8dfbefea17dd360f061a722ac5af8314843a9c07baf807ee18f4a",
    ),
    (
        "construct-random",
        ["construct", "random", "--n", "5", "--k", "1", "--L", "7", "--q", "5", "--seed", "1"],
        "c70250ebf2cbd73d298a1cda9420db1190bc1dc28f39f2a68bfb62d21224e474",
    ),
    (
        "search-greedy-k2",
        ["search", "--mode", "greedy", "--n", "5", "--k", "2", "--L", "2", "--q", "3", "--seed", "1"],
        "b2b7d8b97d0d479f395c07a608cba2a9d9f779c598d13e36b276a21de4c6f069",
    ),
    (
        "search-exhaustive",
        ["search", "--n", "3", "--k", "1", "--L", "1", "--q", "2"],
        "239dd99436019bb4cc6ad43f353e0357541cbe7c11b124fc9cc8d9c63a2b923a",
    ),
    (
        "verify-k1",
        ["verify", "--family", "@construct-rs-k1"],
        "5d247b49a063362c45616157bed2f7e4d7895ddfb2787de51994ff0e29d0e7eb",
    ),
    (
        "verify-k2",
        ["verify", "--family", "@search-greedy-k2"],
        "cb21198df0dcc96fcac75bfe3815c80739003e2fc74cfaffad3add949084d27b",
    ),
    (
        "verify-rs-k2-aad",
        ["verify", "--family", "@construct-rs-k2", "--properties", "spread,aad,bound"],
        "3ede7f89641a824afb71078514c53758b8c01e2e059ef6cbbd4b762b5f885fc4",
    ),
    (
        "verify-non-spread",
        ["verify", "--family", "@non-spread"],
        "57a65a233d694c58cf67a5c72d79bdf9be0a0adb75ead172947f0d5e562d9acf",
    ),
    (
        "bounds",
        ["bounds", "--n", "5", "--k", "2", "--L", "1", "--q", "3"],
        "a412e31c95290aecc8894170ff0b96420e2fd02d00e8f91b7f035cac7256ddce",
    ),
    (
        "batch-layout",
        ["batch", "--family", "@four-lines", "--layout"],
        "268dc1a1c827fbb5e65c3690fbaa79e8bd6fbd8e0d7e369ead5febff934b3b76",
    ),
    (
        "construct-rs-3-1-3",
        ["construct", "rs", "--n", "3", "--k", "1", "--q", "3"],
        "78eac3f4f4d771146bf9b5d3a76bcd65a8908fd6ff27f11208b30a3cf28a2a9a",
    ),
    (
        "construct-rs-3-1-7",
        ["construct", "rs", "--n", "3", "--k", "1", "--q", "7"],
        "6ac023f69bbcf840860154b5af46be035219ee62f25ddf98b9ae492199ed369c",
    ),
    (
        "batch-rs-3-1-3",
        ["batch", "--family", "@construct-rs-3-1-3"],
        "7708cc0a52916ae53be6ad4e4fac98b83e7d33db5a4bdb2b6af3aea8d9e4c363",
    ),
    # Every 27-point multiset of size 1 + |F| = 4, with deep backtracking.
    (
        "batch-rs-3-1-3-s4",
        ["batch", "--family", "@construct-rs-3-1-3", "--s", "4"],
        "4d821d56469ecee2a491e39b257fa8874ce29930c07946c93504ca6b855f7a8a",
    ),
    # One request past the candidate count: counterexample [0, 0, 0, 0, 0].
    (
        "batch-rs-3-1-3-s5",
        ["batch", "--family", "@construct-rs-3-1-3", "--s", "5"],
        "207aa4c9559ca65ce7b915c71b0fe531507cdaa7cf56a2f52d1140cefaf5fffb",
    ),
    # C(66, 3) = 45,760 multisets, 87% of them with no repeated index:
    # the digest was taken when every multiset ran the recovery search.
    (
        "construct-rs-3-1-4",
        ["construct", "rs", "--n", "3", "--k", "1", "--q", "4"],
        "2274872fc90a2bbbb4840e28f4193c0003f4d27f9038573c3c6a33fe43b237e2",
    ),
    (
        "batch-rs-3-1-4",
        ["batch", "--family", "@construct-rs-3-1-4"],
        "703f022b5c7454fc1835af02a98a034c97366b51ca6174b421eac522a5fcc7a3",
    ),
    (
        "batch-rs-3-1-7-sampled",
        ["batch", "--family", "@construct-rs-3-1-7", "--mode", "sampled", "--trials", "200", "--seed", "1"],
        "6af17b6d56191a1128ade4b0a43a534470425b1461dcd045e86b8cd9cf33cfde",
    ),
    # Ten requests of the eight bits of GF(2)^3 fail within 50 trials, so
    # this digest moves with the sampled request stream.
    (
        "batch-four-lines-sampled",
        ["batch", "--family", "@four-lines", "--s", "10", "--mode", "sampled", "--trials", "50", "--seed", "1"],
        "a49c1a49bd43279279b0c5b4562bcdf668ddacb850b9d255f1ae2c68c87a242a",
    ),
    # k = 1 reports that ask for `as` but not `aad`: the AS count stops at
    # L_aad + 1, which they compute internally.  The digests were taken
    # with the full AS enumeration.
    (
        "verify-k1-as",
        ["verify", "--family", "@construct-rs-3-1-7", "--properties", "as"],
        "cdcd7c183767d611eafed67bcf633f43224d57d0960dddef981a70e9790ef9d5",
    ),
    (
        "verify-k1-as-relations",
        ["verify", "--family", "@construct-random", "--properties", "as,relations"],
        "0da5beb2ced14dbb5d1069064a83063c147a546cb6345de3914b7b6ba2e0802f",
    ),
    (
        "construct-random-5-1-3-4",
        ["construct", "random", "--n", "5", "--k", "1", "--L", "3", "--q", "4", "--seed", "2"],
        "76ee259c54289a0db66ecdf53d5e9a8f9bb022cac1ade43a10590702c7b1d194",
    ),
    # k = 3 over GF(25): the AAD witness u is a raw residue combination
    # whose leading entry is not 1.
    (
        "construct-rs-7-3-25",
        ["construct", "rs", "--n", "7", "--k", "3", "--q", "25"],
        "57c1ec3be3bdec8aed81fc4f10ab65720201e83e08eef2bd32a8e081dbf23b12",
    ),
    (
        "verify-rs-7-3-25-aad",
        ["verify", "--family", "@construct-rs-7-3-25", "--properties", "spread,aad,bound"],
        "7d3ad1bf4f4d973ba02c863b98526235373b8e100da9729ec22521fc6663d091",
    ),
    # Non-spread reports that do not ask for `spread`: their spread fields
    # come from the verifiers' own failure path.
    (
        "verify-non-spread-aad",
        ["verify", "--family", "@non-spread", "--properties", "aad"],
        "57a65a233d694c58cf67a5c72d79bdf9be0a0adb75ead172947f0d5e562d9acf",
    ),
    (
        "verify-non-spread-as-relations",
        ["verify", "--family", "@non-spread", "--properties", "as,relations"],
        "57a65a233d694c58cf67a5c72d79bdf9be0a0adb75ead172947f0d5e562d9acf",
    ),
    # The AAD count's k = 1 path over an extension field, and its k >= 2
    # path over GF(16).
    (
        "construct-rs-4-1-9",
        ["construct", "rs", "--n", "4", "--k", "1", "--q", "9"],
        "9f84fcb4e54460f94026572594bb2738df9b8b287a2d44aaf8b511b116e690a8",
    ),
    (
        "verify-rs-4-1-9-aad",
        ["verify", "--family", "@construct-rs-4-1-9", "--properties", "aad"],
        "f2a2be71dd52211dcd5e0c160dbd8d64cf9a88602b5bcda56e3dda45ea870b12",
    ),
    (
        "construct-rs-5-2-16",
        ["construct", "rs", "--n", "5", "--k", "2", "--q", "16"],
        "38f14cc05bbc5a208c35151d4499a011e40a482cafe72aa32236a6d29cdf5080",
    ),
    (
        "verify-rs-5-2-16-aad",
        ["verify", "--family", "@construct-rs-5-2-16", "--properties", "spread,aad,bound"],
        "249fc835dd1bdd7bbcc7a54dcfc0ee3e7e12ea9228d5f615d3e8501b14917336",
    ),
    # The seeded greedy k = 1 search that the benchmark's search workload runs.
    (
        "search-greedy-k1",
        ["search", "--mode", "greedy", "--n", "5", "--k", "1", "--L", "2", "--q", "3", "--seed", "1"],
        "2ae88728fef2d6d29731ac09d653c05ec4c10f2679890ca9e2b18218319fdbb1",
    ),
    # GF(729): the digests were taken when fields above q = 512 ran on raw
    # polynomial arithmetic, so they pin the table path to those bytes.
    (
        "construct-rs-3-1-729",
        ["construct", "rs", "--n", "3", "--k", "1", "--q", "729"],
        "fa1c685beee124d80d2f980df73795cdf6a8c7e3a3108f467ff706a8ebc678f7",
    ),
    (
        "verify-rs-3-1-729-aad",
        ["verify", "--family", "@construct-rs-3-1-729", "--properties", "aad"],
        "e075c9227c907e1153290329b83c48247e555a584e03f14c8ff978ad3fca76a8",
    ),
    # Exhaustive k = 1 searches: they pin the nodes, optimum and certificate
    # of the search's test of a candidate against the planes through it.
    (
        "search-exhaustive-5-1-2-3",
        ["search", "--n", "5", "--k", "1", "--L", "2", "--q", "3"],
        "e78d217d2e8b572e6fa9a66bc4c7da06df6e0d0637da687a278369bbe637d885",
    ),
    (
        "search-exhaustive-3-1-1-5",
        ["search", "--n", "3", "--k", "1", "--L", "1", "--q", "5"],
        "239479aa93db9065d6b011885b50a1dd72ba574d8b8c8a42dfd4bef1bf5f4458",
    ),
    # k >= 2 searches: they pin the nodes, optimum, proven flag and
    # certificate of the search's per-member tallies.  The digests were
    # taken when each candidate was tested by a full AAD count of a new
    # family.
    (
        "search-exhaustive-5-2-1-2",
        ["search", "--n", "5", "--k", "2", "--L", "1", "--q", "2"],
        "ac14137599269bd6a1905aa680adddfb2173b301243f935354ca80e4626ba903",
    ),
    (
        "search-exhaustive-6-2-1-2",
        ["search", "--n", "6", "--k", "2", "--L", "1", "--q", "2"],
        "769ae2d178e6d75f397a88f183cc65438fd90204d7b1b7b433031a27a406a2da",
    ),
    (
        "search-exhaustive-5-2-2-2",
        ["search", "--n", "5", "--k", "2", "--L", "2", "--q", "2"],
        "cb83b1f5d63fcfb7b523abe149fabd6c8cd2c6e53a7b4e82e26b5e3e6c958145",
    ),
    (
        "search-exhaustive-5-2-3-2",
        ["search", "--n", "5", "--k", "2", "--L", "3", "--q", "2"],
        "98afc42f1d77ac3414d9f37c75099324b9663d71c4d01313063e90a244699a8c",
    ),
    # the budget-hit path: 20,001 nodes, not proven
    (
        "search-exhaustive-6-2-2-2-budget",
        ["search", "--n", "6", "--k", "2", "--L", "2", "--q", "2", "--node-budget", "20000"],
        "182c9d4ab3f2ef02b1c3310fa1533c48dee2521b90910b82709d25c04994ba38",
    ),
    # The loop without symmetry breaking, pinned by its node count: 1,086
    # nodes to prove the optimum 4, and 5,001 nodes to spend a budget at
    # size 9.  The digests were taken when the search was a recursive dfs.
    (
        "search-exhaustive-3-1-1-3-no-symmetry-break",
        ["search", "--n", "3", "--k", "1", "--L", "1", "--q", "3", "--no-symmetry-break"],
        "1efa76977ec86202c5f6be32e5eece29406d7500e846ac100b43bee1df8cf993",
    ),
    (
        "search-exhaustive-6-2-2-2-budget-no-symmetry-break",
        ["search", "--n", "6", "--k", "2", "--L", "2", "--q", "2", "--node-budget", "5000", "--no-symmetry-break"],
        "badfaf891b9328bbc05af4222a844ddf559e0148fafb20a267a4aa3db961ba63",
    ),
    (
        "search-greedy-6-2-2-2",
        ["search", "--mode", "greedy", "--n", "6", "--k", "2", "--L", "2", "--q", "2", "--seed", "1"],
        "001f41358966d2489571845ec578fb530806b72eb3bb8b5b4ee9f6244dfb8b2c",
    ),
    (
        "search-greedy-7-3-2-2",
        ["search", "--mode", "greedy", "--n", "7", "--k", "3", "--L", "2", "--q", "2", "--seed", "1"],
        "52e3b6599d679e2b915f80dfe8db307eae4fc1ee19c3c37ac32ee772dd47a3fc",
    ),
    # k >= 2 AAD counts over GF(32) and GF(64): they pin the byte path of
    # the count.  The digests were taken when every point was tallied as
    # a tuple.
    (
        "construct-rs-7-3-32",
        ["construct", "rs", "--n", "7", "--k", "3", "--q", "32"],
        "542de9c8fd0f0fef5233f0b775753ee30dabff9ffb8e6a0765a6a0bf76590e49",
    ),
    (
        "verify-rs-7-3-32-aad",
        ["verify", "--family", "@construct-rs-7-3-32", "--properties", "spread,aad,bound"],
        "f3b9eefcc47ff98cf3cf59085c489d994d100267322defc1149d3062ac847504",
    ),
    (
        "construct-rs-5-2-64",
        ["construct", "rs", "--n", "5", "--k", "2", "--q", "64"],
        "70bfc7411499ec497c08941d6bbb4ff82bf3471b0ce63c71c3991cb355fdd421",
    ),
    (
        "verify-rs-5-2-64-aad",
        ["verify", "--family", "@construct-rs-5-2-64", "--properties", "spread,aad,bound"],
        "678a0d712c444d2f3e924d9e5d19870a0d1043757dea36a7345278345867a2a5",
    ),
    # k = 1 AAD counts over GF(27), GF(8) and GF(128): they pin the byte
    # path of the k = 1 count, up to its limit q = 128.  The digests were
    # taken when every point was tallied as a tuple.
    (
        "construct-rs-4-1-27",
        ["construct", "rs", "--n", "4", "--k", "1", "--q", "27"],
        "b9d0230d7ea632b48414ad17d0a423c5a4df20e675936b1c794b0846d44de50f",
    ),
    (
        "verify-rs-4-1-27-aad",
        ["verify", "--family", "@construct-rs-4-1-27", "--properties", "spread,aad,bound"],
        "0e44ff99255632c13e1cadb2d12b95a696bbeb3075eb60b6aca89a4842604c61",
    ),
    (
        "construct-rs-5-1-8",
        ["construct", "rs", "--n", "5", "--k", "1", "--q", "8"],
        "90d5ab88f15f7660000da287615dc06d2308c75a679c3607ac5fec20ae410a7c",
    ),
    (
        "verify-rs-5-1-8-aad",
        ["verify", "--family", "@construct-rs-5-1-8", "--properties", "spread,aad,bound"],
        "1a1cc2f2b99f09b04f4ac2f844d5d6b0077ddd6ad2155be24558afe8da3a4aff",
    ),
    (
        "construct-rs-3-1-128",
        ["construct", "rs", "--n", "3", "--k", "1", "--q", "128"],
        "64580bca171cc475876ca93af6238d85fbbdc4628ffd5d74653caf8a9a85397f",
    ),
    (
        "verify-rs-3-1-128-aad",
        ["verify", "--family", "@construct-rs-3-1-128", "--properties", "aad"],
        "f52c4efad9071630e1e7f11debb6b93cb7fc9e80e9bf80ea3e2fa11d3a9209d7",
    ),
    # k = 2 AAD counts where n - k > k + 1, and over GF(131), where a log
    # lane of the k >= 2 byte path no longer fits a byte.  The digests
    # were taken when each pair's residues were brought to RREF.
    (
        "verify-planes-gf4-6-aad",
        ["verify", "--family", "@planes", "--properties", "spread,aad,bound"],
        "a5b6e9f416cfd0b4f5ddecc03ef03b82d4abffafa632d92100637b786a702e36",
    ),
    (
        "construct-rs-5-2-131",
        ["construct", "rs", "--n", "5", "--k", "2", "--q", "131"],
        "97a043a792618bc22ae5e66a5dedf4dead969ab9a836c924c28b6ed4f2afdbb5",
    ),
    (
        "verify-rs-5-2-131-aad",
        ["verify", "--family", "@construct-rs-5-2-131", "--properties", "spread,aad,bound"],
        "bcc4dcd2f833b8ce9610cea251640d985f5509d9d88b7826fd51efebc8f5b92a",
    ),
]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    (tmp / "four-lines.json").write_text(json.dumps(FOUR_LINES))
    (tmp / "non-spread.json").write_text(json.dumps(NON_SPREAD))
    (tmp / "planes.json").write_text(json.dumps(PLANES))
    out = {}
    for name, argv, _ in RUNS:
        path = tmp / f"{name}.json"
        argv = [str(tmp / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
        assert main(argv + ["--out", str(path)]) == 0, name
        envelope = json.loads(path.read_text())
        canonical = json.dumps(envelope["result"], sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert envelope["manifest"]["digest"] == f"sha256:{digest}", name
        out[name] = digest
    return out


@pytest.mark.parametrize("name, digest", [(name, digest) for name, _, digest in RUNS])
def test_golden_digest(digests, name, digest):
    assert digests[name] == digest
