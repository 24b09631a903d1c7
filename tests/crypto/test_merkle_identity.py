"""MerkleTree output identity: golden vectors from the commit before the
level table, and a differential against the plain RFC 6962 recursion.

Every root, historical root, inclusion path and consistency proof must be
byte-identical to what the slicing recursion produced — anchors already
published, manifests already signed and proofs already disclosed were
computed that way.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    _reference_root,
    leaf_hash,
    verify_consistency,
    verify_inclusion,
)


def _leaves(n):
    return [f"event-{i}".encode() for i in range(n)]


def _picks(n):
    """The (old size, leaf index, historical leaf index) each golden row
    was generated with."""
    size = max(1, 2 * n // 3)
    return size, n // 3, min(n // 3, size - 1)


# Generated on the parent commit (slicing `_subtree_root`, forest fold) over
# leaves b"event-0".. with the picks above; never regenerate from this code.
GOLDEN = {
    1: {
        "root": "e956ee5f1537d22f73c6189a651a28fe1e0fe8388b9c43168b62fd71ddce76f7",
        "root_at": "e956ee5f1537d22f73c6189a651a28fe1e0fe8388b9c43168b62fd71ddce76f7",
        "inclusion": [],
        "inclusion_at": [],
        "consistency": [],
    },
    2: {
        "root": "6af17d5801a1bb383e9dbcea7192573adbbc5e039130ec5676d911638eaca3ee",
        "root_at": "e956ee5f1537d22f73c6189a651a28fe1e0fe8388b9c43168b62fd71ddce76f7",
        "inclusion": [
            ("964c356728890b51870be1685c2001a2944d60707c6c49fe5a7d657966555549", False),
        ],
        "inclusion_at": [],
        "consistency": [
            "964c356728890b51870be1685c2001a2944d60707c6c49fe5a7d657966555549",
        ],
    },
    3: {
        "root": "8f66ce09cdd5565f8d74ad1887e55d9dc3fd37f6b5b93dd42a5500cf4d8e0888",
        "root_at": "6af17d5801a1bb383e9dbcea7192573adbbc5e039130ec5676d911638eaca3ee",
        "inclusion": [
            ("e956ee5f1537d22f73c6189a651a28fe1e0fe8388b9c43168b62fd71ddce76f7", True),
            ("76954625e353744083cc22d79c4a36543ace8b9b839059b729e70799134d4412", False),
        ],
        "inclusion_at": [
            ("e956ee5f1537d22f73c6189a651a28fe1e0fe8388b9c43168b62fd71ddce76f7", True),
        ],
        "consistency": [
            "76954625e353744083cc22d79c4a36543ace8b9b839059b729e70799134d4412",
        ],
    },
    7: {
        "root": "9d982693757bdd8f7a6d256ffaa4f3ec5b20c57d50682c7755e8d337b7652993",
        "root_at": "89a86e3d2f7393cdfa8b37fc7ff034b9f810307d5e52eee43ce328abe39058a0",
        "inclusion": [
            ("d5bed8e306e625c8d6be3736c222afa3ecd513d7bb293cdb5857f06559e3bf86", False),
            ("6af17d5801a1bb383e9dbcea7192573adbbc5e039130ec5676d911638eaca3ee", True),
            ("0e82284d781eb4fe27dc94b8a2e60cab9113a19d2dd8b6b0ad4c5a3d80b5d8f3", False),
        ],
        "inclusion_at": [
            ("d5bed8e306e625c8d6be3736c222afa3ecd513d7bb293cdb5857f06559e3bf86", False),
            ("6af17d5801a1bb383e9dbcea7192573adbbc5e039130ec5676d911638eaca3ee", True),
        ],
        "consistency": [
            "0e82284d781eb4fe27dc94b8a2e60cab9113a19d2dd8b6b0ad4c5a3d80b5d8f3",
        ],
    },
    8: {
        "root": "2d6566ce1defafceb9a86eabe32bffaf510b5c319e8853a22690c46a33f146b3",
        "root_at": "111353f00c0fe59e343d073a0a6fdc930fcbcd1dbfbc4e2149df04f61faedd2c",
        "inclusion": [
            ("d5bed8e306e625c8d6be3736c222afa3ecd513d7bb293cdb5857f06559e3bf86", False),
            ("6af17d5801a1bb383e9dbcea7192573adbbc5e039130ec5676d911638eaca3ee", True),
            ("9a23eb7d7cfcf2e4fd721f008301051c05f053d01a7ecd95ecb80f9a23a2f411", False),
        ],
        "inclusion_at": [
            ("d5bed8e306e625c8d6be3736c222afa3ecd513d7bb293cdb5857f06559e3bf86", False),
            ("6af17d5801a1bb383e9dbcea7192573adbbc5e039130ec5676d911638eaca3ee", True),
            ("255c7aa1b6768f2e04c149db2511d7b4745619fcf1a960515fad8038ecfa3c33", False),
        ],
        "consistency": [
            "255c7aa1b6768f2e04c149db2511d7b4745619fcf1a960515fad8038ecfa3c33",
            "4adac0dcaa3eb0a7ddd0ffe8e534983c4fb740cb36d67509a56bdf250646a9d9",
            "b8f65bd43549d2ea4fea8a213077190af49da64914c92304bcf80dc5ed9a03fb",
            "89a86e3d2f7393cdfa8b37fc7ff034b9f810307d5e52eee43ce328abe39058a0",
        ],
    },
    21: {
        "root": "d65aa37d59800a67a5cbdbef5179b138608189e847c8373af17d8fb6325112e4",
        "root_at": "1e63eddaf9be90608956e441f0a93395a149bf6f2443559df74af1ad856ea018",
        "inclusion": [
            ("f73f68010f9a2f67cb75950e6b14851d93098496e8eef8f8fca3e97e0b04bb19", True),
            ("42b1898f058a453e41329e2c47afba238982ccdc7801f5ed5a2ae032f7c33b47", True),
            ("89a86e3d2f7393cdfa8b37fc7ff034b9f810307d5e52eee43ce328abe39058a0", True),
            ("f9d604e969d0dafd1d8c53a0213372e046f0c25d3d6eeb71389ea69d6777f2dc", False),
            ("4dfcbd65b2a1904fea4c74739650cf0581104d4ba360c3bf84607f67d5b6e2e7", False),
        ],
        "inclusion_at": [
            ("f73f68010f9a2f67cb75950e6b14851d93098496e8eef8f8fca3e97e0b04bb19", True),
            ("42b1898f058a453e41329e2c47afba238982ccdc7801f5ed5a2ae032f7c33b47", True),
            ("89a86e3d2f7393cdfa8b37fc7ff034b9f810307d5e52eee43ce328abe39058a0", True),
            ("0940a5ee2e18ddcd6689c689ebd7c7f5840b1d79b21a6f5c305d531076de70d5", False),
        ],
        "consistency": [
            "861615cf8ca6f92d6c32e84cf998c6686b3be5e323de95cf79267e6bb845f6b9",
            "a13b47d5880c6aa827cc188357efb206b07d059601a2df23e8f7bbfd15cecaf2",
            "2e958d2f4420614d812349a08fd730b4eccc01be05d199c90917c7bb14e7a347",
            "2d6566ce1defafceb9a86eabe32bffaf510b5c319e8853a22690c46a33f146b3",
            "4dfcbd65b2a1904fea4c74739650cf0581104d4ba360c3bf84607f67d5b6e2e7",
        ],
    },
    1000: {
        "root": "a6c1c54051a4c824f25a3d6e2af4f66c42505cfd9d0d4308e5cdbe52f19570b2",
        "root_at": "bfab371990dff64773a2d4aca837e9fcb766623cce5ea3769854cde8f03a33db",
        "inclusion": [
            ("d138c367059278da6199bc6b69b393a58251f420f1b185c3b55ca4bc430142ac", True),
            ("9896317cd3f2b1319deb1ae888e6da5840efac2e8e8d43ffc54a6c03c6d39460", False),
            ("1ecd9281ba805991646466f3c2252ffd001b579a4336d14a3c19aa7c7f8abb31", True),
            ("e5865c0c6c28f2ab9659d7148245b0ceb4d2b9658d68f6131f854151ec327f6e", True),
            ("b659625a6f49f04a36d09e5d40b2c35128f13bb287f7ebe3a26b29b06184f93e", False),
            ("df90b756ec1e4abc954ed04f01536a8487ccfb392b386ad74b4f57e8c8c513aa", False),
            ("f24bc0600c65c7cd1234839599647dffdb9545aba49699a78119bb699205bf86", True),
            ("bbe8778210c6d92fd650d1ace5b7c6ddc5d343414af7495cc15540ec29296ef9", False),
            ("795c59d3f54a1eba2dbd502333525421144e8a11d8ac937756b7aa9a8a292f9e", True),
            ("99aff23d51a589c7bbcfb5ed803c2292ec4046a1876f69d552ccbc5ebc05dabe", False),
        ],
        "inclusion_at": [
            ("d138c367059278da6199bc6b69b393a58251f420f1b185c3b55ca4bc430142ac", True),
            ("9896317cd3f2b1319deb1ae888e6da5840efac2e8e8d43ffc54a6c03c6d39460", False),
            ("1ecd9281ba805991646466f3c2252ffd001b579a4336d14a3c19aa7c7f8abb31", True),
            ("e5865c0c6c28f2ab9659d7148245b0ceb4d2b9658d68f6131f854151ec327f6e", True),
            ("b659625a6f49f04a36d09e5d40b2c35128f13bb287f7ebe3a26b29b06184f93e", False),
            ("df90b756ec1e4abc954ed04f01536a8487ccfb392b386ad74b4f57e8c8c513aa", False),
            ("f24bc0600c65c7cd1234839599647dffdb9545aba49699a78119bb699205bf86", True),
            ("bbe8778210c6d92fd650d1ace5b7c6ddc5d343414af7495cc15540ec29296ef9", False),
            ("795c59d3f54a1eba2dbd502333525421144e8a11d8ac937756b7aa9a8a292f9e", True),
            ("ca9d8d5cbea1b80ac8124ffd86f332cf2d8b1303c21cd8960af162a86e8a4011", False),
        ],
        "consistency": [
            "ee39bbb95066a8c9b21aeeaa90b98c54268b03dbaa4ed617d9daa95dde5e2681",
            "a74e9a6f542b3fe5fe4198f0cc6964b20f6cc62596b7242938e618d91ae4cb9f",
            "7a622c8b3606314db03836912aa0380b533aea3d72a07cf23ac0145bf78c2cbe",
            "95fa38ecce1097095af80ab8d7778fd08f205d3c7a4ebaf630dc5b84a6d8e9f6",
            "fc011fb201ad503c8458a8e82cbf29252011e7d7e0c5c93b4d03cb290ed34494",
            "4dad4157cd7c772cd33cef07c16e5c9dc253162b7a8d8e08e4f8369d871ad14f",
            "2fc2d4486f437f4626f4f63453de41289e5f2d6f949f1d40c17d4a7dadd271d4",
            "1c854f5cedc22176473983ef0c6f7f1a7e57116fe10884f5932b53354f670a49",
            "8924cbbda2f8831b93506434ecf98517895e040c5bdf7c1448130e677b2eb85c",
            "f59f76e4936787f3309021268622d3f2e7370669c4a5c8666a73d1a630a8cdc2",
        ],
    },
}


def _hex_path(proof):
    return [(digest.hex(), is_left) for digest, is_left in proof.path]


def test_golden_vectors():
    for n, want in GOLDEN.items():
        tree = MerkleTree(_leaves(n))
        size, index, index_at = _picks(n)
        assert tree.root().hex() == want["root"], n
        assert tree.root_at(size).hex() == want["root_at"], n
        assert _hex_path(tree.prove_inclusion(index)) == want["inclusion"], n
        historical = tree.prove_inclusion_at(index_at, size)
        assert _hex_path(historical) == want["inclusion_at"], n
        assert [d.hex() for d in tree.prove_consistency(size)] == want["consistency"], n


# -- the reference: the slicing recursions, O(n) hashes per range root ------


def _split(n):
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def _reference_path(hashes, index):
    path = []
    lo, hi = 0, len(hashes)
    while hi - lo > 1:
        split = lo + _split(hi - lo)
        if index < split:
            path.append((_reference_root(hashes[split:hi]), False))
            hi = split
        else:
            path.append((_reference_root(hashes[lo:split]), True))
            lo = split
    return tuple(reversed(path))


def _reference_consistency(hashes, old_size):
    proof = []

    def subproof(lo, hi, complete):
        if old_size == hi:
            if not complete:
                proof.append(_reference_root(hashes[lo:hi]))
            return
        split = lo + _split(hi - lo)
        if old_size <= split:
            subproof(lo, split, complete)
            proof.append(_reference_root(hashes[split:hi]))
        else:
            subproof(split, hi, False)
            proof.append(_reference_root(hashes[lo:split]))

    if 0 < old_size < len(hashes):
        subproof(0, len(hashes), True)
    return proof


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=200), pick=st.integers(min_value=0))
def test_every_method_equals_the_reference_recursion(n, pick):
    leaves = _leaves(n)
    hashes = [leaf_hash(leaf) for leaf in leaves]
    tree = MerkleTree(leaves)
    root = tree.root()
    assert root == _reference_root(hashes)
    assert tree.root_at(0) == EMPTY_ROOT

    every = tree.prove_inclusion_all()
    for index in range(n):
        proof = tree.prove_inclusion(index)
        assert proof == every[index]
        assert (proof.leaf_index, proof.tree_size) == (index, n)
        assert proof.path == _reference_path(hashes, index)
        verify_inclusion(leaves[index], proof, root)

    for size in range(1, n + 1):
        root_then = tree.root_at(size)
        assert root_then == _reference_root(hashes[:size])
        consistency = tree.prove_consistency(size)
        assert consistency == _reference_consistency(hashes, size)
        verify_consistency(root_then, root, size, n, consistency)
        for index in {0, size - 1, pick % size}:
            proof = tree.prove_inclusion_at(index, size)
            assert proof.tree_size == size
            assert proof.path == _reference_path(hashes[:size], index)
            verify_inclusion(leaves[index], proof, root_then)
