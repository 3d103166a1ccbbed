import hashlib

from hypothesis import given, settings, strategies as st

from rareval.provenance import derive_seed

MASK63 = (1 << 63) - 1


def tag(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class TestDeriveSeed:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, MASK63), st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
    def test_nested_derivation_does_not_commute(self, seed, a, b):
        if a == b:
            return
        assert derive_seed(derive_seed(seed, a), b) != derive_seed(derive_seed(seed, b), a)

    def test_pairs_whose_xor_matches_the_tags_do_not_collide(self):
        a, b = "subset:north", "bootstrap:recall"
        s1 = 12345
        s2 = s1 ^ ((tag(a) ^ tag(b)) & MASK63)
        assert s1 != s2
        assert derive_seed(s1, a) != derive_seed(s2, b)

    def test_deterministic_and_63_bit(self):
        for seed in (0, 1, 2**62, -1):
            value = derive_seed(seed, "heterogeneity")
            assert value == derive_seed(seed, "heterogeneity")
            assert 0 <= value <= MASK63
