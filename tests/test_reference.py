import random

import pytest
from hypothesis import given, strategies as st

from implysim.reference import (
    InputError,
    bits_to_bytes_lsb_first,
    bits_to_bytes_msb_first,
    bytes_to_bits_msb_first,
    grain_key_bits,
    grain128a_ref,
    trivium_key_bits,
    trivium_ref,
    xorcrypt,
)

# ---------------------------------------------------------------------------
# Trivium vectors.  The first row is the published eSTREAM vector for
# key 80000000000000000000 / zero IV (keystream bytes 0..63); it pins both
# the implementation and the key/keystream byte conventions.  The remaining
# rows were generated by this oracle under the pinned conventions.

TRIVIUM_VECTORS = [
    (
        "80000000000000000000",
        "00000000000000000000",
        "38EB86FF730D7A9CAF8DF13A4420540DBB7B651464C87501552041C249F29A64"
        "D2FBF515610921EBE06C8F92CECF7F8098FF20CCCC6A62B97BE8EF7454FC80F9",
    ),
    (
        "00000000000000000000",
        "00000000000000000000",
        "FBE0BF265859051B517A2E4E239FC97F563203161907CF2DE7A8790FA1B2E9CD"
        "F75292030268B7382B4C1A759AA2599A285549986E74805903801A4CB5A5D4F2",
    ),
    (
        "00000000000000000000",
        "80000000000000000000",
        "F8901736640549E3BA7D42EA2D07B9F49233C18D773008BD755585B1A8CBAB86"
        "C1E9A9B91F1AD33483FD6EE3696D659C9374260456A36AAE11F033A519CBD5D7",
    ),
    (
        "0053A6F94C9FF24598EB",
        "0D74DB42A91077DE45AC",
        "F4CD954A717F26A7D6930830C4E7CF0819F80E03F25F342C64ADC66ABA7F8A8E"
        "6EAA49F23632AE3CD41A7BD290A0132F81C6D4043B6E397D7388F3A03B5FE358",
    ),
]

# Grain-128a vectors generated by this oracle and cross-checked against a
# structurally independent integer-register implementation (below); no
# externally published keystream bytes were available to this build.
GRAIN_VECTORS = [
    (
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "0304fe446806a6d056a95447a661c8f6050982021346387f6106037b03697929",
    ),
    (
        "0123456789abcdef123456789abcdef0",
        "0123456789abcdef12345678",
        "715cfb6775cfe3df95273db2262fd87b13525015ff13aae3928f727fd5caf14a",
    ),
    (
        "ffffffffffffffffffffffffffffffff",
        "ffffffffffffffffffffffff",
        "276620ec716f390a1d4b3798424a64b64ef702b27fd83f2c63a49fa872f15f0e",
    ),
]


@pytest.mark.parametrize("key_hex,iv_hex,expected", TRIVIUM_VECTORS)
def test_trivium_vectors(key_hex, iv_hex, expected):
    bits = trivium_ref(trivium_key_bits(key_hex), trivium_key_bits(iv_hex, "iv"), 512)
    assert bits_to_bytes_lsb_first(bits).hex().upper() == expected


@pytest.mark.parametrize("key_hex,iv_hex,expected", GRAIN_VECTORS)
def test_grain_vectors(key_hex, iv_hex, expected):
    bits = grain128a_ref(grain_key_bits(key_hex, 16), grain_key_bits(iv_hex, 12), 256)
    assert bits_to_bytes_lsb_first(bits).hex() == expected


def _grain_int_ref(key_bits, iv_bits, n):
    """Independent check implementation: registers as 128-bit integers."""
    b = sum(bit << i for i, bit in enumerate(key_bits))
    s = sum(bit << i for i, bit in enumerate(iv_bits)) | (((1 << 31) - 1) << 96)

    def g(x, i):
        return (x >> i) & 1

    out = []
    for t in range(256 + n):
        h = (
            (g(b, 12) & g(s, 8))
            ^ (g(s, 13) & g(s, 20))
            ^ (g(b, 95) & g(s, 42))
            ^ (g(s, 60) & g(s, 79))
            ^ (g(b, 12) & g(b, 95) & g(s, 94))
        )
        y = h ^ g(s, 93) ^ g(b, 2) ^ g(b, 15) ^ g(b, 36) ^ g(b, 45) ^ g(b, 64) ^ g(b, 73) ^ g(b, 89)
        fl = g(s, 0) ^ g(s, 7) ^ g(s, 38) ^ g(s, 70) ^ g(s, 81) ^ g(s, 96)
        fn = (
            g(s, 0)
            ^ g(b, 0)
            ^ g(b, 26)
            ^ g(b, 56)
            ^ g(b, 91)
            ^ g(b, 96)
            ^ (g(b, 3) & g(b, 67))
            ^ (g(b, 11) & g(b, 13))
            ^ (g(b, 17) & g(b, 18))
            ^ (g(b, 27) & g(b, 59))
            ^ (g(b, 40) & g(b, 48))
            ^ (g(b, 61) & g(b, 65))
            ^ (g(b, 68) & g(b, 84))
            ^ (g(b, 22) & g(b, 24) & g(b, 25))
            ^ (g(b, 70) & g(b, 78) & g(b, 82))
            ^ (g(b, 88) & g(b, 92) & g(b, 93) & g(b, 95))
        )
        if t < 256:
            fl ^= y
            fn ^= y
        else:
            out.append(y)
        s = (s >> 1) | (fl << 127)
        b = (b >> 1) | (fn << 127)
    return out


def test_grain_oracle_agrees_with_independent_implementation():
    rng = random.Random(1234)
    for _ in range(25):
        key = [rng.randint(0, 1) for _ in range(128)]
        iv = [rng.randint(0, 1) for _ in range(96)]
        assert grain128a_ref(key, iv, 200) == _grain_int_ref(key, iv, 200)


def test_trivium_loaded_state_has_only_key_iv_and_c_tail_set():
    # reconstructed via a zero-warmup variant: all-zero key/iv keystream
    # depends only on the three fixed ones in register C, so a run starting
    # from the wrong fill would diverge; cheap structural check instead
    from implysim.trivium_cim import TriviumSim, c

    cells = TriviumSim.load_key_iv([0] * 80, [0] * 80)
    hot = [i for i, v in enumerate(cells) if v]
    assert hot == [c(109), c(110), c(111)]


def test_determinism_and_n_zero():
    key = [1] * 80
    iv = [0] * 80
    assert trivium_ref(key, iv, 100) == trivium_ref(key, iv, 100)
    assert trivium_ref(key, iv, 0) == []
    gkey = [1] * 128
    giv = [0] * 96
    assert grain128a_ref(gkey, giv, 100) == grain128a_ref(gkey, giv, 100)
    assert grain128a_ref(gkey, giv, 0) == []


def test_length_validation():
    with pytest.raises(InputError):
        trivium_ref([0] * 79, [0] * 80, 1)
    with pytest.raises(InputError):
        trivium_ref([0] * 80, [0] * 81, 1)
    with pytest.raises(InputError):
        grain128a_ref([0] * 128, [0] * 95, 1)
    with pytest.raises(InputError):
        trivium_key_bits("zz" * 10)
    with pytest.raises(InputError):
        grain_key_bits("00" * 15, 16)


@given(st.lists(st.integers(0, 1), min_size=256, max_size=256),
       st.lists(st.integers(0, 1), min_size=256, max_size=256))
def test_xorcrypt_involution(m, k):
    assert xorcrypt(xorcrypt(m, k), k) == m


def test_xorcrypt_edges():
    k = [1, 0, 1, 1]
    assert xorcrypt([0, 0, 0, 0], k) == k
    assert xorcrypt(k, k) == [0, 0, 0, 0]
    with pytest.raises(InputError):
        xorcrypt([0, 1], [0])


def test_byte_packing_round_trip():
    data = bytes(range(32))
    assert bits_to_bytes_msb_first(bytes_to_bits_msb_first(data)) == data
    # one 0/1 byte per bit, MSB first
    assert bytes_to_bits_msb_first(b"\x80\x01") == b"\x01" + bytes(14) + b"\x01"
    assert bits_to_bytes_lsb_first([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x01"
    assert bits_to_bytes_msb_first([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"
