import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.advice_tape import AdviceTape, BadHexTape, TapeExhausted, ValueTooWide


def test_write_bits_msb_first():
    t = AdviceTape()
    t.write_uint(5, 3)
    assert _read_bits(t) == [1, 0, 1]
    assert t.bits_written == 3


def test_zero_width_writes_nothing():
    t = AdviceTape()
    t.write_uint(0, 0)
    assert t.bits_written == 0
    assert t.read_uint(0) == 0
    assert t.bits_read == 0


def test_too_wide():
    t = AdviceTape()
    with pytest.raises(ValueTooWide):
        t.write_uint(9, 3)


def test_round_trip():
    t = AdviceTape()
    t.write_uint(5, 3)
    assert t.read_uint(3) == 5
    assert t.bits_read == 3


def test_read_past_end():
    t = AdviceTape()
    t.write_uint(1, 1)
    t.read_uint(1)
    with pytest.raises(TapeExhausted):
        t.read_uint(1)


def test_interleaved_sequential_round_trip():
    t = AdviceTape()
    t.write_uint(1, 1)
    t.write_uint(2, 2)
    assert t.read_uint(1) == 1
    assert t.read_uint(2) == 2
    assert t.bits_read == 3 == t.bits_written


@given(
    st.lists(
        st.integers(min_value=0, max_value=12).flatmap(
            lambda w: st.tuples(st.integers(0, max(0, 2**w - 1)), st.just(w))
        ),
        max_size=50,
    )
)
def test_round_trip_any_sequence(records):
    t = AdviceTape()
    for value, width in records:
        t.write_uint(value, width)
    for value, width in records:
        assert t.read_uint(width) == value
    assert t.bits_read == t.bits_written == sum(w for _, w in records)


@given(
    st.lists(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda w: st.tuples(st.integers(0, 2**w - 1), st.just(w))
        ),
        max_size=30,
    )
)
def test_hex_dump_replays(records):
    t = AdviceTape()
    for value, width in records:
        t.write_uint(value, width)
    hexstr, nbits = t.to_hex()
    t2 = AdviceTape.from_hex(hexstr, nbits)
    for value, width in records:
        assert t2.read_uint(width) == value


def test_hex_empty():
    assert AdviceTape().to_hex() == ("", 0)


def test_hex_bit_length_past_the_digits():
    with pytest.raises(BadHexTape, match="bit length 100 not in 0..8 for 2 hex digits"):
        AdviceTape.from_hex("ab", 100)
    assert AdviceTape.from_hex("ab", 8).read_uint(8) == 0xAB


def test_hex_negative_bit_length():
    with pytest.raises(BadHexTape, match="bit length -1 not in 0..8"):
        AdviceTape.from_hex("ab", -1)


def test_hex_bad_digits():
    with pytest.raises(BadHexTape, match="bad hex string"):
        AdviceTape.from_hex("zz", 4)


def test_hex_odd_digit_count_loads():
    # every digit is 4 bits, so an odd count is a whole dump
    assert AdviceTape.from_hex("abc", 12).read_uint(12) == 0xABC
    assert AdviceTape.from_hex("abc", 10).read_uint(10) == 0xABC >> 2
    assert AdviceTape.from_hex("", 0).bits_written == 0


@pytest.mark.parametrize("gap", [" ", "\n", "\t"], ids=["space", "newline", "tab"])
def test_hex_whitespace_is_rejected(gap):
    # bytes.fromhex skips whitespace, which would load "ab cd" as 0xabc...
    where = re.escape(f"{gap!r} at index 2 is not a hex digit")
    with pytest.raises(BadHexTape, match=where):
        AdviceTape.from_hex(f"ab{gap}cd", 16)
    with pytest.raises(BadHexTape, match="at index 4"):
        AdviceTape.from_hex(f"abcd{gap}", 16)


# The per-bit codec that the one-pass one replaced, kept as the reference.
def _to_hex_oracle(bits: list[int]) -> tuple[str, int]:
    nbits = len(bits)
    if nbits == 0:
        return "", 0
    nbytes = (nbits + 7) // 8
    acc = 0
    for b in bits:
        acc = (acc << 1) | b
    acc <<= nbytes * 8 - nbits
    return acc.to_bytes(nbytes, "big").hex(), nbits


def _from_hex_oracle(hexstr: str, nbits: int) -> list[int]:
    total = len(hexstr) * 4
    acc = int.from_bytes(bytes.fromhex(hexstr), "big")
    return [(acc >> (total - 1 - i)) & 1 for i in range(nbits)]


def _read_bits(tape: AdviceTape) -> list[int]:
    """Every bit of the tape, read one at a time from its cursor."""
    return [tape.read_uint(1) for _ in range(tape.bits_written - tape.bits_read)]


# leading zeros, then any bits: 0..300 in all, any length mod 4 and mod 8
_bit_lists = st.tuples(
    st.integers(0, 40), st.lists(st.integers(0, 1), max_size=260)
).map(lambda zb: [0] * zb[0] + zb[1])


@settings(deadline=None)
@given(_bit_lists)
def test_hex_codec_matches_per_bit_oracle(bits):
    t = AdviceTape()
    for b in bits:
        t.write_uint(b, 1)
    hexstr, nbits = t.to_hex()
    assert (hexstr, nbits) == _to_hex_oracle(bits)
    for m in range(len(hexstr) * 4 + 1):  # every m <= nbits, and the pad bits
        assert _read_bits(AdviceTape.from_hex(hexstr, m)) == _from_hex_oracle(hexstr, m)
    assert _read_bits(AdviceTape.from_hex(hexstr, nbits)) == bits


def test_hex_round_trip_200k_bits():
    rng = random.Random(200_000)
    bits = [0] * 13 + [rng.getrandbits(1) for _ in range(200_000 - 13)]
    t = AdviceTape()
    for b in bits:
        t.write_uint(b, 1)
    hexstr, nbits = t.to_hex()
    assert (len(hexstr), nbits) == (50_000, 200_000)
    back = AdviceTape.from_hex(hexstr, nbits)
    assert _read_bits(back) == bits
    back.rewind()
    assert back.read_uint(13) == 0 and back.bits_read == 13


# A malformed argument to from_hex fails typed, naming the argument.
BAD_HEX_ARGS = [
    (("ab", 8.0), "nbits: expected an int, got float"),
    (("ab", "8"), "nbits: expected an int, got str"),
    (("ab", True), "nbits: expected an int, got bool"),
    ((None, 0), "hexstr: expected a str, got NoneType"),
    ((b"ab", 8), "hexstr: expected a str, got bytes"),
]


@pytest.mark.parametrize("args,message", BAD_HEX_ARGS)
def test_hex_bad_argument_types(args, message):
    with pytest.raises(BadHexTape) as err:
        AdviceTape.from_hex(*args)
    assert str(err.value) == message


def _written(values: list[int], width: int) -> AdviceTape:
    t = AdviceTape()
    for value in values:
        t.write_uint(value, width)
    return t


# every width up to 12, with counts on both sides of 2^width, where the
# block decode switches between its table and int() per record
@pytest.mark.parametrize("width", range(13))
def test_read_uints_round_trip(width):
    rng = random.Random(width)
    for count in sorted({1, 7, (1 << width) - 1, 1 << width, (1 << width) + 5}):
        values = [rng.getrandbits(width) for _ in range(count)]
        written = _written([(1 << width) - 1] + values, width)
        hexstr, nbits = written.to_hex()
        for t in (written, AdviceTape.from_hex(hexstr, nbits)):
            t.read_uint(width)  # the block starts at the cursor
            records = t.uints(width)
            for end, value in enumerate(values, 2):
                assert next(records) == value
                assert t.bits_read == end * width  # one record per item
            assert t.bits_read == t.bits_written
            if width:
                with pytest.raises(TapeExhausted):
                    next(records)
                assert t.bits_read == t.bits_written


def test_read_uints_of_no_records():
    # the iterator reads nothing before its first record is asked for
    t = _written([5, 2], 3)
    records = t.uints(3)
    assert t.bits_read == 0
    assert next(records) == 5 and t.bits_read == 3
    assert next(records) == 2 and t.bits_read == 6
    with pytest.raises(TapeExhausted):
        next(t.uints(3))
    assert t.bits_read == 6


def test_read_uints_width_zero():
    t = _written([5], 3)
    records = t.uints(0)
    assert [next(records) for _ in range(4)] == [0, 0, 0, 0] and t.bits_read == 0
    assert next(AdviceTape().uints(0)) == 0


def test_read_uints_past_end_consumes_nothing():
    t = _written([1, 2, 3], 2)
    t.write_uint(1, 1)  # a record cut one bit short
    t.read_uint(2)
    records = t.uints(2)
    assert [next(records), next(records)] == [2, 3] and t.bits_read == 6
    with pytest.raises(TapeExhausted) as err:
        next(records)
    assert str(err.value) == "read of 2 bits at cursor 6 exceeds 7 written bits"
    assert t.bits_read == 6
