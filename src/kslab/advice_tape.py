"""Bit-exact advice tape with strict read accounting.

Only fixed-width big-endian unsigned integers are supported: both the
oracle and the online algorithm derive every field width from public
parameters, so no self-delimiting codes are needed.  Width 0 is legal and
writes nothing (used when a parameter makes the choice unique).

The tape is one buffer of ASCII binary digits: a write appends `width`
digits, and a read is one `int(digits, 2)` of a slice of it.  A write of
at most 8 bits appends a cached encoded record; each width's records are
built on its first use.  `read_uints` reads a block of equal-width records
with one bounds check and one slice.  The hex dump and its load each
convert the whole buffer in one pass, in time linear in its bit length.
"""
from __future__ import annotations

import re


_NOT_HEX = re.compile(r"[^0-9a-fA-F]")


class TapeError(RuntimeError):
    pass


class ValueTooWide(TapeError):
    pass


class TapeExhausted(TapeError):
    pass


class BadHexTape(TapeError):
    """A hex dump that is not a str or has a non-hex character, a bit length
    that is not an int, or a dump too short for the bit length it claims."""


# width -> the encoded record of every value, for widths 1..8, each built
# on its first write and never changed
_ENCODED: dict[int, tuple[bytes, ...]] = {}


class AdviceTape:
    """Append-only bit string with a read cursor and exact bit counters."""

    def __init__(self):
        self._digits = bytearray()  # one ASCII "0"/"1" per written bit
        self.bits_written = 0
        self.bits_read = 0  # the read cursor

    def write_uint(self, value: int, width: int) -> None:
        """Append `value` as `width` bits, most significant first."""
        if width < 0:
            raise ValueError("width must be nonnegative")
        if value < 0 or value >> width:
            raise ValueTooWide(f"value {value} does not fit in {width} bits")
        if width > 8:
            self._digits += bin(value)[2:].zfill(width).encode()
        elif width:
            records = _ENCODED.get(width)
            if records is None:
                records = _ENCODED[width] = tuple(
                    format(v, f"0{width}b").encode() for v in range(1 << width)
                )
            self._digits += records[value]
        self.bits_written += width

    def read_uint(self, width: int) -> int:
        """Consume `width` bits at the cursor; never silently pads."""
        if width < 0:
            raise ValueError("width must be nonnegative")
        start = self.bits_read
        end = start + width
        if end > self.bits_written:
            raise TapeExhausted(
                f"read of {width} bits at cursor {start} "
                f"exceeds {self.bits_written} written bits"
            )
        if not width:
            return 0
        self.bits_read = end
        return int(self._digits[start:end], 2)

    def read_uints(self, count: int, width: int) -> list[int]:
        """Consume `count` records of `width` bits at the cursor in one
        block; a tape too short for all of them raises and consumes none."""
        if width < 0 or count < 0:
            raise ValueError("count and width must be nonnegative")
        start = self.bits_read
        end = start + count * width
        if end > self.bits_written:
            raise TapeExhausted(
                f"read of {count} x {width} bits at cursor {start} "
                f"exceeds {self.bits_written} written bits"
            )
        self.bits_read = end
        if not width:
            return [0] * count
        block = self._digits[start:end].decode()
        starts = range(0, end - start, width)
        if 1 << width <= count:  # fewer dict entries than int() calls
            decode = {format(v, f"0{width}b"): v for v in range(1 << width)}
            return [decode[block[i:i + width]] for i in starts]
        return [int(block[i:i + width], 2) for i in starts]

    def rewind(self) -> None:
        self.bits_read = 0

    # Dump format for run reports: hex string plus exact bit length, so a
    # report can be replayed bit for bit.
    def to_hex(self) -> tuple[str, int]:
        nbits = self.bits_written
        if nbits == 0:
            return "", 0
        nbytes = (nbits + 7) // 8
        acc = int(self._digits, 2) << (nbytes * 8 - nbits)  # pad at the tail
        return acc.to_bytes(nbytes, "big").hex(), nbits

    @classmethod
    def from_hex(cls, hexstr: str, nbits: int) -> "AdviceTape":
        if not isinstance(hexstr, str):
            raise BadHexTape(f"hexstr: expected a str, got {type(hexstr).__name__}")
        if not isinstance(nbits, int) or isinstance(nbits, bool):
            raise BadHexTape(f"nbits: expected an int, got {type(nbits).__name__}")
        tape = cls()
        total = len(hexstr) * 4
        if not 0 <= nbits <= total:
            raise BadHexTape(
                f"bit length {nbits} not in 0..{total} for {len(hexstr)} hex digits"
            )
        bad = _NOT_HEX.search(hexstr)
        if bad:  # bytes.fromhex would skip whitespace and shift the bits
            raise BadHexTape(
                f"bad hex string: {bad.group()!r} at index {bad.start()} "
                "is not a hex digit"
            )
        try:
            acc = int.from_bytes(bytes.fromhex(hexstr), "big")
        except ValueError as exc:
            raise BadHexTape(f"bad hex string: {exc}") from exc
        tape._digits = bytearray(format(acc, f"0{total}b")[:nbits], "ascii")
        tape.bits_written = nbits
        return tape

    def __repr__(self) -> str:
        return (
            f"AdviceTape(written={self.bits_written}, read={self.bits_read})"
        )
