"""Bit-exact advice tape with strict read accounting.

Only fixed-width big-endian unsigned integers are supported: both the
oracle and the online algorithm derive every field width from public
parameters, so no self-delimiting codes are needed.  Width 0 is legal and
writes nothing (used when a parameter makes the choice unique).

The hex dump and its load each convert the whole tape in one pass, in time
linear in its bit length.
"""
from __future__ import annotations

import re


# bit lists <-> ASCII binary digits, for the one-pass hex codec
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_NOT_HEX = re.compile(r"[^0-9a-fA-F]")


class TapeError(RuntimeError):
    pass


class ValueTooWide(TapeError):
    pass


class TapeExhausted(TapeError):
    pass


class BadHexTape(TapeError):
    """A hex dump with a non-hex character, or too short for the bit length
    it claims."""


class AdviceTape:
    """Append-only bit string with a read cursor and exact bit counters."""

    def __init__(self):
        self._bits: list[int] = []
        self.read_cursor = 0
        self.bits_read = 0

    @property
    def bits_written(self) -> int:
        return len(self._bits)

    def write_uint(self, value: int, width: int) -> None:
        """Append `value` as `width` bits, most significant first."""
        if width < 0:
            raise ValueError("width must be nonnegative")
        if value < 0 or value >> width:
            raise ValueTooWide(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    def read_uint(self, width: int) -> int:
        """Consume `width` bits at the cursor; never silently pads."""
        if width < 0:
            raise ValueError("width must be nonnegative")
        start = self.read_cursor
        end = start + width
        if end > len(self._bits):
            raise TapeExhausted(
                f"read of {width} bits at cursor {start} "
                f"exceeds {len(self._bits)} written bits"
            )
        value = 0
        for b in self._bits[start:end]:
            value = (value << 1) | b
        self.read_cursor = end
        self.bits_read += width
        return value

    def rewind(self) -> None:
        self.read_cursor = 0
        self.bits_read = 0

    # Dump format for run reports: hex string plus exact bit length, so a
    # report can be replayed bit for bit.
    def to_hex(self) -> tuple[str, int]:
        nbits = len(self._bits)
        if nbits == 0:
            return "", 0
        nbytes = (nbits + 7) // 8
        acc = int(bytes(self._bits).translate(_BITS_TO_DIGITS), 2)
        acc <<= nbytes * 8 - nbits  # pad at the tail
        return acc.to_bytes(nbytes, "big").hex(), nbits

    @classmethod
    def from_hex(cls, hexstr: str, nbits: int) -> "AdviceTape":
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
        digits = format(acc, f"0{total}b")[:nbits]
        tape._bits = list(digits.encode().translate(_DIGITS_TO_BITS))
        return tape

    def __repr__(self) -> str:
        return (
            f"AdviceTape(written={self.bits_written}, read={self.bits_read})"
        )
