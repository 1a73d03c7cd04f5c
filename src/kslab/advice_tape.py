"""Bit-exact advice tape with strict read accounting.

Only fixed-width big-endian unsigned integers are supported: both the
oracle and the online algorithm derive every field width from public
parameters, so no self-delimiting codes are needed.  Width 0 is legal and
writes nothing (used when a parameter makes the choice unique).

The tape is stored as ASCII binary digits: each write appends one chunk
of `width` digits, the chunks are joined into one string the first time a
read needs them, and a read is one `int(digits, 2)` of a slice.  The hex
dump and its load each convert the whole digit string in one pass, in time
linear in its bit length.
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
    """A hex dump with a non-hex character, or too short for the bit length
    it claims."""


class AdviceTape:
    """Append-only bit string with a read cursor and exact bit counters."""

    def __init__(self):
        self._chunks: list[str] = []  # digits written since the last join
        self._digits = ""  # the joined digits
        self.bits_written = 0
        self.bits_read = 0  # the read cursor

    def _joined(self) -> str:
        """Every written digit as one string."""
        if self._chunks:
            self._digits += "".join(self._chunks)
            self._chunks.clear()
        return self._digits

    def write_uint(self, value: int, width: int) -> None:
        """Append `value` as `width` bits, most significant first."""
        if width < 0:
            raise ValueError("width must be nonnegative")
        if value < 0 or value >> width:
            raise ValueTooWide(f"value {value} does not fit in {width} bits")
        if width:
            self._chunks.append(bin(value)[2:].zfill(width))
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
        digits = self._digits if end <= len(self._digits) else self._joined()
        self.bits_read = end
        return int(digits[start:end], 2)

    def rewind(self) -> None:
        self.bits_read = 0

    # Dump format for run reports: hex string plus exact bit length, so a
    # report can be replayed bit for bit.
    def to_hex(self) -> tuple[str, int]:
        nbits = self.bits_written
        if nbits == 0:
            return "", 0
        nbytes = (nbits + 7) // 8
        acc = int(self._joined(), 2) << (nbytes * 8 - nbits)  # pad at the tail
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
        tape._digits = format(acc, f"0{total}b")[:nbits]
        tape.bits_written = nbits
        return tape

    def __repr__(self) -> str:
        return (
            f"AdviceTape(written={self.bits_written}, read={self.bits_read})"
        )
