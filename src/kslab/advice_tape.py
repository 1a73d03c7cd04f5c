"""Bit-exact advice tape with strict read accounting.

Only fixed-width big-endian unsigned integers are supported: both the
oracle and the online algorithm derive every field width from public
parameters, so no self-delimiting codes are needed.  Width 0 is legal and
writes nothing (used when a parameter makes the choice unique).
"""
from __future__ import annotations


class TapeError(RuntimeError):
    pass


class ValueTooWide(TapeError):
    pass


class TapeExhausted(TapeError):
    pass


class BadHexTape(TapeError):
    """A hex dump that cannot hold the bit length it claims."""


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
        if self.read_cursor + width > len(self._bits):
            raise TapeExhausted(
                f"read of {width} bits at cursor {self.read_cursor} "
                f"exceeds {len(self._bits)} written bits"
            )
        value = 0
        for _ in range(width):
            value = (value << 1) | self._bits[self.read_cursor]
            self.read_cursor += 1
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
        acc = 0
        for b in self._bits:
            acc = (acc << 1) | b
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
        try:
            acc = int.from_bytes(bytes.fromhex(hexstr), "big")
        except ValueError as exc:
            raise BadHexTape(f"bad hex string: {exc}") from exc
        for i in range(nbits):
            tape._bits.append((acc >> (total - 1 - i)) & 1)
        return tape

    def __repr__(self) -> str:
        return (
            f"AdviceTape(written={self.bits_written}, read={self.bits_read})"
        )
