"""Subsets of Z_m as bitmasks.

A residue subset is stored as an integer whose bit r is set when residue r
is a member.  All the hot loops in the certificate search work directly on
these masks; the dataclass is the typed wrapper the rest of the package
passes around.

A translate r + S (mod m), for 0 <= r < m, is read one way throughout
the package: off the doubled mask ``S | S << m`` as ``>> (m - r)``, whose
low m bits are the translate (bit i comes from bit i - r of S, or from
bit i - r + m where i < r).  ``sumset``, the checker's condition (b) and
both searches of ``criteria`` all read translates so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import MinaddError


@dataclass(frozen=True, init=False)
class ResidueSubset:
    """A subset of {0, ..., modulus-1}, bit r of ``mask`` set iff r is in.

    Equality, hash, repr and immutability are the frozen dataclass's, but
    the constructor is written out: it validates its arguments and stores
    them in the instance dict.  The generated one sets each field through
    ``object.__setattr__`` and then reads them back to validate, which
    costs about twice as much, and a small ``decide`` call builds several
    of these.  A value type's constructor is written out only where a
    measured per-call cost pays for it: today this one and those of
    ``Certificate``, ``Verdict`` and ``ConditionContext``, all built on
    ``decide``'s path.  Every other value type keeps the generated one.
    """

    modulus: int
    mask: int = 0

    def __init__(self, modulus: int, mask: int = 0) -> None:
        if modulus < 1:
            raise MinaddError(f"modulus must be positive, got {modulus}")
        if mask < 0 or mask >> modulus:
            raise MinaddError(
                f"mask {mask:#x} has bits outside modulus {modulus}"
            )
        d = self.__dict__
        d["modulus"] = modulus
        d["mask"] = mask

    @classmethod
    def of(cls, modulus: int, members: Iterable[int]) -> "ResidueSubset":
        """Build from explicit residues; each must lie in [0, modulus)."""
        mask = 0
        for r in members:
            if not 0 <= r < modulus:
                raise MinaddError(f"residue {r} not in [0, {modulus})")
            try:
                mask |= 1 << r
            except (OverflowError, MemoryError) as exc:
                raise MinaddError(f"residue {r} is too large to hold as a "
                                  f"bit ({type(exc).__name__})") from exc
        return cls(modulus, mask)

    def members(self) -> tuple[int, ...]:
        # bin() reversed puts bit r at index r; find() skips the zeros at C
        # speed, so the cost is one Python step per member.
        bits = bin(self.mask)[:1:-1]
        out = []
        r = bits.find("1")
        while r >= 0:
            out.append(r)
            r = bits.find("1", r + 1)
        return tuple(out)

    def __contains__(self, r: int) -> bool:
        return 0 <= r < self.modulus and bool(self.mask >> r & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.modulus) - 1

    def complement(self) -> "ResidueSubset":
        return ResidueSubset(self.modulus, self.mask ^ ((1 << self.modulus) - 1))

    def union(self, other: "ResidueSubset") -> "ResidueSubset":
        self._check(other)
        return ResidueSubset(self.modulus, self.mask | other.mask)

    def sumset(self, other: "ResidueSubset") -> "ResidueSubset":
        """{a + b mod m : a in self, b in other}: the union of the
        translates r + other for r in self, each read off the doubled mask
        (see the module docstring) and cut to m bits once, at the end."""
        self._check(other)
        m = self.modulus
        doubled = other.mask | other.mask << m
        acc = 0
        for r in self.members():
            acc |= doubled >> (m - r)
        return ResidueSubset(m, acc & ((1 << m) - 1))

    def _check(self, other: "ResidueSubset") -> None:
        if self.modulus != other.modulus:
            raise MinaddError(
                f"moduli differ: {self.modulus} vs {other.modulus}"
            )


def tile(mask: int, width: int, k: int) -> int:
    """A width-bit mask written out k times: bit i*width + r is bit r of
    ``mask``, for 0 <= i < k.

    The k*width-bit mask is allocated first, so a k*width too large for
    memory raises OverflowError or MemoryError before any copy is made.
    The copies then double by shifts: O(log k) steps, in time linear in
    k*width.
    """
    total = k * width
    full = (1 << total) - 1
    while width < total:
        mask |= mask << width
        width *= 2
    return mask & full


#: Each byte value with its 8 bits in reverse order, for ``bytes.translate``.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse(mask: int, width: int) -> int:
    """A width-bit mask reversed: bit r moves to bit width - 1 - r.

    The mask's little-endian bytes, each reversed by table and read back
    big-endian, are the mask reversed to the next multiple of 8 bits, and
    the shift drops that padding.  Time and memory are linear in width,
    at C speed, in about width/8 bytes, as much as the mask itself.
    """
    n = (width + 7) // 8
    return int.from_bytes(mask.to_bytes(n, "little").translate(_REVERSED_BYTES),
                          "big") >> (8 * n - width)


def mask_members(mask: int) -> tuple[int, ...]:
    """Set bits of a mask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
