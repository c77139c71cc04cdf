"""Operand model for the x86 subset.

Instructions operate on three operand kinds: registers, immediates, and
memory references of the form ``[base + index*scale + displacement]``
(Intel syntax).  Operands are immutable value objects so instructions can
be hashed, deduplicated and used as dictionary keys by the timing tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .registers import canonical_register, register_width


@dataclass(frozen=True)
class Register:
    """A register operand, e.g. ``RAX`` or ``XMM3``."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.upper())

    @property
    def width(self) -> int:
        """Operand width in bits."""
        return register_width(self.name)

    @property
    def base(self) -> str:
        """Canonical full-width register this operand aliases."""
        return canonical_register(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Immediate:
    """An immediate operand, e.g. ``42`` or ``0xdeadbeef``."""

    value: int
    width: int = 32

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class MemoryOperand:
    """A memory reference ``[base + index*scale + displacement]``.

    ``size`` is the access width in bytes; it is inferred from the other
    operand when omitted in assembly (or given explicitly via a
    ``qword ptr`` style prefix).
    """

    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    displacement: int = 0
    size: int = 8

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError("scale must be 1, 2, 4 or 8, not %r" % (self.scale,))
        if self.base is None and self.index is None and self.displacement == 0:
            raise ValueError("memory operand needs a base, index or displacement")

    @property
    def registers_read(self) -> Tuple[str, ...]:
        """Canonical registers consumed by address generation."""
        regs = []
        if self.base is not None:
            regs.append(self.base.base)
        if self.index is not None:
            regs.append(self.index.base)
        return tuple(regs)

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(self.base.name)
        if self.index is not None:
            term = self.index.name
            if self.scale != 1:
                term += "*%d" % self.scale
            parts.append(term)
        if self.displacement or not parts:
            parts.append("%#x" % self.displacement)
        return "[%s]" % " + ".join(parts)


Operand = object  # union alias for documentation; isinstance checks are used
OPERAND_TYPES = (Register, Immediate, MemoryOperand)


def operand_shape(operand) -> str:
    """Return a shape code used by timing tables: ``r64``, ``i``, ``m64``...

    Vector registers map to ``x``/``y``/``z`` prefixed shapes so that e.g.
    ``VPADDD XMM, XMM, XMM`` and its YMM variant can be timed separately.
    """
    if isinstance(operand, Register):
        name = operand.name
        if name.startswith("XMM"):
            return "x"
        if name.startswith("YMM"):
            return "y"
        if name.startswith("ZMM"):
            return "z"
        return "r%d" % operand.width
    if isinstance(operand, Immediate):
        return "i"
    if isinstance(operand, MemoryOperand):
        return "m%d" % (operand.size * 8)
    raise TypeError("not an operand: %r" % (operand,))
