"""Bit-level helpers shared by cache, predictor and trace code.

All addresses in the simulator are plain Python ints.  Instruction
*block* identifiers are addresses shifted right by the block-offset
width (64-byte blocks -> 6 offset bits), so most structures operate on
block ids directly.
"""

from __future__ import annotations

BLOCK_BYTES = 64
BLOCK_OFFSET_BITS = 6
INSTR_BYTES = 4
INSTRS_PER_BLOCK = BLOCK_BYTES // INSTR_BYTES

# 64-bit golden-ratio multiplier used by fold_hash (Fibonacci hashing).
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mask(bits: int) -> int:
    """Return an all-ones mask of ``bits`` bits (``mask(0) == 0``)."""
    if bits < 0:
        raise ValueError(f"bit width must be non-negative, got {bits}")
    return (1 << bits) - 1


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_exact(n: int) -> int:
    """Return log2(n) for an exact power of two, else raise ValueError."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


def block_of(addr: int) -> int:
    """Map a byte address to its instruction-block id."""
    return addr >> BLOCK_OFFSET_BITS


def fold_hash(value: int, bits: int) -> int:
    """Hash ``value`` down to ``bits`` bits.

    Uses Fibonacci hashing (multiply by the 64-bit golden ratio and take
    the top bits), which spreads low-entropy inputs such as sequential
    block ids well.  Deterministic across runs and platforms.
    """
    if bits <= 0:
        raise ValueError(f"hash width must be positive, got {bits}")
    h = (value * _GOLDEN64) & _MASK64
    return h >> (64 - bits)


#: Set-index width of the 32 KB / 8-way L1i (64 sets).
L1I_SET_BITS = 6


def partial_tag(block: int, bits: int, set_bits: int = L1I_SET_BITS) -> int:
    """The ``bits``-wide partial tag the CSHR stores for a block.

    Hardware partial tags are the low bits of the *address tag* — the
    part of the block address above the set index (Section III-C1 uses
    12 of the 58 tag bits).  Two consequences the mechanism depends on:

    * all blocks of one aligned 64-block (4 KB) region share a partial
      tag, so the HRT accumulates *regional* comparison history — code
      regions (functions, libraries, cold paths) are contiguous, which
      is what makes 1024 HRT entries enough for megabyte footprints;
    * CSHR matching is also regional: a fetch resolves the comparison
      in the victim's favour when it lands in the victim's region and
      its i-cache set maps to the victim's CSHR set.  A fully
      associative 1x256 CSHR searches every entry and so resolves most
      comparisons in time (about 70%, near Figure 6); the Table I 8x32
      geometry searches only the entries of 8 i-cache sets and resolves
      about 17-22% (media-streaming / data-caching, FDP, 160k records).
    """
    return (block >> set_bits) & mask(bits)
