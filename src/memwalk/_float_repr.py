"""``repr(v).encode()`` for every float64 in an array, computed on arrays.

Python's ``repr`` of a float is the shortest decimal string that reads back
as the same float, laid out in fixed or exponent notation.  ``repr_rows``
finds the same digits for every double in (0, 1) with Ryū's ``d2d`` (Adams,
"Ryū: fast float-to-string conversion", PLDI 2018), e2 < 0 branch, in
fixed-width integer arithmetic over uint64 arrays, and lays them out by
``repr``'s rules.

Lanes that would need Ryū's trailing-zero bookkeeping (its general case:
binary fractions with few significant bits, such as 0.5), and any value
outside (0, 1), take ``repr`` itself, so every lane's bytes are ``repr``'s.

Every integer operation runs on arrays, which wrap on overflow silently;
numpy scalars would warn instead.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__: list[str] = []

#: The bits of 1.0.  A lane goes to the kernel when its bits lie strictly
#: between those of 0.0 and this, that is when its value lies in (0, 1).
KERNEL_BITS_LIMIT = np.uint64(1023 << 52)
#: A lane's digits, and the exponent form's point, fit in 18 bytes: they
#: are held NUL-padded in three little-endian uint64 words.
_WORDS = 3
#: Ryū's DOUBLE_POW5_BITCOUNT: every 5^i is held to exactly this many bits.
_POW5_BITS = 125
#: Products are summed in 28-bit limbs, so no column sum overflows 64 bits.
_LIMB_BITS = 28
_LIMB = (1 << _LIMB_BITS) - 1
#: ASCII "0" in every byte of a word.
_ZEROS = int.from_bytes(b"0" * 8, "little")
#: What repr writes before the digits of 0.<digits> * 10^decpt, at index
#: -decpt, for -3 <= decpt <= 0: "0." and up to three zeros.
_LEAD_INS = np.array([b"0." + b"0" * k for k in range(4)])
#: The suffix of d.ddd * 10^-k, at index k: at least two exponent digits.
#: 5e-324, the smallest double, takes the last.
_EXPONENTS = np.array([b"e-%02d" % k for k in range(325)])


@cache
def _pow5_limbs() -> np.ndarray:
    """5^i cut or shifted to exactly 125 bits, for i < 326 (Ryū's
    DOUBLE_POW5_SPLIT), as five 28-bit limbs, least significant first:
    row k holds limb k of every i."""
    limbs = np.empty((5, 326), dtype=np.uint64)
    for i in range(326):
        p = 5**i
        shift = p.bit_length() - _POW5_BITS
        p = p >> shift if shift >= 0 else p << -shift
        limbs[:, i] = [(p >> (_LIMB_BITS * k)) & _LIMB for k in range(5)]
    return limbs


@cache
def _powers_of_ten() -> np.ndarray:
    """10^k as uint64, k = 0..19."""
    return np.array([10**k for k in range(20)], dtype=np.uint64)


def _decode(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ryū's scaling for doubles in (0, 1), given as their bits:
    mv = 4 * m2, mm_shift, the decimal exponent e10 of the interval ends,
    the index i of their power of 5 and the shift j, and which lanes Ryū's
    fast path holds for (its general case: q <= 1, or mv a multiple of 2^q
    below q = 63)."""
    exponent = (bits >> 52).astype(np.int64)
    mantissa = bits & ((1 << 52) - 1)
    normal = exponent != 0
    e2 = np.where(normal, exponent, 1) - 1077
    mv = (mantissa | (normal.astype(np.uint64) << 52)) << 2
    mm_shift = ((mantissa != 0) | (exponent <= 1)).astype(np.uint64)
    q = ((-e2 * 732923) >> 20) - (e2 < -1)
    i = -e2 - q
    j = q - (((i * 1217359) >> 19) + 1 - _POW5_BITS)
    low_bits = (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - 1
    held = (q > 1) & ((q >= 63) | (mv & low_bits != 0))
    return mv, mm_shift, q + e2, i, j, held


def _interval(
    mv: np.ndarray, mm_shift: np.ndarray, i: np.ndarray, j: np.ndarray
) -> list[np.ndarray]:
    """[vm, vr, vp]: floor(x * POW5[i] / 2^j) for x = mv - 1 - mm_shift, mv
    and mv + 2.  One product is summed in six 28-bit limbs, then POW5[i]
    added twice; j lies in 118..121, so each quotient is limb 4 shifted down
    plus limb 5 shifted up."""
    pow5 = [np.take(row, i) for row in _pow5_limbs()]
    x = mv - 1 - mm_shift
    x0, x1 = x & _LIMB, x >> _LIMB_BITS
    cols = [x0 * pow5[0]]
    cols += [x0 * pow5[k] + x1 * pow5[k - 1] for k in range(1, 5)]
    cols.append(x1 * pow5[4])
    del x, x0, x1
    down = (j - 4 * _LIMB_BITS).astype(np.uint64)
    up = 5 * _LIMB_BITS - j.astype(np.uint64)
    ends = []
    for times in (None, 1 + mm_shift, np.uint64(2)):
        if times is not None:
            for k in range(5):
                cols[k] += times * pow5[k]
        for k in range(5):  # carry
            cols[k + 1] += cols[k] >> _LIMB_BITS
            cols[k] &= _LIMB
        ends.append((cols[4] >> down) | (cols[5] << up))
    return ends


def _drop_digits(
    vm: np.ndarray, vr: np.ndarray, vp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ryū's shortest digits in (vm, vp] and how many digits of vr they
    drop: drop while vp // 10 > vm // 10, then round vr up when the last
    digit dropped was 5 or more, or when vr is vm.  Most lanes drop one to
    three, so the first passes run on every lane and the rest on the lanes
    still dropping."""
    removed = np.zeros(vr.size, dtype=np.int64)
    round_up = np.zeros(vr.size, dtype=bool)
    for _ in range(3):
        vp10, vm10, vr10 = vp // 10, vm // 10, vr // 10
        more = vp10 > vm10
        round_up = np.where(more, vr - vr10 * 10 >= 5, round_up)
        vr = np.where(more, vr10, vr)
        vp = np.where(more, vp10, vp)
        vm = np.where(more, vm10, vm)
        removed += more
    lanes = np.flatnonzero(more)
    while lanes.size:
        vp10, vm10 = vp[lanes] // 10, vm[lanes] // 10
        more = vp10 > vm10
        lanes, vp10, vm10 = lanes[more], vp10[more], vm10[more]
        r = vr[lanes]
        r10 = r // 10
        round_up[lanes] = r - r10 * 10 >= 5
        vr[lanes], vp[lanes], vm[lanes] = r10, vp10, vm10
        removed[lanes] += 1
    return vr + ((vr == vm) | round_up), removed


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryū's d2d over doubles in (0, 1), given as their bits: the
    shortest digits as an integer, its decimal exponent, and which lanes hold
    (False where Ryū would take its general case)."""
    mv, mm_shift, e10, i, j, held = _decode(bits)
    digits, removed = _drop_digits(*_interval(mv, mm_shift, i, j))
    return digits, e10 + removed, held


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8 as ASCII bytes of a uint64,
    most significant digit in the lowest byte (so first in memory on a
    little-endian word), four at a time, then two, then one."""
    hi = v // 10000
    x = hi | ((v - hi * 10000) << 32)
    hi = ((x * 10486) >> 20) & 0x0000007F0000007F  # x // 100 in each half
    x = hi | ((x - hi * 100) << 16)
    hi = ((x * 103) >> 10) & 0x000F000F000F000F  # x // 10 in each quarter
    return (hi | ((x - hi * 10) << 8)) + _ZEROS


def _low_bytes(count: np.ndarray) -> list[np.ndarray]:
    """The words of a mask that keeps each lane's ``count`` low bytes (a
    shift of 64 or more makes a word all ones)."""
    return [
        (np.uint64(1) << np.maximum(8 * count - 64 * k, 0).astype(np.uint64)) - 1
        for k in range(_WORDS)
    ]


def _shifted(words: list[np.ndarray]) -> list[np.ndarray]:
    """The words of a lane's bytes moved up by one byte."""
    return [words[0] << 8] + [(words[k] << 8) | (words[k - 1] >> 56) for k in range(1, _WORDS)]


def _ascii17(digits: np.ndarray, n: np.ndarray) -> list[np.ndarray]:
    """Each lane's n digits scaled up to 17 (so zero-filled), as ASCII in
    bytes 0..16 of three words."""
    scaled = digits * np.take(_powers_of_ten(), 17 - n)
    lead = scaled // 10**16
    scaled -= lead * 10**16
    head = scaled // 10**8
    a, b = _ascii8(head), _ascii8(scaled - head * 10**8)
    return [(lead + ord("0")) | (a << 8), (a >> 56) | (b << 8), b >> 56]


def _text(words: list[np.ndarray]) -> np.ndarray:
    """Each lane's NUL-padded little-endian words as one "S24" string."""
    return np.stack(words, axis=1).astype("<u8", copy=False).view("S24").ravel()


def _layout(digits: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """repr's layout of digits * 10^exp10 (in (0, 1)), as a 1-d "S24"
    array."""
    # Digit count: from the bit length, as the float conversion reads it
    # (it may round up by one bit, which the comparison absorbs).
    bit_length = (digits.astype(np.float64).view(np.uint64) >> 52).astype(np.int64) - 1022
    n = (bit_length * 1233) >> 12
    n += digits >= np.take(_powers_of_ten(), n)
    # The point's place: the value is 0.<digits> * 10^decpt, so decpt <= 0.
    decpt = exp10 + n
    shown = [w & m for w, m in zip(_ascii17(digits, n), _low_bytes(n))]
    texts = np.empty(digits.size, dtype="S24")

    # 0.000ddd where -3 <= decpt <= 0.
    lanes = np.flatnonzero(decpt >= -3)
    texts[lanes] = np.add(np.take(_LEAD_INS, -decpt[lanes]), _text([w[lanes] for w in shown]))
    # d.ddde-XX: the first digit, a point unless it is the only digit, the
    # rest, then the exponent.
    lanes = np.flatnonzero(decpt < -3)
    shown = [w[lanes] for w in shown]
    words = _shifted(shown)
    dot = (n[lanes] > 1) * np.uint64(ord(".") << 8)
    words[0] = (words[0] & ~np.uint64(0xFFFF)) | (shown[0] & 0xFF) | dot
    texts[lanes] = np.add(_text(words), np.take(_EXPONENTS, 1 - decpt[lanes]))
    return texts


def repr_rows(values: np.ndarray) -> np.ndarray:
    """``repr(float(v)).encode()`` of every v in a 1-d array, as a 1-d "S24"
    array (no repr is longer than 24 bytes)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    lanes = np.flatnonzero((bits != 0) & (bits < KERNEL_BITS_LIMIT))
    digits, exp10, held = _shortest(bits[lanes])
    texts = _layout(digits[held], exp10[held])
    if texts.size == values.size:
        return texts
    rows = np.zeros(values.size, dtype="S24")
    rows[lanes[held]] = texts
    rest = np.ones(values.size, dtype=bool)
    rest[lanes[held]] = False
    for k in np.flatnonzero(rest).tolist():
        rows[k] = repr(float(values[k])).encode()
    return rows
