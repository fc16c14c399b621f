"""Exact vectorized printf for numeric columns.

``rows(fmt, columns)`` yields the bytes of
``"".join(fmt % row for row in zip(*columns))`` in blocks of CHUNK rows, for a
row format whose conversions are "%.9e", "%.2f" and "%d".  Every field is
byte-equal to Python's own ``%`` formatting, which is correctly rounded.

A "%.9e" value a with decimal exponent |e| <= 98 (so that a carry keeps
two digits) takes the fast path when s = a * 10**(9 - e), one multiply by
the double nearest 10**(9 - e), lies within 0.5 - MARGIN of an integer.  s
is then within two roundings of the exact scaled value, under 2**-18 in
[1e9, 1e10], so rounding s to an integer gives the correctly rounded
digits.  The exponent is first guessed from the binary one, which leaves it
exact or one too low; the guess is stepped up where s reaches 1e10.  A
"%.2f" value below 1e7 is scaled by 100, one rounding.  Values whose scaled
fractional part lies within MARGIN of .5, values outside these ranges, NaN
and inf are formatted by Python's ``%`` one at a time.

Fields are built from little-endian 4-byte words of ASCII looked up in small
tables, in which the byte 0 pads (leading zeros, unused sign slots).  Each
block makes one field call per conversion: its columns of one conversion
are stacked and formatted together.  Their words, and those of the literal
text, go into one transposed word block with one contiguous row per word
position of the row format.  ``tobytes(order="F")`` reads it out row by
row of the file, and the pad bytes of the whole block are dropped at once.
"""

from __future__ import annotations

import math
import re
from functools import cache, lru_cache
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from .core import CHUNK  # rows per block: every temporary stays well under 1 MiB
MARGIN = 2.0**-16  # wider than the error of any scaled value on a fast path

_CONVERSION = r"%(?:\.9e|\.2f|d)"
_WORD = np.dtype("<u4")
_ZERO, _MINUS, _PLUS, _DOT, _E = (ord(c) for c in "0-+.e")
_E_MIN, _E_MAX, _E_FAST = -324, 308, 98  # decimal exponents of doubles, and the fast ones
_E2_MIN, _E2_MAX = -1073, 1024  # frexp's binary exponents of nonzero doubles


def _pack(*chars) -> np.ndarray:
    """Four equal-length columns of byte values as one column of words."""
    return np.ascontiguousarray(np.stack(chars, axis=1), dtype=np.uint8).view(_WORD)[:, 0]


@cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built on first use."""
    i = np.arange(10_000)
    digits = [i // 1000 % 10, i // 100 % 10, i // 10 % 10, i % 10]
    full = _pack(*(d + _ZERO for d in digits))
    # leading zeros become pad; 0 itself is all pad, as a leading word must be
    stripped = _pack(*((d + _ZERO) * (i >= 10**p) for d, p in zip(digits, (3, 2, 1, 0))))
    h = np.arange(100)
    d0, d1 = h // 10 + _ZERO, h % 10 + _ZERO
    dot, nil = np.full(100, _DOT), np.zeros(100, int)
    # (sign slot, d, '.', d) for 0..99, and for 100, ten digits that rounded
    # up to 10**10: "1.0", as 10
    lead = np.append(_pack(nil, d0, dot, d1), _pack([0], [_ZERO + 1], [_DOT], [_ZERO]))
    e = np.arange(_E_MIN, _E_MAX + 1)
    carry = np.zeros(101, np.intp)
    carry[[0, 100]] = 1  # 0 stands for a zero, whose guess is e = -1
    return SimpleNamespace(
        # 0..9999 as four digits, then without leading zeros, then "0"
        uint=np.concatenate((full, stripped, _pack([0], [0], [0], [_ZERO]))),
        # "%.9e" first word for 0..100, then with '-'
        lead=np.concatenate((lead, lead | _MINUS)),
        cents=_pack(dot, d0, d1, nil),  # ".dd" for 0..99
        sign=np.array([0, _MINUS], _WORD),  # a word holding nothing or '-'
        # by decimal exponent from _E_MIN: "e+dd" (only slow values have
        # more digits), and the double nearest 10**(9 - e), NaN off the fast path
        exponent=_pack(np.full(len(e), _E), np.where(e < 0, _MINUS, _PLUS),
                       abs(e) // 10 % 10 + _ZERO, abs(e) % 10 + _ZERO),
        scale=np.array([float(f"1e{9 - n}") if abs(n) <= _E_FAST else math.nan for n in e.tolist()]),
        # by binary exponent e2 from _E2_MIN, the decimal exponent of
        # 2**(e2 - 1) from _E_MIN: that of [2**(e2 - 1), 2**e2) or one below.
        # (e2 - 1)*log10(2) is 0 or over 4e-4 from any integer in this
        # range, so the float product floors alike.  frexp gives 0 and non-finite
        # values e2 = 0, so zero reads e = -1
        guess=np.array([math.floor((n - 1) * math.log10(2.0)) - _E_MIN
                        for n in range(_E2_MIN, _E2_MAX + 1)]),
        carry=carry,  # by the ten digits' first two: 1 where the exponent steps up
    )


def _uint_words(u: np.ndarray) -> np.ndarray:
    """Decimal digits of non-negative int64s, right-aligned in rows of words
    and with leading zeros as pad, as many rows as the largest needs."""
    table = _tables().uint
    groups = -(-len(str(int(u.max()))) // 4) if len(u) else 1
    words = np.empty((groups, len(u)), _WORD)
    for w in range(groups - 1, -1, -1):
        hi = u // 10 ** (4 * w) if w else u  # the digits of this word and above
        if w == groups - 1:  # the top word: below 10**4 by the choice of groups
            index = hi + 10_000
        else:
            index = np.where(hi < 10_000, hi + 10_000, hi % 10_000)
        if not w:
            index[u == 0] = 20_000
        table.take(index, out=words[groups - 1 - w], mode="clip")
    return words


def _signed(negative: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The rows of words after a sign row if any value is negative."""
    if negative.any():
        return np.concatenate((_tables().sign[negative.astype(np.intp)][None], words))
    return words


def _int_field(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%d': an optional '-' and the digits of |v|."""
    slow = v == np.iinfo(np.int64).min  # |v| overflows int64
    return _signed(v < 0, _uint_words(np.abs(np.where(slow, 0, v)))), slow


def _e9_field(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.9e': sign and d.d, eight digits, 'e', exponent sign and two digits."""
    t = _tables()
    a = np.abs(v)
    e = t.guess.take(np.frexp(a)[1] - _E2_MIN)  # the exponent from _E_MIN
    with np.errstate(invalid="ignore"):  # from NaN, inf and signalling NaNs, all slow
        s = a * t.scale.take(e)
        np.add(e, 1, out=e, where=s >= 1e10)  # the guess was one too low
        np.multiply(a, t.scale.take(e), out=s)
        r = np.rint(s, out=a)
        slow = ~(np.abs(np.subtract(s, r, out=s), out=s) <= 0.5 - MARGIN)  # True for NaN
        ten = r.astype(np.int64)  # the ten digits; 0 for a zero
    del a, r, s
    # as 2 + 4 + 4 digits; a slow row's garbage index is clipped, and the
    # row overwritten
    hi = ten // 10**8
    ten -= hi * 10**8
    mid = ten // 10**4
    ten -= mid * 10**4
    words = np.empty((4, len(v)), _WORD)
    t.uint.take(mid, out=words[1], mode="clip")
    t.uint.take(ten, out=words[2], mode="clip")
    del mid, ten
    e += t.carry.take(hi, mode="clip")  # 9.9999999995e5 rounds up to 1.000000000e6
    t.exponent.take(e, out=words[3], mode="clip")
    np.add(hi, 101, out=hi, where=np.signbit(v))
    t.lead.take(hi, out=words[0], mode="clip")
    return words, slow


def _f2_field(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.2f': sign, integer digits, '.', two decimals."""
    a = np.abs(v)
    slow = ~(a < 1e7)  # True for NaN; below, half an ulp of 100 a is at most 2**-23
    a[slow] = 0.0
    s = a * 100.0
    r = np.rint(s)
    slow |= np.abs(s - r) > 0.5 - MARGIN
    cents = r.astype(np.int64)
    whole = cents // 100
    cents -= 100 * whole
    words = np.concatenate((_uint_words(whole), _tables().cents[cents][None]))
    return _signed(np.signbit(v), words), slow


# each conversion's field, and the dtype that its columns are read as
_FIELDS = {"%.9e": (_e9_field, np.float64), "%.2f": (_f2_field, np.float64),
           "%d": (_int_field, np.int64)}


def _field(conv: str, columns: Sequence[np.ndarray]) -> np.ndarray:
    """One conversion of equal-length columns, stacked, as rows of words
    over all their values; slow values by Python's `%`."""
    field, dtype = _FIELDS[conv]
    values = np.concatenate(columns, dtype=dtype, casting="unsafe")
    words, slow = field(values)
    for i in np.flatnonzero(slow).tolist():
        text = _words((conv % values[i].item()).encode("ascii"))
        if len(text) > len(words):  # widens every column of the conversion
            words = np.concatenate((words, np.zeros((len(text) - len(words), len(values)), _WORD)))
        words[:len(text), i] = text
        words[len(text):, i] = 0
    return words


def _words(data: bytes) -> np.ndarray:
    """Bytes as words, the last padded."""
    return np.frombuffer(data.ljust(-(-len(data) // 4) * 4, b"\0"), _WORD)


@lru_cache(maxsize=16)
def _layout(fmt: str) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
    """The conversions of a row format, and the literal text around them as
    columns of words; parsed once per format, as callers write a file block
    by block."""
    convs = re.findall(_CONVERSION, fmt)
    literals = re.split(_CONVERSION, fmt)
    if "%" in "".join(literals):
        raise ValueError(f"{fmt!r} must hold one of {_CONVERSION} per column and no other '%'")
    return tuple(convs), tuple(_words(text.encode("ascii"))[:, None] for text in literals)


def rows(fmt: str, columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The bytes of ``"".join(fmt % row for row in zip(*columns))``, one
    bytes object per block of CHUNK rows.  `fmt` holds one "%.9e", "%.2f"
    or "%d" per column, and no other '%'."""
    convs, literals = _layout(fmt)
    if len(convs) != len(columns):
        raise ValueError(f"{fmt!r} holds {len(convs)} conversions for {len(columns)} columns")
    if len({len(column) for column in columns}) > 1:
        raise ValueError("columns differ in length")
    n = len(columns[0]) if columns else 0
    # the columns of each conversion, formatted together
    groups = {conv: [c for c, each in enumerate(convs) if each == conv] for conv in convs}
    for lo in range(0, n, CHUNK):
        m = min(CHUNK, n - lo)
        fields = [None] * len(convs)
        for conv, members in groups.items():
            words = _field(conv, [columns[c][lo:lo + m] for c in members])
            words = words.reshape(len(words), len(members), m)
            for k, c in enumerate(members):
                fields[c] = words[:, k]
        pieces = [literals[0]]
        for field, literal in zip(fields, literals[1:]):
            pieces += (field, literal)
        block = np.empty((sum(len(piece) for piece in pieces), m), _WORD)
        at = 0
        for piece in pieces:
            block[at:at + len(piece)] = piece
            at += len(piece)
        del fields, pieces, words  # freed before the block's bytes are made
        data = block.tobytes(order="F")
        del block  # and the block before its pad bytes are dropped
        yield data.translate(None, b"\0")
