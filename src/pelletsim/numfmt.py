"""Exact vectorized printf for numeric columns.

``rows(fmt, columns)`` yields the bytes of
``"".join(fmt % row for row in zip(*columns))`` in blocks of CHUNK rows, for a
row format whose conversions are "%.9e", "%.2f" and "%d".  Every field is
byte-equal to Python's own ``%`` formatting, which is correctly rounded.

A float takes the fast path when one correctly rounded multiply or divide
by an exact power of ten (10**k, |k| <= 22) brings it to a value s within
half an ulp (at most 2**-20) of the exact scaled value: rounding s to an
integer then gives the correctly rounded digits, unless the exact value
could lie on the other side of a half.  Such values, whose fractional part
lies within MARGIN of .5, and values outside the exact range, NaN and inf,
are formatted by Python's ``%`` one at a time.

Fields are built from little-endian 4-byte words of ASCII looked up in small
tables, in which the byte 0 pads (leading zeros, unused sign slots).  The
words of all fields and literal text are laid side by side in one block, and
the pad bytes of the whole block are dropped at once.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from .core import CHUNK  # rows per block: every temporary stays well under 1 MiB
MARGIN = 2.0**-16  # wider than half an ulp of any scaled value on a fast path

_CONVERSION = r"%(?:\.9e|\.2f|d)"
_WORD = np.dtype("<u4")
_ZERO, _MINUS, _PLUS, _DOT, _E = (ord(c) for c in "0-+.e")


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
    lead = _pack(nil, d0, dot, d1)
    e = np.arange(-99, 100)
    k = range(-23, 24)
    return SimpleNamespace(
        # 0..9999 as four digits, then without leading zeros, then "0"
        uint=np.concatenate((full, stripped, _pack([0], [0], [0], [_ZERO]))),
        # "%.9e" first word (sign slot, d, '.', d) for 0..99, then with '-'
        lead=np.concatenate((lead, lead | _MINUS)),
        cents=_pack(dot, d0, d1, nil),  # ".dd" for 0..99
        exponent=_pack(np.full(199, _E), np.where(e < 0, _MINUS, _PLUS),
                       abs(e) // 10 + _ZERO, abs(e) % 10 + _ZERO),  # "e+dd" for -99..99
        sign=np.array([0, _MINUS], _WORD),  # a word holding nothing or '-'
        # a * mul / div is a * 10**k rounded once (the other factor is 1),
        # for k = -23..23; NaN at |k| = 23, where 10**k is no longer exact
        mul=np.array([float(10**n) if 0 <= n <= 22 else 1.0 if -22 <= n < 0 else np.nan for n in k]),
        div=np.array([float(10**-n) if n < 0 else 1.0 for n in k]),
    )


def _uint_words(u: np.ndarray) -> list[np.ndarray]:
    """Decimal digits of non-negative int64s, right-aligned in word columns
    and with leading zeros as pad, as many columns as the largest needs."""
    table = _tables().uint
    groups = -(-len(str(int(u.max()))) // 4) if len(u) else 1
    words = []
    for w in range(groups - 1, -1, -1):
        hi = u // 10 ** (4 * w) if w else u  # the digits of this word and above
        if w == groups - 1:  # the top word: below 10**4 by the choice of groups
            index = hi + 10_000
        else:
            index = np.where(hi < 10_000, hi + 10_000, hi % 10_000)
        if not w:
            index[u == 0] = 20_000
        words.append(table[index])
    return words


def _signed(negative: np.ndarray, words: list[np.ndarray]) -> list[np.ndarray]:
    """The word columns after a sign column if any value is negative."""
    if negative.any():
        words.insert(0, _tables().sign[negative.astype(np.intp)])
    return words


def _int_field(v: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """'%d': an optional '-' and the digits of |v|."""
    v = np.asarray(v, dtype=np.int64)
    slow = v == np.iinfo(np.int64).min  # |v| overflows int64
    return _signed(v < 0, _uint_words(np.abs(np.where(slow, 0, v)))), slow


def _e9_field(v: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """'%.9e': sign and d.d, eight digits, 'e', exponent sign and two digits."""
    t = _tables()
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    zero = a == 0.0
    a[zero] = 1.0
    e = np.floor(np.log10(a))  # NaN and +-inf stay so; both go slow
    # 10**(9 - e) from the tables, NaN where no power of ten is exact
    k = np.fmin(np.fmax(9.0 - e, -23.0), 23.0).astype(np.intp) + 23
    with np.errstate(invalid="ignore"):  # signalling NaNs
        s = a * t.mul[k] / t.div[k]
    # log10 may be one off next to a power of ten: step the exponent once
    off = (s >= 1e10).astype(np.intp) - (s < 1e9)
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        k[fix] -= off[fix]
        s[fix] = a[fix] * t.mul[k[fix]] / t.div[k[fix]]
    r = np.rint(s)
    slow = ~(np.abs(s - r) <= 0.5 - MARGIN)  # True for NaN
    r[slow] = 1e9
    e[slow | zero] = 0.0
    carry = r == 1e10  # 9.9999999995e5 rounds up to 1.000000000e6
    r[carry] = 1e9
    e += carry
    r[zero] = 0.0
    # the ten digits as 2 + 4 + 4; floor of a quotient of exact integers
    # below 2**53 is exact
    hi = np.floor(r / 1e8)
    r -= hi * 1e8
    mid = np.floor(r / 1e4)
    r -= mid * 1e4

    return [t.lead[hi.astype(np.intp) + 100 * np.signbit(v)], t.uint[mid.astype(np.intp)],
            t.uint[r.astype(np.intp)], t.exponent[e.astype(np.intp) + 99]], slow


def _f2_field(v: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """'%.2f': sign, integer digits, '.', two decimals."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    slow = ~(a < 1e7)  # True for NaN; below, half an ulp of 100 a is at most 2**-23
    a[slow] = 0.0
    s = a * 100.0
    r = np.rint(s)
    slow |= np.abs(s - r) > 0.5 - MARGIN
    whole = np.floor(r / 100.0)
    cents = (r - 100.0 * whole).astype(np.intp)
    words = _uint_words(whole.astype(np.int64))
    words.append(_tables().cents[cents])
    return _signed(np.signbit(v), words), slow


_FIELDS = {"%.9e": _e9_field, "%.2f": _f2_field, "%d": _int_field}


def _field(conv: str, column: np.ndarray) -> list[np.ndarray]:
    """One conversion of one block of a column as word columns; slow rows
    by Python's `%`."""
    words, slow = _FIELDS[conv](column)
    for i in np.flatnonzero(slow).tolist():
        text = _words((conv % column[i].item()).encode("ascii"))
        while len(words) < len(text):
            words.append(np.zeros(len(column), _WORD))
        for w, word in enumerate(words):
            word[i] = text[w] if w < len(text) else 0
    return words


def _words(data: bytes) -> np.ndarray:
    """Bytes as words, the last padded."""
    return np.frombuffer(data.ljust(-(-len(data) // 4) * 4, b"\0"), _WORD)


@lru_cache(maxsize=16)
def _layout(fmt: str) -> tuple[tuple[str, ...], tuple[tuple[np.ndarray, ...], ...]]:
    """The conversions of a row format, and the literal text around them as
    words; parsed once per format, as callers write a file block by block."""
    convs = re.findall(_CONVERSION, fmt)
    literals = re.split(_CONVERSION, fmt)
    if "%" in "".join(literals):
        raise ValueError(f"{fmt!r} must hold one of {_CONVERSION} per column and no other '%'")
    return tuple(convs), tuple(tuple(_words(text.encode("ascii"))) for text in literals)


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
    for lo in range(0, n, CHUNK):
        words = list(literals[0])
        for conv, column, literal in zip(convs, columns, literals[1:]):
            words += _field(conv, column[lo:lo + CHUNK])
            words += literal
        block = np.empty((min(CHUNK, n - lo), len(words)), _WORD)
        for c, word in enumerate(words):
            block[:, c] = word
        yield block.tobytes().translate(None, b"\0")
