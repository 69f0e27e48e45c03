"""Exact %.17g text of a float table, formatted with whole-array numpy
arithmetic instead of one Python float and one format call per value.

rows_text(block) returns, as bytes, the text that

    ((",".join(["%.17g"] * n_cols) + "\\n") * n_rows) % tuple(block.ravel().tolist())

gives.  Its digits are exact, by this argument.  For a finite x with
1e-200 <= |x| <= 1e200, %.17g writes the integer D = |x| 10^s rounded half
to even, where s puts |x| 10^s in [1e16, 1e17); a D of 10^17 is written as
10^16 with the exponent one higher.  s starts at 16 - floor(log10 |x|) and
moves by one where the product falls outside that range, which happens
only next to a power of ten; there both choices of s round to a 1 followed
by zeros, with the same exponent.  10^s is held as hi + lo, within
2^-107 hi of it.  Dekker's split gives |x| hi exactly as p + e, and the
one rounding of e + |x| lo keeps p + (e + |x| lo) within 5e-15 of
|x| 10^s.  p is an even integer above 2^53, so D is p plus e + |x| lo
rounded, whose fraction is exact in double.  A fraction more than 1e-9
from 1/2 therefore rounds as the exact product does.  The rest of the
values take Python's own '%.17g': fractions within 1e-9 of 1/2 (the exact
ties among them), and magnitudes outside the range (0, -0, subnormals,
inf and nan included).  So do blocks of fewer than MIN_VALUES values,
where % is the faster.

The digit, point and exponent tables are built on first use, not at
import, as building them costs milliseconds that every command would pay.
"""

from __future__ import annotations

import functools

import numpy as np

# blocks of fewer values go to %: the array path costs about 100 us however
# small the block, which % spends on about 200 values (x86-64, Python 3.11,
# numpy 2.4)
MIN_VALUES = 256

LOW, HIGH = 1e-200, 1e200  # the magnitudes of the array path
S_MIN, S_MAX = -186, 218  # 16 - log10 |x| over that range, with one of margin
X_MIN = 16 - S_MAX  # the least decimal exponent; a carry adds one at the top
SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
TIE_BAND = 1e-9  # fractions this close to 1/2 take the % path

# a value's text is laid out in SLOTS bytes, of which the unused stay 0 and
# are deleted at the end:
#   0 sign | 1-5 "0.000" of exponents -4..-1 | 6, 8, .., 38 the 17 digits,
#   with 7, 9, .., 37 the point slots after each of the first 16 |
#   39-43 "e+dd" or "e+ddd" | 44 "," or newline
SLOTS = 45
DIGIT_SLOTS = slice(6, 39, 2)
SEPARATOR = SLOTS - 1
MARK = 1  # stands for a value formatted by %, in its place


@functools.cache
def _tables():
    """Powers of ten, 4-digit groups and the layout of each exponent."""
    powers = np.empty((S_MAX - S_MIN + 1, 4))
    for row, s in enumerate(range(S_MIN, S_MAX + 1)):
        # 10^s = a / b exactly; int / int rounds correctly
        a, b = 10 ** max(s, 0), 10 ** max(-s, 0)
        hi = a / b
        num, den = hi.as_integer_ratio()
        c = SPLIT * hi
        hh = c - (c - hi)
        powers[row] = hi, hh, hi - hh, (a * den - num * b) / (b * den)

    groups = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                           dtype=np.uint32).copy()

    n_exp = S_MAX - S_MIN + 2
    layout = np.zeros((n_exp, SLOTS), dtype=np.uint8)
    integer_digits = np.empty(n_exp, dtype=np.intp)
    point = np.empty(n_exp, dtype=np.intp)
    for row, exp in enumerate(range(X_MIN, X_MIN + n_exp)):
        if -4 <= exp < 0:
            prefix = b"0." + b"0" * (-exp - 1)
            layout[row, 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
            integer_digits[row], point[row] = 0, 2
        elif 0 <= exp < 17:
            # exp 16 has no point; its slot 39 is 0 in fixed notation
            integer_digits[row], point[row] = exp + 1, 7 + 2 * exp
        else:
            suffix = b"e%+03d" % exp
            layout[row, 39:39 + len(suffix)] = np.frombuffer(suffix, np.uint8)
            integer_digits[row], point[row] = 1, 7
        if exp != 16:
            layout[row, point[row]] = ord(".")
    return powers, groups, layout, integer_digits, point


def _scaled(mag, s, powers):
    """|x| 10^s as p + err: p = fl(|x| hi), err = its exact error plus
    fl(|x| lo), rounded once."""
    hi, hh, hl, lo = powers[s - S_MIN].T
    c = SPLIT * mag
    xh = c - (c - mag)
    xl = mag - xh
    p = mag * hi
    err = (((xh * hh - p) + xh * hl) + xl * hh) + xl * hl + mag * lo
    return p, err


def rows_text(block):
    """The %.17g CSV text of the rows of the 2-D float array block, one
    line per row, as bytes."""
    block = np.asarray(block, dtype=float)
    n_rows, n_cols = block.shape
    x = block.ravel()
    if x.size < MIN_VALUES:
        line = ",".join(["%.17g"] * n_cols) + "\n"
        return ((line * n_rows) % tuple(x.tolist())).encode()
    powers, groups, layout, integer_digits, point = _tables()

    mag = np.abs(x)
    slow = ~((mag >= LOW) & (mag <= HIGH))  # nan compares false
    if slow.any():
        mag[slow] = 1.0
    s = 16 - np.floor(np.log10(mag)).astype(np.intp)
    p, err = _scaled(mag, s, powers)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        s[fix] += low[fix].astype(np.intp) - high[fix]
        p[fix], err[fix] = _scaled(mag[fix], s[fix], powers)
    whole = np.floor(err)
    frac = err - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    slow |= np.abs(frac - 0.5) < TIE_BAND
    carry = digits == 10**17
    digits[carry] = 10**16
    # a log10 off by more than one would leave D out of range
    slow |= (digits < 10**16) | (digits > 10**17)
    exp_row = 16 - X_MIN - s + carry

    field = layout[exp_row]
    lead, rest = np.divmod(digits, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    quads = np.empty((x.size, 4), dtype=np.int64)
    np.divmod(upper, 10**4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(lower, 10**4, out=(quads[:, 2], quads[:, 3]))
    text = field[:, DIGIT_SLOTS]
    text[:, 0] = lead + ord("0")
    text[:, 1:] = groups[quads].view(np.uint8)

    # trailing zeros are cut, but not the digits before the point, and the
    # point goes with the last digit after it; only digits ending in 0 can
    # have either
    ends_0 = np.flatnonzero(text[:, 16] == ord("0"))
    if ends_0.size:
        tail = text[ends_0]
        n_sig = 17 - (tail[:, ::-1] != ord("0")).argmax(axis=1)
        before = integer_digits[exp_row[ends_0]]
        tail *= np.arange(17) < np.maximum(n_sig, before)[:, None]
        text[ends_0] = tail
        whole_rows = ends_0[n_sig <= before]
        field[whole_rows, point[exp_row[whole_rows]]] = 0
    field[:, 0] = np.signbit(x) * ord("-")

    marked = np.flatnonzero(slow)
    field[marked] = 0
    field[marked, 0] = MARK
    field.reshape(n_rows, n_cols, SLOTS)[:, :, SEPARATOR] = (
        [ord(",")] * (n_cols - 1) + [ord("\n")])
    out = field.tobytes().translate(None, b"\0")
    if not marked.size:
        return out
    parts = out.split(bytes([MARK]))
    pieces = [parts[0]]
    for value, part in zip(x[marked].tolist(), parts[1:]):
        pieces += [b"%.17g" % value, part]
    return b"".join(pieces)
