"""CSV text of float64 cells with exactly the bytes of '%.17g', computed for a
whole block of cells at once (Grisu with an exact fallback: Loitsch, "Printing
floating-point numbers quickly and accurately with integers", PLDI 2010).

For a cell x with 1e-290 < |x| < 1e290, X = floor(log10|x|) is found exactly
against a table of the smallest doubles >= 10^k, and D = |x| * 10^(16 - X) is
formed as a double-double from a table of 10^k = hi + lo. D lies in
[1e16, 1e17), its integer part and fraction give the 17 significant digits
rounded to nearest, and its error is below 1e-13. A fraction within
TIE_WINDOW of 1/2 may be a tie, which '%' breaks to even on the exact value:
those cells, and non-finite and out-of-range cells other than zero, are
formatted by '%'.

The text of a cell is laid out in fixed byte slots, six 8-byte words: sign,
"0" and "." and three zeros, the first digit and a "."; four words of four
digits each followed by a "."; "e", the exponent's sign and three digits, the
separator and two unused slots. A keep-mask row, picked by notation (fixed
point for X in [-4, 16], else exponent with two or three digits), number of
significant digits and sign, zeroes the slots '%.17g' does not print, and
deleting the zero bytes compacts the block.
"""

import math
from functools import cache

import numpy as np

TIE_WINDOW = 1e-9
LOW, HIGH = 1e-290, 1e290  # |x| range of the fast path, open at both ends
K_MIN, K_MAX = -306, 308  # powers of ten in the tables: 10^X and 10^(16 - X) for the fast path's X
WIDTH = 48  # byte slots of one cell
DIGIT0, EXP, SEP = 6, 40, 45  # slots of the first digit, of "e" and of the separator
FIXED = range(-4, 17)  # exponents printed in fixed point
NOTATIONS = len(FIXED) + 2  # then exponent notation with 2 and 3 exponent digits


def _words(strings):
    """8-byte strings as uint64 words."""
    return np.frombuffer(b"".join(strings), np.uint64)


def _keep_row(notation, n, negative):
    """Keep-mask of the slots '%.17g' prints for n significant digits."""
    row = np.zeros(WIDTH, bool)
    row[0], row[SEP] = negative, True
    shown = n
    if notation < len(FIXED) and FIXED[notation] < 0:
        row[1:2 - FIXED[notation]] = True  # "0." and -X - 1 zeros
    elif notation < len(FIXED):
        shown = max(n, FIXED[notation] + 1)
        row[DIGIT0 + 2 * FIXED[notation] + 1] = n > FIXED[notation] + 1
    else:
        row[DIGIT0 + 1] = n > 1
        row[EXP:EXP + 5] = True
        row[EXP + 2] = notation == NOTATIONS - 1
    row[DIGIT0:DIGIT0 + 2 * shown:2] = True
    return row


@cache
def _tables():
    """Power-of-ten, digit and keep-mask tables, built on first use from Python ints."""
    floor_pow, hi, lo = [], [], []
    for k in range(K_MIN, K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # int / int rounds correctly
        m, s = h.as_integer_ratio()
        r = num * s - m * den  # 10^k - h = r / (den s)
        hi.append(h)
        lo.append(r / (den * s))
        floor_pow.append(math.nextafter(h, math.inf) if r > 0 else h)
    hi = np.array(hi)
    mant, ex = np.frexp(hi)  # Dekker split of hi, on the mantissa so it cannot overflow
    c = 134217729.0 * mant
    hi_h = np.ldexp(c - (c - mant), ex)
    i = np.arange(10000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], 1) + ord("0")
    dotted = np.stack([digits, np.full_like(digits, ord("."))], 2).astype(np.uint8)
    zeros4 = sum((i % 10**j == 0).astype(np.int8) for j in range(1, 5))
    exps = range(K_MIN, K_MAX + 2)
    notation = [x - FIXED.start if x in FIXED else NOTATIONS - 1 - (abs(x) < 100) for x in exps]
    keep = [_keep_row(c, n, s) for c in range(NOTATIONS) for n in range(17, 0, -1)
            for s in (False, True)]
    return (np.array(floor_pow), hi, hi_h, hi - hi_h, np.array(lo),
            _words(b"-0.000%d." % j for j in range(10)),
            dotted.reshape(-1, 8).view(np.uint64).ravel(), zeros4,
            _words(b"e%+04d,\0\0" % x for x in exps), np.array(notation) * 34,
            np.where(keep, 255, 0).astype(np.uint8).view(np.uint64))


def g17_rows(block):
    """'%.17g' text of a 2-D float64 block: cells joined by ",", rows ended by "\\n"."""
    (floor_pow, hi, hi_h, hi_l, lo, lead, digits4, zeros4, expo, notation,
     keep) = _tables()
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    fast = (a > LOW) & (a < HIGH)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp) - K_MIN  # index of 10^X in the tables
    e -= a < floor_pow[e]
    e += a >= floor_pow[e + 1]
    k = 16 - 2 * K_MIN - e  # index of 10^(16 - X)
    p = a * hi[k]  # D = p + tail, p an integer >= 2^53
    c = 134217729.0 * a
    a_h = c - (c - a)
    a_l = a - a_h
    b_h, b_l = hi_h[k], hi_l[k]
    tail = (((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l) + a * lo[k]
    whole = np.floor(tail)
    frac = tail - whole
    fast &= np.abs(frac - 0.5) >= TIE_WINDOW
    fast |= zero
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    up = d == 10**17  # rounded into the next decade
    d[up] = 10**16
    d[zero] = 0
    e += up
    high = d // 10**8  # the digits in groups g0 (one digit) and g1..g4 (four each)
    low = d - high * 10**8
    g0 = high // 10**8
    mid = high - g0 * 10**8
    g1 = mid // 10**4
    g2 = mid - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    trailing = zeros4[g4] + (g4 == 0) * (zeros4[g3] + (g3 == 0) * (
        zeros4[g2] + (g2 == 0) * zeros4[g1]))
    out = np.empty((x.size, WIDTH // 8), np.uint64)
    for j, (table, g) in enumerate(((lead, g0), (digits4, g1), (digits4, g2),
                                    (digits4, g3), (digits4, g4), (expo, e))):
        out[:, j] = table[g]
    text = out.view(np.uint8)
    text.reshape(rows, cols, WIDTH)[:, -1, SEP] = ord("\n")
    out &= keep[notation[e] + 2 * trailing + np.signbit(x)]
    for i in np.flatnonzero(~fast):
        text[i, :SEP] = np.frombuffer((b"%.17g" % x[i]).ljust(SEP, b"\0"), np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")
