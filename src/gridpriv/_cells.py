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

`read_rows` reads such text back bit for bit as `np.loadtxt` does, a block
of whole rows at a time (Clinger, "How to read floating point numbers
accurately", PLDI 1990). Every byte <= "," ends a cell but "+", which only an
exponent holds. A cell of at most 24 bytes is gathered as three 8-byte words
ending at its separator, and its first 8 bytes as one more word, which gives
the sign, the "." and the digits before it. A keep mask, picked by the byte
after the "." and by the exponent's form ("e" at byte 20 or 19 of the
window), zeroes every other byte; SWAR arithmetic turns the words into
4-digit groups, the last of which holds the exponent. M * 10^q, with
M < 10^18, is formed as a double-double from 10^q = hi + lo and rounded
once. A cell whose q lies outside [Q_MIN, Q_MAX] or value outside the
writer's fast range, or whose
value lies within TIE_WINDOW ulp of a rounding midpoint, is read by `float`,
as is a cell of the layout that the words do not cover (such as
"123456789.5"); a block with any other byte, cell or row width is refused
whole.
"""

import io
import math
import re
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


CELL = re.compile(rb"-?(\d+\.?\d*|\.\d+)(e[+-]\d\d\d?)?")  # the cells `read_rows` reads
READ_WINDOW = 24  # bytes of a cell's window, and of context before each block
READ_CELL_BYTES = 22  # bytes of a 17-digit cell and its separator: a read holds about `cells` cells
Q_MAX = 290  # largest q the reader forms M * 10^q for: it stays finite for M < 10^18
# least q: below it lo may be subnormal, and its rounding error (up to 2^-1075 M)
# exceeds a tenth of TIE_WINDOW ulp of M * 10^q
Q_MIN = -297
ZEROS, DOTS, LOW7, HIGH1, OVER9 = (np.uint64(0x0101010101010101 * b)
                                   for b in (0x30, 0x2E, 0x7F, 0x80, 0x76))
PAIRS, QUADS = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0000FFFF0000FFFF)
EXPONENT_BITS = np.uint64(0x7FF0000000000000)


@cache
def _read_tables():
    """Keep masks by 3 * first kept byte + exponent form, powers of ten as
    integers, and 10^q = hi + lo and hi's Dekker halves as complex pairs for q
    in [Q_MIN, Q_MAX]."""
    keep = np.zeros((READ_WINDOW + 1, 3, READ_WINDOW), np.uint8)
    for s in range(READ_WINDOW + 1):
        keep[s, :, s:] = 255
    keep[:, 1, 20:22] = keep[:, 2, 19:21] = 0  # "e" and the exponent's sign
    _, hi, hi_h, hi_l, lo, *_ = _tables()
    q = slice(Q_MIN - K_MIN, Q_MAX - K_MIN + 1)
    return (keep.view(np.uint64).reshape(-1, 3),
            np.array([10**min(k, 19) for k in range(26)], np.uint64),
            np.stack([hi[q], lo[q]], 1).view(np.complex128).ravel(),
            np.stack([hi_h[q], hi_l[q]], 1).view(np.complex128).ravel())


def _digits(v):
    """SWAR: each 4-byte half of uint64 words of digit values (first byte most
    significant) becomes its 4-digit number, in place."""
    v *= np.uint64(10 << 8 | 1)
    v >>= np.uint64(8)
    v &= PAIRS
    v *= np.uint64(100 << 16 | 1)
    v >>= np.uint64(16)
    v &= QUADS
    return v


def _decimals(w, head, length):
    """(m, q, negative, ok, fast) of each cell from its window words w (n, 3),
    its head word and its length: the value is (-1)^negative * m * 10^q where
    fast, with m < 10^18; ok is False where the bytes
    are not of the layout the words cover."""
    keep_masks, pow10, _, _ = _read_tables()
    w ^= ZEROS  # digits become their values, "e" 0x55, "+" 0x1B, "-" 0x1D
    neg = (head & np.uint64(0xFF)) == ord("-")
    head >>= neg * np.uint64(8)
    # exponent form: "e" at byte 20 of the window (e2), or at 19 (e3); its sign follows
    t = w[:, 2] >> np.uint64(24)
    e3 = (t & np.uint64(0xFF)) == 0x55
    t >>= np.uint64(8)
    e2 = (t & np.uint64(0xFF)) == 0x55
    e3 &= ~e2
    expo = e2 | e3
    sign = (t >> (e2 * np.uint64(8))) & np.uint64(0xFF)
    negx = sign == 0x1D
    ok = negx | (sign == 0x1B) | ~expo
    a0 = READ_WINDOW - length  # the mantissa is bytes [a0, a0 + mlen) of the window
    a0 += neg
    mlen = READ_WINDOW - a0
    mlen -= 4 * e2.view(np.int8)
    mlen -= 5 * e3.view(np.int8)
    # the "." at byte k of the head, if among its first 8 bytes and the mantissa's
    z = head ^ DOTS
    z |= (z & LOW7) + LOW7
    np.invert(z, out=z)
    z &= HIGH1  # 0x80 in each "." byte; the next cell's "." may follow the first
    z &= ~z + np.uint64(1)  # the first alone: 2^(8k + 7), or 0 if there is none
    k = np.frexp(z.astype(np.float64))[1].astype(np.int16)  # 8k + 8, or 0
    k >>= 3
    k -= 1
    k &= 15  # 15 if there is none
    dotted = (k < mlen) & (k < 8)
    k *= dotted
    head ^= ZEROS
    whole = head << (64 - 8 * k).astype(np.uint64)  # the digits before the "."
    kk = k + dotted
    f = (mlen - kk) * dotted  # digits after the "."
    kk += a0  # the first byte after the "."
    kk *= 3
    kk += e2
    kk += 2 * e3.view(np.int8)
    w &= keep_masks.take(kk, axis=0)
    bad = (w & LOW7) + OVER9  # 0x80 in each byte that is not a digit value
    bad |= w
    bad_head = (whole & LOW7) + OVER9
    bad_head |= whole
    for j in range(3):
        bad_head |= bad[:, j]
    ok &= (bad_head & HIGH1) == 0
    ok &= mlen > dotted
    _digits(w)
    _digits(whole)
    last, exponent = w[:, 2] & np.uint64(0xFFFF), w[:, 2] >> np.uint64(32)
    for v in (w, whole):
        v *= np.uint64(10000 << 32 | 1)
        v >>= np.uint64(32)
    m = w[:, 0] * np.uint64(10**8) + w[:, 1]
    m = np.where(expo, m * np.uint64(10**4) + last, m * np.uint64(10**8) + w[:, 2])
    m += whole * pow10.take(f + e3)  # e3's "e" added a trailing zero to m
    limit = expo * np.uint64(10**5 - 10)
    limit += np.uint64(9)
    fast = ok & (w[:, 0] <= limit) & ((whole == 0) | (k + f <= 17))  # m < 10^18
    m *= fast
    q = exponent.astype(np.int16) * expo
    q *= 1 - 2 * negx.view(np.int8)
    q -= f
    q -= e3
    return m, q, neg, ok, fast


def _scaled(m, q, fast):
    """m * 10^q rounded once to float64, where fast; fast is cleared where m * 10^q
    lies within TIE_WINDOW ulp of a rounding midpoint or outside (LOW, HIGH), and
    where q lies outside [Q_MIN, Q_MAX], unless m is 0."""
    _, _, hi_lo, hi_halves = _read_tables()
    zero = m == 0
    zero &= fast
    fast &= (q >= Q_MIN) & (q <= Q_MAX)
    i = (q - Q_MIN) * fast
    hi, lo = hi_lo.take(i).view(np.float64).reshape(-1, 2).T
    b_h, b_l = hi_halves.take(i).view(np.float64).reshape(-1, 2).T
    mf = m.astype(np.float64)
    ml = (m - mf.astype(np.uint64)).view(np.int64).astype(np.float64)  # m = mf + ml exactly
    p = mf * hi
    a_h = 134217729.0 * mf
    a_h -= a_h - mf
    a_l = mf - a_h
    tail = a_h * b_h  # p + tail = (mf + ml) * (hi + lo), error below 2^-100 p
    tail -= p
    a_h *= b_l
    tail += a_h
    b_h *= a_l
    tail += b_h
    a_l *= b_l
    tail += a_l
    tail += lo * mf
    ml *= hi
    tail += ml
    # p + tail rounds as the exact value unless a rounding midpoint lies within
    # TIE_WINDOW ulp of it: then p + tail -+ that distance round apart
    d = (p.view(np.uint64) & EXPONENT_BITS).view(np.float64)
    d *= TIE_WINDOW * 2.0**-52
    r = tail - d
    r += p
    tail += d
    tail += p
    fast &= r == tail
    fast &= (r > LOW) & (r < HIGH)
    fast |= zero
    return r


def _rows(text, cut, cols):
    """float64 rows of text[READ_WINDOW:cut], whole lines of `cols` cells each,
    or None when they are not in the layout. The READ_WINDOW bytes before them
    and 8 after cut are only read as context."""
    buf = np.frombuffer(text, np.uint8)
    body = buf[READ_WINDOW:cut]
    sep = np.flatnonzero(body <= ord(","))
    c = body[sep]
    plus = c == ord("+")
    if plus.any():
        sep, c = sep[~plus], c[~plus]
    if len(sep) % cols:
        return None
    c = c.reshape(-1, cols)
    if not ((c[:, -1] == ord("\n")).all() and (c[:, :-1] == ord(",")).all()):
        return None
    start = np.empty_like(sep)  # index in buf of each cell's first byte
    start[0] = READ_WINDOW
    np.add(sep[:-1], READ_WINDOW + 1, out=start[1:])
    length = sep + READ_WINDOW
    length -= start
    if length.min() < 1 or length.max() > READ_WINDOW:
        return None
    w = np.ndarray((len(buf) - READ_WINDOW + 1,), f"V{READ_WINDOW}", buf, strides=(1,))[sep]
    head = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))[start]
    m, q, neg, ok, fast = _decimals(w.view(np.uint64).reshape(-1, 3), head,
                                    length.astype(np.int16))
    r = _scaled(m, q, fast)
    r.view(np.uint64)[:] |= neg * np.uint64(1 << 63)
    for j in np.flatnonzero(~fast).tolist():
        cell = text[start[j]:sep[j] + READ_WINDOW]
        if not (ok[j] or CELL.fullmatch(cell)):
            return None
        r[j] = float(cell)
    return r.reshape(-1, cols)


def read_rows(fh, cols, cells):
    """float64 rows of `cols` cells from the rest of binary file fh, bit for bit
    what np.loadtxt(fh, delimiter=",", ndmin=2) returns, read about `cells`
    cells at a time; None if no row follows or if a row block is not in the
    layout: LF line ends, `cols` cells to a row, each at most READ_WINDOW bytes
    of CELL. The rows fill one array, sized from the first block's bytes per
    row with room to spare and trimmed in place, so that no second copy of
    them is made: rows it has no room for grow it by half."""
    here = fh.tell()
    size = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    out, count, before, tail = None, 0, b"0" * READ_WINDOW, b""
    while True:
        data = fh.read(cells * READ_CELL_BYTES) or b"\n" * bool(tail)  # a last row without its LF
        text = before + tail + data + bytes(8)
        cut = text.rfind(b"\n", READ_WINDOW) + 1
        if cut:
            rows = _rows(text, cut, cols)
            if rows is None:
                return None
            if out is None:
                out = np.empty((int(1.25 * len(rows) * size / (cut - READ_WINDOW)) + 1, cols))
            if count + len(rows) > len(out):
                out.resize((count + len(rows) + len(out) // 2, cols), refcheck=False)
            out[count:count + len(rows)] = rows
            count += len(rows)
            before = text[cut - READ_WINDOW:cut]
        tail = text[max(cut, READ_WINDOW):-8]
        if not data:
            if out is not None:
                out.resize((count, cols), refcheck=False)
            return out
