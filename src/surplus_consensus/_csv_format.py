"""The "%.17g" text of float64 rows, byte for byte, by numpy array arithmetic.

Each value's 17 significant digits come from its product with 10**(16 - X) as
a double-double hi + lo, each half a correctly rounded double: the product with
hi exactly, as a double and its error, by Dekker's TwoProduct (Numer. Math.
18, 1971), and the product with lo added to that error. The digits are taken
where the sum's error bound cannot reach a half-way point, and laid out four at
a time from a table. As in Ryu (Adams, PLDI 2018), that certified fast path
gives way to Python's %, the correctly rounded dtoa of Gay (1990), where it
cannot decide: inf, nan, |v| under 1e-284 or from 1e308 on, and near-ties. All
of it is float64 and int64, whatever np.longdouble is. The tables are built on
import, about 2 ms, and only a run that writes a CSV imports this module.
"""

import numpy as np


# Tables of format_rows, indexed by X - _X_LO for the decimal exponent X of a
# value, -324..308 for a double, and one more on each side for the correction
_X_LO, _X_HI = -325, 309
# a double with its low 26 significand bits cleared: the high half of a split
# that, with hi's Veltkamp split, makes each partial product of TwoProduct exact
_HIGH_BITS = np.uint64(2**64 - 2**26)
_MAX = np.finfo(np.float64).max


def _power_tables():
    """hi, hh, hl and lo over X from _X_LO to _X_HI: hi and lo the nearest
    doubles to 10**k and 10**k - hi, k = 16 - X, by Python int true division,
    which rounds correctly, and hh + hl = hi Veltkamp's split. All are 0 where
    (2**27 + 1) hi overflows or lo is subnormal, so that TwoProduct or lo's
    rounding would fail: outside 10**-291..10**300, X from -284 to 307."""
    rows = [(0.0,) * 4] * (16 - 308 - _X_LO)  # 10**k overflows a double for k > 308
    ten = 10**308  # 10**abs(k)
    for x in range(16 - 308, _X_HI + 1):
        num, den = (ten, 1) if x <= 16 else (1, ten)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        c = hi * (2**27 + 1)
        hh = c - (c - hi)
        ok = c < np.inf and (lo == 0 or abs(lo) >= 2.0**-1022)
        rows.append((hi, hh, hi - hh, lo) if ok else (0.0,) * 4)
        ten = ten // 10 if x < 16 else ten * 10
    return np.ascontiguousarray(np.array(rows).T)


def _layout_tables():
    """The 8 bytes at 0..7 and at 24..31 of a value's 32-byte slot in
    format_rows, and whether X is fixed notation with X >= 1, for each X:
    "%.17g" is fixed notation for -4 <= X < 17, else d.ddde+XX."""
    x = np.arange(_X_LO, _X_HI + 1)
    fixed = (-4 <= x) & (x < 17)
    heads, tails = np.zeros((x.size, 8), np.uint8), np.zeros((x.size, 8), np.uint8)
    heads[~fixed | (x == 0), 7] = ord(".")
    for e in range(-4, 0):
        heads[e - _X_LO, 1:2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
    exponents = b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in x[~fixed].tolist())
    tails[~fixed, :5] = np.frombuffer(exponents, np.uint8).reshape(-1, 5)
    tails[:, 5] = ord(",")
    return heads.view(np.uint64).ravel(), tails.view(np.uint64).ravel(), fixed & (x > 0)


def _digit_table():
    """The 4 ASCII digits of 0..9999 as uint32 words, then the same again with
    trailing zeros as NUL bytes, at 10000 + g."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    digits = np.stack([np.repeat(pairs, 100), np.tile(pairs, 100)], axis=1).view(np.uint8)
    kept = digits != ord("0")
    for j in (2, 1, 0):
        kept[:, j] |= kept[:, j + 1]
    return np.concatenate([digits, digits * kept]).view(np.uint32).ravel()


_HI, _HH, _HL, _LO = _power_tables()
_HEAD, _TAIL, _WIDE = _layout_tables()
_DIGITS = _digit_table()


def _scaled(a, xi):
    """floor(x) as an int64 and an approximation f of x - floor(x) in [0, 1],
    for x = a * 10**(16 - X) with X - _X_LO at xi: p = fl(a * hi), and the
    rest of x as the exact error e of that product plus fl(a * lo). a is
    overwritten."""
    p = _HI[xi] * a
    f = _LO[xi] * a
    high = (a.view(np.uint64) & _HIGH_BITS).view(np.float64)
    a -= high
    # e = ((high hh - p) + high hl + a hh) + a hl with a the low half, each
    # step exact
    hh, hl = _HH[xi], _HL[xi]
    e = hh * high
    e -= p
    high *= hl
    e += high
    hh *= a
    e += hh
    hl *= a
    e += hl
    del high, hh, hl
    f += e
    np.floor(f, out=e)
    f -= e
    # p is an integer here, since any p that can pass the range check is over 2**53
    n = p.astype(np.int64)
    n += e.astype(np.int64)
    return n, f


def _significands(v):
    """N, the 17 significant digits of each value of v as an int64, X - _X_LO
    for its decimal exponent X, and whether % must format it instead.

    X = floor(log10|v|), corrected by one where log10 rounds across a power of
    ten, and N = round(x) for x = |v| * 10**(16 - X) (_scaled). The range
    check is on floor(x) = int(p) + floor(f) in [10**16, 10**17), which has
    to hold for X to be right. With u = 2**-53, the computed f misses x -
    int(p) by at most |a lo - fl(a lo)| + |e + fl(a lo) - f| + |a (10**k - hi
    - lo)| <= u |a lo| + u |e + fl(a lo)| + u |a lo| <= 42 u: p = fl(a hi) <
    2**57 gives |e| <= 8, and |lo| <= u hi gives |a lo| <= u x (1 + u) <= 11.2
    for x < 10**17. So N is taken where the fraction of f lies more than 42 u
    from 1/2; there f - floor(f) and its distance from 1/2 are exact. A carry to
    10**17 raises X. 0 is N = 10**16 at X = 0, which format_rows writes as 0.
    inf and nan become the largest double, whose 10**-292 is not in the table;
    they, the values whose power is not there and the near-ties are left to %.
    """
    a = np.abs(v)
    np.fmin(a, _MAX, out=a)
    a[a == 0] = 1.0
    xi = np.floor(np.log10(a)).astype(np.intp) - _X_LO
    n, f = _scaled(a, xi)
    # floor(x) outside [10**16, 10**17): X is one off
    fix = np.flatnonzero((n - 10**16).view(np.uint64) >= 9 * 10**16)
    if fix.size:
        xi[fix] += (n[fix] >= 10**17).astype(np.intp) - (n[fix] < 10**16)
        n[fix], f[fix] = _scaled(np.fmin(np.abs(v[fix]), _MAX), xi[fix])
        # still out of range: a power not in the table, or log10 off by two
        f[fix[(n[fix] < 10**16) | (n[fix] >= 10**17)]] = 0.5
    n += f > 0.5
    f -= 0.5
    slow = np.abs(f, out=f) <= 42 * 2.0**-53
    carry = np.flatnonzero(n == 10**17)
    n[carry] = 10**16
    xi[carry] += 1
    return n, xi, slow


def format_rows(block):
    """The CSV bytes of a block's rows, each value formatted "%.17g": the bytes
    of np.savetxt, computed with array arithmetic.

    Each value fills a 32-byte slot from its digits and exponent
    (_significands): the sign, the "0.000" prefix of X, the digits 4 at a time
    from _DIGITS without trailing zeros, the point, the "e-XX" suffix of
    X, and NUL where a character is left out; the NULs are deleted at the end.
    The values _significands leaves are formatted with % in one call. The
    peak is about 8 bytes per byte of the block."""
    rows, columns = block.shape
    v = block.reshape(-1)
    n, xi, slow = _significands(v)
    # fixed notation with X >= 1, and whether digits follow its point
    wide = np.flatnonzero(_WIDE[xi])
    xw = xi[wide] + _X_LO
    point = n[wide] % 10 ** (16 - xw) != 0

    # a value's slot: 0 sign, 1-5 prefix, 6 first digit, 7 point, 8-23 the
    # other digits, 24-28 exponent, 29 separator
    buf = bytearray(v.size * 32)
    out = np.frombuffer(buf, np.uint8).reshape(v.size, 32)
    words = out.view(np.uint64)
    words[:, 0] = _HEAD[xi]
    words[:, 3] = _TAIL[xi]
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=out[:, 0])
    # the other digits, four at a time from the last: a group with only zero
    # groups after it (shift 10000) is written without its trailing zeros
    quads, shift = out.view(np.uint32), np.full(v.size, 10000, np.int16)
    for column in (5, 4, 3, 2):
        q = n // 10000
        n -= q * 10000
        n += shift
        shift *= n == 10000
        quads[:, column] = _DIGITS[n]
        n = q
    out[:, 6] = n - (v == 0) + ord("0")  # the first digit; a zero has N = 10**16
    out[:, 7] *= shift == 0  # no point where no digit follows it
    # with X >= 1, digits 2..X+1 move left over the point, with their zeros,
    # and the point goes after them: one slot column at a time
    for j in range(1, xw.max(initial=0) + 1):
        at = wide[xw >= j]
        digit = out[at, 7 + j]
        out[at, 6 + j] = np.where(digit == 0, ord("0"), digit)
    out[wide, 7 + xw] = point * np.uint8(ord("."))
    rest = np.flatnonzero(slow)
    if rest.size:
        text = ("%29.17g" * rest.size % tuple(v[rest].tolist())).encode("ascii")
        chars = np.frombuffer(text, np.uint8).reshape(rest.size, 29)
        out[rest, :29] = np.where(chars == ord(" "), 0, chars)
    out.reshape(rows, columns, 32)[:, -1, 29] = ord("\n")
    # the NUL deletion copies buf: hold nothing else
    del out, words, quads, xi, n, q, shift
    return buf.translate(None, b"\0")
