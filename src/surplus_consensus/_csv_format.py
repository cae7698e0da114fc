"""The "%.17g" text of float64 rows, byte for byte, by numpy array arithmetic.

Each value's 17 significant digits come from one longdouble product with a
correctly rounded power of ten, taken only where the product's error bound
cannot reach a half-way point, and laid out four at a time from a table. As in
Ryu (Adams, PLDI 2018), a certified fast path gives way to exact formatting
wherever its bound cannot decide: Python's %, with the correctly rounded dtoa
of Gay (1990). The tables are built on import, about 1.5 ms, and only a run
that writes a CSV imports this module.
"""

import numpy as np


# Tables of format_rows, indexed by X - _X_LO for the decimal exponent X of a
# value, -324..308 for a double, and one more on each side for the correction
_X_LO, _X_HI = -325, 309


def _exponent_tables(dtype):
    """10**(16 - X) correctly rounded to dtype for X from _X_LO to _X_HI, 0
    where it overflows dtype: Python int arithmetic, 1 ms."""
    info = np.finfo(dtype)
    bits = info.nmant + 1  # significand bits: 64 for x87's longdouble, 53 for a double
    significands, exponents = [], []
    five = 5 ** (_X_HI - 16)
    for k in range(16 - _X_HI, 17 - _X_LO):  # 10**k, for X = 16 - k from _X_HI down
        if k < 0:
            # 2**k / 5**-k, where 2**t / 5**-k lies in (2**(bits - 1), 2**bits)
            t = bits + five.bit_length() - 1
            q, r = divmod(1 << t, five)
            q += 2 * r > five or 2 * r == five and q & 1
            e = k - t
            five //= 5
        else:
            # 5**k * 2**k, rounding 5**k to its top bits
            shift = max(five.bit_length() - bits, 0)
            q = five >> shift
            r, half = five - (q << shift), 1 << shift >> 1
            q += shift > 0 and (r > half or r == half and q & 1)
            e = k + shift
            five *= 5
        if q >> bits:  # rounded up to 2**bits
            q, e = q >> 1, e + 1
        significands.append(q if e + bits <= info.maxexp else 0)
        exponents.append(e)
    exponents = np.array(exponents[::-1])
    # the significands 32 bits at a time, each exact in dtype
    words = (bits + 31) // 32
    parts = np.frombuffer(b"".join(q.to_bytes(4 * words, "little") for q in significands[::-1]),
                          "<u4").reshape(-1, words)
    powers = np.zeros(len(exponents), dtype)
    for word in range(words):
        powers += np.ldexp(parts[:, word].astype(dtype), exponents + 32 * word)
    return powers


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


_POWERS = _exponent_tables(np.longdouble)
_HEAD, _TAIL, _WIDE = _layout_tables()
_DIGITS = _digit_table()


def _significands(v, powers):
    """N, the 17 significant digits of each value of v as an int64, X - _X_LO
    for its decimal exponent X, and whether % must format it instead.

    X = floor(log10|v|), corrected by one where log10 rounds across a power of
    ten, and N = round(|v| * 10**(16 - X)) comes from one product p with the
    correctly rounded power from powers (_exponent_tables). N is taken where
    p's error bound cannot reach a half-way point: |p - x| <= p * eps *
    (1 + O(eps)) for the exact x, with eps of powers' dtype, since the power
    and the product each round by at most eps/2; 0.1% more covers the O(eps)
    term and the float64 rounding of the fraction. A carry to 10**17 raises X.
    0, inf, nan and the values p cannot round, about 1%, are left to %; with
    powers in a double, every value is."""
    a = np.abs(v)
    ok = a > 0
    ok &= a < np.inf
    a[~ok] = 1.0
    x = np.log10(a)
    xi = np.floor(x, out=x).astype(np.intp)
    xi -= _X_LO
    p = powers[xi]
    p *= a
    n = p.astype(np.int64)
    low, high = n < 10**16, n >= 10**17
    fix = np.flatnonzero(low | high)
    if fix.size:
        xi[fix] += high[fix].astype(np.intp) - low[fix]
        p[fix] = powers[xi[fix]] * a[fix]
        n[fix] = p[fix].astype(np.int64)
        # still out of range: a power that overflowed, or log10 off by two
        ok[fix[(n[fix] < 10**16) | (n[fix] >= 10**17)]] = False
    del a, x
    p -= n
    off = p.astype(np.float64)  # the fraction's distance from 1/2
    del p
    off -= 0.5
    up = off > 0
    np.abs(off, out=off)
    slow = off <= 1.001 * float(np.finfo(powers.dtype).eps) * n
    n += up
    slow |= ~ok
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
    peak is about 8 bytes per byte of the block, and no longdouble array
    outlives the rounding."""
    rows, columns = block.shape
    v = block.reshape(-1)
    n, xi, slow = _significands(v, _POWERS)
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
    np.copyto(out[:, 0], ord("-"), where=v < 0)
    # the other digits, four at a time from the last: a group with only zero
    # groups after it is written without its trailing zeros
    quads, zero = out.view(np.uint32), np.ones(v.size, bool)
    for column in (5, 4, 3, 2):
        q = n // 10000
        n -= q * 10000
        np.add(n, 10000, out=n, where=zero)
        zero &= n == 10000
        quads[:, column] = _DIGITS[n]
        n = q
    np.add(n, ord("0"), out=out[:, 6], casting="unsafe")
    np.copyto(out[:, 7], 0, where=zero)  # nothing after the point
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
    # the NUL deletion copies buf, and bytes() its result: hold nothing else
    del out, words, quads, xi, n, q
    text = buf.translate(None, b"\0")
    del buf
    return bytes(text)
