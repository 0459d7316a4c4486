#!/usr/bin/env python3
"""Generate lib/obs/pow5.ml: the 128-bit powers-of-five table behind the
Eisel-Lemire decimal-to-double conversion in Obs.Json.

Entry q (for q in [-342, 308]) is 5^q scaled by a power of two so that
its most significant bit is bit 127: truncated for q >= 0, rounded up
for q < 0 (the table of Lemire's "Number Parsing at a Gigabyte per
Second", 2021, as fast_float and Go's strconv ship it). Each entry is
stored as two int64 words, high word first.

Usage: python3 scripts/gen_pow5.py > lib/obs/pow5.ml
(`make pow5-check` regenerates the table and diffs it against the
checked-in file.)
"""

MIN_Q = -342
MAX_Q = 308


def entry(q):
    if q >= 0:
        p = 5**q
        while p < (1 << 127):
            p *= 2
        while p >= (1 << 128):
            p //= 2
        return p
    p = 5**-q
    z = p.bit_length()
    if q >= -27:
        return (1 << (z + 127)) // p + 1
    c = (1 << (2 * z + 128)) // p + 1
    while c >= (1 << 128):
        c //= 2
    return c


def main():
    out = [
        "(* Generated by scripts/gen_pow5.py; do not edit. `make pow5-check`",
        "   regenerates it and diffs. Entry q of [table] is 5^q normalised to",
        "   128 bits (bit 127 set; truncated for q >= 0, rounded up for",
        "   q < 0), stored high word at [2 * (q - min_q)], low word next. *)",
        "",
        "let min_q = %d" % MIN_Q,
        "let max_q = %d" % MAX_Q,
        "",
        "let table =",
        "  [|",
    ]
    for q in range(MIN_Q, MAX_Q + 1):
        c = entry(q)
        assert (1 << 127) <= c < (1 << 128)
        out.append("    0x%016xL; 0x%016xL; (* 5^%d *)" % (c >> 64, c & ((1 << 64) - 1), q))
    out.append("  |]")
    print("\n".join(out))


if __name__ == "__main__":
    main()
