"""graph6 codec: the printable-ASCII encoding of labeled simple graphs.

The order n is one byte chr(n+63) for n <= 62, or '~' plus three bytes
(18 bits, big-endian) for 63 <= n <= 258047. The upper triangle of the
adjacency matrix follows in column-major pair order (0,1),(0,2),(1,2),
(0,3),..., packed six bits per byte (first pair most significant), each
byte offset by 63, with zero padding to a byte boundary. Encoding is exact
for the labeled graph (not isomorph-canonical) and round-trips bit for bit.

Both directions go through one integer of pair bits, with pair (i, j),
i < j, at bit j(j-1)/2 + i: column j is the j bits from j(j-1)/2 up, vertex
j's neighbours below j. Its binary numeral read backwards is the body's bit
string, first pair first. Parsing reads that string through a table of six
bits per byte and sets each vertex's upper neighbours by reading column j
through :func:`~hhresidue.graphs.iter_bits`; emitting pads the integer to
whole bytes and lets base64 cut the six-bit groups, whose alphabet is then
translated to bytes 63..126.
"""

from __future__ import annotations

import binascii
import re

from .graphs import Graph, iter_bits

HEADER = ">>graph6<<"
_MAX_N = 258047
# a body byte's six pair bits
_BITS = {v + 63: format(v, "06b") for v in range(64)}
# base64's digit for v, as the graph6 byte v + 63
_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)
# any character outside '?'..'~', the bytes 63..126
_OUT_OF_RANGE = re.compile("[^?-~]")


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position in the
    original string."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (an optional '>>graph6<<' prefix is
    stripped)."""
    base = 0
    s = text
    if s.startswith(HEADER):
        s = s[len(HEADER):]
        base = len(HEADER)
    if not s:
        raise Graph6Error("empty graph6 string", base)
    bad = _OUT_OF_RANGE.search(s)
    if bad:
        raise Graph6Error(f"byte {ord(bad.group())} outside graph6 range 63..126", base + bad.start())
    n = ord(s[0]) - 63
    idx = 1
    if n == 63:
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error(f"orders above {_MAX_N} are not supported", base + 1)
        if len(s) < 4:
            raise Graph6Error("truncated extended order field", base + len(s))
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        if n <= 62:
            raise Graph6Error("non-minimal order encoding", base)
        idx = 4
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    have = len(s) - idx
    if have != need:
        raise Graph6Error(
            f"expected {need} adjacency bytes for order {n}, found {have}",
            base + min(len(s), idx + need),
        )
    bits = s[idx:].translate(_BITS)
    if "1" in bits[npairs:]:
        raise Graph6Error("nonzero padding bits", base + len(s) - 1)  # in the last byte
    pairs = int(bits[npairs - 1::-1], 2) if npairs else 0
    adj = [0] * n
    off = 0
    for j in range(1, n):
        low = pairs >> off & ((1 << j) - 1)
        off += j
        adj[j] = low
        bit = 1 << j
        for i in iter_bits(low):  # vertex j is above each of its neighbours below j
            adj[i] |= bit
    return Graph._from_adj(n, tuple(adj))


def emit_graph6(g: Graph) -> str:
    """Encode the labeled graph; inverse of :func:`parse_graph6`."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= _MAX_N:
        head = "~" + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    else:
        raise ValueError(f"orders above {_MAX_N} are not supported")
    adj = g.adj
    pairs = 0
    for j in range(1, n):
        pairs |= (adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    npairs = n * (n - 1) // 2
    # first pair most significant, then zeros up to a whole byte
    body = int(format(pairs, f"0{npairs}b")[::-1], 2) << (-npairs % 8)
    b64 = binascii.b2a_base64(body.to_bytes((npairs + 7) // 8, "big"), newline=False)
    return head + b64[:(npairs + 5) // 6].translate(_FROM_BASE64).decode("ascii")
