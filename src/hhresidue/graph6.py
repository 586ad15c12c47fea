"""graph6 codec: the printable-ASCII encoding of labeled simple graphs.

The order n is one byte chr(n+63) for n <= 62, or '~' plus three bytes
(18 bits, big-endian) for 63 <= n <= 258047. The upper triangle of the
adjacency matrix follows in column-major pair order (0,1),(0,2),(1,2),
(0,3),..., packed six bits per byte (first pair most significant), each
byte offset by 63, with zero padding to a byte boundary. Encoding is exact
for the labeled graph (not isomorph-canonical) and round-trips bit for bit.

Both directions go through one string of pair bits, one character per
pair: column j is the j characters for (0,j),...,(j-1,j), which read
backwards are vertex j's neighbours below j as a binary numeral.
"""

from __future__ import annotations

from .graphs import Graph, iter_bits

HEADER = ">>graph6<<"
_MAX_N = 258047
# a body byte's six pair bits, and back
_BITS = {v + 63: format(v, "06b") for v in range(64)}
_CHAR = {format(v, "06b"): chr(v + 63) for v in range(64)}


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
    for i, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"byte {code} outside graph6 range 63..126", base + i)
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
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        low = int(bits[pos:pos + j][::-1], 2)
        pos += j
        adj[j] = low
        for i in iter_bits(low):
            adj[i] |= 1 << j
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
    bits = "".join(format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(_CHAR[bits[k:k + 6]] for k in range(0, len(bits), 6))
