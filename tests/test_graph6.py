"""graph6 codec: hand-checked strings, round trips, error reporting."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hhresidue.graph6 import HEADER, Graph6Error, emit_graph6, parse_graph6
from hhresidue.graphs import Graph

from oracles import graph6_reference, to_networkx
from strategies import complete, graphs, graphs_up_to, path


def test_parse_hand_checked_strings():
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("A?") == Graph(2)
    assert parse_graph6("Bw") == complete(3)


def test_emit_hand_checked_strings():
    assert emit_graph6(Graph(1)) == "@"
    assert emit_graph6(complete(2)) == "A_"
    assert emit_graph6(Graph(2)) == "A?"
    assert emit_graph6(complete(3)) == "Bw"
    assert emit_graph6(Graph(0)) == "?"


def test_header_prefix_is_stripped():
    assert parse_graph6(">>graph6<<A_") == complete(2)


def test_extended_order_round_trip():
    for n in (63, 100):
        g = path(n)
        s = emit_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g


# every error kind: input, message, offset in the input (no header)
PARSE_ERRORS = [
    pytest.param("", "empty graph6 string", 0, id="empty"),
    pytest.param("A ", "byte 32 outside graph6 range 63..126", 1, id="space"),
    pytest.param("B\x7fw", "byte 127 outside graph6 range 63..126", 1, id="del"),
    pytest.param("~~???", "orders above 258047 are not supported", 1, id="order-above-max"),
    pytest.param("~?", "truncated extended order field", 2, id="truncated-order"),
    # order 1 in extended form
    pytest.param("~??@", "non-minimal order encoding", 0, id="non-minimal-order"),
    pytest.param("D", "expected 2 adjacency bytes for order 5, found 0", 1, id="too-few-bytes"),
    pytest.param("A__", "expected 1 adjacency bytes for order 2, found 2", 2, id="too-many-bytes"),
    pytest.param(
        "~?@?" + "?" * 10,
        "expected 336 adjacency bytes for order 64, found 10",
        14,
        id="extended-too-few-bytes",
    ),
    # order 2 has one adjacency bit; '`' = 100001 sets a padding bit
    pytest.param("A`", "nonzero padding bits", 1, id="padding"),
    # order 3: three padding bits, the last set
    pytest.param("Bx", "nonzero padding bits", 1, id="padding-order-3"),
    # order 100 ("~?@c") has 825 body bytes; the first bad one is reported
    pytest.param(
        "~?@c" + "?" * 821 + "!?\x80?",
        "byte 33 outside graph6 range 63..126",
        825,
        id="late-in-long-body",
    ),
    pytest.param("~?@c\n" + "?" * 824, "byte 10 outside graph6 range 63..126", 4, id="after-extended-order"),
    # a character outside Latin-1 is reported by its code point
    pytest.param("B\u20ac", "byte 8364 outside graph6 range 63..126", 1, id="non-latin-1"),
]


@pytest.mark.parametrize("header", ["", HEADER], ids=["bare", "header"])
@pytest.mark.parametrize("text, message, offset", PARSE_ERRORS)
def test_parse_rejects(header, text, message, offset):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(header + text)
    offset += len(header)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} (byte offset {offset})"


def test_codec_matches_reference():
    """emit_graph6 writes what the format description gives, and
    parse_graph6 reads it back, on seeded graphs of every order 0..130 and
    of order 258, each empty, complete and at a random density: every
    remainder of the pair count modulo 6 and 8, and both order fields."""
    rng = random.Random(6)
    for n in [*range(131), 258]:
        for p in (0.0, 1.0, rng.random()):
            g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
            s = graph6_reference(g)
            assert emit_graph6(g) == s, n
            assert parse_graph6(s) == g, n


def test_emit_order_bound():
    with pytest.raises(ValueError):
        emit_graph6(Graph(300000))


@given(graphs(max_n=12))
def test_round_trip(g):
    s = emit_graph6(g)
    assert parse_graph6(s) == g
    assert emit_graph6(parse_graph6(s)) == s


@given(st.text())
def test_parse_arbitrary_text_raises_only_graph6_error(text):
    try:
        parse_graph6(text)
    except Graph6Error:
        pass


def test_round_trip_on_enumerated_graphs():
    for g in graphs_up_to(5):
        s = emit_graph6(g)
        assert parse_graph6(s) == g
        assert emit_graph6(parse_graph6(s)) == s


def test_codec_matches_networkx():
    """networkx writes the same string for every class of order <= 7 and
    for seeded graphs of orders 0..130, reads back the same edges, and its
    bytes parse to an equal Graph with equal degrees."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(130)
    gs = list(graphs_up_to(7))
    for n in range(131):
        p = rng.random()
        gs.append(Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
    for g in gs:
        s = emit_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False)
        assert theirs == (s + "\n").encode(), g
        h = nx.from_graph6_bytes(s.encode())
        assert h.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in h.edges()) == g.edges(), g
        back = parse_graph6(theirs.decode().rstrip("\n"))
        assert back == g and back.degrees == g.degrees, g
