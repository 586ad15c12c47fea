"""graph6 codec: hand-checked strings, round trips, error reporting."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hhresidue.catalog import complete, path
from hhresidue.graph6 import Graph6Error, emit_graph6, parse_graph6
from hhresidue.graphs import Graph

from strategies import graphs, graphs_up_to


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


def test_parse_rejects_bad_bytes():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A ")
    assert exc.value.offset == 1


def test_parse_rejects_wrong_length():
    with pytest.raises(Graph6Error):
        parse_graph6("D")  # order 5 needs adjacency bytes
    with pytest.raises(Graph6Error):
        parse_graph6("A__")  # one byte too many


def test_parse_rejects_nonzero_padding():
    # order 2 has one adjacency bit; '`' = 100001 sets a padding bit
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A`")
    assert "padding" in str(exc.value)
    assert exc.value.offset == 1


def test_parse_rejects_empty_and_nonminimal():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("~??@")  # order 1 written in extended form


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
