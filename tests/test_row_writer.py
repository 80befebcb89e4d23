"""``protocol.encode_answer`` writes each row from its packed ranks.

A row's text is its first rank's ``[value`` plus each later rank's
``,value``, the ranks unpacked inline from the one int the row sorts by.
What is pinned is the bytes of the keyed-sort oracle (``json.dumps`` over
rows sorted by each value's ``(type name, str(value))``) at every width
from 1 to 4, with value types mixed, for id rows over a catalog and for
rows of values alike, and with rows of several widths in one relation
(a short row is padded, and sorts before the longer rows it prefixes).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.datalog.columnar import TermCatalog
from repro.service import protocol
from tests import test_encoded_answers as encoded


#: Mixed types, no two of them equal: ``_interned`` reads the types of the
#: distinct values, so a value equal to one of another type (``0`` and
#: ``-0.0``, ``"a"`` and ``Text("a")``) would hide its type from it.
APART = [*encoded.TestRowsToWire.STRINGS, 0, 9, 10, -1, 2.5, None, True, *encoded.TestEncodeAnswer.EXTRA]


def _relations(widths, pool):
    rows = st.sets(
        widths.flatmap(lambda width: st.tuples(*[st.sampled_from(pool)] * width)), max_size=40
    )
    return st.dictionaries(st.sampled_from(encoded.TestEncodeAnswer.NAMES), rows, max_size=3)


def _answers(pool):
    """Relations of one width each, 1 to 4, or of widths 1 to 4 mixed."""
    uniform = st.integers(1, 4).flatmap(lambda width: _relations(st.just(width), pool))
    return uniform | _relations(st.integers(1, 4), pool)


def _interned(relations, order):
    catalog = TermCatalog()
    for value in order:
        catalog.intern(value)
    return {name: [catalog.intern_row(row) for row in rows] for name, rows in relations.items()}, catalog


class TestRowWriter:
    @given(_answers(encoded.VALUE_POOL), st.randoms(use_true_random=False))
    @settings(max_examples=250, deadline=None)
    def test_id_rows_write_the_keyed_sort_of_their_values(self, relations, rng):
        cells = [value for rows in relations.values() for row in rows for value in row]
        rng.shuffle(cells)
        ids, catalog = _interned(relations, cells)
        decoded = {name: {catalog.decode_row(row) for row in rows} for name, rows in ids.items()}
        assert protocol.encode_answer(ids, catalog.values) == encoded.keyed_encode(decoded)

    @given(_answers(APART))
    @settings(max_examples=250, deadline=None)
    def test_value_rows_write_the_keyed_sort(self, relations):
        assert protocol.encode_answer(relations) == encoded.keyed_encode(relations)

    def test_each_width_by_hand(self):
        catalog = TermCatalog()
        rows = [catalog.intern_row(row) for row in [("b", 2, 1.5, None), ("a", 10, True, "x")]]
        for width, expected in (
            (1, b'[["a"],["b"]]'),
            (2, b'[["a",10],["b",2]]'),
            (3, b'[["a",10,true],["b",2,1.5]]'),
            (4, b'[["a",10,true,"x"],["b",2,1.5,null]]'),
        ):
            encoded, count = protocol.encode_answer(
                {"p": [row[:width] for row in rows]}, catalog.values
            )
            assert (encoded, count) == (b'{"count":2,"relations":{"p":' + expected + b"}}", 2)

    def test_a_short_row_sorts_before_the_rows_it_prefixes(self):
        relations = {"p": [("a", "b"), ("a",), ("b",), ()]}
        assert protocol.encode_answer(relations) == (
            b'{"count":4,"relations":{"p":[[],["a"],["a","b"],["b"]]}}', 4,
        )
