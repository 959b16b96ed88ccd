"""Property test: precomputed order keys agree with ``SortKey``.

``order_key`` and the row key built on it (``row_order_key``) replace
per-comparison ``SortKey`` calls in ORDER BY, GatherMerge, the merge
join and MIN/MAX.  They must
give exactly the order ``sorted(key=SortKey)`` gives — ties included,
since both sorts are stable — for every kind a column can hold: ints,
floats, mixed int/float, bools, case-variant strings, dates, datetimes
(mixed with dates) and NULLs, ascending and descending.  ORDER BY and
GatherMerge output is checked row for row against the ``SortKey``
reference.
"""

from __future__ import annotations

import datetime as dt
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, NetworkChannel, ServerInstance
from repro.core import physical as P
from repro.execution.aggregates import _lt
from repro.types.intervals import SortKey, order_key, row_order_key

_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
_words = st.sampled_from(["apple", "Apple", "APPLE", "b", "B", "", "z", "Zed"])
_days = st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31))
_stamps = st.datetimes(dt.datetime(1990, 1, 1), dt.datetime(2030, 12, 31))

#: one strategy per column kind; NULLs mixed into each
KINDS = {
    "int": st.integers(-50, 50),
    "float": _finite,
    "int_float": st.one_of(st.integers(-50, 50), _finite),
    "bool": st.booleans(),
    "bool_int": st.one_of(st.booleans(), st.integers(-2, 2)),
    "string": _words,
    "date": _days,
    "date_datetime": st.one_of(_days, _stamps),
}


def _with_nulls(kind):
    return st.one_of(st.none(), KINDS[kind])


def _order(values, key, reverse=False):
    """Index order of a stable sort of ``values`` by ``key``."""
    return sorted(
        range(len(values)), key=lambda i: key(values[i]), reverse=reverse
    )


def _reference_rows(rows, key_ordinals):
    """The pre-existing ORDER BY: one stable SortKey pass per key,
    last key first."""
    rows = list(rows)
    for ordinal, ascending in reversed(key_ordinals):
        rows.sort(key=lambda row: SortKey(row[ordinal]), reverse=not ascending)
    return rows


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("reverse", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_single_key_order_matches_sortkey(kind, reverse, data):
    values = data.draw(st.lists(_with_nulls(kind), max_size=30))
    assert _order(values, order_key, reverse) == _order(
        values, SortKey, reverse
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_min_max_comparison_matches_sortkey(kind, data):
    a = data.draw(KINDS[kind])
    b = data.draw(KINDS[kind])
    assert _lt(a, b) == (SortKey(a) < SortKey(b))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            _with_nulls("string"), _with_nulls("int_float"),
            _with_nulls("date_datetime"),
        ),
        max_size=30,
    ),
    directions=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_row_keys_match_sortkey_passes(rows, directions):
    key_ordinals = list(zip((0, 1, 2), directions))
    tagged = [row + (i,) for i, row in enumerate(rows)]
    want = [row[-1] for row in _reference_rows(tagged, key_ordinals)]
    assert _order(rows, row_order_key(key_ordinals)) == want


@pytest.mark.parametrize("direction", ["ASC", "DESC"])
def test_mixed_kinds_fall_back_to_sortkey(direction):
    """Strings against numbers have no native order; ORDER BY falls
    back to SortKey's coercions instead of failing.  DESC negates the
    numbers and wraps the strings, which must not compare either.
    SortKey is no total order over such a column ('10' < '2' < 3 but
    '10' > 3), so a DESC result depends on the sort algorithm: only
    the single ASC pass has one reference answer."""
    engine = Engine("mixed")
    engine.execute("CREATE TABLE t (id int)")
    engine.execute("CREATE TABLE u (s varchar(10))")
    engine.execute("INSERT INTO t VALUES (3), (1)")
    engine.execute("INSERT INTO u VALUES ('2'), ('10')")
    rows = engine.execute(
        f"SELECT id FROM t UNION ALL SELECT s FROM u ORDER BY 1 {direction}"
    ).rows
    stored = [(3,), (1,), ("2",), ("10",)]
    if direction == "ASC":
        assert rows == _reference_rows(stored, [(0, True)])
    else:
        assert sorted(map(repr, rows)) == sorted(map(repr, stored))


@pytest.mark.parametrize("direction", ["ASC", "DESC"])
def test_gather_merge_over_mixed_kinds_falls_back_to_sortkey(direction):
    """A GatherMerge whose branches disagree on kind (an int member
    column against a varchar one) re-keys its heap through SortKey
    mid-merge instead of failing."""
    local = Engine("local")
    ints = ServerInstance("a")
    ints.execute("CREATE TABLE t (x int)")
    ints.execute("INSERT INTO t VALUES (3), (1), (20)")
    texts = ServerInstance("b")
    texts.execute("CREATE TABLE u (x varchar(10))")
    texts.execute("INSERT INTO u VALUES ('2'), ('10'), ('abc')")
    local.add_linked_server("a", ints, NetworkChannel("ca", latency_ms=2.0))
    local.add_linked_server("b", texts, NetworkChannel("cb", latency_ms=2.0))
    local.execute("SET PARALLEL_DOP 2")
    result = local.execute(
        "SELECT x FROM a.master.dbo.t UNION ALL "
        f"SELECT x FROM b.master.dbo.u ORDER BY 1 {direction}"
    )
    assert [n for n in result.plan.walk() if isinstance(n, P.GatherMerge)]
    assert sorted(map(repr, result.rows)) == sorted(
        map(repr, [(3,), (1,), (20,), ("2",), ("10",), ("abc",)])
    )


# ----------------------------------------------------------------------
# end to end: ORDER BY and GatherMerge against the SortKey reference
# ----------------------------------------------------------------------
def _rows(seed, count):
    rng = random.Random(seed)
    words = ["apple", "Apple", "APPLE", "pear", "Pear", None]
    out = []
    for __ in range(count):
        out.append((
            rng.choice(words),
            rng.choice([None, rng.randint(-5, 5), rng.randint(-5, 5) + 0.5]),
            rng.choice([None, dt.date(2020, 1, rng.randint(1, 5))]),
            rng.randint(0, 999),
        ))
    return out


ORDERINGS = [
    ("k ASC, n DESC", [(0, True), (1, False)]),
    ("n DESC, d, id", [(1, False), (2, True), (3, True)]),
    ("d DESC, k DESC, id", [(2, False), (0, False), (3, True)]),
    ("k, n, d, id", [(0, True), (1, True), (2, True), (3, True)]),
]

_SCHEMA = "(k varchar(10), n float, d date, id int)"


@pytest.mark.parametrize("order_by,key_ordinals", ORDERINGS)
def test_order_by_matches_sortkey_reference(order_by, key_ordinals):
    engine = Engine("ordered")
    engine.execute(f"CREATE TABLE t {_SCHEMA}")
    table = engine.catalog.database().table("t")
    for row in _rows(11, 120):
        table.insert(row)
    scanned = engine.execute("SELECT k, n, d, id FROM t").rows
    result = engine.execute(f"SELECT k, n, d, id FROM t ORDER BY {order_by}")
    assert result.rows == _reference_rows(scanned, key_ordinals)


@pytest.mark.parametrize("order_by,key_ordinals", ORDERINGS)
def test_gather_merge_matches_sortkey_reference(order_by, key_ordinals):
    local = Engine("local")
    branches = []
    for i in range(4):
        member = ServerInstance(f"m{i}")
        member.execute(f"CREATE TABLE t{i} {_SCHEMA}")
        table = member.catalog.database().table(f"t{i}")
        for row in _rows(20 + i, 40):
            table.insert(row)
        local.add_linked_server(
            f"m{i}", member, NetworkChannel(f"ch{i}", latency_ms=2.0)
        )
        branches.append(f"SELECT * FROM m{i}.master.dbo.t{i}")
    local.execute("CREATE VIEW v AS " + " UNION ALL ".join(branches))
    concatenated = local.execute("SELECT k, n, d, id FROM v").rows
    local.execute("SET PARALLEL_DOP 4")
    result = local.execute(f"SELECT k, n, d, id FROM v ORDER BY {order_by}")
    assert [n for n in result.plan.walk() if isinstance(n, P.GatherMerge)]
    assert result.rows == _reference_rows(concatenated, key_ordinals)
