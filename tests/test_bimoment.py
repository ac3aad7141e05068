from fractions import Fraction as F

from hypothesis import given, strategies as st

from biorth import WordPoly, bimoment, bimoment_block, bimoment_table, functional
from biorth.bimoment import BimomentTable
from biorth.suites import verify_point

from conftest import check_recurrences, check_transpose_symmetry, make_params


def test_first_moments_against_linear_system(canonical):
    # Independent oracle: with B00 = L(1) = 1, the two length-1 defining
    # relations L(d - e) = (b10 - b01) and L(beta' d + delta' e) = ... reduce
    # to a 2x2 linear system for (L(d), L(e)).  Solved by hand once:
    m = bimoment_block(canonical, 1)
    assert m.entries[0][0] == 1
    assert m.entries[1][0] == F(8, 23)
    assert m.entries[0][1] == F(18, 23)


def test_fill_routes_agree(grid):
    for p in grid:
        cols = bimoment_block(p, 6, fill="columns")
        rows = bimoment_block(p, 6, fill="rows")
        assert cols.rows() == rows.rows()


def test_transpose_swaps(grid):
    for p in grid:
        assert check_transpose_symmetry(p, 6)


def test_recurrences_hold(grid):
    for p in grid:
        assert check_recurrences(p, 8)


def test_entries_match_functional(canonical):
    # the table must agree with direct evaluation of L(d^n e^m)
    table = bimoment_table(canonical)
    for n in range(4):
        for m in range(4):
            word = WordPoly({"d" * n + "e" * m: 1})
            assert table.entry(n, m) == functional(word, canonical)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_table_auto_extends(i, j):
    table = bimoment_table(make_params(("1", "1/2", "-1/3", "-1/4", "1/2")))
    value = table.entry(i, j)  # must not raise regardless of fill order
    assert value == bimoment_block(table.params, max(i, j)).entries[i][j]


def test_entry_grows_only_outside_the_stored_trapezoid(canonical):
    for i, j in [(0, 0), (1, 0), (2, 0), (0, 3), (5, 0), (4, 3), (2, 6), (9, 2), (7, 7)]:
        table = BimomentTable(canonical)
        value = table.entry(i, j)
        order = max(j, (i + j + 1) // 2)
        assert table.order == order
        once = BimomentTable(canonical)
        once.ensure(order)
        stored = once.stored_items()
        assert table.stored_items() == stored
        assert value == stored[(i, j)]
        # the deepest entry of every stored column is served without growth
        for col in range(order + 1):
            assert table.entry(2 * order - col, col) == stored[(2 * order - col, col)]
        assert table.order == order
        assert table.stored_items() == stored


def test_csv_and_json_shapes(canonical):
    m = bimoment_block(canonical, 0)
    assert m.to_csv() == "1\n"
    m2 = bimoment_block(canonical, 2)
    lines = m2.to_csv().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[0] == "1"
    payload = m2.to_json_dict()
    assert payload["n"] == 2
    assert payload["entries"][1][0] == "8/23"


def test_table_is_shared_per_params(canonical):
    assert bimoment_table(canonical) is bimoment_table(canonical)


def test_verify_point_builds_one_table_per_point(grid, monkeypatch):
    # every suite at a point reads that point's table, so the one-table store
    # builds each table once: no suite returns to an earlier point
    built = []

    class CountedTable(BimomentTable):
        def __init__(self, params):
            built.append(params)
            super().__init__(params)

    monkeypatch.setattr(bimoment, "BimomentTable", CountedTable)
    monkeypatch.setattr(bimoment, "_TABLES", {})
    for p in grid:
        verify_point(p)
    assert built == grid
