"""Moment arrays of the boundary functional.

``B[i][j]`` is the value of the linear functional on the normal monomial
``d^i e^j``.  Entries are generated from B[0][0] = 1 by three exact
recurrences:

* a second-order recurrence down the boundary column B[i][0],
* its mirror along the boundary row B[0][j], which is the boundary column
  at the swapped point a<->b, c<->d (the swap transposes the array),
* a bulk step that produces column j from column j-1 (the "column" fill,
  which consumes one e), or symmetrically row i from row i-1 (the "row"
  fill, which consumes one d).

The bulk step that fills column j at row i reads the three entries
(i-1, j-1), (i, j-1), (i+1, j-1), so producing a square block of order n
needs the boundary column to depth 2n and a trapezoid of intermediate
entries above the diagonal of the fill direction: column j is filled down
to row 2n - j.

The column fill is the shared :class:`BimomentTable` of the point asked
for last (:func:`bimoment_table`), grown in place, so every checker working
on that point reads one table.  It stores column j as a list down to row
2n - j, with the boundary column as column 0, and keeps the boundary row
and the step coefficients; each is extended from its stored depth
(``_extend_boundary`` is the boundary step :func:`boundary_column` runs
too), so a table grown one order at a time computes each entry and step
once, as one growth to the final order does.
A block or entry reader at order n reads only the (n+1)^2 square; the
rows below it feed later columns (351 of the 1,080 entries at order 26).
The row fill is coded separately: derived from the swapped column fill,
the agreement of the two fills would only repeat
:func:`check_transpose_symmetry`.

All three recurrences run on integer kernels (see ``_linalg``).  Both bulk
fills are one band step on the previous column or row: the column fill
clears its step coefficients (1 - q^i, (a+c) q^i, -ac q^i) once per table
and the row fill its own (b, d) coefficients once per block, and the
kernel clears the three entries each new entry reads.  Both run on
unreduced integer pairs (``_linalg.three_term_pairs``).  The column fill
stores each bulk entry as the pair it makes and reduces it to a Fraction
in place the first time ``entry``, ``block`` or ``stored_items`` reads it;
from then on readers and later growth see that Fraction, and no entry is
held twice.  The row fill keeps only the first n + 1 entries of each row
of its trapezoid and builds a Fraction once per kept entry.  The boundary
column feeds back on the two entries it has just produced, so it clears
its step and those two entries itself, one Fraction per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import three_term_pairs
from .core import AWParams, InvalidParams, SingularParams, _QPowers, _clear_denominators, format_rational
from .reporting import csv_text

_FILLS = ("columns", "rows")


def _extend_boundary(p: AWParams, out: list[Fraction], depth: int) -> None:
    """Extend the boundary column ``out`` of p, which holds B[0][0] ..
    B[len(out) - 1][0], down to depth (nothing when it is that deep).  With
    q = t/s, each step of :func:`boundary_column` is scaled by s^(i-1), so its
    coefficients are integers from powers of t and s, as in ``g_sweep``."""
    bd = p.b * p.d
    (sum_bd, cross, prod_bd, abcd), scale = _clear_denominators(
        [p.b + p.d, bd * (p.a + p.c), bd, p.abcd]
    )
    tp, sp = _QPowers(p.q).upto(depth - 1)
    for i in range(len(out), depth + 1):
        x_num, x_den = tp[i - 1], sp[i - 1]
        step_den = scale * x_den - abcd * x_num
        if step_den == 0:
            raise SingularParams(f"boundary column denominator vanishes at depth {i}")
        prev, prev_scale = _clear_denominators([out[i - 1], out[i - 2] if i >= 2 else 0])
        one_back = sum_bd * x_den - cross * x_num
        two_back = prod_bd * (x_num - x_den)
        out.append(Fraction(one_back * prev[0] + two_back * prev[1], step_den * prev_scale))


def boundary_column(p: AWParams, depth: int) -> list[Fraction]:
    """Moments of pure d-powers: [B[0][0], B[1][0], ..., B[depth][0]].

    B[i][0] = ((b + d - bd (a+c) q^(i-1)) B[i-1][0] - bd (1 - q^(i-1)) B[i-2][0])
              / (1 - abcd q^(i-1))

    seeded by B[0][0] = 1; the i = 1 step has no two-back term because its
    coefficient bd (1 - q^0) vanishes.
    """
    if depth < 0:
        raise InvalidParams(f"boundary depth must be >= 0, got {depth}")
    out = [Fraction(1)]
    _extend_boundary(p, out, depth)
    return out


def boundary_row(p: AWParams, depth: int) -> list[Fraction]:
    """Moments of pure e-powers: [B[0][0], B[0][1], ..., B[0][depth]], the
    :func:`boundary_column` of the swapped point a<->b, c<->d."""
    return boundary_column(p.swap_ab_cd(), depth)


class BimomentTable:
    """Growable trapezoidal store of exact bimoment values for one p.

    Column j is a list B[0][j] .. B[2 order - j][j], and column 0 is the
    boundary column; a growth extends each column in place, by one band
    step on column j - 1.  Column 0 and the top entries B[0][j] (the
    boundary row) are Fractions; every other entry is stored as the
    unreduced (numerator, denominator) pair the step made until its first
    read replaces it by its Fraction.  The boundary row and the step
    coefficients are kept too, each extended from its stored depth.  A
    growth that raises leaves the stored trapezoid as it was."""

    def __init__(self, params: AWParams):
        self.params = params
        self._swapped = params.swap_ab_cd()
        self._cols = [[Fraction(1)]]
        self._row0 = [Fraction(1)]
        self._order = 0
        # _steps[i]: the coefficients (1 - q^i, (a + c) q^i, -ac q^i) of
        # (i-1, j-1), (i, j-1), (i+1, j-1), cleared to integers over a scale
        self._steps = [None]

    @property
    def order(self) -> int:
        return self._order

    def ensure(self, n: int) -> None:
        """Grow the stored trapezoid to cover the square block of order n."""
        if n < 0:
            raise InvalidParams(f"block order must be >= 0, got {n}")
        if n <= self._order:
            return
        p = self.params
        cols, row0, steps = self._cols, self._row0, self._steps
        # both boundaries first: where a denominator vanishes, column 0 is
        # cut back to its stored depth before anything else grows
        col0 = cols[0]
        depth = len(col0)
        try:
            _extend_boundary(p, col0, 2 * n)
            _extend_boundary(self._swapped, row0, n)
        except SingularParams:
            del col0[depth:]
            raise
        q = p.q
        a_plus_c, ac = p.a + p.c, p.a * p.c
        qi = q ** len(steps)
        for _ in range(len(steps), 2 * n):
            steps.append(_clear_denominators([1 - qi, a_plus_c * qi, -ac * qi]))
            qi *= q
        for j in range(1, n + 1):
            if j == len(cols):
                cols.append([row0[j]])
            col, prev = cols[j], cols[j - 1]
            start = len(col)
            pairs = [_pair(value) for value in prev[start - 1 :]]
            col += three_term_pairs(steps[start : 2 * n - j + 1], zip(pairs, pairs[1:], pairs[2:]))
        self._order = n

    def entry(self, i: int, j: int) -> Fraction:
        if i < 0 or j < 0:
            raise InvalidParams(f"indices must be >= 0, got ({i}, {j})")
        cols = self._cols
        if j >= len(cols) or i >= len(cols[j]):
            self.ensure(max(j, (i + j + 1) // 2))
        return _reduced(cols[j], i)

    def block(self, n: int) -> list[list[Fraction]]:
        self.ensure(n)
        return [list(row) for row in zip(*(_read(col, n + 1) for col in self._cols[: n + 1]))]

    def stored_items(self):
        return {
            (i, j): value for j, col in enumerate(self._cols) for i, value in enumerate(_read(col, len(col)))
        }


def _pair(value) -> tuple[int, int]:
    """A stored entry as a (numerator, denominator) pair."""
    return value if type(value) is tuple else value.as_integer_ratio()


def _reduced(col: list, i: int) -> Fraction:
    """col[i] as a Fraction: a pair is reduced in place, so it is reduced
    once and the Fraction is what later reads and growth see."""
    value = col[i]
    if type(value) is tuple:
        value = col[i] = Fraction(*value)
    return value


def _read(col: list, stop: int) -> list[Fraction]:
    return [_reduced(col, i) for i in range(stop)]


# The table of the point asked for last.  A process works on one point at a
# time: over one verify-all and one round of each benchmark workload (seeds
# 11 and 2901) not one of 1,026 lookups asked for a table other than the
# last one, so a store of one table recomputes none (per round, cli-small
# builds 16, chain 16, deep-factor 24 and verify-all 7).
_TABLES: dict[AWParams, BimomentTable] = {}


def bimoment_table(p: AWParams) -> BimomentTable:
    """The shared table for p, grown on demand: the stored one when p is the
    point asked for last, else a new one that replaces it in the store (a
    caller that still holds the old table can keep growing and reading it)."""
    table = _TABLES.get(p)
    if table is None:
        _TABLES.clear()
        table = _TABLES[p] = BimomentTable(p)
    return table


@dataclass(frozen=True)
class BimomentMatrix:
    """A square block B[i][j], 0 <= i, j <= order, for one parameter set."""

    params: AWParams
    order: int
    entries: tuple[tuple[Fraction, ...], ...]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_map(),
            "n": self.order,
            "entries": [[format_rational(v) for v in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        return csv_text(map(format_rational, row) for row in self.entries)


def _block_by_rows(p: AWParams, n: int) -> list[list[Fraction]]:
    b, d, q = p.b, p.d, p.q
    bd = b * d
    # coeffs[j - 1]: the coefficients (1 - q^j, (b + d) q^j, -bd q^j) of
    # (i-1, j-1), (i-1, j), (i-1, j+1), cleared to integers over a scale
    coeffs = []
    qj = q
    for _ in range(1, 2 * n):
        coeffs.append(_clear_denominators([1 - qj, (b + d) * qj, -bd * qj]))
        qj *= q
    row = boundary_row(p, 2 * n)
    col0 = boundary_column(p, n)
    rows = [row[: n + 1]]
    row = [value.as_integer_ratio() for value in row]
    for i in range(1, n + 1):
        steps = three_term_pairs(coeffs[: 2 * n - i], zip(row, row[1:], row[2:]))
        row = [col0[i].as_integer_ratio(), *steps]
        rows.append([col0[i], *(Fraction(*pair) for pair in steps[:n])])
    return rows


def bimoment_block(p: AWParams, n: int, fill: str = "columns") -> BimomentMatrix:
    """Build the order-n block with the chosen fill direction.

    fill="columns" consumes the recurrence that removes one e per step
    (column j from column j-1) and is served from the shared
    :func:`bimoment_table`; fill="rows" consumes the d-removing mirror
    (row i from row i-1).  Both must produce identical blocks; computing
    each independently is what makes the agreement a real check.
    """
    if n < 0:
        raise InvalidParams(f"block order must be >= 0, got {n}")
    if fill not in _FILLS:
        raise InvalidParams(f"fill must be one of {_FILLS}, got {fill!r}")
    data = bimoment_table(p).block(n) if fill == "columns" else _block_by_rows(p, n)
    return BimomentMatrix(params=p, order=n, entries=tuple(tuple(r) for r in data))


def check_transpose_symmetry(p: AWParams, n: int) -> bool:
    """True iff transposing the block matches both parameter swaps.

    The block for (a, b, c, d, q) transposed must equal the block for
    (b, a, d, c, q) and also the block for (d, c, b, a, q).
    """
    base = bimoment_table(p)
    base.ensure(n)
    for swapped_params in (p.swap_ab_cd(), p.swap_ad_bc()):
        swapped = bimoment_table(swapped_params)
        swapped.ensure(n)
        for i in range(n + 1):
            for j in range(n + 1):
                if base.entry(i, j) != swapped.entry(j, i):
                    return False
    return True


def check_recurrences(p: AWParams, n: int) -> bool:
    """Verify both bulk recurrences on every stored entry of the order-n
    trapezoid whose referenced neighbours are all present."""
    table = bimoment_table(p)
    table.ensure(n)
    entries = table.stored_items()
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    ac, bd = a * c, b * d
    for (i, j), value in entries.items():
        if i >= 1 and j >= 1:
            qi = q**i
            left = entries.get((i - 1, j - 1))
            mid = entries.get((i, j - 1))
            down = entries.get((i + 1, j - 1))
            if left is not None and mid is not None and down is not None:
                if value != (1 - qi) * left + (a + c) * qi * mid - ac * qi * down:
                    return False
            qj = q**j
            up = entries.get((i - 1, j))
            right = entries.get((i - 1, j + 1))
            if left is not None and up is not None and right is not None:
                if value != (1 - qj) * left + (b + d) * qj * up - bd * qj * right:
                    return False
    return True
