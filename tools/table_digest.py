"""Print one SHA-256 per link over the survival tables of a fixed grid.

Two builds whose tables agree bit for bit print the same digests, so
running this before and after a change to the table build shows whether
any table moved. Each table contributes s_lo, its split, s_hi and the
factor on its tail, its panel edges (_lo, _hi), its right sums (_right,
_right_err) and the polynomials of every panel as its batch forms them
(SurvivalTable._forms); each batch's shared tail, if it has one, then
contributes the same once.

    PYTHONPATH=src python tools/table_digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from crlink.fading import LinkKind
from crlink.mud import _unit_tables

GRID = {
    LinkKind.DIRECT: ((0.5, 1.0, 1.5, 2.0, 2.5, 7.3, 15.0),
                      tuple(range(1, 21)) + (200, 1000)),
    LinkKind.RATIO: ((0.5, 1.0, 1.5, 2.0, 7.3, 15.0), (1, 5, 15, 200)),
}


def _feed(h, a) -> None:
    a = np.asarray(a, dtype=float)
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def digest(link: LinkKind) -> str:
    """SHA-256 over every table of link's grid, built one batch per m."""
    ms, users = GRID[link]
    h = hashlib.sha256()
    for m in ms:
        tables = list(_unit_tables(link, m, users).values())
        tails = {id(t._tail): t._tail for t in tables if t._tail is not None}
        for table in tables + list(tails.values()):
            _feed(h, [table.s_lo, table._split, table.s_hi, table._factor])
            for name in ("_lo", "_hi", "_right", "_right_err"):
                _feed(h, getattr(table, name))
            _feed(h, table._forms())
    return h.hexdigest()


if __name__ == "__main__":
    for link in GRID:
        print(f"{link.name.lower()} {digest(link)}")
