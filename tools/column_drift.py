"""Print the largest relative drift of each analytic sweep column between
two source trees.

Each tree runs `run_sweep` on CONFIG in a subprocess of its own, with
that tree first on the import path, and hands back every analytic cell at
full precision. For each column the script prints the largest relative
difference |new − old|/|old| over the rows, with both values in repr, and
counts the rows whose `error` cell differs.

    python tools/column_drift.py OLD_SRC NEW_SRC CONFIG

OLD_SRC and NEW_SRC are the `src` directories of the two trees, for
instance of a `git archive` copy of the parent commit and of this tree.
"""

from __future__ import annotations

import json
import subprocess
import sys

COLUMNS = ("capacity", "se_cr", "se_dr", "gamma0_cap", "gamma0_cr",
           "gamma_star_dr")

_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from crlink.sweep import load_config, run_sweep
res = run_sweep(load_config(sys.argv[2]))
print(json.dumps([[r.axis_value, r.ns, r.m, r.error]
                  + [getattr(r, c) for c in {columns!r}] for r in res.rows]))
"""


def rows(src: str, config: str) -> list:
    """The sweep rows of config under the source tree src."""
    out = subprocess.run(
        [sys.executable, "-c", _RUN.format(columns=COLUMNS), src, config],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    old_src, new_src, config = argv
    old, new = rows(old_src, config), rows(new_src, config)
    if [r[:3] for r in old] != [r[:3] for r in new]:
        print("the two trees give different grids")
        return 1
    errors = sum(a[3] != b[3] for a, b in zip(old, new))
    print(f"{config}: {len(old)} rows, {errors} with a different error cell")
    for k, col in enumerate(COLUMNS, start=4):
        worst, at = 0.0, None
        for a, b in zip(old, new):
            if a[k] is None or b[k] is None or a[k] == b[k]:
                continue
            drift = abs(b[k] - a[k]) / abs(a[k]) if a[k] else abs(b[k])
            if drift > worst:
                worst, at = drift, (a, b)
        where = (f"  at axis={at[0][0]!r} ns={at[0][1]} m={at[0][2]!r}: "
                 f"{at[0][k]!r} -> {at[1][k]!r}" if at else "")
        print(f"  {col:<14}{worst!r}{where}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
