"""Output checks against the frozen reference table.

Every operation the benchmark attempts is checked here and counted as
attempted; an operation counts as failed when

* a sweep row has a nonempty ``error`` cell, a missing value, is missing
  altogether, or has an analytic column further than ``rel_tol`` from the
  reference;
* a ``crlink validate`` estimate is outside the 3-sigma band (the ``FAIL``
  marker that ``validate`` prints, or a printed sigma above 3), its line is
  missing, or its printed analytic value disagrees with the reference.

The functions are pure so the tests can feed them doctored outputs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

SWEEP_COLUMNS = ("capacity", "se_cr", "se_dr",
                 "gamma0_cap", "gamma0_cr", "gamma_star_dr")
# 9 printed significant digits allow a last-digit drift of 1e-8 relative
REL_TOL = 1e-8
# validate prints the analytic value with 6 decimals
VALIDATE_ABS_TOL = 0.5e-6
BAND_SIGMAS = 3.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    max_dev: float = 0.0            # largest relative deviation seen
    problems: List[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_dev = max(self.max_dev, other.max_dev)
        self.problems.extend(other.problems)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _sweep_key(axis: str, ns: str, m: str) -> Tuple[float, int, float]:
    return (float(axis), int(ns), float(m))


def check_sweep_csv(text: str, reference: List[Dict],
                    rel_tol: float = REL_TOL) -> Tally:
    """One operation per reference grid point; extra rows also fail."""
    tally = Tally()
    rows = list(csv.DictReader(io.StringIO(text)))
    by_key = {}
    for r in rows:
        try:
            key = _sweep_key(r["axis"], r["ns"], r["m"])
        except (KeyError, TypeError, ValueError):
            tally.attempted += 1
            tally.failed += 1
            tally.problems.append(f"unparseable row {r}")
            continue
        by_key[key] = r
    for ref in reference:
        key = (float(ref["axis"]), int(ref["ns"]), float(ref["m"]))
        tally.attempted += 1
        row = by_key.pop(key, None)
        if row is None:
            tally.failed += 1
            tally.problems.append(f"missing row {key}")
            continue
        bad = []
        if row.get("error"):
            bad.append(f"error={row['error']!r}")
        for col in SWEEP_COLUMNS:
            cell = row.get(col) or ""
            try:
                got = float(cell)
            except ValueError:
                bad.append(f"{col} missing")
                continue
            want = ref[col]
            dev = abs(got - want) / abs(want) if want else abs(got)
            tally.max_dev = max(tally.max_dev, dev)
            if not dev <= rel_tol:
                bad.append(f"{col}={got!r} vs {want!r} (rel {dev:.2e})")
        if bad:
            tally.failed += 1
            tally.problems.append(f"row {key}: " + "; ".join(bad))
    for key in by_key:
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(f"unexpected row {key}")
    return tally


def sweep_errors(text: str) -> int:
    """Rows of a sweep CSV with a nonempty error cell."""
    return sum(1 for r in csv.DictReader(io.StringIO(text)) if r.get("error"))


def parse_validate(text: str) -> Dict[Tuple[str, str], Tuple[float, float, float, bool]]:
    """(point label, metric) -> (analytic, mc, sigmas, FAIL marker) for each
    estimate line of ``crlink validate``'s table."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        fail = bool(parts) and parts[-1] == "FAIL"
        if fail:
            parts = parts[:-1]
        if len(parts) < 5:
            continue
        try:
            analytic, mc, sig = (float(p) for p in parts[-3:])
        except ValueError:
            continue                         # header or summary line
        label = " ".join(parts[:-4])
        out[(label, parts[-4])] = (analytic, mc, sig, fail)
    return out


def check_validate_output(text: str, reference: List[Dict],
                          rel_tol: float = REL_TOL) -> Tally:
    """One operation per oracle estimate of the reference table."""
    tally = Tally()
    seen = parse_validate(text)
    for ref in reference:
        key = (ref["point"], ref["metric"])
        tally.attempted += 1
        got = seen.pop(key, None)
        if got is None:
            tally.failed += 1
            tally.problems.append(f"missing estimate {key}")
            continue
        analytic, _, sig, fail = got
        want = ref["analytic"]
        bad = []
        dev = abs(analytic - want)
        tally.max_dev = max(tally.max_dev, dev / abs(want))
        if not dev <= VALIDATE_ABS_TOL + rel_tol * abs(want):
            bad.append(f"analytic {analytic!r} vs {want!r}")
        if fail or not sig <= BAND_SIGMAS:
            bad.append(f"outside the {BAND_SIGMAS:g}-sigma band ({sig:g} sigma)")
        if bad:
            tally.failed += 1
            tally.problems.append(f"{key}: " + "; ".join(bad))
    for key in seen:
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(f"unexpected estimate {key}")
    return tally
