"""Correctness check of one study's CSV report, with tolerances, not bytes.

Two checks, chosen by whether frozen values exist for the (workload, seed):

* ``compare_frozen``: levels and ndofs exact, error columns within relative
  ``ERR_RTOL``, EOC columns within ``EOC_ATOL``, solver iterations within
  ``ITERS_ATOL``.  The tolerances admit a legitimate change of direct
  solver (scipy ``splu`` in place of the banded Cholesky moved errors by up
  to 6.5e-7 relative and EOCs by up to 1.4e-6) and reject an error column
  that is off by 1e-3 relative.
* ``check_invariants``: for any other seed.  Levels and ndofs exact (the
  jitter moves vertices, not the topology), every error positive and
  finite, the compatibility defect recorded and below ``COMPAT_MAX`` where
  the problem has one, and the final L2 EOC within a window around the
  frozen one.

Each returns a list of problems; an empty list means the report passed.
"""

import math

ERR_RTOL = 1e-5
EOC_ATOL = 1e-4
ITERS_ATOL = 2
COMPAT_MAX = 1e-8


def parse_csv(text):
    """Comment fields and rows of a c0ip CSV report."""
    comments = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            for item in line[1:].split():
                if "=" in item:
                    key, value = item.split("=", 1)
                    comments[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    parsed = []
    for row in rows:
        out = {"level": int(row["level"]), "ndofs": int(row["ndofs"]),
               "solver_iters": int(row["solver_iters"])}
        for key, value in row.items():
            if key.startswith(("err_", "eoc_")):
                out[key] = float(value) if value else None
        parsed.append(out)
    return comments, parsed


def to_csv(rows):
    """Minimal CSV text for frozen rows; what ``parse_csv`` reads back."""
    cols = [k for k in rows[0] if k.startswith(("err_", "eoc_"))]
    lines = [",".join(["level", "h", "ndofs", *cols, "solver_iters", "seconds"])]
    for row in rows:
        vals = ["" if row[c] is None else repr(row[c]) for c in cols]
        lines.append(",".join([str(row["level"]), "0", str(row["ndofs"]), *vals,
                               str(row["solver_iters"]), "0"]))
    return "\n".join(lines) + "\n"


def _same_shape(rows, frozen):
    if [r["level"] for r in rows] != [r["level"] for r in frozen]:
        return [f"levels {[r['level'] for r in rows]} != {[r['level'] for r in frozen]}"]
    if [r["ndofs"] for r in rows] != [r["ndofs"] for r in frozen]:
        return [f"ndofs {[r['ndofs'] for r in rows]} != {[r['ndofs'] for r in frozen]}"]
    if set(rows[0]) != set(frozen[0]):
        return [f"columns {sorted(rows[0])} != {sorted(frozen[0])}"]
    return []


def compare_frozen(rows, frozen):
    problems = _same_shape(rows, frozen)
    if problems:
        return problems
    for row, ref in zip(rows, frozen):
        lev = row["level"]
        for key, want in ref.items():
            got = row[key]
            if key.startswith("err_"):
                if not abs(got - want) <= ERR_RTOL * abs(want):
                    problems.append(f"level {lev} {key}={got!r}, frozen {want!r}")
            elif key.startswith("eoc_"):
                if (got is None) != (want is None) or (
                    want is not None and not abs(got - want) <= EOC_ATOL
                ):
                    problems.append(f"level {lev} {key}={got!r}, frozen {want!r}")
        if abs(row["solver_iters"] - ref["solver_iters"]) > ITERS_ATOL:
            problems.append(
                f"level {lev} solver_iters={row['solver_iters']}, frozen {ref['solver_iters']}"
            )
    return problems


def check_invariants(comments, rows, frozen, eoc_window, has_compat):
    problems = _same_shape(rows, frozen)
    if problems:
        return problems
    for row in rows:
        for key, value in row.items():
            if key.startswith("err_") and not (math.isfinite(value) and value > 0.0):
                problems.append(f"level {row['level']} {key}={value!r} is not positive finite")
    if has_compat:
        defect = comments.get("compatibility_defect")
        if defect is None:
            problems.append("compatibility_defect line missing")
        elif not abs(float(defect)) < COMPAT_MAX:
            problems.append(f"compatibility defect {defect} is not below {COMPAT_MAX}")
    got, want = rows[-1]["eoc_l2"], frozen[-1]["eoc_l2"]
    if not abs(got - want) <= eoc_window:
        problems.append(f"final eoc_l2={got!r} outside {want!r} +- {eoc_window}")
    return problems
