"""CSV and JSON emission with byte-stable formatting.

CSV cells print floats at 12 significant digits, so identical inputs
serialize identically and region files round-trip through plotting tools
without visible quantization. JSON goes through :func:`json.dumps`, which
prints floats at full repr precision. Rows are dicts whose key order is
the column order; record types supply it through their field order. All
writers return complete text; callers decide where it goes.
"""

import dataclasses
import json
import sys

import numpy as np


def fmt(value):
    """One value as text: ints verbatim, floats at 12 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if value == 0.0:
        value = 0.0  # never print -0
    return format(value, ".12g")


def csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def region_rows(records, sigma_z2=None):
    """Region records as dicts in field order; noisy-observation rows also
    carry sigma_z2."""
    extra = {} if sigma_z2 is None else {"sigma_z2": sigma_z2}
    return [{**dataclasses.asdict(record), **extra} for record in records]


def trace_csv(columns):
    """Per-symbol trace of one trial; the columns follow the key order."""
    header = ("t", *columns)
    rows = ([t + 1, *values] for t, values in enumerate(zip(*columns.values())))
    return csv_text(header, rows)


def rows_csv(rows):
    """Uniform list of dicts as CSV; the first row fixes the column order."""
    rows = list(rows)
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    return csv_text(header, ([row[name] for name in header] for row in rows))


def json_text(obj):
    """Deterministic JSON: insertion order preserved, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), inner, out)
    elif isinstance(value, (list, tuple)):
        for i, inner in enumerate(value):
            _flatten(f"{prefix}.{i}", inner, out)
    else:
        out.append((prefix, value))


def report_csv(report_dict):
    """Flattened `key,value` view of a report for CSV consumers."""
    pairs = []
    _flatten("", report_dict, pairs)
    return csv_text(("key", "value"), pairs)


def write_text(text, path=None):
    """Write to the path, or stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(text)
