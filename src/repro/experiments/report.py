"""Plain-text table formatting for experiment results.

The harness prints the same rows/series the paper reports; this module turns
lists of row dictionaries into aligned plain-text tables without pulling in
any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def _stringify(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Format ``rows`` (list of dicts sharing keys) as an aligned text table.

    Parameters
    ----------
    rows:
        Table rows; the column order is taken from the first row.
    title:
        Optional heading printed above the table.
    """
    if not rows:
        return f"{title}\n(no data)\n" if title else "(no data)\n"
    columns: List[str] = list(rows[0].keys())
    table = [[_stringify(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(columns[i]), max(len(line[i]) for line in table)) for i in range(len(columns))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(column.ljust(widths[i]) for i, column in enumerate(columns)))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in table:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines) + "\n"


def format_key_values(values: Dict[str, object], title: str = "") -> str:
    """Format a flat key/value mapping as aligned ``key : value`` lines."""
    if not values:
        return f"{title}\n(no data)\n" if title else "(no data)\n"
    width = max(len(key) for key in values)
    lines: List[str] = []
    if title:
        lines.append(title)
    for key, value in values.items():
        lines.append(f"{key.ljust(width)} : {_stringify(value)}")
    return "\n".join(lines) + "\n"
