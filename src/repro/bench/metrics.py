"""Small helpers for presenting experiment results as tables.

The benchmark harness prints the same rows/series the paper's figures plot;
these helpers keep the formatting consistent across experiments and make the
output easy to diff between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence


@dataclass
class ExperimentTable:
    """An ordered collection of result rows with uniform columns.

    ``columns`` may be left out: the first row then names them, in order.
    """

    title: str
    columns: Sequence[str] = ()
    rows: list[Mapping[str, object]] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        if not self.columns:
            self.columns = list(values)
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append(values)

    def column(self, name: str) -> list[object]:
        return [row[name] for row in self.rows]

    def render(self) -> str:
        """A fixed-width text table, suitable for stdout."""
        headers = list(self.columns)
        formatted_rows = [
            [self._format(row[column]) for column in headers] for row in self.rows
        ]
        widths = [
            max(len(header), *(len(row[i]) for row in formatted_rows)) if formatted_rows else len(header)
            for i, header in enumerate(headers)
        ]
        lines = [self.title]
        lines.append("  " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  " + "-+-".join("-" * w for w in widths))
        for row in formatted_rows:
            lines.append("  " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, float):
            if 0 < abs(value) < 1e-3:
                return f"{value:.2e}"
            return f"{value:.4f}".rstrip("0").rstrip(".")
        return str(value)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
