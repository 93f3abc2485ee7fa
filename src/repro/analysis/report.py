"""Markdown report generation for experiment results.

Turns row tables (lists of flat dicts, as produced by the runner and the
analysis functions) into GitHub-flavoured markdown tables and assembles
multi-section reports, so a results write-up can be regenerated
programmatically from fresh measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["markdown_table", "ReportSection", "ReportBuilder"]


def _format_value(value: object, float_fmt: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def markdown_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[List[str]] = None,
    float_fmt: str = ".3g",
) -> str:
    """Render a row table as a GitHub-flavoured markdown table.

    Parameters
    ----------
    rows:
        List of flat dicts; missing keys render as empty cells.
    columns:
        Column order (defaults to the union of keys in first-seen order).
    float_fmt:
        ``format()`` spec applied to float values.
    """
    if not rows:
        return "*(no data)*"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = "| " + " | ".join(columns) + " |"
    separator = "|" + "|".join(["---"] * len(columns)) + "|"
    body = []
    for row in rows:
        cells = [_format_value(row.get(c, ""), float_fmt) for c in columns]
        body.append("| " + " | ".join(cells) + " |")
    return "\n".join([header, separator] + body)


@dataclass
class ReportSection:
    """One titled section of a report: prose, an optional table, optional code block."""

    title: str
    body: str = ""
    rows: Optional[Sequence[Dict[str, object]]] = None
    columns: Optional[List[str]] = None
    code: Optional[str] = None
    level: int = 2

    def render(self) -> str:
        parts = [f"{'#' * self.level} {self.title}"]
        if self.body:
            parts.append(self.body.strip())
        if self.rows is not None:
            parts.append(markdown_table(self.rows, self.columns))
        if self.code:
            parts.append("```\n" + self.code.rstrip() + "\n```")
        return "\n\n".join(parts)


@dataclass
class ReportBuilder:
    """Assemble a markdown report from sections and write it to disk."""

    title: str
    preamble: str = ""
    sections: List[ReportSection] = field(default_factory=list)

    def add_section(
        self,
        title: str,
        body: str = "",
        rows: Optional[Sequence[Dict[str, object]]] = None,
        columns: Optional[List[str]] = None,
        code: Optional[str] = None,
        level: int = 2,
    ) -> ReportSection:
        """Append a section and return it (for further tweaking)."""
        section = ReportSection(
            title=title, body=body, rows=rows, columns=columns, code=code, level=level
        )
        self.sections.append(section)
        return section

    def render(self) -> str:
        """Render the full report as markdown text."""
        parts = [f"# {self.title}"]
        if self.preamble:
            parts.append(self.preamble.strip())
        parts.extend(section.render() for section in self.sections)
        return "\n\n".join(parts) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        """Write the rendered report to ``path`` atomically and return the path."""
        from repro.simulation.io import atomic_write_text

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(target, self.render())
        return target
