"""Plain-text plotting: sparklines and scatter charts for terminal reports.

The experiment harness is deliberately free of plotting dependencies; these
helpers render small ASCII/Unicode charts so the CLI and the examples can
show trajectories (minimum degree over time, rounds vs n on log-log axes)
directly in the terminal and in markdown code blocks.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

__all__ = ["sparkline", "ascii_plot", "loglog_slope_annotation"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Render a sequence as a one-line unicode sparkline.

    Constant sequences render as a flat mid-level line; an empty sequence
    renders as an empty string.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if math.isclose(lo, hi):
        return _SPARK_LEVELS[3] * len(vals)
    span = hi - lo
    chars = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[idx])
    return "".join(chars)


def ascii_plot(
    x: Sequence[float],
    y: Sequence[float],
    width: int = 60,
    height: int = 16,
    logx: bool = False,
    logy: bool = False,
    marker: str = "*",
    title: Optional[str] = None,
) -> str:
    """Render an (x, y) scatter as a multi-line ASCII chart.

    Parameters
    ----------
    x, y:
        Equal-length positive sequences (positivity only required for the
        log axes).
    width, height:
        Plot area size in characters (axes add one column / row).
    logx, logy:
        Use logarithmic axes; zero or negative values then raise.
    """
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if not x:
        raise ValueError("cannot plot empty data")
    if width < 8 or height < 4:
        raise ValueError("plot area too small")

    def transform(vals: Sequence[float], log: bool) -> List[float]:
        out = []
        for v in vals:
            v = float(v)
            if log:
                if v <= 0:
                    raise ValueError("log axis requires positive values")
                out.append(math.log10(v))
            else:
                out.append(v)
        return out

    tx = transform(x, logx)
    ty = transform(y, logy)
    x_lo, x_hi = min(tx), max(tx)
    y_lo, y_hi = min(ty), max(ty)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for px, py in zip(tx, ty):
        col = int((px - x_lo) / x_span * (width - 1))
        row = int((py - y_lo) / y_span * (height - 1))
        grid[height - 1 - row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    y_hi_label = f"{(10 ** y_hi if logy else y_hi):.3g}"
    y_lo_label = f"{(10 ** y_lo if logy else y_lo):.3g}"
    for i, row_chars in enumerate(grid):
        prefix = y_hi_label if i == 0 else (y_lo_label if i == height - 1 else "")
        lines.append(f"{prefix:>10s} |" + "".join(row_chars))
    lines.append(" " * 11 + "+" + "-" * width)
    x_lo_label = f"{(10 ** x_lo if logx else x_lo):.3g}"
    x_hi_label = f"{(10 ** x_hi if logx else x_hi):.3g}"
    lines.append(" " * 12 + x_lo_label + " " * max(1, width - len(x_lo_label) - len(x_hi_label)) + x_hi_label)
    return "\n".join(lines)


def loglog_slope_annotation(x: Sequence[float], y: Sequence[float]) -> str:
    """One-line annotation of the log-log slope between the first and last points.

    This is the quick "what exponent am I looking at" readout printed under
    scaling charts; use :func:`repro.simulation.stats.fit_power_law` for the
    proper least-squares fit.
    """
    if len(x) < 2 or len(y) < 2:
        raise ValueError("need at least two points")
    x0, x1 = float(x[0]), float(x[-1])
    y0, y1 = float(y[0]), float(y[-1])
    if min(x0, x1, y0, y1) <= 0:
        raise ValueError("log-log slope requires positive endpoints")
    slope = (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0))
    return f"log-log slope (first->last): {slope:.2f}"
