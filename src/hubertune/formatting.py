"""CSV/number formatting shared by the reporting surfaces.

Floats are written with repr(), the shortest representation that parses
back the identical double; the decimal separator is always a period. None
(the square loss's huber_scale, say) is an empty field.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


def format_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        return repr(v)
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def write_csv(path, header: Optional[Sequence[str]], rows: Iterable[Sequence]) -> None:
    lines = [] if header is None else [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
