"""Deterministic JSON/CSV writers: every float printed with 17 significant
digits so identical runs produce byte-identical artifacts."""

from __future__ import annotations

import functools
import json

import numpy as np


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _encode(obj, level: int) -> str:
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {_encode(v, level + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """obj as JSON with a two-space indent and sorted keys."""
    return _encode(obj, 0) + "\n"


@functools.cache
def _row_format(types: tuple) -> str:
    """The %-format of a CSV row whose cells have these types."""
    return ",".join("%.17g" if issubclass(t, (float, np.floating)) else "%s"
                    for t in types) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    """header and rows as CSV, a float cell as fmt prints it and any other
    cell as str prints it.

    Each row is one %-format, built once per tuple of cell types:
    "%.17g" % x and fmt(x) both print float(x), and "%s" prints str(v).
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            fh.write(_row_format(tuple(map(type, row))) % row)
