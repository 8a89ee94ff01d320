"""Serialization helpers shared by the report types and the CLI.

All file writes are atomic (temp file in the target directory, then
rename) and all floats are emitted with 17 significant digits so that
runs are byte-reproducible.
"""
from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Iterable, Optional, Sequence

import numpy as np

FLOAT_FMT = "%.17g"


def fmt_float(x) -> str:
    return FLOAT_FMT % float(x)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def to_json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def to_csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with '.' decimal separator and '\\n' line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Report:
    """Base of the report dataclasses.

    to_json serializes every dataclass field not named in _skip, plus the
    entries of _extras(), and writes the text atomically when given a path.
    """

    _skip = ()

    def _extras(self) -> dict:
        return {}

    def to_json(self, path: Optional[str] = None) -> str:
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in self._skip
        }
        text = to_json_text({**payload, **self._extras()})
        if path is not None:
            atomic_write_text(path, text)
        return text
