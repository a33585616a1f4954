"""Deterministic report rendering: identical inputs give identical bytes.

Floats are emitted at 17 significant digits (full round-trip fidelity),
keys sorted, no timestamps.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["to_jsonable", "render_json", "render_text", "file_sha256"]

INDENT = 2  # spaces per nesting level of render_json


def to_jsonable(obj):
    """Recursively convert containers, numpy and dataclass-ish values."""
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _render(obj, out, level):
    pad = " " * (INDENT * level)
    pad_in = " " * (INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for k, key in enumerate(keys):
            out.append(pad_in)
            out.append(_render_str(str(key)))
            out.append(": ")
            _render(obj[key], out, level + 1)
            out.append(",\n" if k < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, v in enumerate(obj):
            out.append(pad_in)
            _render(v, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(_render_str(obj))
    else:
        out.append(_render_str(str(obj)))


def _render_str(s: str) -> str:
    escaped = (
        s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        .replace("\r", "\\r").replace("\t", "\\t")
    )
    return f'"{escaped}"'


def render_json(obj) -> str:
    out: list[str] = []
    _render(to_jsonable(obj), out, 0)
    out.append("\n")
    return "".join(out)


def render_text(obj) -> str:
    """Flat `path = value` lines, sorted, for human eyes."""
    lines: list[str] = []

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{path}.{k}" if path else str(k))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            if isinstance(node, float):
                value = _fmt_float(node)
            elif isinstance(node, bool):
                value = "true" if node else "false"
            elif node is None:
                value = "null"
            else:
                value = str(node)
            lines.append(f"{path} = {value}")

    walk(to_jsonable(obj), "")
    return "\n".join(lines) + "\n"


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
