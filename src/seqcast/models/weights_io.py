"""Plain-text weight files.

Layout:
    line 1   magic "SEQCAST-W v1"
    line 2   model kind plus its dimensions as key=value tokens
    then     one block per array: "name rows cols" header, followed by
             rows*cols decimal floats (17 significant digits), one per line

A vector of length n is written with cols=0 so its shape survives the
round trip; 17 significant digits make every float64 value bit-exact.
Files always use LF newlines so identical weights produce identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MAGIC = "SEQCAST-W v1"


class WeightsFormatError(ValueError):
    pass


def save_weights(path: str | Path, params) -> None:
    from . import REGISTRY, kind_of

    kind = kind_of(params)
    dims = REGISTRY[kind].dims(params)
    lines = [MAGIC, " ".join([kind, *(f"{k}={v}" for k, v in dims.items()), "input=1"])]
    for name, arr in params.named_arrays():
        if arr.ndim == 1:
            lines.append(f"{name} {arr.shape[0]} 0")
        else:
            lines.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
        lines.extend(f"{v:.17g}" for v in arr.ravel())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _parse_header(line: str) -> tuple[str, dict[str, int]]:
    tokens = line.split()
    if not tokens:
        raise WeightsFormatError("empty model header line")
    kind, dims = tokens[0], {}
    for tok in tokens[1:]:
        key, _, value = tok.partition("=")
        try:
            dims[key] = int(value)
        except ValueError:
            raise WeightsFormatError(f"bad dimension token {tok!r} in model header") from None
    return kind, dims


def load_weights(path: str | Path, expect_kind: str | None = None):
    """Read a weights file back into a params object.

    Returns (params, kind). expect_kind turns a kind mismatch into an error
    up front, before any arrays are parsed.
    """
    from . import REGISTRY

    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        found = lines[0] if lines else ""
        raise WeightsFormatError(f"bad magic line {found!r}, expected {MAGIC!r}")
    if len(lines) < 2:
        raise WeightsFormatError("file ends before the model header line")
    kind, dims = _parse_header(lines[1])
    if kind not in REGISTRY:
        raise WeightsFormatError(f"unknown model kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise WeightsFormatError(f"file holds {kind} weights, expected {expect_kind}")
    entry = REGISTRY[kind]
    missing = [key for key in entry.arch_keys if key not in dims]
    if missing:
        raise WeightsFormatError(f"{kind} model header lacks {', '.join(missing)}")
    stated = {key: dims[key] for key in entry.arch_keys}

    arrays: dict[str, np.ndarray] = {}
    pos = 2
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        header = lines[pos].split()
        if len(header) != 3:
            raise WeightsFormatError(f"line {pos + 1}: expected 'name rows cols', got {lines[pos]!r}")
        name = header[0]
        try:
            rows, cols = int(header[1]), int(header[2])
        except ValueError:
            raise WeightsFormatError(f"line {pos + 1}: non-integer shape in {lines[pos]!r}") from None
        count = rows * max(cols, 1)
        chunk = lines[pos + 1 : pos + 1 + count]
        if len(chunk) < count:
            raise WeightsFormatError(f"block {name!r}: file truncated, {len(chunk)} of {count} values")
        try:
            flat = np.array([float(v) for v in chunk], dtype=np.float64)
        except ValueError:
            raise WeightsFormatError(f"block {name!r}: non-numeric value") from None
        arrays[name] = flat if cols == 0 else flat.reshape(rows, cols)
        pos += 1 + count

    try:
        params = entry.params_class.from_arrays(arrays, **stated)
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightsFormatError(f"missing or extra blocks for {kind}: {exc}") from None
    for key, actual in entry.dims(params).items():
        if stated[key] != actual:
            raise WeightsFormatError(f"header says {key}={stated[key]}, arrays say {actual}")
    return params, kind
