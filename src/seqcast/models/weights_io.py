"""Plain-text weight files.

Layout:
    line 1   magic "SEQCAST-W v2"
    line 2   model kind, its dimensions and lookback=L as key=value tokens
    then     one block per array: "name rows cols" header, followed by
             rows*cols decimal floats (17 significant digits), one per line;
             the last block, "scaler 2 0", holds the training scaler's min, max

A vector of length n is written with cols=0 so its shape survives the
round trip; 17 significant digits make every float64 value bit-exact.
Blocks follow the kind's layout order. On load the header's dims fix the
layout, and every block is checked against it by name and shape. The header
must state each dim and the lookback once, every value must be finite and
the scaler needs max > min. Any other magic line, v1 included, means retrain.
Files always use LF newlines so identical weights produce identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..data import Scaler
from .params import Params

MAGIC = "SEQCAST-W v2"


class WeightsFormatError(ValueError):
    pass


def _dims_text(kind: str, dims: dict[str, int]) -> str:
    return " ".join([kind, *(f"{k}={v}" for k, v in dims.items())])


def save_weights(path: str | Path, params: Params, lookback: int, scaler: Scaler) -> None:
    lines = [MAGIC, _dims_text(params.kind, {**params.dims, "lookback": lookback})]
    for name, arr in [*params.named_arrays(), ("scaler", np.array([scaler.min, scaler.max]))]:
        lines.append(f"{name} {arr.shape[0]} {arr.shape[1] if arr.ndim == 2 else 0}")
        lines.extend(f"{v:.17g}" for v in arr.ravel())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _parse_header(line: str) -> tuple[str, dict[str, int]]:
    tokens = line.split()
    if not tokens:
        raise WeightsFormatError("empty model header line")
    kind, dims = tokens[0], {}
    for tok in tokens[1:]:
        key, _, value = tok.partition("=")
        if key in dims:
            raise WeightsFormatError(f"model header states {key} twice")
        try:
            dims[key] = int(value)
        except ValueError:
            raise WeightsFormatError(f"bad dimension token {tok!r} in model header") from None
    return kind, dims


def load_weights(path: str | Path, expect_kind: str | None = None):
    """Read a weights file back into a Params.

    Returns (params, (lookback, scaler)). expect_kind turns a kind mismatch
    into an error up front, before any arrays are parsed.
    """
    from . import REGISTRY

    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != MAGIC:
        found = lines[0] if lines else ""
        raise WeightsFormatError(f"bad magic line {found!r}, expected {MAGIC!r}: retrain the model")
    if len(lines) < 2:
        raise WeightsFormatError("file ends before the model header line")
    kind, dims = _parse_header(lines[1])
    if kind not in REGISTRY:
        raise WeightsFormatError(f"unknown model kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise WeightsFormatError(f"file holds {kind} weights, expected {expect_kind}")
    entry = REGISTRY[kind]
    keys = (*entry.arch_keys, "lookback")
    unknown = [key for key in dims if key not in keys]
    if unknown:
        raise WeightsFormatError(f"{kind} model header has unknown key {unknown[0]!r}")
    missing = [key for key in keys if key not in dims]
    if missing:
        raise WeightsFormatError(f"{kind} model header lacks {', '.join(missing)}")
    if dims["lookback"] < 1:
        raise WeightsFormatError(f"model header lookback={dims['lookback']}: must be >= 1")
    header = _dims_text(kind, {key: dims[key] for key in entry.arch_keys})
    try:
        params = Params(kind, dims)
    except ValueError as exc:
        raise WeightsFormatError(f"header {header}: {exc}") from None
    views = dict([*params.named_arrays(), ("scaler", np.empty(2))])
    seen: set[str] = set()
    pos = 2
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        fields = lines[pos].split()
        if len(fields) != 3:
            raise WeightsFormatError(f"line {pos + 1}: expected 'name rows cols', got {lines[pos]!r}")
        name = fields[0]
        try:
            rows, cols = int(fields[1]), int(fields[2])
        except ValueError:
            raise WeightsFormatError(f"line {pos + 1}: non-integer shape in {lines[pos]!r}") from None
        if name not in views:
            raise WeightsFormatError(f"block {name!r} is not in the layout of header {header}")
        if name in seen:
            raise WeightsFormatError(f"block {name!r} appears twice")
        shape = (rows,) if cols == 0 else (rows, cols)
        if shape != views[name].shape:
            raise WeightsFormatError(
                f"block {name!r} has shape {shape}, header {header} implies {views[name].shape}"
            )
        count = views[name].size
        chunk = lines[pos + 1 : pos + 1 + count]
        if len(chunk) < count:
            raise WeightsFormatError(f"block {name!r}: file truncated, {len(chunk)} of {count} values")
        try:
            views[name].flat = [float(v) for v in chunk]
        except ValueError:
            raise WeightsFormatError(f"block {name!r}: non-numeric value") from None
        if not np.isfinite(views[name]).all():
            raise WeightsFormatError(f"block {name!r}: non-finite value")
        seen.add(name)
        pos += 1 + count

    absent = [name for name in views if name not in seen]
    if absent:
        raise WeightsFormatError(
            f"header {header} needs blocks the file lacks: {', '.join(absent)}"
        )
    try:
        scaler = Scaler(*views["scaler"].tolist())
    except ValueError as exc:
        raise WeightsFormatError(f"block 'scaler': {exc}") from None
    return params, (dims["lookback"], scaler)
