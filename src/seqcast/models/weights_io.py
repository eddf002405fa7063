"""Plain-text weight files.

Layout:
    line 1   magic "SEQCAST-W v2"
    line 2   model kind, then key=value for each of its arch_keys and lookback
    then     one block per array in ``named_arrays`` order: a "name rows cols"
             line, then rows*cols decimal floats (17 significant digits), one
             per line; the last block, "scaler 2 0", holds the training
             scaler's min and max

A vector of length n is written with cols=0 so its shape survives the
round trip; 17 significant digits make every float64 value bit-exact.
Loading walks this layout in order: each value is a positive integer or a
finite float, each block line is the one ``save_weights`` writes for that
array, nothing follows the scaler and it needs max > min. An error names
the line and the key or block expected there. Any other magic line, v1
included, means retrain. LF newlines make identical weights identical bytes.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from ..data import Scaler
from .params import Params

MAGIC = "SEQCAST-W v2"


class WeightsFormatError(ValueError):
    pass


def _dims_text(kind: str, dims: dict[str, int]) -> str:
    return " ".join([kind, *(f"{k}={v}" for k, v in dims.items())])


def _block_line(name: str, shape: tuple[int, ...]) -> str:
    return f"{name} {shape[0]} {shape[1] if len(shape) == 2 else 0}"


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return np.nan


def _expected(line: int, what: str, found: str | None) -> WeightsFormatError:
    got = "the end" if found is None else repr(found)
    return WeightsFormatError(f"line {line}: expected {what}, got {got}")


def save_weights(path: str | Path, params: Params, lookback: int, scaler: Scaler) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(f"{MAGIC}\n{_dims_text(params.kind, {**params.dims, 'lookback': lookback})}\n")
        for name, arr in [*params.named_arrays(), ("scaler", np.array([scaler.min, scaler.max]))]:
            out.write(f"{_block_line(name, arr.shape)}\n")
            out.write("".join(f"{v:.17g}\n" for v in arr.ravel()))


def load_weights(path: str | Path, expect_kind: str):
    """Read a weights file of kind expect_kind back into a Params.

    Returns (params, (lookback, scaler)). A file of another kind is an error
    up front, before any arrays are parsed. A block becomes an array only
    from the values the file holds, so a header that states more than the
    file has costs no memory; the parameter vector is built at the end.
    """
    from . import REGISTRY

    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != MAGIC:
        found = lines[0] if lines else ""
        raise WeightsFormatError(f"bad magic line {found!r}, expected {MAGIC!r}: retrain the model")
    tokens = lines[1].split() if len(lines) > 1 else []
    kind = tokens[0] if tokens else ""
    if kind != expect_kind:
        raise _expected(2, f"model kind {expect_kind}", kind or None)
    keys = (*REGISTRY[kind].arch_keys, "lookback")
    dims = {}
    for at, key in enumerate(keys, start=1):
        token = tokens[at] if at < len(tokens) else None
        if not re.fullmatch(rf"{key}=[1-9][0-9]*", token or ""):
            raise _expected(2, f"{key}=<positive int>", token)
        dims[key] = int(token.partition("=")[2])
    if len(tokens) > len(keys) + 1:
        raise _expected(2, "the end of the line after lookback", tokens[len(keys) + 1])
    lookback = dims.pop("lookback")
    try:
        shapes = REGISTRY[kind].shapes(dims)
    except ValueError as exc:
        raise WeightsFormatError(f"line 2: {exc}") from None
    pos, blocks = 2, []
    for name, shape in [*shapes.items(), ("scaler", (2,))]:
        block, size = _block_line(name, shape), math.prod(shape)
        found = lines[pos] if pos < len(lines) else None
        if found != block:
            raise _expected(pos + 1, f"block {block!r} of header {lines[1]}", found)
        values = lines[pos + 1 : pos + 1 + size]
        try:
            arr = np.fromiter(map(float, values), np.float64, len(values))
        except ValueError:  # mark what is not a number for the check below
            arr = np.fromiter(map(_float, values), np.float64, len(values))
        bad = np.flatnonzero(~np.isfinite(arr))
        at = int(bad[0]) if bad.size else len(values)
        if at < size:
            found = values[at] if at < len(values) else None  # None: past the end of the file
            raise _expected(pos + 2 + at, f"a finite value in block {name!r}", found)
        blocks.append(arr)
        pos += 1 + size
    if pos < len(lines):
        raise _expected(pos + 1, "the end of the file after block 'scaler'", lines[pos])
    try:
        scaler = Scaler(*blocks.pop().tolist())
    except ValueError as exc:
        raise WeightsFormatError(f"line {pos - 2}: block 'scaler': {exc}") from None
    return Params(kind, dims, np.concatenate(blocks)), (lookback, scaler)
