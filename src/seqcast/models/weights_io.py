"""Plain-text weight files.

Layout:
    line 1   magic "SEQCAST-W v2"
    line 2   model kind, then key=value for each of its arch_keys and lookback
    then     one block per array in ``named_arrays`` order: a "name rows cols"
             line, then rows*cols decimal floats (17 significant digits), one
             per line; the last block, "scaler 2 0", holds the training
             scaler's min and max

A vector of length n is written with cols=0 so its shape survives the
round trip; 17 significant digits make every float64 value bit-exact. Only
float64 weights are written, and loading always gives float64 back.
Loading walks this layout in order: header values are positive ints, dims
ones ``ModelConfig`` accepts, array values finite, each block line the one
``save_weights`` writes, nothing after the scaler, which needs max > min. An
error names the line and what it expected. Any other magic line, v1
included, means retrain. LF newlines make identical weights identical bytes.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

import numpy as np

from ..data import Scaler, read_text
from . import ModelConfig
from .params import Params

MAGIC = "SEQCAST-W v2"


class WeightsFormatError(ValueError):
    pass


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
    """Write params, lookback and scaler to path; only float64 weights, never a training copy.

    The file is written under a temporary name in path's directory and then
    renamed over path, so path holds either its old bytes or all the new
    ones. If the write fails, the temporary file is removed.
    """
    named = params.named_arrays()
    for _, arr in named:
        if arr.dtype != np.float64:
            raise ValueError(f"weights must be float64 to be saved, got {arr.dtype}")
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as out:
            dims = [f"{k}={v}" for k, v in {**params.dims, "lookback": lookback}.items()]
            out.write(f"{MAGIC}\n{' '.join([params.kind, *dims])}\n")
            for name, arr in [*named, ("scaler", np.array([scaler.min, scaler.max]))]:
                values = tuple(arr.ravel().tolist())
                out.write(f"{_block_line(name, arr.shape)}\n" + ("%.17g\n" * len(values)) % values)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_weights(path: str | Path, expect_kind: str):
    """Read a weights file of kind expect_kind back into a Params.

    Returns (params, (lookback, scaler)). A file of another kind is an error
    up front, before any arrays are parsed; an expect_kind that ModelConfig
    does not know raises its ValueError. A block becomes an array only from
    the values the file holds, so a header that states more than the file
    has costs no memory; the parameter vector is built at the end.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0] != MAGIC:
        found = lines[0] if lines else ""
        raise WeightsFormatError(f"bad magic line {found!r}, expected {MAGIC!r}: retrain the model")
    tokens = lines[1].split() if len(lines) > 1 else []
    kind = tokens[0] if tokens else ""
    if kind != expect_kind:
        raise _expected(2, f"model kind {expect_kind}", kind or None)
    keys = (*dict(ModelConfig(kind).dims), "lookback")
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
        cfg = ModelConfig(kind, **dims)
    except ValueError as exc:
        raise WeightsFormatError(f"line 2: {exc}") from None
    pos, blocks = 2, []
    for name, shape in [*cfg.shapes().items(), ("scaler", (2,))]:
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
    return Params(cfg, np.concatenate(blocks)), (lookback, scaler)
