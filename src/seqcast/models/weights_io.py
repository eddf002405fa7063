"""Weight files: a trained model, what its forecast needs and where it came from.

Layout of format v3, ASCII with LF newlines:
    line 1   magic "SEQCAST-W v3"
    line 2   the model kind, key=value for each of its arch_keys and
             lookback, then transform=minmax and horizon=1
    line 3   "dataset " and, as JSON, the ``data.fingerprint`` of the rows
             the model trained on: the series less its held-out span
    line 4   "training " and, as JSON, the run's horizon and val_frac, which
             with lookback cut the training windows, and the kind's train echo
    then     one block per array in ``named_arrays`` order: a "name rows cols"
             line, then one line holding the base64 of the array's
             little-endian float64 bytes; the last block, "scaler 2 0",
             holds the training scaler's min and max
    last     "sha256 " and the hex SHA-256 of every byte before that line

Line 2 is the model echo of a report. transform=minmax says the model reads
min-max scaled closes and horizon=1 that one forward pass predicts one step;
a file that states another value is refused. The training line's horizon is
the run's held-out span, not the model's. A vector of length n is written
with cols=0 so its shape survives the round trip. Values are stored as their
own bytes, so every float64 round-trips bit-exactly; only float64 weights
are written, and loading always gives float64 back.

Loading checks, in order: the magic line, where any other, v1 and v2
included, means retrain; the digest, where a mismatch names both digests;
then the layout walk: header values are positive ints, dims ones
``ModelConfig`` accepts, the dataset and training lines JSON objects of
their keys, each block line the one ``save_weights`` writes, followed by
the base64 of exactly its values, all finite, and nothing after the scaler,
which needs max > min. An error names the line and what it expected.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data import Scaler
from . import ModelConfig
from .params import Params

MAGIC = "SEQCAST-W v3"
# How the model reads its input: the only values a file may state today.
FIXED = ("transform=minmax", "horizon=1")
# Each provenance line's keys, in order, and the JSON type of each value.
DATASET = {"n_rows": int, "start_date": str, "end_date": str, "sha256": str}
TRAINING = {"horizon": int, "val_frac": float, "train": dict}


class WeightsFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Recipe:
    """What a weight file states besides the arrays.

    lookback and scaler are what a forecast feeds the model with: the
    window width and the training scaler. dataset and training are the
    provenance lines, keyed as DATASET and TRAINING.
    """

    lookback: int
    scaler: Scaler
    dataset: dict
    training: dict


def _block_line(name: str, shape: tuple[int, ...]) -> str:
    return f"{name} {shape[0]} {shape[1] if len(shape) == 2 else 0}"


def _shown(found: str | None) -> str:
    """found quoted for an error, cut to 80 characters; None stands for the end of the file."""
    return "the end" if found is None else repr(found if len(found) <= 80 else found[:77] + "...")


def _expected(line: int, what: str, found: str | None, got: str = "") -> WeightsFormatError:
    """The error for a line that does not hold what: it names found, or got if given."""
    return WeightsFormatError(f"line {line}: expected {what}, got {got or _shown(found)}")


def _header(params: Params, recipe: Recipe) -> str:
    dims = [f"{k}={v}" for k, v in {**params.dims, "lookback": recipe.lookback}.items()]
    lines = [
        MAGIC,
        " ".join([params.kind, *dims, *FIXED]),
        f"dataset {json.dumps(recipe.dataset, allow_nan=False)}",
        f"training {json.dumps(recipe.training, allow_nan=False)}",
    ]
    return "\n".join(lines) + "\n"


def save_weights(path: str | Path, params: Params, recipe: Recipe) -> None:
    """Write params and recipe to path; only float64 weights, never a training copy.

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
    scaler = np.array([recipe.scaler.min, recipe.scaler.max])
    try:
        with open(partial, "wb") as out:
            chunks = [_header(params, recipe).encode()]
            for name, arr in [*named, ("scaler", scaler)]:
                values = base64.b64encode(arr.astype("<f8", copy=False).tobytes())
                chunks += [f"{_block_line(name, arr.shape)}\n".encode(), values, b"\n"]
            body = b"".join(chunks)
            out.write(body + f"sha256 {hashlib.sha256(body).hexdigest()}\n".encode())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _provenance(lines: list[str], pos: int, tag: str, schema: dict) -> dict:
    """Line pos + 1 as tag, a space and a JSON object of schema's keys, in order and typed."""
    found = lines[pos] if pos < len(lines) else None
    name, _, payload = (found or "").partition(" ")
    try:  # the JSON save_weights writes: parsed and dumped again, the same text
        value = json.loads(payload) if name == tag else None
        written = json.dumps(value, allow_nan=False) == payload
    except (ValueError, RecursionError):  # RecursionError: JSON nested too deep to parse
        value, written = None, False
    if not (written and isinstance(value, dict) and list(value) == list(schema)
            and all(type(value[key]) is kast for key, kast in schema.items())):
        what = f"{tag} and a JSON object of {', '.join(schema)}"
        raise _expected(pos + 1, what, found)
    return value


def load_weights(path: str | Path, expect_kind: str):
    """Read a weights file of kind expect_kind back into a Params.

    Returns (params, recipe). A file of another kind is an error up front,
    before any arrays are decoded; an expect_kind that ModelConfig does not
    know raises its ValueError. A block becomes an array only once its line
    holds exactly the bytes its block line states, so a header that states
    more than the file has costs no memory.
    """
    raw = Path(path).read_bytes()
    first = raw.partition(b"\n")[0]
    if first != MAGIC.encode():
        found = _shown(first.decode("utf-8", "backslashreplace"))
        raise WeightsFormatError(f"bad magic line {found}, expected {MAGIC!r}: retrain the model")
    start = raw.rfind(b"\n", 0, len(raw) - 1) + 1  # where the last line begins
    body, last = raw[:start], raw[start:]
    at = body.count(b"\n") + 1
    stated = re.fullmatch(rb"sha256 ([0-9a-f]{64})\n", last)
    if stated is None:
        raise _expected(at, "'sha256 <64 hex digits>' as the last line",
                        last.decode("utf-8", "backslashreplace"))
    actual = hashlib.sha256(body).hexdigest()
    if actual != stated[1].decode():
        raise WeightsFormatError(
            f"line {at}: the file states sha256 {stated[1].decode()}, but the lines before "
            f"it hash to {actual}: it changed after it was written"
        )
    try:
        lines = body.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        message = f"{path}: not UTF-8 text, {exc.reason} at byte {exc.start}"
        raise WeightsFormatError(message) from None

    tokens = lines[1].split() if len(lines) > 1 else []
    kind = tokens[0] if tokens else ""
    if kind != expect_kind:
        raise _expected(2, f"model kind {expect_kind}", kind or None)
    keys = (*dict(ModelConfig(kind).dims), "lookback")
    walk = [(f"{key}=<positive int>", rf"{key}=[1-9][0-9]*") for key in keys]
    walk += [(token, re.escape(token)) for token in FIXED]
    for at, (what, pattern) in enumerate(walk, start=1):
        token = tokens[at] if at < len(tokens) else None
        if not re.fullmatch(pattern, token or ""):
            raise _expected(2, what, token)
    if len(tokens) > len(walk) + 1:
        raise _expected(2, f"the end of the line after {FIXED[-1]}", tokens[len(walk) + 1])
    dims = {key: int(tokens[at].partition("=")[2]) for at, key in enumerate(keys, start=1)}
    lookback = dims.pop("lookback")
    try:
        cfg = ModelConfig(kind, **dims)
    except ValueError as exc:
        raise WeightsFormatError(f"line 2: {exc}") from None
    dataset = _provenance(lines, 2, "dataset", DATASET)
    training = _provenance(lines, 3, "training", TRAINING)

    pos, blocks = 4, []
    for name, shape in [*cfg.shapes().items(), ("scaler", (2,))]:
        block, size = _block_line(name, shape), math.prod(shape)
        found = lines[pos] if pos < len(lines) else None
        if found != block:
            raise _expected(pos + 1, f"block {block!r} of header {lines[1]}", found)
        encoded = lines[pos + 1] if pos + 1 < len(lines) else None
        try:
            data = base64.b64decode(encoded, validate=True) if encoded is not None else None
        except ValueError:  # binascii.Error, or a character outside ASCII
            data = None
        if data is None or len(data) != 8 * size:
            got = "" if data is None else f"{len(data)} bytes"
            raise _expected(pos + 2, f"the base64 of {size} float64 values in block {name!r}",
                            encoded, got)
        arr = np.frombuffer(data, "<f8")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            got = f"{arr[bad[0]]} as value {bad[0]}"
            raise _expected(pos + 2, f"finite values in block {name!r}", encoded, got)
        blocks.append(arr)
        pos += 2
    if pos < len(lines):
        raise _expected(pos + 1, "the sha256 line after block 'scaler'", lines[pos])
    try:
        scaler = Scaler(*blocks.pop().tolist())
    except ValueError as exc:
        raise WeightsFormatError(f"line {pos}: block 'scaler': {exc}") from None
    params = Params(cfg, np.concatenate(blocks, dtype=np.float64))
    return params, Recipe(lookback, scaler, dataset, training)
