import base64
import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqcast.data import Scaler
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, Params, init_params
from seqcast.models import weights_io
from seqcast.models.weights_io import (
    MAGIC,
    Recipe,
    WeightsFormatError,
    load_weights,
    save_weights,
)

# The recipe saved with every test model: lookback, training scaler and provenance.
RECIPE = Recipe(
    12,
    Scaler(0.5, 2.5),
    {"n_rows": 370, "start_date": "2015-01-02", "end_date": "2016-06-02", "sha256": "ab" * 32},
    {"horizon": 30, "val_frac": 0.1, "train": {"learning_rate": 0.001, "max_epochs": 2, "seed": 1}},
)
FIXED = "transform=minmax horizon=1"


def build(kind, seed=0):
    dims = (
        dict(d_model=8, n_heads=2, n_layers=2, d_ff=16) if kind == "transformer" else dict(hidden=5)
    )
    cfg = ModelConfig(kind=kind, **dims)
    return init_params(cfg, np.random.default_rng(seed))


def body(path) -> str:
    """A saved file's text before its sha256 line."""
    text = path.read_text()
    return text[: text.rindex("\nsha256 ") + 1]


def reseal(path, text: str | bytes) -> None:
    """Write text to path and end it with its own sha256 line, as save_weights does."""
    data = text.encode() if isinstance(text, str) else text
    path.write_bytes(data + f"sha256 {hashlib.sha256(data).hexdigest()}\n".encode())


def b64(values) -> str:
    """The base64 of values as little-endian float64, packed without NumPy."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


def small_dims(kind):
    if kind != "transformer":
        return st.fixed_dictionaries({"hidden": st.integers(1, 6)})
    return st.builds(
        lambda heads, width, layers, d_ff: {
            "d_model": heads * width, "n_heads": heads, "n_layers": layers, "d_ff": d_ff,
        },
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 6),
    )


# Any finite float, with subnormals and +-1e300 drawn often.
bounds = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.0]),
)
scalers = st.lists(bounds, min_size=2, max_size=2, unique=True).map(lambda v: Scaler(*sorted(v)))


def bits(scaler):
    return np.array([scaler.min, scaler.max]).tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_round_trip_is_bit_exact(tmp_path, kind, data):
    dims = data.draw(small_dims(kind))
    lookback, scaler = data.draw(st.integers(1, 500)), data.draw(scalers)
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    params = init_params(ModelConfig(kind=kind, **dims), rng)
    named = params.named_arrays()
    # the views tile theta in layout order
    assert all(np.shares_memory(view, params.theta) for _, view in named)
    assert sum(view.size for _, view in named) == params.theta.size
    assert np.concatenate([view.ravel() for _, view in named]).tobytes() == params.theta.tobytes()

    path = tmp_path / "w.txt"
    save_weights(path, params, dataclasses.replace(RECIPE, lookback=lookback, scaler=scaler))
    lines = path.read_text().splitlines()
    blocks = [line.split()[0] for line in lines[4:-1:2]]
    assert blocks == [name for name, _ in named] + ["scaler"]
    loaded, recipe = load_weights(path, kind)
    assert loaded.kind == kind
    assert loaded.dims == params.dims
    assert loaded.theta.tobytes() == params.theta.tobytes()
    assert recipe.lookback == lookback
    assert bits(recipe.scaler) == bits(scaler)
    assert (recipe.dataset, recipe.training) == (RECIPE.dataset, RECIPE.training)


def split_file(text):
    """The four header lines, then each block as its block line and its values line."""
    lines = text.splitlines()
    return lines[:4], [lines[pos : pos + 2] for pos in range(4, len(lines), 2)]


def edit_blocks(data, blocks):
    """One edit to the block sequence, drawn by hypothesis."""
    edit = data.draw(st.sampled_from(["swap", "drop", "duplicate", "blank", "trailing"]))
    i = data.draw(st.integers(0, len(blocks) - 2 if edit in ("swap", "blank") else len(blocks) - 1))
    if edit == "swap":
        blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
    elif edit == "drop":
        del blocks[i]
    elif edit == "duplicate":
        blocks.insert(i, list(blocks[i]))
    elif edit == "blank":
        blocks[i] = blocks[i] + [""]
    else:
        blocks.append([data.draw(st.sampled_from(["", b64([0.5]), "scaler 2 0", blocks[i][0]]))])
    return edit


def edit_header(data, tokens):
    """One edit to the header's key=value tokens (tokens[0] is the kind), drawn by hypothesis."""
    edit = data.draw(st.sampled_from(["missing", "repeated", "out-of-order", "unknown", "non-integer"]))
    j = data.draw(st.integers(1, len(tokens) - (2 if edit == "out-of-order" else 1)))
    if edit == "missing":
        del tokens[j]
    elif edit == "repeated":
        tokens.insert(j, tokens[j])
    elif edit == "out-of-order":
        tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    elif edit == "unknown":
        tokens.insert(j, data.draw(st.sampled_from(["bogus=3", "input=1", "d_model=8"])))
    else:
        key = tokens[j].partition("=")[0]
        tokens[j] = f"{key}={data.draw(st.sampled_from(['', 'x', '1.5', '2e3', '0x10']))}"
    return edit


def edit_provenance(data, line):
    """One edit to a dataset or training line, drawn by hypothesis."""
    tag, _, payload = line.partition(" ")
    value = json.loads(payload)
    keys = list(value)
    edit = data.draw(st.sampled_from(["tag", "drop", "add", "swap", "retype", "spaced", "blank"]))
    if edit == "tag":
        return edit, f"{tag}s {payload}"
    if edit == "drop":
        del value[keys[-1]]
    elif edit == "add":
        value["extra"] = 1
    elif edit == "swap":
        value = {keys[1]: value[keys[1]], keys[0]: value[keys[0]], **value}
    elif edit == "retype":
        value[keys[0]] = [value[keys[0]]]
    elif edit == "spaced":
        return edit, f"{tag} {json.dumps(value, indent=1)}".replace("\n", "")
    else:
        return edit, ""
    return edit, f"{tag} {json.dumps(value)}"


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_step_off_the_layout_walk_is_named(tmp_path, kind, data):
    # Each edit is resealed with its own digest, so the layout walk meets it.
    cfg = ModelConfig(kind=kind, **data.draw(small_dims(kind)))
    params = init_params(cfg, np.random.default_rng(0))
    path = tmp_path / "w.txt"
    save_weights(path, params, RECIPE)
    clean = path.read_bytes()
    loaded, recipe = load_weights(path, kind)
    save_weights(path, loaded, recipe)
    assert path.read_bytes() == clean

    header, blocks = split_file(body(path))
    part = data.draw(st.sampled_from(["blocks", "header", "provenance"]))
    if part == "blocks":
        edit = edit_blocks(data, blocks)
        named = r"block '\S+ \d+ \d+'|the sha256 line after block 'scaler'"
    elif part == "header":
        tokens = header[1].split()
        edit = edit_header(data, tokens)
        header[1] = " ".join(tokens)
        named = r"\w+=<positive int>|transform=minmax|horizon=1|the end of the line after horizon=1"
    else:
        at = data.draw(st.sampled_from([2, 3]))
        edit, header[at] = edit_provenance(data, header[at])
        named = r"(dataset|training) and a JSON object of "
    reseal(path, "\n".join(header + [line for block in blocks for line in block]) + "\n")
    with pytest.raises(WeightsFormatError) as err:
        load_weights(path, kind)
    assert re.match(rf"line \d+: expected ({named})", str(err.value)), (edit, str(err.value))


def small_file(tmp_path) -> Path:
    path = tmp_path / "w.txt"
    save_weights(path, init_params(ModelConfig("lstm", hidden=1), np.random.default_rng(0)),
                 RECIPE)
    return path


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_single_byte_edit_is_refused(tmp_path, data):
    path = small_file(tmp_path)
    clean = path.read_bytes()
    at = data.draw(st.integers(0, len(clean)), label="at")
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="edit")
    byte = data.draw(st.integers(0, 255), label="byte")
    if edit == "replace" and at < len(clean):
        byte = byte if byte != clean[at] else (byte + 1) % 256
        edited = clean[:at] + bytes([byte]) + clean[at + 1 :]
    elif edit == "delete" and at < len(clean):
        edited = clean[:at] + clean[at + 1 :]
    else:
        edited = clean[:at] + bytes([byte]) + clean[at:]
    path.write_bytes(edited)
    with pytest.raises(WeightsFormatError):
        load_weights(path, "lstm")


def test_a_changed_byte_names_both_digests(tmp_path):
    path = small_file(tmp_path)
    clean = path.read_bytes()
    at = clean.index(b"\nw_f ") + 12  # inside the first values line
    edited = clean[:at] + bytes([clean[at] ^ 1]) + clean[at + 1 :]
    path.write_bytes(edited)
    stated = clean.decode().splitlines()[-1].split()[1]
    actual = hashlib.sha256(edited[: edited.rindex(b"\nsha256 ") + 1]).hexdigest()
    with pytest.raises(WeightsFormatError) as err:
        load_weights(path, "lstm")
    assert str(err.value) == (
        f"line 27: the file states sha256 {stated}, but the lines before it hash to {actual}: "
        "it changed after it was written"
    )


@pytest.mark.parametrize(
    "last",
    ["", "sha256 " + "A" * 64 + "\n", "sha256 abc\n", "sha256 " + "a" * 64, "sha256 " + "a" * 65],
    ids=["missing", "upper-case", "short", "no-newline", "long"],
)
def test_a_missing_or_malformed_digest_line_is_named(tmp_path, last):
    path = small_file(tmp_path)
    text = body(path)
    path.write_text(text + last)
    shown = last or text.splitlines(keepends=True)[-1]  # without a digest, the scaler's values
    line = text.count("\n") + (1 if last else 0)
    message = f"line {line}: expected 'sha256 <64 hex digits>' as the last line, got {shown!r}"
    with pytest.raises(WeightsFormatError, match=f"^{re.escape(message)}$"):
        load_weights(path, "lstm")


GOLDEN = Path(__file__).parent / "data"
GOLDEN_CONFIGS = [
    ModelConfig(kind="lstm", hidden=2),
    ModelConfig(kind="gru", hidden=2),
    ModelConfig(kind="transformer", d_model=4, n_heads=2, n_layers=2, d_ff=3),
]
GOLDEN_RECIPE = dataclasses.replace(RECIPE, lookback=5)


@pytest.mark.parametrize("cfg", GOLDEN_CONFIGS, ids=lambda cfg: cfg.kind)
def test_golden_v3_file_loads_and_saves_back(tmp_path, cfg):
    # Each file was written by save_weights from init_params(cfg,
    # np.random.default_rng(0)) and GOLDEN_RECIPE. Its bytes depend only on
    # PCG64, base64 and SHA-256, so they pin the init draw order and the format.
    path = GOLDEN / "weights_v3" / f"{cfg.kind}-v3.txt"
    params, recipe = load_weights(path, expect_kind=cfg.kind)
    assert params.theta.tobytes() == init_params(cfg, np.random.default_rng(0)).theta.tobytes()
    assert recipe == GOLDEN_RECIPE
    assert bits(recipe.scaler) == bits(GOLDEN_RECIPE.scaler)
    save_weights(tmp_path / "again.txt", params, recipe)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("cfg", GOLDEN_CONFIGS, ids=lambda cfg: cfg.kind)
def test_golden_v2_file_is_refused_with_the_retrain_message(cfg):
    # Written by the format-v2 save_weights from the same parameters: one
    # %.17g value a line and no digest.
    path = GOLDEN / "weights_v2" / f"{cfg.kind}-v2.txt"
    message = "bad magic line 'SEQCAST-W v2', expected 'SEQCAST-W v3': retrain the model"
    with pytest.raises(WeightsFormatError, match=f"^{re.escape(message)}$"):
        load_weights(path, expect_kind=cfg.kind)


def test_save_twice_is_byte_identical(tmp_path):
    params = build("gru", seed=3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_weights(p1, params, RECIPE)
    save_weights(p2, params, RECIPE)
    assert p1.read_bytes() == p2.read_bytes()


# Every float64 value class the writer can meet: subnormals, both zeros and both ends.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3]
GRU_2 = ModelConfig(kind="gru", hidden=2)
GRU_2_SIZE = Params(GRU_2).theta.size


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=GRU_2_SIZE,
                       max_size=GRU_2_SIZE))
@example(values=(EDGE_VALUES * GRU_2_SIZE)[:GRU_2_SIZE])
@example(values=([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308] * 7)[:GRU_2_SIZE])
def test_values_are_written_as_one_base64_line_per_block(tmp_path, values):
    # The file built by hand: struct packs each block's values little-endian.
    params = Params(GRU_2, np.array(values, dtype=np.float64))
    path = tmp_path / "w.txt"
    save_weights(path, params, RECIPE)
    want = (
        f"{MAGIC}\ngru hidden=2 lookback=12 {FIXED}\n"
        'dataset {"n_rows": 370, "start_date": "2015-01-02", "end_date": "2016-06-02", '
        f'"sha256": "{"ab" * 32}"}}\n'
        'training {"horizon": 30, "val_frac": 0.1, '
        '"train": {"learning_rate": 0.001, "max_epochs": 2, "seed": 1}}\n'
    )
    for name, arr in [*params.named_arrays(), ("scaler", np.array([0.5, 2.5]))]:
        cols = arr.shape[1] if arr.ndim == 2 else 0
        want += f"{name} {arr.shape[0]} {cols}\n{b64(arr.ravel().tolist())}\n"
    want += f"sha256 {hashlib.sha256(want.encode()).hexdigest()}\n"
    assert path.read_bytes() == want.encode("ascii")
    loaded, _ = load_weights(path, "gru")
    assert loaded.theta.tobytes() == struct.pack(f"<{GRU_2_SIZE}d", *values)


def test_a_failed_write_keeps_the_old_file_and_leaves_no_other(tmp_path, monkeypatch):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm", seed=1), RECIPE)
    old = path.read_bytes()
    lines = []

    def fail_on_the_third_block(name, shape):
        lines.append(name)
        if len(lines) == 3:
            raise OSError("disk full")
        return f"{name} {shape[0]} {shape[1] if len(shape) == 2 else 0}"

    monkeypatch.setattr(weights_io, "_block_line", fail_on_the_third_block)
    with pytest.raises(OSError, match="disk full"):
        save_weights(path, build("lstm", seed=2), RECIPE)
    assert len(lines) == 3  # the temporary file was open when the failure came
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_only_float64_weights_are_saved(tmp_path, kind):
    # The LSTM and GRU train on a float32 working copy; that copy is no artifact.
    params = build(kind)
    copy32 = Params(params.cfg, params.theta.astype(np.float32))
    path = tmp_path / "w.txt"
    with pytest.raises(ValueError, match="weights must be float64 to be saved, got float32"):
        save_weights(path, copy32, RECIPE)
    assert not path.exists()


@pytest.mark.parametrize("cfg", GOLDEN_CONFIGS, ids=lambda cfg: cfg.kind)
def test_loaded_weights_are_float64(tmp_path, cfg):
    params, recipe = load_weights(GOLDEN / "weights_v3" / f"{cfg.kind}-v3.txt", cfg.kind)
    assert params.theta.dtype == np.float64
    save_weights(tmp_path / "w.txt", params, recipe)
    assert load_weights(tmp_path / "w.txt", expect_kind=cfg.kind)[0].theta.dtype == np.float64


def test_magic_line_and_layout(tmp_path):
    params = build("lstm")
    path = tmp_path / "w.txt"
    save_weights(path, params, RECIPE)
    lines = path.read_text().splitlines()
    assert lines[0] == "SEQCAST-W v3"
    assert lines[1] == f"lstm hidden=5 lookback=12 {FIXED}"
    assert lines[2].startswith('dataset {"n_rows": 370, ')
    assert lines[3].startswith('training {"horizon": 30, ')
    # vectors are flagged with a zero column count
    assert "b_f 5 0" in lines[4:-1:2]
    assert lines[-3:-1] == ["scaler 2 0", b64([0.5, 2.5])]
    assert lines[-1] == f"sha256 {hashlib.sha256(body(path).encode()).hexdigest()}"


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "w.txt"
    v2 = (GOLDEN / "weights_v2" / "gru-v2.txt").read_text()
    # A v1 file held the same blocks, no scaler, and input=1 where v2 states the lookback.
    v1 = v2[: v2.index("scaler 2 0")].replace("SEQCAST-W v2", "SEQCAST-W v1")
    v1 = v1.replace("lookback=5", "input=1")
    save_weights(path, build("gru"), RECIPE)
    v3_with_bom = b"\xef\xbb\xbf" + path.read_bytes()
    for data in (b"SOMETHING-ELSE v9\nlstm hidden=4\n", v1.encode(), b"", v3_with_bom):
        path.write_bytes(data)
        with pytest.raises(WeightsFormatError, match="bad magic line .*: retrain the model"):
            load_weights(path, "gru")


def test_unknown_kind_is_model_configs_error(tmp_path):
    # The header's kind goes through ModelConfig, so an unknown one is its error.
    path = tmp_path / "w.txt"
    reseal(path, f"{MAGIC}\ncnn hidden=4 lookback=5 {FIXED}\n")
    message = re.escape(f"unknown model kind 'cnn', expected one of {MODEL_KINDS}")
    with pytest.raises(ValueError, match=message):
        load_weights(path, "cnn")


@st.composite
def header_dims(draw):
    """A kind and a positive int for each of its keys; n_heads need not divide d_model."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    return kind, {key: draw(st.integers(1, 6)) for key in REGISTRY[kind].arch_keys}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=header_dims())
@example(case=("transformer", {"d_model": 5, "n_heads": 2, "n_layers": 1, "d_ff": 1}))
def test_header_refused_exactly_when_model_config_refuses(tmp_path, case):
    kind, dims = case
    path = tmp_path / "w.txt"
    header = " ".join([kind, *(f"{key}={value}" for key, value in dims.items()), "lookback=3",
                       FIXED])
    try:
        cfg = ModelConfig(kind, **dims)
    except ValueError as exc:
        reseal(path, f"{MAGIC}\n{header}\n")
        with pytest.raises(WeightsFormatError) as refused:
            load_weights(path, kind)
        assert str(refused.value) == f"line 2: {exc}"
        return
    params = init_params(cfg, np.random.default_rng(0))
    save_weights(path, params, dataclasses.replace(RECIPE, lookback=3))
    assert path.read_text().splitlines()[1] == header
    loaded, _ = load_weights(path, kind)
    assert loaded.cfg == cfg
    assert loaded.theta.tobytes() == params.theta.tobytes()


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), RECIPE)
    with pytest.raises(WeightsFormatError, match="line 2: expected model kind gru, got 'lstm'"):
        load_weights(path, expect_kind="gru")


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("gru"), RECIPE)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(WeightsFormatError):
        load_weights(path, "gru")


def test_a_header_larger_than_the_file_allocates_little(tmp_path):
    # The header states 4 million values of w_f alone; the file holds one.
    path = tmp_path / "w.txt"
    header = "".join(f"{line}\n" for line in body(small_file(tmp_path)).splitlines()[2:4])
    reseal(path, f"{MAGIC}\nlstm hidden=1000 lookback=60 {FIXED}\n{header}w_f 1000 1001\n"
                 f"{b64([0.5])}\n")
    tracemalloc.start()
    try:
        with pytest.raises(WeightsFormatError, match="line 6: expected the base64 of 1001000 "
                                                     "float64 values in block 'w_f', got 8 bytes"):
            load_weights(path, "lstm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_non_numeric_payload_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), RECIPE)
    lines = body(path).splitlines()
    lines[5] = "*" + lines[5][1:]  # w_f's values
    reseal(path, "\n".join(lines) + "\n")
    message = "line 6: expected the base64 of 30 float64 values in block 'w_f', got '*"
    with pytest.raises(WeightsFormatError, match=re.escape(message)):
        load_weights(path, "lstm")


@pytest.mark.parametrize(
    "edit,got",
    [
        (lambda line: line + " ", None),
        (lambda line: line[:4] + " " + line[4:], None),
        (lambda line: "\u00e9" + line[1:], None),
        (lambda line: line[:-4], "237 bytes"),
        (lambda line: line + "AAAAAAAAAAA=", "248 bytes"),
        (lambda line: "", "0 bytes"),
    ],
    ids=["trailing-space", "inner-space", "non-ascii", "short", "long", "blank"],
)
def test_a_values_line_of_another_size_or_alphabet_is_named(tmp_path, edit, got):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), RECIPE)
    lines = body(path).splitlines()
    lines[5] = edit(lines[5])  # w_f's 30 values, 240 bytes
    reseal(path, "\n".join(lines) + "\n")
    got = got or repr(lines[5] if len(lines[5]) <= 80 else lines[5][:77] + "...")
    message = f"line 6: expected the base64 of 30 float64 values in block 'w_f', got {got}"
    with pytest.raises(WeightsFormatError, match=f"^{re.escape(message)}$"):
        load_weights(path, "lstm")


def test_non_utf8_file_named(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), RECIPE)
    data = body(path).encode()
    at = data.index(b"\nw_f ") + 1  # the first block line
    reseal(path, data[:at] + b"\xff" + data[at:])
    message = f"{path}: not UTF-8 text, invalid start byte at byte {at}"
    with pytest.raises(WeightsFormatError, match=re.escape(message)):
        load_weights(path, "lstm")


# n_heads is the one dimension the arrays do not fix, so no array can contradict it.
@pytest.mark.parametrize(
    "kind,key",
    [(kind, key) for kind in MODEL_KINDS for key in REGISTRY[kind].arch_keys if key != "n_heads"],
)
def test_dims_header_mismatch_rejected(tmp_path, kind, key):
    params = build(kind)
    stated = params.dims[key]
    path = tmp_path / "w.txt"
    save_weights(path, params, RECIPE)
    reseal(path, body(path).replace(f" {key}={stated} ", f" {key}={stated * 2} ", 1))
    with pytest.raises(WeightsFormatError, match=rf"header {kind} .*\b{key}={stated * 2}\b"):
        load_weights(path, kind)


@pytest.mark.parametrize(
    "kind,block", [(kind, name) for kind in MODEL_KINDS for name, _ in build(kind).named_arrays()]
)
def test_block_shape_mismatch_rejected(tmp_path, kind, block):
    params = build(kind)
    arrays = [(name, arr[:-1] if name == block else arr) for name, arr in params.named_arrays()]
    corrupt = SimpleNamespace(kind=kind, dims=params.dims, named_arrays=lambda: arrays)
    path = tmp_path / "w.txt"
    save_weights(path, corrupt, RECIPE)
    pattern = rf"line \d+: expected block '{re.escape(block)} \d+ \d+' .*, got '{re.escape(block)} "
    with pytest.raises(WeightsFormatError, match=pattern):
        load_weights(path, kind)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda text: text + f"head_b 1 0\n{b64([0.5])}\n",
         r"line 27: expected the sha256 line after block 'scaler', got 'head_b 1 0'"),
        (lambda text: text.replace("\nhead_b ", "\nhead_c "),
         r"line 23: expected block 'head_b 1 0' .*, got 'head_c 1 0'"),
        (lambda text: text[: text.index("head_b 1 0")],
         r"line 23: expected block 'head_b 1 0' .*, got the end"),
        (lambda text: text[: text.index("scaler 2 0")],
         r"line 25: expected block 'scaler 2 0' .*, got the end"),
        (lambda text: text.replace(b64([0.5, 2.5]), b64([2.5, 0.5])),
         "line 26: block 'scaler': scaler needs max > min"),
        (lambda text: text.replace(b64([0.5, 2.5]), b64([2.5, 2.5])),
         "line 26: block 'scaler': scaler needs max > min"),
        (lambda text: text.replace("scaler 2 0", "scaler 1 2"),
         r"line 25: expected block 'scaler 2 0' .*, got 'scaler 1 2'"),
    ],
    ids=["duplicate", "unknown", "missing", "missing-scaler", "scaler-reversed", "scaler-flat",
         "scaler-shape"],
)
def test_block_set_must_match_layout(tmp_path, edit, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), RECIPE)
    reseal(path, edit(body(path)))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path, "lstm")


@pytest.mark.parametrize(
    "stated,bad,message",
    [
        (" n_heads=2 ", " n_heads=3 ", "line 2: d_model 8 not divisible by 3 heads"),
        (" d_ff=16 ", " d_ff=0 ", "line 2: expected d_ff=<positive int>, got 'd_ff=0'"),
    ],
    ids=["indivisible-heads", "zero-width"],
)
def test_header_dims_without_layout_rejected(tmp_path, stated, bad, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"), RECIPE)
    reseal(path, body(path).replace(stated, bad, 1))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path, "transformer")


LOOKBACK = "line 2: expected lookback=<positive int>"
TRANSFORM = "line 2: expected transform=minmax"
HORIZON = "line 2: expected horizon=1"
AFTER_HORIZON = "line 2: expected the end of the line after horizon=1"


@pytest.mark.parametrize(
    "stated,bad,message",
    [
        ("lstm hidden=5 ", "lstm hidden=9 hidden=5 ", f"{LOOKBACK}, got 'hidden=5'"),
        (" lookback=12", " lookback=12 input=1 input=1", f"{TRANSFORM}, got 'input=1'"),
        (" lookback=12", " lookback=12 bogus=3", f"{TRANSFORM}, got 'bogus=3'"),
        (" lookback=12", " lookback=12 d_model=8", f"{TRANSFORM}, got 'd_model=8'"),
        (" lookback=12", " lookback=12 input=7", f"{TRANSFORM}, got 'input=7'"),
        (" lookback=12", " lookback=12 input=1", f"{TRANSFORM}, got 'input=1'"),
        (" lookback=12", " lookback=12 lookback=12", f"{TRANSFORM}, got 'lookback=12'"),
        (f" lookback=12 {FIXED}", "", f"{LOOKBACK}, got the end"),
        (" lookback=12", " lookback=0", f"{LOOKBACK}, got 'lookback=0'"),
        (" lookback=12", " lookback=-3", f"{LOOKBACK}, got 'lookback=-3'"),
        ("transform=minmax", "transform=zscore", f"{TRANSFORM}, got 'transform=zscore'"),
        (" transform=minmax", "", f"{TRANSFORM}, got 'horizon=1'"),
        ("horizon=1", "horizon=30", f"{HORIZON}, got 'horizon=30'"),
        ("horizon=1", "horizon=01", f"{HORIZON}, got 'horizon=01'"),
        (" horizon=1", "", f"{HORIZON}, got the end"),
        ("horizon=1", "horizon=1 horizon=1", f"{AFTER_HORIZON}, got 'horizon=1'"),
        ("horizon=1", "horizon=1 input=1", f"{AFTER_HORIZON}, got 'input=1'"),
    ],
    ids=["repeated-dim", "repeated-input", "unknown-key", "other-kinds-key", "input-width",
         "input-is-unknown", "repeated-lookback", "missing-lookback", "zero-lookback",
         "negative-lookback", "other-transform", "missing-transform", "other-horizon",
         "padded-horizon", "missing-horizon", "repeated-horizon", "after-horizon"],
)
def test_header_tokens_rejected(tmp_path, stated, bad, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), RECIPE)
    reseal(path, body(path).replace(stated, bad, 1))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path, "lstm")


@pytest.mark.parametrize(
    "line,bad",
    [
        (3, 'dataset {"n_rows": 370}'),
        (3, 'dataset {"n_rows": "370", "start_date": "a", "end_date": "b", "sha256": "c"}'),
        (3, 'dataset {"n_rows": true, "start_date": "a", "end_date": "b", "sha256": "c"}'),
        (3, 'dataset {"n_rows": 1e999, "start_date": "a", "end_date": "b", "sha256": "c"}'),
        (3, 'dataset ["n_rows", "start_date", "end_date", "sha256"]'),
        (3, "dataset " + "[" * 100_000),
        (3, "data {}"),
        (3, ""),
        (4, 'training {"horizon": 30, "val_frac": NaN, "train": {}}'),
        (4, 'training {"horizon": 30, "val_frac": 1, "train": {}}'),
        (4, 'training {"val_frac": 0.1, "horizon": 30, "train": {}}'),
        (4, 'training {"horizon": 30, "val_frac": 0.1, "train": {}'),
        (4, 'training {"horizon": 30, "val_frac": 0.1, "train": {}} '),
        (4, 'training {"horizon":30, "val_frac": 0.1, "train": {}}'),
    ],
    ids=["dataset-keys", "dataset-string-count", "dataset-bool-count", "dataset-overflow",
         "dataset-list", "dataset-nested-too-deep", "dataset-tag", "dataset-blank", "training-nan",
         "training-int-frac", "training-order", "training-not-json", "training-trailing-space",
         "training-unspaced"],
)
def test_provenance_lines_rejected(tmp_path, line, bad):
    path = tmp_path / "w.txt"
    save_weights(path, build("gru"), RECIPE)
    lines = body(path).splitlines()
    lines[line - 1] = bad
    reseal(path, "\n".join(lines) + "\n")
    tag = "dataset" if line == 3 else "training"
    with pytest.raises(WeightsFormatError, match=rf"line {line}: expected {tag} and a JSON object"):
        load_weights(path, "gru")


NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "NaN": np.nan, "infinity": np.inf}


@pytest.mark.parametrize("token", list(NON_FINITE))
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_non_finite_value_rejected(tmp_path, kind, token):
    # Each spelling that the decimal format of v2 refused, as the value it names.
    path = tmp_path / "w.txt"
    save_weights(path, build(kind), RECIPE)
    clean = body(path).splitlines()
    value = NON_FINITE[token]
    # The last value of the head_b block, then the scaler's min and max.
    for block, at, values, i in (("head_b", -3, [value], 0), ("scaler", -1, [value, 2.5], 0),
                                 ("scaler", -1, [0.5, value], 1)):
        lines = list(clean)
        lines[at] = b64(values)
        reseal(path, "\n".join(lines) + "\n")
        message = (f"line {len(clean) + at + 1}: expected finite values in block '{block}', "
                   f"got {value} as value {i}")
        with pytest.raises(WeightsFormatError, match=re.escape(message)):
            load_weights(path, kind)


def test_header_without_n_heads_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"), RECIPE)
    reseal(path, body(path).replace(" n_heads=2 ", " ", 1))
    message = "line 2: expected n_heads=<positive int>, got 'n_layers=2'"
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path, "transformer")


def test_transformer_header_carries_architecture(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"), RECIPE)
    header = path.read_text().splitlines()[1]
    for token in ("d_model=8", "n_heads=2", "n_layers=2", "d_ff=16"):
        assert token in header
    loaded, _ = load_weights(path, expect_kind="transformer")
    assert loaded.dims["n_heads"] == 2
    assert len(loaded.layers) == 2


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_weights(tmp_path / "absent.txt", "lstm")
