import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqcast.data import Scaler
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, init_params
from seqcast.models.weights_io import MAGIC, WeightsFormatError, load_weights, save_weights
from seqcast.numerics import make_rng

# The input recipe saved with every test model: lookback and training scaler.
RECIPE = (12, Scaler(0.5, 2.5))


def build(kind, seed=0):
    cfg = ModelConfig(kind=kind, hidden=5, d_model=8, n_heads=2, n_layers=2, d_ff=16)
    return init_params(cfg, make_rng(seed))


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
    params = init_params(ModelConfig(kind=kind, **dims), make_rng(data.draw(st.integers(0, 99))))
    named = params.named_arrays()
    # the views tile theta in layout order
    assert all(np.shares_memory(view, params.theta) for _, view in named)
    assert sum(view.size for _, view in named) == params.theta.size
    assert np.concatenate([view.ravel() for _, view in named]).tobytes() == params.theta.tobytes()

    path = tmp_path / "w.txt"
    save_weights(path, params, lookback, scaler)
    lines = path.read_text().splitlines()[2:]
    blocks = [line.split()[0] for line in lines if line[0].isalpha()]
    assert blocks == [name for name, _ in named] + ["scaler"]
    loaded, (loaded_lookback, loaded_scaler) = load_weights(path, kind)
    assert loaded.kind == kind
    assert loaded.dims == params.dims
    assert loaded.theta.tobytes() == params.theta.tobytes()
    assert loaded_lookback == lookback
    assert bits(loaded_scaler) == bits(scaler)


def split_file(text):
    """The header lines, then each block as its header line and its values."""
    lines = text.splitlines()
    blocks, pos = [], 2
    while pos < len(lines):
        _, rows, cols = lines[pos].split()
        end = pos + 1 + int(rows) * max(int(cols), 1)
        blocks.append(lines[pos:end])
        pos = end
    return lines[:2], blocks


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
        blocks.append([data.draw(st.sampled_from(["", "0.5", "scaler 2 0", blocks[i][0]]))])
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


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_step_off_the_layout_walk_is_named(tmp_path, kind, data):
    params = init_params(ModelConfig(kind=kind, **data.draw(small_dims(kind))), make_rng(0))
    path = tmp_path / "w.txt"
    save_weights(path, params, *RECIPE)
    clean = path.read_bytes()
    loaded, _ = load_weights(path, kind)
    save_weights(path, loaded, *RECIPE)
    assert path.read_bytes() == clean

    header, blocks = split_file(clean.decode())
    if data.draw(st.booleans()):
        edit = edit_blocks(data, blocks)
        named = r"block '\S+ \d+ \d+'|the end of the file after block 'scaler'"
    else:
        tokens = header[1].split()
        edit = edit_header(data, tokens)
        header = [header[0], " ".join(tokens)]
        named = r"\w+=<positive int>|the end of the line after lookback"
    path.write_text("\n".join(header + [line for block in blocks for line in block]) + "\n")
    with pytest.raises(WeightsFormatError) as err:
        load_weights(path, kind)
    assert re.match(rf"line \d+: expected ({named})", str(err.value)), (edit, str(err.value))


GOLDEN = Path(__file__).parent / "data" / "weights_v2"
GOLDEN_CONFIGS = [
    ModelConfig(kind="lstm", hidden=2),
    ModelConfig(kind="gru", hidden=2),
    ModelConfig(kind="transformer", d_model=4, n_heads=2, n_layers=2, d_ff=3),
]


@pytest.mark.parametrize("cfg", GOLDEN_CONFIGS, ids=lambda cfg: cfg.kind)
def test_golden_v2_file_loads_and_saves_back(tmp_path, cfg):
    # Each file was written by an earlier version of save_weights from
    # init_params(cfg, make_rng(0)), lookback 5 and Scaler(0.5, 2.5). Its bytes
    # depend only on PCG64 and "%.17g", so they pin the init draw order and
    # the format.
    path = GOLDEN / f"{cfg.kind}-v2.txt"
    params, (lookback, scaler) = load_weights(path, expect_kind=cfg.kind)
    assert params.theta.tobytes() == init_params(cfg, make_rng(0)).theta.tobytes()
    assert lookback == 5
    assert bits(scaler) == bits(Scaler(0.5, 2.5))
    save_weights(tmp_path / "again.txt", params, lookback, scaler)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_save_twice_is_byte_identical(tmp_path):
    params = build("gru", seed=3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_weights(p1, params, *RECIPE)
    save_weights(p2, params, *RECIPE)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_line_and_layout(tmp_path):
    params = build("lstm")
    path = tmp_path / "w.txt"
    save_weights(path, params, *RECIPE)
    lines = path.read_text().splitlines()
    assert lines[0] == "SEQCAST-W v2"
    assert lines[1] == "lstm hidden=5 lookback=12"
    # vectors are flagged with a zero column count
    assert any(line.endswith(" 0") and line[0].isalpha() for line in lines[2:])
    assert lines[-3:] == ["scaler 2 0", "0.5", "2.5"]


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("gru"), *RECIPE)
    v2 = path.read_text()
    # A v1 file held the same blocks, no scaler, and input=1 where v2 states the lookback.
    v1 = v2[: v2.index("scaler 2 0")].replace(MAGIC, "SEQCAST-W v1").replace("lookback=12", "input=1")
    for text in ("SOMETHING-ELSE v9\nlstm hidden=4\n", v1, ""):
        path.write_text(text)
        with pytest.raises(WeightsFormatError, match="bad magic line .*: retrain the model"):
            load_weights(path, "gru")


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), *RECIPE)
    with pytest.raises(WeightsFormatError, match="line 2: expected model kind gru, got 'lstm'"):
        load_weights(path, expect_kind="gru")


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("gru"), *RECIPE)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(WeightsFormatError):
        load_weights(path, "gru")


def test_a_header_larger_than_the_file_allocates_little(tmp_path):
    # The header states 4 million values of w_f alone; the file holds one.
    path = tmp_path / "w.txt"
    path.write_text(f"{MAGIC}\nlstm hidden=1000 lookback=60\nw_f 1000 1001\n0.5\n")
    tracemalloc.start()
    try:
        with pytest.raises(WeightsFormatError, match="line 5: expected a finite value in "
                                                     "block 'w_f', got the end"):
            load_weights(path, "lstm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_non_numeric_payload_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), *RECIPE)
    path.write_text(path.read_text().replace("0.", "zz.", 1))
    with pytest.raises(WeightsFormatError):
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
    save_weights(path, params, *RECIPE)
    path.write_text(path.read_text().replace(f" {key}={stated} ", f" {key}={stated * 2} ", 1))
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
    save_weights(path, corrupt, *RECIPE)
    pattern = rf"line \d+: expected block '{re.escape(block)} \d+ \d+' .*, got '{re.escape(block)} "
    with pytest.raises(WeightsFormatError, match=pattern):
        load_weights(path, kind)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda text: text + "head_b 1 0\n0.5\n",
         r"line 162: expected the end of the file after block 'scaler', got 'head_b 1 0'"),
        (lambda text: text.replace("\nhead_b ", "\nhead_c "),
         r"line 157: expected block 'head_b 1 0' .*, got 'head_c 1 0'"),
        (lambda text: text[: text.index("head_b 1 0")],
         r"line 157: expected block 'head_b 1 0' .*, got the end"),
        (lambda text: text[: text.index("scaler 2 0")],
         r"line 159: expected block 'scaler 2 0' .*, got the end"),
        (lambda text: text.replace("\n0.5\n2.5\n", "\n2.5\n0.5\n"), "scaler needs max > min"),
        (lambda text: text.replace("\n0.5\n2.5\n", "\n2.5\n2.5\n"), "scaler needs max > min"),
        (lambda text: text.replace("scaler 2 0", "scaler 1 2"),
         r"line 159: expected block 'scaler 2 0' .*, got 'scaler 1 2'"),
    ],
    ids=["duplicate", "unknown", "missing", "missing-scaler", "scaler-reversed", "scaler-flat",
         "scaler-shape"],
)
def test_block_set_must_match_layout(tmp_path, edit, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), *RECIPE)
    path.write_text(edit(path.read_text()))
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
    save_weights(path, build("transformer"), *RECIPE)
    path.write_text(path.read_text().replace(stated, bad, 1))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path, "transformer")


LOOKBACK = "line 2: expected lookback=<positive int>"
AFTER_LOOKBACK = "line 2: expected the end of the line after lookback"


@pytest.mark.parametrize(
    "stated,bad,message",
    [
        ("lstm hidden=5 ", "lstm hidden=9 hidden=5 ", f"{LOOKBACK}, got 'hidden=5'"),
        (" lookback=12", " lookback=12 input=1 input=1", f"{AFTER_LOOKBACK}, got 'input=1'"),
        (" lookback=12", " lookback=12 bogus=3", f"{AFTER_LOOKBACK}, got 'bogus=3'"),
        (" lookback=12", " lookback=12 d_model=8", f"{AFTER_LOOKBACK}, got 'd_model=8'"),
        (" lookback=12", " lookback=12 input=7", f"{AFTER_LOOKBACK}, got 'input=7'"),
        (" lookback=12", " lookback=12 input=1", f"{AFTER_LOOKBACK}, got 'input=1'"),
        (" lookback=12", " lookback=12 lookback=12", f"{AFTER_LOOKBACK}, got 'lookback=12'"),
        (" lookback=12", "", f"{LOOKBACK}, got the end"),
        (" lookback=12", " lookback=0", f"{LOOKBACK}, got 'lookback=0'"),
        (" lookback=12", " lookback=-3", f"{LOOKBACK}, got 'lookback=-3'"),
    ],
    ids=["repeated-dim", "repeated-input", "unknown-key", "other-kinds-key", "input-width",
         "input-is-unknown", "repeated-lookback", "missing-lookback", "zero-lookback",
         "negative-lookback"],
)
def test_header_tokens_rejected(tmp_path, stated, bad, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"), *RECIPE)
    path.write_text(path.read_text().replace(stated, bad, 1))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path, "lstm")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "infinity"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_non_finite_value_rejected(tmp_path, kind, token):
    path = tmp_path / "w.txt"
    save_weights(path, build(kind), *RECIPE)
    clean = path.read_text().splitlines()
    # The last value of the head_b block, then the scaler's min and max.
    for block, at in (("head_b", -4), ("scaler", -2), ("scaler", -1)):
        lines = list(clean)
        lines[at] = token
        path.write_text("\n".join(lines) + "\n")
        message = f"line {len(clean) + at + 1}: expected a finite value in block '{block}'"
        with pytest.raises(WeightsFormatError, match=message):
            load_weights(path, kind)


def test_header_without_n_heads_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"), *RECIPE)
    path.write_text(path.read_text().replace(" n_heads=2 ", " ", 1))
    message = "line 2: expected n_heads=<positive int>, got 'n_layers=2'"
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path, "transformer")


def test_transformer_header_carries_architecture(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"), *RECIPE)
    header = path.read_text().splitlines()[1]
    for token in ("d_model=8", "n_heads=2", "n_layers=2", "d_ff=16"):
        assert token in header
    loaded, _ = load_weights(path, expect_kind="transformer")
    assert loaded.dims["n_heads"] == 2
    assert len(loaded.layers) == 2


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_weights(tmp_path / "absent.txt", "lstm")
