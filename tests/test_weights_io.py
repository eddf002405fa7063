import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, init_params
from seqcast.models.weights_io import WeightsFormatError, load_weights, save_weights
from seqcast.numerics import make_rng


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


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_round_trip_is_bit_exact(tmp_path, kind, data):
    dims = data.draw(small_dims(kind))
    params = init_params(ModelConfig(kind=kind, **dims), make_rng(data.draw(st.integers(0, 99))))
    named = params.named_arrays()
    # the views tile theta in layout order
    assert all(np.shares_memory(view, params.theta) for _, view in named)
    assert sum(view.size for _, view in named) == params.theta.size
    assert np.concatenate([view.ravel() for _, view in named]).tobytes() == params.theta.tobytes()

    path = tmp_path / "w.txt"
    save_weights(path, params)
    lines = path.read_text().splitlines()[2:]
    assert [line.split()[0] for line in lines if line[0].isalpha()] == [name for name, _ in named]
    loaded, loaded_kind = load_weights(path)
    assert loaded_kind == loaded.kind == kind
    assert loaded.dims == params.dims
    assert loaded.theta.tobytes() == params.theta.tobytes()


def test_save_twice_is_byte_identical(tmp_path):
    params = build("gru", seed=3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_weights(p1, params)
    save_weights(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_line_and_layout(tmp_path):
    params = build("lstm")
    path = tmp_path / "w.txt"
    save_weights(path, params)
    lines = path.read_text().splitlines()
    assert lines[0] == "SEQCAST-W v1"
    assert lines[1].startswith("lstm ")
    # vectors are flagged with a zero column count
    assert any(line.endswith(" 0") and line[0].isalpha() for line in lines[2:])


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("SOMETHING-ELSE v9\nlstm hidden=4 input=1\n")
    with pytest.raises(WeightsFormatError, match="magic"):
        load_weights(path)


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"))
    with pytest.raises(WeightsFormatError, match="expected gru"):
        load_weights(path, expect_kind="gru")


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("gru"))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(WeightsFormatError):
        load_weights(path)


def test_non_numeric_payload_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"))
    path.write_text(path.read_text().replace("0.", "zz.", 1))
    with pytest.raises(WeightsFormatError):
        load_weights(path)


# n_heads is the one dimension the arrays do not fix, so no array can contradict it.
@pytest.mark.parametrize(
    "kind,key",
    [(kind, key) for kind in MODEL_KINDS for key in REGISTRY[kind].arch_keys if key != "n_heads"],
)
def test_dims_header_mismatch_rejected(tmp_path, kind, key):
    params = build(kind)
    stated = params.dims[key]
    path = tmp_path / "w.txt"
    save_weights(path, params)
    path.write_text(path.read_text().replace(f" {key}={stated} ", f" {key}={stated * 2} ", 1))
    with pytest.raises(WeightsFormatError, match=rf"header {kind} .*\b{key}={stated * 2}\b"):
        load_weights(path)


@pytest.mark.parametrize(
    "kind,block", [(kind, name) for kind in MODEL_KINDS for name, _ in build(kind).named_arrays()]
)
def test_block_shape_mismatch_rejected(tmp_path, kind, block):
    params = build(kind)
    arrays = [(name, arr[:-1] if name == block else arr) for name, arr in params.named_arrays()]
    corrupt = SimpleNamespace(kind=kind, dims=params.dims, named_arrays=lambda: arrays)
    path = tmp_path / "w.txt"
    save_weights(path, corrupt)
    with pytest.raises(WeightsFormatError, match=re.escape(f"block {block!r} has shape")):
        load_weights(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda text: text + "head_b 1 0\n0.5\n", "appears twice"),
        (lambda text: text.replace("\nhead_b ", "\nhead_c "), "'head_c' is not in the layout"),
        (lambda text: text[: text.index("head_b 1 0")], "lacks: head_b"),
    ],
    ids=["duplicate", "unknown", "missing"],
)
def test_block_set_must_match_layout(tmp_path, edit, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"))
    path.write_text(edit(path.read_text()))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path)


@pytest.mark.parametrize(
    "stated,bad,message",
    [
        (" n_heads=2 ", " n_heads=3 ", "not divisible by 3 heads"),
        (" d_ff=16 ", " d_ff=0 ", "d_ff must be >= 1"),
    ],
    ids=["indivisible-heads", "zero-width"],
)
def test_header_dims_without_layout_rejected(tmp_path, stated, bad, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"))
    path.write_text(path.read_text().replace(stated, bad, 1))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path)


@pytest.mark.parametrize(
    "stated,bad,message",
    [
        ("lstm hidden=5 ", "lstm hidden=9 hidden=5 ", "states hidden twice"),
        (" input=1", " input=1 input=1", "states input twice"),
        (" input=1", " input=1 bogus=3", "unknown key 'bogus'"),
        (" input=1", " input=1 d_model=8", "unknown key 'd_model'"),
        (" input=1", " input=7", "input=7"),
    ],
    ids=["repeated-dim", "repeated-input", "unknown-key", "other-kinds-key", "input-width"],
)
def test_header_tokens_rejected(tmp_path, stated, bad, message):
    path = tmp_path / "w.txt"
    save_weights(path, build("lstm"))
    path.write_text(path.read_text().replace(stated, bad, 1))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "infinity"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_non_finite_value_rejected(tmp_path, kind, token):
    path = tmp_path / "w.txt"
    save_weights(path, build(kind))
    lines = path.read_text().splitlines()
    lines[-1] = token  # the last value of the head_b block
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(WeightsFormatError, match="block 'head_b': non-finite value"):
        load_weights(path)


def test_header_without_n_heads_rejected(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"))
    path.write_text(path.read_text().replace(" n_heads=2 ", " ", 1))
    with pytest.raises(WeightsFormatError, match="lacks n_heads"):
        load_weights(path)


def test_transformer_header_carries_architecture(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, build("transformer"))
    header = path.read_text().splitlines()[1]
    for token in ("d_model=8", "n_heads=2", "n_layers=2", "d_ff=16"):
        assert token in header
    loaded, _ = load_weights(path, expect_kind="transformer")
    assert loaded.dims["n_heads"] == 2
    assert len(loaded.layers) == 2


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_weights(tmp_path / "absent.txt")
