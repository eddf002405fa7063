import numpy as np
import pytest

from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, init_params, kind_of
from seqcast.models.weights_io import WeightsFormatError, load_weights, save_weights
from seqcast.numerics import make_rng


def build(kind, seed=0):
    cfg = ModelConfig(kind=kind, hidden=5, d_model=8, n_heads=2, n_layers=2, d_ff=16)
    return init_params(cfg, make_rng(seed))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_round_trip_is_bit_exact(tmp_path, kind):
    params = build(kind)
    path = tmp_path / "w.txt"
    save_weights(path, params)
    loaded, loaded_kind = load_weights(path)
    assert loaded_kind == kind
    assert kind_of(loaded) == kind
    for (n1, a), (n2, b) in zip(params.named_arrays(), loaded.named_arrays()):
        assert n1 == n2
        assert a.shape == b.shape
        assert np.array_equal(a, b)


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
    stated = getattr(params, key)
    path = tmp_path / "w.txt"
    save_weights(path, params)
    path.write_text(path.read_text().replace(f" {key}={stated} ", f" {key}={stated + 1} ", 1))
    with pytest.raises(WeightsFormatError, match=f"header says {key}={stated + 1}"):
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
    assert loaded.n_heads == 2
    assert len(loaded.layers) == 2


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_weights(tmp_path / "absent.txt")
