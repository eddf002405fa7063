"""The contract every model kind shares through models.forward, backward and forecast."""

import inspect
import pickle
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import models
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig, Params

SMALL = {
    "lstm": {"hidden": 3},
    "gru": {"hidden": 3},
    "transformer": {"d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 5},
}
# One changed dim per case; every one keeps d_model divisible by n_heads.
OTHER = {"hidden": 4, "d_model": 6, "n_heads": 1, "n_layers": 2, "d_ff": 6}


def small(kind, **changes):
    dims = SMALL[kind] | changes
    return models.init_params(ModelConfig(kind=kind, **dims), np.random.default_rng(0))


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize(
    "shape", [(6,), (2, 0), (2, 3, 1), ()], ids=["1d", "no-steps", "3d", "scalar"]
)
def test_input_of_wrong_shape_rejected(kind, shape):
    with pytest.raises(ValueError, match=r"expected input of shape \(batch, steps\)"):
        models.forward(small(kind), np.zeros(shape))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown model kind 'rnn'"):
        ModelConfig(kind="rnn")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_arch_keys_are_the_shapes_keywords(kind):
    # The registry entry and the module's shapes signature are the only two
    # statements of a kind's keys; they must agree, in order.
    keywords = inspect.signature(REGISTRY[kind].module.shapes).parameters
    assert tuple(REGISTRY[kind].arch_keys) == tuple(keywords)


@pytest.mark.parametrize(
    "kind,key",
    [
        (kind, key)
        for kind in MODEL_KINDS
        for key in dict.fromkeys(k for other in MODEL_KINDS for k in REGISTRY[other].arch_keys)
        if key not in REGISTRY[kind].arch_keys
    ],
)
def test_key_of_another_kind_refused(kind, key):
    message = f"{kind} has no key {key!r}, expected one of {tuple(REGISTRY[kind].arch_keys)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelConfig(kind, **{key: 8})


@pytest.mark.parametrize("value", [True, 8.0])
def test_dim_that_is_no_int_refused(value):
    message = re.escape(f"hidden: cannot read {value!r} as int")
    with pytest.raises(ValueError, match=message):
        ModelConfig("lstm", hidden=value)


@pytest.mark.parametrize(
    "kind,dims",
    [("lstm", {"hidden": 4, "d_model": 8}), ("lstm", {"hidden": True}), ("lstm", {}), ("cnn", {})],
    ids=["key-of-another-kind", "bool-dim", "no-dims", "unknown-kind"],
)
def test_params_are_built_only_from_a_model_config(kind, dims):
    # Only ModelConfig checks dims, so Params takes nothing else: a kind and a
    # dims dict, even a wrong one such as the first case, never build one.
    with pytest.raises(AttributeError, match="has no attribute 'kind'"):
        Params(kind, dims)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_params_carry_their_config(kind):
    cfg = ModelConfig(kind, **SMALL[kind])
    params = models.init_params(cfg, np.random.default_rng(0))
    assert (params.cfg, params.kind, params.dims) == (cfg, kind, SMALL[kind])
    clone = pickle.loads(pickle.dumps(params))
    assert clone.cfg == cfg and clone.theta.tobytes() == params.theta.tobytes()
    _, cache = models.forward(params, np.zeros((1, 3)))
    assert cache["cfg"] is cfg
    assert not {"kind", "dims"} & set(cache)


@pytest.mark.parametrize(
    "kind,echo",
    [
        ("lstm", {"kind": "lstm", "hidden": 64}),
        ("gru", {"kind": "gru", "hidden": 64}),
        (
            "transformer",
            {"kind": "transformer", "d_model": 64, "n_heads": 2, "n_layers": 2, "d_ff": 128},
        ),
    ],
)
def test_default_config_echo(kind, echo):
    assert list(ModelConfig(kind).as_dict().items()) == list(echo.items())


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_config_is_a_frozen_value(kind):
    cfg = ModelConfig(kind, **dict(reversed(SMALL[kind].items())))
    assert cfg == ModelConfig(kind, **SMALL[kind]) != ModelConfig(kind)
    assert hash(cfg) == hash(ModelConfig(kind, **SMALL[kind]))
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert cfg.dims == tuple(SMALL[kind].items())
    with pytest.raises(FrozenInstanceError):
        cfg.dims = ()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_takes_one_window(kind):
    with pytest.raises(ValueError, match=r"predict expects a 1-D window, got shape \(1, 4\)"):
        models.predict(small(kind), np.zeros((1, 4)))


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("length", [0, 2, 4])
def test_upstream_gradient_of_wrong_length_rejected(kind, length):
    params = small(kind)
    _, cache = models.forward(params, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="one upstream gradient per sample"):
        models.backward(params, cache, np.zeros(length))


@pytest.mark.parametrize(
    "kind,other", [(a, b) for a in MODEL_KINDS for b in MODEL_KINDS if a != b]
)
def test_cache_from_other_kind_rejected(kind, other):
    _, cache = models.forward(small(other), np.zeros((1, 3)))
    with pytest.raises(ValueError, match=f"cache of {other} .* does not match {kind} "):
        models.backward(small(kind), cache, np.zeros(1))


def test_cache_mismatch_message():
    _, cache = models.forward(small("gru"), np.zeros((1, 3)))
    message = "cache of gru {'hidden': 3} does not match lstm {'hidden': 3} parameters"
    with pytest.raises(ValueError, match=re.escape(message)):
        models.backward(small("lstm"), cache, np.zeros(1))


@pytest.mark.parametrize(
    "kind,key", [(kind, key) for kind in MODEL_KINDS for key in REGISTRY[kind].arch_keys]
)
def test_cache_from_other_dims_rejected(kind, key):
    # Among them a 1-layer Transformer's cache against 2-layer params: a check
    # on the widths alone lets it through, and layer 0's gradient comes out zero.
    _, cache = models.forward(small(kind), np.zeros((2, 3)))
    other = small(kind, **{key: OTHER[key]})
    with pytest.raises(ValueError, match="does not match"):
        models.backward(other, cache, np.zeros(2))


@st.composite
def ring_cases(draw):
    """(kind, hidden, lookback, short horizon, long horizon, seed) for the forecast ring."""
    lookback = draw(st.integers(1, 11))
    horizons = draw(st.lists(st.integers(1, 3 * lookback + 2), min_size=2, max_size=2))
    kind = draw(st.sampled_from([k for k in MODEL_KINDS if hasattr(REGISTRY[k].module, "lanes")]))
    hidden, seed = draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))
    return kind, hidden, lookback, *sorted(horizons), seed


@settings(max_examples=80, deadline=None)
@given(case=ring_cases())
@example(case=("lstm", 64, 60, 10, 250, 0))
@example(case=("gru", 64, 60, 10, 250, 0))
def test_forecast_ring_bit_contract(case):
    # The ring runs window s in lane s mod L at a fixed width of L lanes, so a
    # path's first k steps are the same bits at every horizon >= k. The
    # benchmark's forecast-b1 compares the first step at horizons 10 and 250
    # with ==; the example cases are its sizes. They are also where a ring
    # sized to the running windows shows: BLAS rounds a row differently at
    # batch 9 and batch 60, while the small drawn sizes round alike.
    kind, hidden, lookback, short, long, seed = case
    rng = np.random.default_rng(seed)
    params = models.init_params(ModelConfig(kind=kind, hidden=hidden), rng)
    params = models.rebuild(params, params.theta + rng.normal(0.0, 0.1, params.theta.size))
    window = rng.random(lookback)
    path = models.forecast(params, window, long)
    assert path.shape == (long,)
    assert path[0] == models.predict(params, window)
    assert np.array_equal(models.forecast(params, window, short), path[:short])
    seen = np.concatenate([window, path])
    step_by_step = [models.predict(params, seen[s : s + lookback]) for s in range(1, long)]
    np.testing.assert_allclose(path[1:], step_by_step, rtol=1e-12, atol=1e-12)


def _arrays(obj):
    """Every NumPy array and NumPy scalar in a forward cache, however nested."""
    if isinstance(obj, (np.ndarray, np.generic)):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_array_has_the_params_dtype(kind, dtype):
    # A float64 input or upstream gradient, or a float64 scratch array or
    # constant in a kernel, would silently upcast a float32 model.
    params64 = small(kind, n_layers=2) if kind == "transformer" else small(kind)  # both attentions
    params = models.rebuild(params64, params64.theta.astype(dtype))
    rng = np.random.default_rng(1)
    preds, cache = models.forward(params, rng.random((3, 5)))
    found = list(_arrays(cache))
    assert len(found) > 3 and {a.dtype for a in found} == {np.dtype(dtype)}
    assert preds.dtype == dtype and cache["state"].dtype == dtype
    grads = models.backward(params, cache, rng.random(3))
    assert grads.theta.dtype == dtype
    assert {g.dtype for _, g in grads.named_arrays()} == {np.dtype(dtype)}
    lanes = getattr(REGISTRY[kind].module, "lanes", None)
    if lanes:
        advance = lanes(params, 4)
        assert all(advance(x, tick % 4).dtype == dtype for tick, x in enumerate(rng.random(6)))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float32_kernels_allocate_only_float32(kind, monkeypatch):
    # A float64 scratch array whose result is written into a float32 output
    # leaves every cache and output float32, so each allocation is checked.
    params64 = small(kind, n_layers=2) if kind == "transformer" else small(kind)  # both attentions
    params = models.rebuild(params64, params64.theta.astype(np.float32))
    x = np.random.default_rng(1).random((3, 5))
    lanes = getattr(REGISTRY[kind].module, "lanes", None)

    def run():
        _, cache = models.forward(params, x)
        models.backward(params, cache, np.ones(3))
        if lanes:
            advance = lanes(params, 4)
            for tick, value in enumerate(x[0]):
                advance(value, tick % 4)

    run()  # warms the caches, such as the Transformer's float64 position table
    made = []
    for name in ("empty", "zeros", "zeros_like", "empty_like"):
        def counted(*args, _make=getattr(np, name), _name=name, **kwargs):
            arr = _make(*args, **kwargs)
            made.append((_name, arr.dtype))
            return arr
        monkeypatch.setattr(np, name, counted)
    run()
    monkeypatch.undo()
    assert made and [m for m in made if m[1] != np.float32] == []


# float32 rounds at 2**-24 relative; a few dozen roundings pile up over a window.
FLOAT32_SCALE = 100 * np.finfo(np.float32).eps


@pytest.mark.parametrize("steps", [5, 60])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float32_agrees_with_float64_at_float32_scale(kind, steps):
    rng = np.random.default_rng(steps)
    dims = {"hidden": 16} if kind != "transformer" else {"d_model": 16, "n_layers": 2, "d_ff": 32}
    params64 = models.init_params(ModelConfig(kind, **dims), rng)
    params32 = models.rebuild(params64, params64.theta.astype(np.float32))
    x, d_preds = rng.random((8, steps)), rng.normal(size=8)
    preds64, cache64 = models.forward(params64, x)
    preds32, cache32 = models.forward(params32, x)
    assert np.abs(preds32 - preds64).max() <= FLOAT32_SCALE * np.abs(preds64).max()
    grads64 = models.backward(params64, cache64, d_preds).theta
    grads32 = models.backward(params32, cache32, d_preds).theta
    assert np.abs(grads32 - grads64).max() <= FLOAT32_SCALE * np.abs(grads64).max()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["lstm", "gru"]),
    hidden=st.integers(1, 24),
    batch=st.integers(1, 40),
    steps=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="lstm", hidden=1, batch=1, steps=1, seed=0)
@example(kind="gru", hidden=24, batch=40, steps=70, seed=0)
def test_float32_rnn_layout_agrees_with_float64_at_float32_scale(kind, hidden, batch, steps,
                                                                  seed):
    # The LSTM and GRU run one kernel at both dtypes, so float32 differs from
    # float64 only by its rounding. Each gate bias is drawn, so none is zero.
    # A float32 sum is accurate to FLOAT32_SCALE times the size of its terms,
    # not of its value, which cancellation can make as small as it likes: so
    # the predictions are measured against the head's terms, |h_T| |head_w|'
    # + |head_b|, and the gradient against the gradient of |d_preds|, whose
    # samples add up without cancelling.
    rng = np.random.default_rng(seed)
    params64 = models.init_params(ModelConfig(kind, hidden=hidden), rng)
    for name, bias in params64.named_arrays():
        if name.startswith("b_"):
            bias += rng.normal(scale=0.1, size=bias.shape)
    params32 = models.rebuild(params64, params64.theta.astype(np.float32))
    x, d_preds = rng.random((batch, steps)), rng.normal(size=batch)
    preds64, cache64 = models.forward(params64, x)
    preds32, cache32 = models.forward(params32, x)
    terms = np.abs(cache64["state"]) @ np.abs(params64.head_w.T) + np.abs(params64.head_b)
    assert np.abs(preds32 - preds64).max() <= FLOAT32_SCALE * terms.max()
    grads64 = models.backward(params64, cache64, d_preds).theta
    grads32 = models.backward(params32, cache32, d_preds).theta
    size = models.backward(params64, cache64, np.abs(d_preds)).theta
    assert np.abs(grads32 - grads64).max() <= FLOAT32_SCALE * np.abs(size).max()


def _poison(workspace, keep=()):
    """Fill with NaN every workspace array that holds none of keep."""
    for held in workspace.values():
        if not any(np.shares_memory(held, k) for k in keep):
            held.fill(np.nan)


@pytest.mark.parametrize("poisoned", [False, True], ids=["plain", "nan-filled"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_workspace_calls_equal_plain_calls_bit_for_bit(kind, dtype, poisoned):
    # One workspace over batches whose shape changes, shrinking and growing
    # again. Filled with NaN before each forward, and before each backward
    # wherever it holds no array of the cache, a buffer read before it is
    # written turns the result to NaN.
    params64 = small(kind, n_layers=2) if kind == "transformer" else small(kind)  # both attentions
    params = models.rebuild(params64, params64.theta.astype(dtype))
    rng = np.random.default_rng(2)
    workspace = {}
    for batch in (32, 13, 32, 1):
        x, d_preds = rng.random((batch, 7)), rng.normal(size=batch)
        want_preds, want_cache = models.forward(params, x)
        want_grads = models.backward(params, want_cache, d_preds)
        if poisoned:
            _poison(workspace)
        preds, cache = models.forward(params, x, workspace)
        if poisoned:
            _poison(workspace, keep=list(_arrays(cache)))
        grads = models.backward(params, cache, d_preds, workspace)
        assert preds.tobytes() == want_preds.tobytes()
        assert grads.theta.tobytes() == want_grads.theta.tobytes()
        assert workspace and {a.dtype for a in workspace.values()} == {np.dtype(dtype)}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float32_kernels_with_a_workspace_allocate_only_float32(kind, monkeypatch):
    # test_float32_kernels_allocate_only_float32's audit, with each call drawing
    # its arrays from a new workspace, so every one of them is made and checked.
    params64 = small(kind, n_layers=2) if kind == "transformer" else small(kind)  # both attentions
    params = models.rebuild(params64, params64.theta.astype(np.float32))
    x = np.random.default_rng(1).random((3, 5))

    def run():
        workspace = {}
        _, cache = models.forward(params, x, workspace)
        models.backward(params, cache, np.ones(3), workspace)
        return workspace

    run()  # warms the caches, such as the Transformer's float64 position table
    made = []
    for name in ("empty", "zeros", "zeros_like", "empty_like"):
        def counted(*args, _make=getattr(np, name), _name=name, **kwargs):
            arr = _make(*args, **kwargs)
            made.append((_name, arr.dtype))
            return arr
        monkeypatch.setattr(np, name, counted)
    workspace = run()
    monkeypatch.undo()
    assert len(made) >= len(workspace) and [m for m in made if m[1] != np.float32] == []
