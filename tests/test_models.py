"""The contract every model kind shares through models.forward, backward and forecast."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import models
from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig
from seqcast.numerics import make_rng

SMALL = {
    "lstm": {"hidden": 3},
    "gru": {"hidden": 3},
    "transformer": {"d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 5},
}
# One changed dim per case; every one keeps d_model divisible by n_heads.
OTHER = {"hidden": 4, "d_model": 6, "n_heads": 1, "n_layers": 2, "d_ff": 6}


def small(kind, **changes):
    dims = SMALL[kind] | changes
    return models.init_params(ModelConfig(kind=kind, **dims), make_rng(0))


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize(
    "shape", [(6,), (2, 0), (2, 3, 1), ()], ids=["1d", "no-steps", "3d", "scalar"]
)
def test_input_of_wrong_shape_rejected(kind, shape):
    with pytest.raises(ValueError, match=r"expected input of shape \(batch, steps\)"):
        models.forward(small(kind), np.zeros(shape))


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
    rng = make_rng(seed)
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
