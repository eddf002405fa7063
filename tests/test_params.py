import copy

import numpy as np
import pytest

from seqcast import models
from seqcast.models import MODEL_KINDS, ModelConfig
from seqcast.numerics import make_rng


def build(kind, seed=0):
    cfg = ModelConfig(kind=kind, hidden=4, d_model=8, n_heads=2, n_layers=2, d_ff=16)
    return models.init_params(cfg, make_rng(seed))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_deepcopy_views_follow_own_theta(kind):
    params = build(kind)
    before = params.theta.copy()
    clone = copy.deepcopy(params)
    assert not np.shares_memory(clone.theta, params.theta)
    for _, view in clone.named_arrays():
        assert np.shares_memory(view, clone.theta)
        view[...] = 7.0
    assert (clone.theta == 7.0).all()
    assert np.array_equal(params.theta, before)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rebuild_over_new_theta(kind):
    params = build(kind)
    rebuilt = models.rebuild(params, params.theta.copy())
    assert (rebuilt.kind, rebuilt.dims) == (params.kind, params.dims)
    for (n1, a), (n2, b) in zip(params.named_arrays(), rebuilt.named_arrays()):
        assert n1 == n2
        assert np.array_equal(a, b)
        assert not np.shares_memory(b, params.theta)
    with pytest.raises(ValueError, match="vector"):
        models.rebuild(params, params.theta[:-1].copy())


def _old_gate_slices(kind, theta, h):
    """The gate stacks as fixed offsets in theta, as the RNN modules once computed them."""
    if kind == "lstm":
        n = 4 * h * (h + 1)
        return theta[:n].reshape(4, h, h + 1), theta[n : n + 4 * h].reshape(4, h)
    gate = h * (h + 1)  # the GRU's b_z follows w_z, w_r and w_h
    return theta[: 2 * gate].reshape(2, h, h + 1), theta[3 * gate : 3 * gate + 2 * h].reshape(2, h)


GATES = {
    "lstm": (("w_f", "w_i", "w_c", "w_o"), ("b_f", "b_i", "b_c", "b_o")),
    "gru": (("w_z", "w_r"), ("b_z", "b_r")),
}


@pytest.mark.parametrize("hidden", range(1, 9))
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_stacked_matches_the_old_offset_slices(kind, hidden):
    params = models.init_params(ModelConfig(kind=kind, hidden=hidden), make_rng(hidden))
    params.theta += make_rng(50 + hidden).normal(size=params.theta.size)  # biases too
    x = make_rng(hidden).normal(size=(3, 5))
    preds, cache = models.forward(params, x)
    grads = models.backward(params, cache, np.ones_like(preds))
    for p in (params, grads):
        for names, old in zip(GATES[kind], _old_gate_slices(kind, p.theta, hidden)):
            view = p.stacked(*names)
            assert view.shape == old.shape
            assert view.tobytes() == old.tobytes()
            assert np.shares_memory(view, p.theta)
            view[...] = -1.0  # a write lands in theta, in the same place
            assert (old == -1.0).all()


@pytest.mark.parametrize(
    "names,why",
    [(("w_f", "w_c"), "not adjacent"), (("w_o", "b_f"), "one shape"), (("w_i", "w_f"), "not adjacent")],
    ids=["gap", "mixed-shapes", "reversed"],
)
def test_stacked_rejects_a_run_that_is_not_one(names, why):
    with pytest.raises(ValueError, match=why):
        build("lstm").stacked(*names)
