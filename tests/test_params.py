import copy

import numpy as np
import pytest

from seqcast import models
from seqcast.models import MODEL_KINDS, ModelConfig


def build(kind, seed=0):
    dims = (
        dict(d_model=8, n_heads=2, n_layers=2, d_ff=16) if kind == "transformer" else dict(hidden=4)
    )
    cfg = ModelConfig(kind=kind, **dims)
    return models.init_params(cfg, np.random.default_rng(seed))


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


def test_packed_rows_are_each_pairs_weight_and_bias_and_add_packed_inverts_them():
    params = build("gru")
    pairs = (("w_r", "b_r"), ("w_h", "b_h"), ("w_z", "b_z"))  # any order of the layout's pairs
    rows = params.packed(pairs).copy()
    for k, (w, b) in enumerate(pairs):
        block = rows[4 * k : 4 * (k + 1)]
        assert np.array_equal(block, np.hstack([getattr(params, w), getattr(params, b)[:, None]]))
    grads = models.rebuild(params, np.zeros_like(params.theta))
    grads.add_packed(pairs, params.packed(pairs))
    grads.add_packed(pairs, params.packed(pairs))
    for name, g in grads.named_arrays():
        packed = name in {n for pair in pairs for n in pair}
        assert (g == (2 * getattr(params, name) if packed else 0.0)).all(), name
