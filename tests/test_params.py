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
