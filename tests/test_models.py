"""The contract every model kind shares through models.forward and models.backward."""

import numpy as np
import pytest

from seqcast import models
from seqcast.models import MODEL_KINDS, REGISTRY
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
    return REGISTRY[kind].module.init_params(make_rng(0), **dims)


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

