"""One model's parameters: a contiguous float64 vector with a named view per array.

The layout comes from the kind's ``shapes(**dims)`` table: views follow the
table's order, back to back, so the optimizer works on ``theta`` while the
model code reads the views. A dotted name ``group.i.field`` becomes
``params.group[i].field``; the Transformer's blocks are ``params.layers``.
Views are plain instance attributes because batch-1 forecasting reads them
at every step.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


class Params:
    """Parameters of one `kind` model with architecture `dims`; theta defaults to zeros."""

    def __init__(self, kind: str, dims: dict[str, int], theta: np.ndarray | None = None):
        from . import REGISTRY

        entry = REGISTRY[kind]
        dims = {key: dims[key] for key in entry.arch_keys}
        shapes = entry.shapes(dims)
        size = sum(math.prod(shape) for shape in shapes.values())
        if theta is None:
            theta = np.zeros(size)
        elif theta.dtype != np.float64 or theta.shape != (size,) or not theta.flags.c_contiguous:
            raise ValueError(f"{kind} {dims} needs a contiguous float64 vector of {size} values")
        self.kind, self.dims, self.theta = kind, dims, theta
        self._named = []
        offset = 0
        for name, shape in shapes.items():
            view = theta[offset : offset + math.prod(shape)].reshape(shape)
            offset += view.size
            self._named.append((name, view))
            group, _, rest = name.partition(".")
            if not rest:
                setattr(self, name, view)
                continue
            idx, field = rest.split(".")
            members = self.__dict__.setdefault(group, [])
            if int(idx) == len(members):
                members.append(SimpleNamespace())
            setattr(members[int(idx)], field, view)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, live view) pairs in layout order, the weight-file block order."""
        return list(self._named)

    def __reduce__(self):
        # Copies and pickles rebuild the views over their own theta.
        return Params, (self.kind, self.dims, self.theta)
