"""Random-number-generator plumbing.

All stochastic code in :mod:`repro` accepts either an integer seed, ``None``
(fresh entropy) or an existing :class:`numpy.random.Generator`.  This module
normalises those inputs so that algorithms never have to special-case them.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RandomState = Union[None, int, np.random.Generator]


def as_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` for a reproducible
        stream, or an existing generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
