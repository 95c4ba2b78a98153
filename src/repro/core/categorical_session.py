"""EARL for categorical data with closed-form error (Appendix A).

For a proportion-of-successes query the error does not need the
bootstrap at all: ``p̂ = X/n`` has the known binomial variance
``p(1-p)/n``, so the sample size that meets σ is solved for instead of
searched, and each round checks the bound on the realized sample (the
pilot's p̂ may be off for rare events).  The closed form rides on the
``proportion`` statistic (``Statistic.closed_form``), so every engine
that reads it works this way; this driver only turns items into the
0/1 column ``proportion`` reads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import EarlConfig
from repro.core.earl import EarlSession


class CategoricalEarlSession(EarlSession):
    """Early-approximation loop for a success proportion: an
    :class:`~repro.core.EarlSession` of ``"proportion"`` (``B = 1``)
    over the items' success indicators, computed once — one ``!= 0``
    over numeric items, else one pass of ``predicate`` (default:
    truthiness) through ``np.fromiter``.  σ bounds the cv of p̂.

    Example
    -------
    >>> from repro.core import EarlConfig
    >>> from repro.workloads import categorical_dataset
    >>> coins = categorical_dataset(100_000, 0.3, seed=1)
    >>> result = CategoricalEarlSession(
    ...     coins, config=EarlConfig(sigma=0.05, seed=2)).run()
    >>> result.B, result.achieved, abs(result.estimate - 0.3) < 0.03
    (1, True, True)
    """

    def __init__(self, data: Sequence, *,
                 predicate: Optional[Callable] = None,
                 config: Optional[EarlConfig] = None) -> None:
        items = np.asarray(data) if predicate is None else None
        if items is not None and items.dtype.kind in "biufc":
            successes = items != 0
        else:
            successes = np.fromiter(map(predicate or bool, data), dtype=bool)
        super().__init__(successes, "proportion", config=config)
