"""Web QoE: user satisfaction as a function of page-load time.

The mapping is the standard logistic "tolerance" curve used in web-QoE
studies: near-perfect satisfaction under ~2 s, a steep fall through the
2-8 s range, and near-zero beyond ~15 s.
"""

from __future__ import annotations

import math


def satisfaction_from_plt(
    plt_s: float,
    midpoint_s: float = 5.0,
    steepness: float = 0.8,
) -> float:
    """Satisfaction in [0, 1] for a page-load time.

    Args:
        plt_s: Page-load time in seconds.
        midpoint_s: PLT at which satisfaction crosses 0.5.
        steepness: Logistic slope; higher = sharper cliff.
    """
    if plt_s < 0:
        raise ValueError(f"plt must be non-negative, got {plt_s!r}")
    try:
        return 1.0 / (1.0 + math.exp(steepness * (plt_s - midpoint_s)))
    except OverflowError:
        # exp overflows past a ~892 s load (default curve): the curve's
        # limit, as the array form returns it.
        return 0.0


def satisfaction_from_plt_array(
    plt_s: "object",
    midpoint_s: float = 5.0,
    steepness: float = 0.8,
):
    """Vectorized :func:`satisfaction_from_plt` over an array of PLTs.

    Same logistic curve, element-wise, for the cohort engine's web
    satisfaction path; the property tests pin element-wise agreement
    with the scalar function.  Accepts anything ``numpy.asarray`` does.
    A PLT whose ``exp`` overflows maps to 0.0 without a warning.
    """
    import numpy  # deferred: the scalar path stays dependency-free

    values = numpy.asarray(plt_s, dtype=float)
    if numpy.any(values < 0):
        raise ValueError("plt must be non-negative")
    with numpy.errstate(over="ignore"):
        return 1.0 / (1.0 + numpy.exp(steepness * (values - midpoint_s)))
