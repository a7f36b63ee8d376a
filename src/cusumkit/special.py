"""Tail-accurate normal distribution primitives.

All modules share these wrappers so the deep-tail behavior of thresholds,
lower bounds, and inverse-CDF sampling comes from a single implementation
(scipy's ndtr/ndtri, accurate to full double precision in both tails).
"""

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = ["norm_cdf", "norm_ppf", "norm_pdf"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def norm_cdf(x):
    """Standard normal CDF."""
    return ndtr(x)


def norm_ppf(q):
    """Standard normal quantile function."""
    return ndtri(q)


def norm_pdf(x):
    """Standard normal density."""
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))
