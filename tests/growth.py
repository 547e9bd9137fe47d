"""The growth-shape fit the complexity gates share — tier-1 tests over
deterministic work counters and the FIG/THM benches alike (one copy;
``benchmarks/_helpers.py`` re-exports it)."""

import math
from typing import List


def fit_growth(sizes: List[int], costs: List[int]) -> float:
    """Estimated polynomial degree of cost growth: the slope of
    log(cost) against log(size), via least squares.  ~1 means linear,
    ~2 quadratic."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(c, 1)) for c in costs]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den if den else 0.0
