"""Naive reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: explicit Python loops,
np.polyfit for the per-box lines, no shared kernels. The point is full
independence from the optimized code paths under test.
"""

import math
from fractions import Fraction

import numpy as np


def profile_naive(x):
    x = np.asarray(x, dtype=float)
    mean = x.mean()
    out = []
    total = 0.0
    for value in x:
        total += value - mean
        out.append(total)
    return np.asarray(out)


def autocov_naive(x, lag):
    x = np.asarray(x, dtype=float)
    n = x.size
    mean = x.mean()
    total = 0.0
    for t in range(n - lag):
        total += (x[t] - mean) * (x[t + lag] - mean)
    return total / n


def hac_naive(x, q):
    total = autocov_naive(x, 0)
    for k in range(1, q + 1):
        total += 2.0 * (1.0 - k / (q + 1.0)) * autocov_naive(x, k)
    return total


def optimal_q_naive(n, rho1):
    if rho1 == 0.0:
        return 0
    raw = (1.5 * n) ** (1.0 / 3.0) * (2.0 * abs(rho1) / (1.0 - rho1 * rho1)) ** (
        2.0 / 3.0
    )
    return min(int(math.floor(raw)), n - 1)


def v_stat_naive(x, q):
    x = np.asarray(x, dtype=float)
    profile = profile_naive(x)
    spread = profile.max() - profile.min()
    return spread / math.sqrt(hac_naive(x, q) * x.size)


def m_stat_naive(x, q):
    x = np.asarray(x, dtype=float)
    profile = profile_naive(x)
    variance = float(np.mean((profile - profile.mean()) ** 2))
    return variance / (x.size * hac_naive(x, q))


def permute_blocks(values, block_size, rng):
    """One block-bootstrap surrogate: the complete blocks in the order of
    ``rng.permutation``, then the tail in place."""
    n_blocks = values.size // block_size
    used = n_blocks * block_size
    blocks = values[:used].reshape(n_blocks, block_size)
    return np.concatenate([blocks[rng.permutation(n_blocks)].ravel(), values[used:]])


def _boxes_naive(profile, scale):
    n = profile.size
    n_boxes = n // scale
    boxes = []
    for i in range(n_boxes):
        boxes.append(profile[i * scale : (i + 1) * scale])
    for i in range(n_boxes):
        boxes.append(profile[n - (i + 1) * scale : n - i * scale])
    return boxes


def _box_residuals_naive(box):
    positions = np.arange(1, box.size + 1, dtype=float)
    slope, intercept = np.polyfit(positions, box, 1)
    return box - (intercept + slope * positions)


def dfa_fluct_naive(x, scale):
    profile = profile_naive(x)
    squares = []
    for box in _boxes_naive(profile, scale):
        residuals = _box_residuals_naive(box)
        squares.extend(residuals * residuals)
    return math.sqrt(sum(squares) / len(squares))


def dcca_cov_naive(x, y, scale):
    px = profile_naive(x)
    py = profile_naive(y)
    products = []
    for bx, by in zip(_boxes_naive(px, scale), _boxes_naive(py, scale)):
        rx = _box_residuals_naive(bx)
        ry = _box_residuals_naive(by)
        products.extend(rx * ry)
    return sum(products) / len(products)


def dcca_coeff_naive(x, y, scale):
    return dcca_cov_naive(x, y, scale) / (
        dfa_fluct_naive(x, scale) * dfa_fluct_naive(y, scale)
    )


def _cma_residuals_naive(profile, window):
    half = (window - 1) // 2
    out = []
    for t in range(half, profile.size - half):
        mean = float(np.mean(profile[t - half : t + half + 1]))
        out.append(profile[t] - mean)
    return np.asarray(out)


def dmca_cov_naive(x, y, window):
    rx = _cma_residuals_naive(profile_naive(x), window)
    ry = _cma_residuals_naive(profile_naive(y), window)
    return float(np.mean(rx * ry))


def dmca_fluct_naive(x, window):
    residuals = _cma_residuals_naive(profile_naive(x), window)
    return math.sqrt(float(np.mean(residuals * residuals)))


def dmca_coeff_naive(x, y, window):
    return dmca_cov_naive(x, y, window) / (
        dmca_fluct_naive(x, window) * dmca_fluct_naive(y, window)
    )


def detrended_sums_exact(px, py, scale, method):
    """Sxy, Sxx and Syy of two profiles at one scale in exact rational
    arithmetic: per-box least squares residuals for "dcca", residuals
    against the centered moving average of odd window ``scale`` otherwise.
    Returns floats rounded once from the exact sums."""
    residuals = []
    for profile in (px, py):
        exact = np.array([Fraction(float(v)) for v in profile], dtype=object)
        if method == "dcca":
            out = []
            t_mean = Fraction(scale + 1, 2)
            t_dev = [t - t_mean for t in range(1, scale + 1)]
            t_ss = sum(d * d for d in t_dev)
            for box in _boxes_naive(exact, scale):
                p_mean = sum(box) / scale
                slope = sum(d * (p - p_mean) for d, p in zip(t_dev, box)) / t_ss
                out.extend(p - p_mean - slope * d for d, p in zip(t_dev, box))
        else:
            half = (scale - 1) // 2
            window = sum(exact[:scale])
            out = []
            for t in range(half, exact.size - half):
                if t > half:
                    window += exact[t + half] - exact[t - half - 1]
                out.append(exact[t] - window / scale)
        residuals.append(out)
    rx, ry = residuals
    return tuple(
        float(sum(a * b for a, b in zip(u, v)))
        for u, v in ((rx, ry), (rx, rx), (ry, ry))
    )
