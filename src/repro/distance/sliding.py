"""Sliding dot products and running window statistics.

Two primitives power every O(n^2) matrix-profile engine in this library:

* :func:`sliding_dot_product` — the dot product of one query against every
  window of the series, computed in the frequency domain in O(n log n)
  (Algorithm 3, line 5 of the paper).
* :func:`moving_mean_std` — mean and standard deviation of every window of
  one length, in O(n) via blocked running sums (the running ``s`` / ``ss``
  of Algorithm 3, lines 6 and 13-14).

:func:`prefix_sums` gives the sum of any window in O(1) (PAA segment
means).  Window statistics come from :func:`moving_mean_std` alone:
``ss / l - mu^2`` from raw running sums cancels every digit at a large DC
offset.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.types import ComplexArray, FloatArray

from repro.exceptions import InvalidParameterError, InvalidSeriesError
from repro.distance.znorm import CONSTANT_EPS

__all__ = [
    "DIRECT_DOT_MAX",
    "fft_plan_size",
    "sliding_dot_product",
    "moving_mean_std",
    "prefix_sums",
]

#: queries at or below this length use direct correlation instead of the
#: FFT path.  Exposed so :class:`repro.kernels.context.SeriesContext` can
#: predict which calls will consult its cached series spectrum.
DIRECT_DOT_MAX = 64


def fft_plan_size(n: int, m: int) -> int:
    """Zero-padded FFT length used for an ``(n, m)`` sliding dot product.

    The next power of two at or above ``n + m``.  One source of truth for
    the plan size so a cached series spectrum (``SeriesContext``) is keyed
    exactly the way :func:`sliding_dot_product` would compute it.
    """
    return 1 << int(np.ceil(np.log2(n + m)))


def sliding_dot_product(
    query: FloatArray,
    series: FloatArray,
    series_fft: Optional[ComplexArray] = None,
) -> FloatArray:
    """Dot product of ``query`` with every window of ``series``.

    Returns a vector ``QT`` of length ``n - m + 1`` with
    ``QT[j] = sum(query * series[j : j + m])``, computed by FFT
    convolution.  For short queries NumPy's direct correlate is faster and
    exact, so we pick per call.

    ``series_fft`` may carry a precomputed ``np.fft.rfft(series, size)``
    with ``size = fft_plan_size(n, m)`` — the series half of the
    convolution is then reused instead of recomputed, and the result is
    bitwise identical to the uncached path (the transform is deterministic
    in its inputs).  Ignored on the direct-correlation path.
    """
    q = np.asarray(query, dtype=np.float64)
    if not np.isfinite(q).all():
        raise InvalidSeriesError("query contains NaN or infinite values")
    t = np.asarray(series, dtype=np.float64)
    m = q.size
    n = t.size
    if m == 0:
        raise InvalidParameterError("query must be non-empty")
    if m > n:
        raise InvalidParameterError(
            f"query (length {m}) longer than series (length {n})"
        )
    if m <= DIRECT_DOT_MAX:
        # Direct correlation: exact and fast for short queries.
        obs.add("mass.direct_dot_calls")
        return np.correlate(t, q, mode="valid")
    obs.add("mass.fft_calls")
    size = fft_plan_size(n, m)
    fq = np.fft.rfft(q[::-1], size)
    if series_fft is None:
        ft = np.fft.rfft(t, size)
    else:
        ft = series_fft
        if ft.size != size // 2 + 1:
            raise InvalidParameterError(
                f"series_fft has {ft.size} bins but plan size {size} "
                f"needs {size // 2 + 1}"
            )
    conv = np.fft.irfft(fq * ft, size)
    return conv[m - 1 : n]


def moving_mean_std(series: FloatArray, window: int) -> Tuple[FloatArray, FloatArray]:
    """Mean and std of every length-``window`` subsequence, in O(n).

    Algorithm 3's running sums, taken about the series median and
    restarted every ``window`` points: an offset costs no digits, and a
    high-magnitude segment's rounding stays in the two blocks a window
    touches.  The variance is ``ss/l - mu^2`` clipped at zero.
    """
    t = np.asarray(series, dtype=np.float64)
    n = t.size
    if window <= 0:
        raise InvalidParameterError(f"window must be positive, got {window}")
    if window > n:
        raise InvalidParameterError(
            f"window {window} longer than series of length {n}"
        )
    if not np.isfinite(t).all():
        raise InvalidSeriesError("series contains NaN or infinite values")
    centre = float(np.median(t))
    blocks = n // window + 2
    x = np.zeros(blocks * window, dtype=np.float64)
    x[:n] = t - centre
    count = n - window + 1

    def window_sums(values: FloatArray) -> Tuple[FloatArray, FloatArray]:
        # (window sums, sums over the two blocks each window touches)
        prefix = np.zeros((blocks, window + 1), dtype=np.float64)
        np.cumsum(values.reshape(blocks, window), axis=1, out=prefix[:, 1:])
        first = np.repeat(prefix[:-1, window], window)[:count]
        later = prefix[1:, :window].ravel()[:count]
        return first - prefix[:-1, :window].ravel()[:count] + later, first + later

    sums, _ = window_sums(x)
    sq_sums, magnitude = window_sums(x * x)
    mu = sums / window
    variance = sq_sums / window - mu * mu
    np.maximum(variance, 0.0, out=variance)
    # The sums still cancel inside a window far from the median (a shelf
    # of large values), so its variance can be pure noise — tiny-positive
    # for a constant window, which must be *exactly* zero for the
    # constant-window conventions to fire.  Recompute every window whose
    # cancellation noise floor is within 10 digits of its variance.
    noise_floor = 64.0 * np.finfo(np.float64).eps * (magnitude / window + mu * mu)
    mu += centre
    suspicious = np.where(variance <= 1e10 * noise_floor)[0]
    if suspicious.size:
        windows = np.lib.stride_tricks.sliding_window_view(t, window)[suspicious]
        mu[suspicious] = windows.mean(axis=1)
        variance[suspicious] = windows.var(axis=1)
    sigma = np.sqrt(variance)
    return mu, sigma


def prefix_sums(series: FloatArray) -> FloatArray:
    """Cumulative sum with a leading zero.

    With ``c = prefix_sums(T)`` the window ``T[i : i + l]`` has sum
    ``c[i + l] - c[i]``.
    """
    t = np.asarray(series, dtype=np.float64)
    if not np.isfinite(t).all():
        raise InvalidSeriesError("series contains NaN or infinite values")
    cumsum = np.empty(t.size + 1, dtype=np.float64)
    cumsum[0] = 0.0
    np.cumsum(t, out=cumsum[1:])
    return cumsum


def is_constant(sigma: float) -> bool:
    """True when a window standard deviation denotes a constant window."""
    return sigma < CONSTANT_EPS


def validate_subsequence_length(n: int, length: int) -> int:
    """Validate ``length`` against a series of ``n`` points.

    Returns the number of subsequences ``n - length + 1``.  Mirrors the
    checks done by :func:`repro.distance.znorm.as_series` for lengths.
    """
    if length < 2:
        raise InvalidParameterError(
            f"subsequence length must be at least 2, got {length}"
        )
    if length > n // 2:
        raise InvalidParameterError(
            f"subsequence length {length} must be at most half the series "
            f"length ({n} points) so a non-overlapping match can exist"
        )
    return n - length + 1
