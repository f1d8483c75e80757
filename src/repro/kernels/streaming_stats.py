"""The streaming window shared by both streaming engines.

:class:`~repro.kernels.context.SeriesContext` caches one
``moving_mean_std`` array pair per length for a *fixed* series; a
streaming engine would have to rebuild that context (and recompute every
window) on each append.  :class:`StreamingSeriesStats` is the streaming
counterpart: it owns an amortized-growth buffer of the current window
and two ``(L, capacity)`` tables of per-window means and standard
deviations, ``L = l_max - l_min + 1``, row ``r`` holding length
``l_min + r`` indexed by window start.  An append extends every row in
place from the last ``l_max`` points in one batched O(L·l_max) pass —
never a full recompute — and eviction or regrowth moves both tables
with one 2-D slice copy each.

It also owns the trailing co-moment row at ``l_min`` (the newest window
against every window, :mod:`repro.distance.comoment`), extended per
append by the co-moment recurrence and recomputed exactly by the drift
rule batch STOMP uses (``comoment.reanchors`` counts the recomputes).

Numerical contract: the newest windows' statistics are computed directly
on the window values, centred, in two passes — the L means from one
suffix sum of the last ``l_max`` points, then each variance as the mean
squared deviation from its own window mean — never as ``E[x²] - E[x]²``,
whose prefix-sum cancellation is what forces ``moving_mean_std`` onto
its "suspicious window" recompute path. Streaming values therefore agree
with ``window.mean()`` / ``window.var()`` to rounding error — within a
few ``eps·l·max|x|`` — even on high-magnitude shelves: close enough for
the eager bound layer, whose comparisons carry an explicit slack; the
materialization paths recompute batch statistics on the window and never
read these tables.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.distance.comoment import (
    comoment_row,
    drift_budget,
    drift_floor,
    drift_steps,
    increments,
)
from repro.distance.sliding import moving_mean_std
from repro.distance.znorm import CONSTANT_EPS, as_series
from repro.exceptions import InvalidParameterError
from repro.types import FloatArray

__all__ = ["StreamingSeriesStats"]

def _capacity_for(n: int) -> int:
    cap = 64
    while cap < n:
        cap *= 2
    return cap


class StreamingSeriesStats:
    """Growing window buffer, per-length window statistics, trailing C row.

    Supports :meth:`append` (one batched O(L·l_max) statistics pass plus
    an O(n) row update), :meth:`evict` (slide the retained window left),
    and zero-copy :meth:`mean_std` / :meth:`window_stats` /
    :meth:`trailing_comoment` views.  All arrays are float64.
    """

    def __init__(self, series: FloatArray, l_min: int, l_max: int) -> None:
        t = as_series(series, min_length=2)
        if l_min < 2 or l_min > l_max:
            raise InvalidParameterError(
                f"need 2 <= l_min <= l_max, got l_min={l_min} l_max={l_max}"
            )
        if l_max > t.size:
            raise InvalidParameterError(
                f"l_max {l_max} exceeds the initial series size {t.size}"
            )
        self.l_min = int(l_min)
        self.l_max = int(l_max)
        self._n = t.size
        self._cap = _capacity_for(t.size)
        self._buf = np.empty(self._cap, dtype=np.float64)
        self._buf[: self._n] = t
        lengths = np.arange(self.l_min, self.l_max + 1)
        self._lengths = lengths.astype(np.float64)
        self._rows = np.arange(lengths.size)
        # _in_window[r, c]: point c of the last l_max lies in the newest
        # window of length l_min + r
        self._in_window = (
            np.arange(self.l_max) >= (self.l_max - lengths)[:, None]
        ).astype(np.float64)
        # zero-filled: entries past a row's last window stay finite
        self._mu = np.zeros((lengths.size, self._cap), dtype=np.float64)
        self._sigma = np.zeros((lengths.size, self._cap), dtype=np.float64)
        for row, length in enumerate(range(self.l_min, self.l_max + 1)):
            mu, sigma = moving_mean_std(t, length)
            self._mu[row, : mu.size] = mu
            self._sigma[row, : sigma.size] = sigma
        self._c = np.empty(self._cap, dtype=np.float64)
        self._c_tmp = np.empty(self._cap, dtype=np.float64)
        self._anchor()

    @property
    def n_points(self) -> int:
        """Number of points currently retained."""
        return self._n

    @property
    def capacity(self) -> int:
        """Points the buffers hold before the next doubling."""
        return self._cap

    def series(self) -> FloatArray:
        """Read-only view of the current window (no copy)."""
        view = self._buf[: self._n]
        view.flags.writeable = False
        return view

    def _grow(self) -> None:
        obs.add("streaming.buffer.regrows")
        self._cap *= 2
        new_buf = np.empty(self._cap, dtype=np.float64)
        new_buf[: self._n] = self._buf[: self._n]
        self._buf = new_buf
        width = self._n - self.l_min + 1
        mu = np.zeros((self._rows.size, self._cap), dtype=np.float64)
        sigma = np.zeros((self._rows.size, self._cap), dtype=np.float64)
        mu[:, :width] = self._mu[:, :width]
        sigma[:, :width] = self._sigma[:, :width]
        self._mu, self._sigma = mu, sigma
        c = np.empty(self._cap, dtype=np.float64)
        c[:width] = self._c[:width]
        self._c = c
        self._c_tmp = np.empty(self._cap, dtype=np.float64)

    def append(self, value: float) -> None:
        """Ingest one point, extending every stats row and the trailing row."""
        if not math.isfinite(value):
            raise InvalidParameterError(
                f"appended value must be finite, got {value}"
            )
        value = float(value)
        if self._n + 1 > self._cap:
            self._grow()
        self._buf[self._n] = value
        self._n += 1
        n = self._n
        # the newest window of every length ends at the new point; the
        # window never holds fewer than l_max points, so all L exist
        tail = self._buf[n - self.l_max : n]
        mu = np.cumsum(tail[::-1])[self.l_min - 1 :] / self._lengths
        dev = tail - mu[:, None]
        dev *= self._in_window
        var = np.einsum("ij,ij->i", dev, dev) / self._lengths
        starts = n - self.l_min - self._rows
        self._mu[self._rows, starts] = mu
        self._sigma[self._rows, starts] = np.sqrt(np.maximum(var, 0.0))

        # The new row follows from the previous one by the co-moment
        # recurrence run along the row.  It reads every previous entry, so
        # it writes into the second buffer and the two swap.
        t = self._buf[:n]
        new = n - self.l_min
        mu = self._mu[0, : new + 1]
        df, dg = increments(t, self.l_min, mu)
        self._drift += drift_steps(t, self.l_min, df, dg, self._centre)[-1]
        sigma = float(self._sigma[0, new])
        if sigma >= CONSTANT_EPS and not 0.0 < self._floor <= sigma:
            self._floor = sigma  # the floor of the windows the drift reaches
        if self._drift > drift_budget(self.l_min, sigma, self._floor):
            obs.add("comoment.reanchors")
            self._anchor()
            return
        c = self._c_tmp
        c[1 : new + 1] = self._c[:new] + dg * df[-1] + df * dg[-1]
        c[0] = float(np.dot(t[: self.l_min] - mu[0], t[new:] - mu[new]))
        self._c, self._c_tmp = c, self._c

    def _anchor(self) -> None:
        """Recompute the trailing row exactly and restart the drift budget."""
        t = self._buf[: self._n]
        mu, sigma = self._mu[0, : self._n - self.l_min + 1], self._sigma[0]
        self._c[: mu.size] = comoment_row(t[-self.l_min :], t, mu, direct=True)
        self._drift = 0.0
        self._floor = drift_floor(sigma[: mu.size])
        self._centre = float(np.median(t))

    def evict(self, count: int) -> None:
        """Retire the ``count`` oldest points (slide the window left)."""
        if count < 0:
            raise InvalidParameterError(f"evict count must be >= 0, got {count}")
        if count == 0:
            return
        if count >= self._n or self._n - count < self.l_max:
            raise InvalidParameterError(
                f"evicting {count} of {self._n} points would leave fewer "
                f"than l_max={self.l_max} points"
            )
        n = self._n
        self._buf[: n - count] = self._buf[count:n]
        width = n - self.l_min + 1
        self._mu[:, : width - count] = self._mu[:, count:width]
        self._sigma[:, : width - count] = self._sigma[:, count:width]
        self._c[: width - count] = self._c[count:width]
        self._n = n - count

    def mean_std(self, length: int) -> tuple:
        """(mu, sigma) views over the current window's length-``l`` windows."""
        if not self.l_min <= length <= self.l_max:
            raise InvalidParameterError(
                f"length {length} outside configured [{self.l_min}, {self.l_max}]"
            )
        count = self._n - length + 1
        if count <= 0:
            raise InvalidParameterError(
                f"window of {self._n} points has no length-{length} subsequences"
            )
        row = length - self.l_min
        return self._mu[row, :count], self._sigma[row, :count]

    def window_stats(self) -> tuple:
        """(mu, sigma) views of shape ``(L, n - l_min + 1)``, every length at once.

        Row ``r`` holds length ``l_min + r`` by window start; its last
        ``r`` entries lie past the row's final window and hold stale
        finite values a caller must mask.
        """
        width = self._n - self.l_min + 1
        return self._mu[:, :width], self._sigma[:, :width]

    def trailing_comoment(self) -> FloatArray:
        """Read-only view: co-moments of the newest ``l_min`` window with every window."""
        view = self._c[: self._n - self.l_min + 1]
        view.flags.writeable = False
        return view
