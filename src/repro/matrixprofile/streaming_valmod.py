"""Streaming variable-length VALMOD — online motif/discord maintenance.

:class:`StreamingValmod` generalizes the fixed-length STAMPI appends of
:class:`~repro.matrixprofile.streaming.StreamingMatrixProfile` to the
paper's whole length range ``[l_min, l_max]``, with optional sliding-
window eviction (``max_points=``).  It is built as two layers:

**Eager layer (per append, O(L·n) vector work in blocks of rows).**  The
streaming window
(:class:`~repro.kernels.streaming_stats.StreamingSeriesStats`, shared
with :class:`~repro.matrixprofile.streaming.StreamingMatrixProfile`)
extends the ``(L, capacity)`` window-statistics tables of every length
at once and maintains the trailing co-moment row at ``l_min``
(:mod:`repro.distance.comoment`), re-anchored exactly by the shared
drift rule.  The layer writes Welford's front-add ``C_{l+1}[j] =
C_l[j+1] + l/(l+1)·(t[j] - mu_l[j+1])·(t[n-l-1] - mu_l[n-l])`` into a
``(rows, n - l_min + 1)`` table (one ``np.add`` per length), scores the
newest subsequence of each of those lengths with one broadcast Eq. 3,
masks each row's exclusion zone and invalid tail with one compare, and
takes the row minima with one ``argmin``.  A block holds as many whole
rows as fit :data:`_EAGER_BLOCK_CELLS` (at least one): a short window
is one 2-D pass over all L lengths, a long one a pass per length, so
the scratch holds 2^15 cells or one row, whichever is larger.  From those minima it maintains, in
arrays indexed by ``length - l_min``:

* per-length *discord upper bounds* ``U_l`` — the MAD machinery of
  :mod:`repro.core.discords_variable` flipped online: each position's
  nearest-neighbor distance only shrinks under appends, so the running
  ``max`` of observed row minima stays an admissible bound on the
  profile maximum.  Each bound remembers its earliest supporting
  neighbor; eviction past a support invalidates the bound (set to
  ``+inf``) instead of silently drifting;
* motif-improvement events (best-known pair per length).

**Materialization layer (on demand, version-cached).**  Exactness —
the *streaming-vs-batch differential wall* — is anchored here:

* :meth:`motifs` runs the real batch :class:`~repro.core.valmod.Valmod`
  driver on the current window, so the result is bitwise identical to
  ``valmod(window, ...)`` by construction.  (Engine profile values are
  *not* append-invariant — the FFT first rows and the re-anchor
  schedule depend on the series size — so any eagerly merged
  cell values would differ at the last bit from a fresh batch run;
  materializing through the batch code path is what makes the wall
  hold bitwise.)
* :meth:`discords` runs the batch driver's certification fixpoint,
  seeded with the lengths of the previous selection and fed the
  maintained bounds (inflated by :data:`STREAMING_UB_SLACK`): lengths
  whose bound falls strictly below the k-th threshold are skipped;
  every other length is recomputed on the current window with the same
  registered engine the batch driver uses.  By the certification
  argument of ``docs/DISCORDS.md`` the selection is bitwise identical
  to :func:`~repro.core.discords_variable.find_discords_pruned` —
  pruning with valid bounds affects cost, never output.  Cold starts
  take the bounds from the batch driver's own bound pass.

Coordinates: positions in materialized results are window-relative
(identical to a batch run on :meth:`series`); :attr:`window_start`
maps them to absolute stream offsets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.discords import Discord, per_length_candidates
from repro.core.discords_variable import _bound_pass, _certify
from repro.core.valmod import DEFAULT_P, Valmod, ValmodResult  # repro-lint: ignore[R009] - streaming engine composes motif+discord maintenance by design; the façade wraps it
from repro.distance.comoment import distance_profile_from_qt
from repro.distance.znorm import as_series
from repro.exceptions import (
    InvalidParameterError,
    WindowTooSmallError,
)
from repro.kernels.context import SeriesContext
from repro.kernels.streaming_stats import StreamingSeriesStats
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.registry import DEFAULT_ENGINE, compute_with
from repro.types import FloatArray, IntArray

__all__ = ["StreamingValmod", "StreamEvent", "STREAMING_UB_SLACK"]

#: relative slack applied to the maintained discord bounds before the
#: strict pruning comparison.  Larger than the batch driver's
#: ``UB_RELATIVE_SLACK`` (1e-9) because the eagerly maintained bounds
#: ride a rolling co-moment recurrence between exact re-anchors and
#: streaming window statistics, both of which carry more float noise
#: than the batch listDP co-moments.  Inflating only ever converts a prune
#: into a recompute — exactness never depends on this value.
STREAMING_UB_SLACK = 1e-6

#: retained change events; the oldest are dropped (and counted) beyond.
_EVENT_QUEUE_MAX = 4096

#: cells (lengths x columns) per block of the eager pass: a block holds
#: as many whole rows as fit (at least one), 256 KiB per float64 scratch
#: array, so a long window does not hold all L rows at once.
_EAGER_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class StreamEvent:
    """One change event emitted by the streaming engine.

    ``kind`` is one of ``"motif-improved"`` (eager layer: the best-known
    pair at ``length`` got closer), ``"motifs-changed"`` /
    ``"discords-changed"`` (a materialization produced a different
    top result than the previous one), or ``"window-evicted"``.
    ``at_point`` is the absolute number of points ingested when the
    event fired.
    """

    kind: str
    at_point: int
    length: int
    detail: str


class StreamingValmod:
    """Online variable-length motif and discord maintenance.

    Usage::

        sv = StreamingValmod(seed_series, l_min=32, l_max=64,
                             max_points=4096)
        for value in feed:
            sv.append(value)
        motifs = sv.motifs()       # == valmod(sv.series(), ...) bitwise
        discords = sv.discords()   # == find_discords_pruned(...) bitwise

    ``append``/``extend`` are cheap (eager bound/event maintenance);
    :meth:`motifs` / :meth:`discords` materialize exact batch-identical
    results for the current window and are cached until the window
    changes.
    """

    def __init__(
        self,
        series: FloatArray,
        l_min: int,
        l_max: int,
        *,
        p: int = DEFAULT_P,
        k_discords: int = 3,
        engine: str = DEFAULT_ENGINE,
        n_jobs: Optional[int] = 1,
        track_top_k: int = 0,
        max_points: Optional[int] = None,
    ) -> None:
        t = as_series(series, min_length=8)
        if l_min < 2 or l_min > l_max:
            raise InvalidParameterError(
                f"need 2 <= l_min <= l_max, got l_min={l_min} l_max={l_max}"
            )
        if l_max > t.size // 2:
            raise InvalidParameterError(
                f"l_max {l_max} invalid for an initial series of {t.size} points"
            )
        if p <= 0:
            raise InvalidParameterError(f"p must be positive, got {p}")
        if k_discords <= 0:
            raise InvalidParameterError(
                f"k_discords must be positive, got {k_discords}"
            )
        if track_top_k < 0:
            raise InvalidParameterError(
                f"track_top_k must be non-negative, got {track_top_k}"
            )
        self.l_min = int(l_min)
        self.l_max = int(l_max)
        self.p = int(p)
        self.k_discords = int(k_discords)
        self.track_top_k = int(track_top_k)
        self._engine = str(engine)
        self._n_jobs = n_jobs
        self._max_points = self._validated_max_points(max_points)

        self._stats = StreamingSeriesStats(t, self.l_min, self.l_max)
        self._start = 0
        self._total = t.size
        self._version = 0
        # per-length state, indexed by length - l_min
        lengths = np.arange(self.l_min, self.l_max + 1)
        self._lengths = lengths
        self._rows = np.arange(lengths.size)
        self._sqrt = np.sqrt(lengths)
        zones = np.array(
            [exclusion_zone_half_width(int(length)) for length in lengths]
        )
        # column j of row r is trivial or past the row's last window when
        # j >= n - _masked_from[r] (the newest window's exclusion zone)
        self._masked_from = (lengths + zones - 1)[:, None]

        # eager bookkeeping (+inf == unknown / not prunable, -1 == none)
        self._discord_ub = np.full(lengths.size, math.inf, dtype=np.float64)
        self._ub_support = np.full(lengths.size, -1, dtype=np.int64)
        self._motif_best = np.full(lengths.size, math.inf, dtype=np.float64)
        self._motif_members = np.full((lengths.size, 2), -1, dtype=np.int64)

        self._events: Deque[StreamEvent] = deque(maxlen=_EVENT_QUEUE_MAX)
        self._motif_cache: Optional[Tuple[int, ValmodResult]] = None
        self._discord_cache: Optional[Tuple[int, List[Discord]]] = None
        self._window_cache: Optional[Tuple[int, FloatArray, SeriesContext]] = None
        self._last_motif_sig: Optional[Tuple] = None
        self._last_discord_sig: Optional[Tuple] = None
        self._warm_lengths: List[int] = []

        if self._max_points is not None and self._stats.n_points > self._max_points:
            self._evict(self._stats.n_points - self._max_points)
            self._version += 1

    # ------------------------------------------------------------------
    # window geometry

    def _validated_max_points(self, max_points: Optional[int]) -> Optional[int]:
        if max_points is None:
            return None
        max_points = int(max_points)
        if max_points < 2 * self.l_max:
            raise WindowTooSmallError(
                f"max_points={max_points} cannot hold two non-overlapping "
                f"subsequences of l_max={self.l_max} (need >= {2 * self.l_max})"
            )
        return max_points

    @property
    def max_points(self) -> Optional[int]:
        """Sliding-window capacity (None = unbounded)."""
        return self._max_points

    @property
    def window_start(self) -> int:
        """Absolute stream offset of the first retained point."""
        return self._start

    @property
    def total_points(self) -> int:
        """Points ingested over the stream's lifetime."""
        return self._total

    def __len__(self) -> int:
        return self._stats.n_points

    def series(self) -> FloatArray:
        """A copy of the current window."""
        return np.array(self._stats.series(), dtype=np.float64)

    def resize(self, max_points: Optional[int]) -> None:
        """Change the sliding-window capacity, evicting immediately.

        Raises :class:`~repro.exceptions.WindowTooSmallError` when the
        new capacity cannot hold two non-overlapping ``l_max`` windows.
        """
        self._max_points = self._validated_max_points(max_points)
        if self._max_points is not None and self._stats.n_points > self._max_points:
            self._evict(self._stats.n_points - self._max_points)
            self._version += 1

    # ------------------------------------------------------------------
    # ingestion

    def append(self, value: float) -> None:
        """Ingest one point: O(L·n) eager update, caches invalidated."""
        v = float(value)
        if not np.isfinite(v):
            raise InvalidParameterError(f"appended value must be finite, got {value}")
        with obs.span("streaming.append"):
            obs.add("streaming.appends")
            self._ingest(v)
            if (
                self._max_points is not None
                and self._stats.n_points > self._max_points
            ):
                self._evict(self._stats.n_points - self._max_points)
        self._version += 1

    def extend(self, values: Sequence[float]) -> None:
        """Append many points; ``extend([])`` is a strict no-op."""
        for value in values:
            self.append(value)

    def _ingest(self, value: float) -> None:
        stats = self._stats
        stats.append(value)
        self._total += 1
        t = stats.series()
        n = t.size
        width = n - self.l_min + 1
        rows = self._rows
        owners = n - self._lengths  # newest subsequence of each length
        mu, sigma = stats.window_stats()
        lengths = self._lengths[:, None]
        mu_q = mu[rows, owners][:, None]
        sigma_q = sigma[rows, owners][:, None]
        d = np.empty(rows.size, dtype=np.float64)
        nearest = np.empty(rows.size, dtype=np.int64)
        masked_from = n - self._masked_from
        # the table runs in blocks of whole rows, as many as fit the
        # cell budget (at least one)
        per_block = max(1, _EAGER_BLOCK_CELLS // width)
        previous = stats.trailing_comoment()  # C at l_min, where the chain starts
        for r0 in range(0, rows.size, per_block):
            r1 = min(r0 + per_block, rows.size)
            # Welford's front-add from row r - 1 (length l) to row r:
            # C_{l+1}[j] = C_l[j+1] + l/(l+1)·(t[j] - mu_l[j+1])·(t[n-l-1] -
            # mu_l[n-l]); row r is valid on its first width - r columns
            c = np.empty((r1 - r0, width), dtype=np.float64)
            lo = max(r0, 1)
            coef = (self._lengths[lo - 1 : r1 - 1] / self._lengths[lo:r1]) * (
                t[owners[lo:r1]] - mu_q[lo - 1 : r1 - 1, 0]
            )
            products = (t[: width - 1] - mu[lo - 1 : r1 - 1, 1:]) * coef[:, None]
            if r0 == 0:
                c[0] = previous
            for r in range(lo, r1):
                valid = width - r
                row = c[r - r0]
                np.add(
                    previous[1 : valid + 1], products[r - lo, :valid], out=row[:valid]
                )
                row[valid:] = 0.0  # past the row's last window; masked below
                previous = row
            block = distance_profile_from_qt(
                c, lengths[r0:r1], sigma_q[r0:r1], sigma[r0:r1]
            )
            # each row's exclusion zone and invalid tail, masked at once;
            # both lie at or right of the block's first masked column
            tail = int(masked_from[r0:r1].min())
            np.putmask(
                block[:, tail:],
                np.arange(tail, width) >= masked_from[r0:r1],
                math.inf,
            )
            at = block.argmin(axis=1)
            nearest[r0:r1] = at
            d[r0:r1] = block[np.arange(r1 - r0), at]
        obs.add("streaming.lengths.updated", int(self._rows.size))

        # A length whose newest position has no non-trivial candidate has
        # nothing bounding it: the whole length becomes non-prunable.  An
        # unknown bound (+inf) has no support (-1), and both stay so.
        found = np.isfinite(d)
        norm_d = d / self._sqrt
        neighbor = self._start + nearest
        ub = np.maximum(self._discord_ub, norm_d)
        self._discord_ub = np.where(found, ub, math.inf)
        self._ub_support = np.where(
            found, np.minimum(self._ub_support, neighbor), -1
        )

        improved = d < self._motif_best
        announce = improved & np.isfinite(self._motif_best)
        self._motif_best[improved] = d[improved]
        members = self._motif_members
        members[improved, 0] = neighbor[improved]
        members[improved, 1] = self._start + owners[improved]
        for r in np.flatnonzero(announce):
            a, b = members[r]
            self._emit(
                "motif-improved",
                self.l_min + int(r),
                f"pair ({a}, {b}) at normalized distance {norm_d[r]:.6f}",
            )

    def _evict(self, count: int) -> None:
        remaining = self._stats.n_points - count
        if remaining < 2 * self.l_max:
            raise WindowTooSmallError(
                f"evicting {count} points would leave {remaining} < "
                f"{2 * self.l_max} needed for l_max={self.l_max}"
            )
        obs.add("streaming.entries.evicted", count)
        self._stats.evict(count)
        self._start += count
        lost = (self._ub_support >= 0) & (self._ub_support < self._start)
        self._discord_ub[lost] = math.inf
        self._ub_support[lost] = -1
        gone = self._motif_members.min(axis=1) < self._start
        self._motif_best[gone] = math.inf
        self._motif_members[gone] = -1
        self._emit(
            "window-evicted",
            0,
            f"{count} points retired; window now starts at {self._start}",
        )

    # ------------------------------------------------------------------
    # events

    def _emit(self, kind: str, length: int, detail: str) -> None:
        if len(self._events) == _EVENT_QUEUE_MAX:
            # the bounded deque drops its oldest event on this append
            obs.add("streaming.events.dropped")
        self._events.append(
            StreamEvent(kind=kind, at_point=self._total, length=length,
                        detail=detail)
        )

    def drain_events(self) -> List[StreamEvent]:
        """Return and clear the accumulated change events."""
        events = list(self._events)
        self._events.clear()
        return events

    # ------------------------------------------------------------------
    # materialization

    def _window(self) -> Tuple[FloatArray, SeriesContext]:
        cache = self._window_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2]
        arr = np.array(self._stats.series(), dtype=np.float64)
        ctx = SeriesContext(arr)
        self._window_cache = (self._version, arr, ctx)
        return arr, ctx

    def motifs(self) -> ValmodResult:
        """Exact VALMOD result for the current window (version-cached).

        Bitwise identical to ``valmod(self.series(), l_min, l_max, p=p,
        track_top_k=track_top_k)`` — the batch driver runs on the
        window, with the per-window context shared across
        materializations.
        """
        cache = self._motif_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        arr, ctx = self._window()
        with obs.span("streaming.materialize.motifs"):
            result = Valmod(
                arr,
                self.l_min,
                self.l_max,
                p=self.p,
                track_top_k=self.track_top_k,
                n_jobs=self._n_jobs,
                context=ctx,
            ).run()
        self._motif_cache = (self._version, result)
        self._refresh_from_motifs(result)
        return result

    def motif_pairs(self) -> Dict[int, object]:
        """Per-length best pairs of the current window (materializes)."""
        return dict(self.motifs().motif_pairs)

    def _refresh_from_motifs(self, result: ValmodResult) -> None:
        for length, pair in result.motif_pairs.items():
            row = length - self.l_min
            self._motif_best[row] = pair.distance
            self._motif_members[row] = (self._start + pair.a, self._start + pair.b)
        best = result.best_motif_pair()
        sig = (best.length, self._start + best.a, self._start + best.b,
               best.distance)
        if self._last_motif_sig is not None and sig != self._last_motif_sig:
            self._emit(
                "motifs-changed",
                best.length,
                f"best motif now ({sig[1]}, {sig[2]}) length {best.length} "
                f"normalized {best.normalized_distance:.6f}",
            )
        self._last_motif_sig = sig

    def discords(self) -> List[Discord]:
        """Exact top-k variable-length discords (version-cached).

        Bitwise identical to ``find_discords_pruned(self.series(),
        l_min, l_max, k=k_discords, engine=engine, p=p)``: lengths the
        maintained bounds cannot rule out are recomputed on the current
        window with the same engine, and the greedy selection consumes
        pruned lengths' candidates only after it is already full (the
        certification argument of ``docs/DISCORDS.md``).
        """
        cache = self._discord_cache
        if cache is not None and cache[0] == self._version:
            return list(cache[1])
        arr, ctx = self._window()
        with obs.span("streaming.materialize.discords"):
            selection = self._materialize_discords(arr, ctx)
        self._discord_cache = (self._version, list(selection))
        sig = tuple(
            (d.length, self._start + d.start, d.normalized_distance)
            for d in selection
        )
        if self._last_discord_sig is not None and sig != self._last_discord_sig:
            top = selection[0] if selection else None
            detail = (
                f"top discord now start {self._start + top.start} "
                f"length {top.length} normalized "
                f"{top.normalized_distance:.6f}"
                if top is not None
                else "discord set emptied"
            )
            self._emit("discords-changed", top.length if top else 0, detail)
        self._last_discord_sig = sig
        return selection

    def _materialize_discords(
        self, t: FloatArray, ctx: SeriesContext
    ) -> List[Discord]:
        scan = list(range(self.l_min, self.l_max + 1))
        k = self.k_discords

        def candidates_at(length: int) -> List[Discord]:
            with obs.span("discords.profile"):
                mp = compute_with(self._engine, t, length, context=ctx)
            # exact refresh of the maintained bound for this window
            row = length - self.l_min
            if np.isfinite(mp.profile).all() and (mp.index >= 0).all():
                self._discord_ub[row] = float(mp.profile.max()) / self._sqrt[row]
                self._ub_support[row] = self._start + int(mp.index.min())
            else:
                self._discord_ub[row] = math.inf
                self._ub_support[row] = -1
            return per_length_candidates(mp.profile, length, k)

        computed: Dict[int, List[Discord]] = {}
        if np.isinf(self._discord_ub).all():
            # Cold start: the batch driver's base profile and bound pass,
            # recording the bounds it derives.
            computed[scan[0]] = candidates_at(scan[0])
            for length, upper, neighbor in _bound_pass(
                t, ctx, scan, self.p, self._n_jobs
            ):
                self._discord_ub[length - self.l_min] = upper
                self._ub_support[length - self.l_min] = self._listdp_support(
                    neighbor, t.size, length, upper
                )
        for length in self._warm_lengths:
            if length not in computed:
                computed[length] = candidates_at(length)

        bounds = {
            length: float(self._discord_ub[length - self.l_min])
            * (1.0 + STREAMING_UB_SLACK)
            for length in scan
            if length not in computed
        }
        # Every bound is known up front, so there is no ascending pass:
        # each unevaluated length starts pruned, and the fixpoint
        # recomputes at once every one whose bound reaches the seed
        # threshold.  Each recompute also tightens that length's
        # maintained bound to the exact maximum for later refreshes.
        selection = _certify(computed, bounds, candidates_at, k)
        self._warm_lengths = sorted({d.length for d in selection})
        return selection

    def _listdp_support(
        self, store_neighbor: IntArray, n: int, length: int, upper: float
    ) -> int:
        """Earliest absolute neighbor offset backing a listDP bound.

        Conservative superset: the minimum over every in-range stored
        neighbor (the true supports are the per-position argmin entries,
        a subset), so eviction invalidates no earlier than it must.
        """
        if not math.isfinite(upper):
            return -1
        n_dp = n - length + 1
        nb = store_neighbor[:n_dp]
        valid = nb[(nb >= 0) & (nb <= n - length)]
        if valid.size == 0:
            return -1
        return self._start + int(valid.min())

    def discord_bounds(self) -> Dict[int, float]:
        """Maintained per-length normalized discord upper bounds."""
        return {
            self.l_min + row: float(bound)
            for row, bound in enumerate(self._discord_ub)
        }
