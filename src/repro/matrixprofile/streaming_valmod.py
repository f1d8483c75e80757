"""Streaming variable-length VALMOD — online motif/discord maintenance.

:class:`StreamingValmod` generalizes the fixed-length STAMPI appends of
:class:`~repro.matrixprofile.streaming.StreamingMatrixProfile` to the
paper's whole length range ``[l_min, l_max]``, with optional sliding-
window eviction (``max_points=``).  It is built as two layers:

**Eager layer (per append, O(L·n) vector work).**  One trailing QT row
is maintained at ``l_min`` by the STAMPI recurrence (re-anchored exactly
on a drift schedule) and advanced across lengths by the VALMOD shift-add
``QT_{l+1}[j] = QT_l[j+1] + t[j]·t[n-l-1]``.  From each per-length
distance row of the *newest* subsequence the layer maintains:

* best-so-far VALMP entries (normalized distance / length / neighbor
  per position) merged exactly as Algorithm 2 does;
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
  *not* append-invariant — the FFT ``qt_first`` anchors and the
  re-anchor schedule depend on the series size — so any eagerly merged
  cell values would differ at the last bit from a fresh batch run;
  materializing through the batch code path is what makes the wall
  hold bitwise.)
* :meth:`discords` runs a warm-start pruned sweep: lengths whose
  maintained bound (inflated by :data:`STREAMING_UB_SLACK`) falls
  strictly below the running k-th threshold are skipped; every other
  length is recomputed on the current window with the same registered
  engine the batch driver uses.  By the certification argument of
  ``docs/DISCORDS.md`` the selection is bitwise identical to
  :func:`~repro.core.discords_variable.find_discords_pruned` — pruning
  with valid bounds affects cost, never output.  Cold starts seed the
  bounds from the same listDP store the batch driver builds.

Coordinates: positions in materialized results are window-relative
(identical to a batch run on :meth:`series`); :attr:`window_start`
maps them to absolute stream offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.compute_mp import compute_matrix_profile
from repro.core.discords import (  # repro-lint: ignore[R009] - streaming engine composes motif+discord maintenance by design; the façade wraps it
    Discord,
    per_length_candidates,
    select_top_k,
)
from repro.core.discords_variable import length_upper_bound  # repro-lint: ignore[R009] - shares the MAD bound machinery with the batch driver
from repro.core.valmod import DEFAULT_P, Valmod, ValmodResult
from repro.distance.profile import distance_profile_from_qt
from repro.distance.znorm import as_series
from repro.exceptions import (
    InvalidParameterError,
    WindowTooSmallError,
)
from repro.kernels.context import SeriesContext
from repro.kernels.streaming_stats import StreamingSeriesStats
from repro.lint.contracts import (
    int_at_least,
    optional,
    positive_int,
    require,
    series_like,
)
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.registry import DEFAULT_ENGINE, compute_with
from repro.types import FloatArray, IntArray

__all__ = ["StreamingValmod", "StreamEvent", "STREAMING_UB_SLACK"]

#: relative slack applied to the maintained discord bounds before the
#: strict pruning comparison.  Larger than the batch driver's
#: ``UB_RELATIVE_SLACK`` (1e-9) because the eagerly maintained bounds
#: ride a rolling QT recurrence between exact re-anchors and streaming
#: window statistics, both of which carry more float noise than the
#: batch listDP dot products.  Inflating only ever converts a prune
#: into a recompute — exactness never depends on this value.
STREAMING_UB_SLACK = 1e-6

#: recompute the trailing QT row exactly every this many appends.
_ANCHOR_EVERY = 64

#: a single appended value this many times larger than anything seen in
#: the window forces an immediate exact re-anchor (the recurrence's
#: cancellation error scales with the squared magnitude).
_MAGNITUDE_ANCHOR_FACTOR = 1e3

#: retained change events; the oldest are dropped (and counted) beyond.
_EVENT_QUEUE_MAX = 4096


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

    @require(
        series=series_like(min_length=8),
        l_min=positive_int(),
        l_max=positive_int(),
        p=positive_int(),
        k_discords=positive_int(),
        track_top_k=int_at_least(0),
        max_points=optional(positive_int()),
    )
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
        lengths = range(self.l_min, self.l_max + 1)
        self._zones: Dict[int, int] = {
            length: exclusion_zone_half_width(length) for length in lengths
        }
        self._sqrt: Dict[int, float] = {
            length: math.sqrt(length) for length in lengths
        }

        # trailing QT row at l_min (dots of the newest subsequence
        # against every window), extended by the STAMPI recurrence.
        self._last_qt = np.correlate(
            t, t[t.size - self.l_min :], mode="valid"
        ).astype(np.float64)
        self._since_anchor = 0
        self._scale = max(1.0, float(np.abs(t).max()))

        # per-length eager state (+inf == unknown / not prunable)
        self._discord_ub: Dict[int, float] = {length: math.inf for length in lengths}
        self._ub_support: Dict[int, int] = {length: -1 for length in lengths}
        self._motif_best: Dict[int, float] = {length: math.inf for length in lengths}
        self._motif_members: Dict[int, Optional[Tuple[int, int]]] = {
            length: None for length in lengths
        }

        # eager VALMP arrays (window-relative positions, absolute neighbors)
        count = t.size - self.l_min + 1
        self._vl_cap = 1
        while self._vl_cap < 2 * count:
            self._vl_cap *= 2
        self._vl_norm = np.full(self._vl_cap, np.inf, dtype=np.float64)
        self._vl_raw = np.full(self._vl_cap, np.inf, dtype=np.float64)
        self._vl_len = np.zeros(self._vl_cap, dtype=np.int64)
        self._vl_nbr = np.full(self._vl_cap, -1, dtype=np.int64)

        self._events: List[StreamEvent] = []
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
        force_anchor = abs(value) > _MAGNITUDE_ANCHOR_FACTOR * self._scale
        self._scale = max(self._scale, abs(value))
        self._stats.append(value)
        self._total += 1
        t = self._stats.series()
        n = t.size
        l_min = self.l_min
        n_subs = n - l_min + 1

        self._since_anchor += 1
        if force_anchor or self._since_anchor >= _ANCHOR_EVERY:
            qt = np.correlate(t, t[n - l_min :], mode="valid").astype(np.float64)
            obs.add("streaming.qt.reanchors")
            self._since_anchor = 0
        else:
            prev = self._last_qt
            new = n_subs - 1
            qt = np.empty(n_subs, dtype=np.float64)
            qt[1:] = (
                prev
                - t[: n_subs - 1] * t[new - 1]
                + t[l_min : l_min + n_subs - 1] * t[n - 1]
            )
            qt[0] = float(np.dot(t[:l_min], t[new:]))
        self._last_qt = qt

        self._grow_valmp(n_subs)
        # the new l_min position starts unknown
        self._vl_norm[n_subs - 1] = np.inf
        self._vl_raw[n_subs - 1] = np.inf
        self._vl_len[n_subs - 1] = 0
        self._vl_nbr[n_subs - 1] = -1

        qt_l = qt
        updated = 0
        for length in range(l_min, self.l_max + 1):
            if length > l_min:
                qt_l = qt_l[1:] + t[: n - length + 1] * t[n - length]
            owner = n - length  # newest subsequence of this length
            mu, sigma = self._stats.mean_std(length)
            row = distance_profile_from_qt(
                qt_l, length, float(mu[owner]), float(sigma[owner]), mu, sigma
            )
            lo = max(0, owner - self._zones[length] + 1)
            row[lo:] = np.inf
            updated += 1
            j = int(np.argmin(row))
            d = float(row[j])
            if not math.isfinite(d):
                # the new position has no non-trivial candidate: nothing
                # bounds it, so the whole length becomes non-prunable.
                self._discord_ub[length] = math.inf
                self._ub_support[length] = -1
                continue
            norm_d = d / self._sqrt[length]
            if math.isfinite(self._discord_ub[length]):
                if norm_d > self._discord_ub[length]:
                    self._discord_ub[length] = norm_d
                self._ub_support[length] = min(
                    self._ub_support[length], self._start + j
                )
            if d < self._motif_best[length]:
                had_baseline = math.isfinite(self._motif_best[length])
                self._motif_best[length] = d
                self._motif_members[length] = (
                    self._start + j,
                    self._start + owner,
                )
                if had_baseline:
                    self._emit(
                        "motif-improved",
                        length,
                        f"pair ({self._start + j}, {self._start + owner}) "
                        f"at normalized distance {norm_d:.6f}",
                    )
            # Algorithm 2 merge of this row into the eager VALMP
            norm_row = row * math.sqrt(1.0 / length)
            prefix = row.size
            improved = norm_row < self._vl_norm[:prefix]
            if improved.any():
                self._vl_norm[:prefix][improved] = norm_row[improved]
                self._vl_raw[:prefix][improved] = row[improved]
                self._vl_len[:prefix][improved] = length
                self._vl_nbr[:prefix][improved] = self._start + owner
            if norm_d < self._vl_norm[owner]:
                self._vl_norm[owner] = norm_d
                self._vl_raw[owner] = d
                self._vl_len[owner] = length
                self._vl_nbr[owner] = self._start + j
        obs.add("streaming.lengths.updated", updated)

    def _grow_valmp(self, count: int) -> None:
        if count <= self._vl_cap:
            return
        obs.add("streaming.buffer.regrows")
        new_cap = self._vl_cap
        while new_cap < count:
            new_cap *= 2
        for name in ("_vl_norm", "_vl_raw", "_vl_len", "_vl_nbr"):
            old = getattr(self, name)
            new = np.empty(new_cap, dtype=old.dtype)
            new[: self._vl_cap] = old
            setattr(self, name, new)
        self._vl_cap = new_cap

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
        self._last_qt = self._last_qt[count:]
        vl_count = self._stats.n_points - self.l_min + 1
        for arr in (self._vl_norm, self._vl_raw, self._vl_len, self._vl_nbr):
            arr[:vl_count] = arr[count : count + vl_count]
        stale = self._vl_nbr[:vl_count] < self._start
        if stale.any():
            self._vl_norm[:vl_count][stale] = np.inf
            self._vl_raw[:vl_count][stale] = np.inf
            self._vl_len[:vl_count][stale] = 0
            self._vl_nbr[:vl_count][stale] = -1
        for length in range(self.l_min, self.l_max + 1):
            support = self._ub_support[length]
            if support >= 0 and support < self._start:
                self._discord_ub[length] = math.inf
                self._ub_support[length] = -1
            members = self._motif_members[length]
            if members is not None and min(members) < self._start:
                self._motif_best[length] = math.inf
                self._motif_members[length] = None
        self._scale = max(1.0, float(np.abs(self._stats.series()).max()))
        self._emit(
            "window-evicted",
            0,
            f"{count} points retired; window now starts at {self._start}",
        )

    # ------------------------------------------------------------------
    # events

    def _emit(self, kind: str, length: int, detail: str) -> None:
        if len(self._events) >= _EVENT_QUEUE_MAX:
            del self._events[0]
            obs.add("streaming.events.dropped")
        self._events.append(
            StreamEvent(kind=kind, at_point=self._total, length=length,
                        detail=detail)
        )

    def drain_events(self) -> List[StreamEvent]:
        """Return and clear the accumulated change events."""
        events = self._events
        self._events = []
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
            self._motif_best[length] = pair.distance
            self._motif_members[length] = (
                self._start + pair.a,
                self._start + pair.b,
            )
        valmp = result.valmp
        count = valmp.n_profiles
        self._grow_valmp(count)
        self._vl_norm[:count] = valmp.norm_distances
        self._vl_raw[:count] = valmp.distances
        self._vl_len[:count] = valmp.lengths
        known = valmp.indices >= 0
        nbr = np.where(known, valmp.indices + self._start, -1)
        self._vl_nbr[:count] = nbr
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
        computed: Dict[int, List[Discord]] = {}

        def candidates_at(length: int) -> List[Discord]:
            with obs.span("discords.profile"):
                mp = compute_with(self._engine, t, length, context=ctx)
            # exact refresh of the maintained bound for this window
            if np.isfinite(mp.profile).all() and (mp.index >= 0).all():
                self._discord_ub[length] = (
                    float(mp.profile.max()) / self._sqrt[length]
                )
                self._ub_support[length] = self._start + int(mp.index.min())
            else:
                self._discord_ub[length] = math.inf
                self._ub_support[length] = -1
            return per_length_candidates(mp.profile, length, k)

        def selection_of() -> List[Discord]:
            pool = [c for length in sorted(computed) for c in computed[length]]
            return select_top_k(pool, k)

        if all(math.isinf(self._discord_ub[length]) for length in scan):
            # Cold start: one base profile + the listDP pass, exactly
            # like the batch driver, recording the bounds it derives.
            base = scan[0]
            computed[base] = candidates_at(base)
            if len(scan) > 1:
                with obs.span("discords.listdp"):
                    _, store = compute_matrix_profile(
                        t, base, self.p, n_jobs=self._n_jobs, context=ctx
                    )
                for length in range(base + 1, scan[-1] + 1):
                    with obs.span("discords.advance"):
                        store.advance_to(length, t)
                    if length in computed:
                        continue
                    upper = length_upper_bound(
                        store.neighbor, store.qt, ctx, length
                    )
                    self._discord_ub[length] = upper
                    self._ub_support[length] = self._listdp_support(
                        store.neighbor, t.size, length, upper
                    )

        for length in sorted(set(self._warm_lengths) & set(scan)):
            if length not in computed:
                computed[length] = candidates_at(length)

        while True:
            selection = selection_of()
            if len(selection) == k:
                threshold = selection[k - 1].normalized_distance
                violating = sorted(
                    length
                    for length in scan
                    if length not in computed
                    and self._discord_ub[length] * (1.0 + STREAMING_UB_SLACK)
                    >= threshold
                )
            else:
                violating = sorted(
                    length for length in scan if length not in computed
                )
            if not violating:
                break
            for length in violating:
                computed[length] = candidates_at(length)

        selection = selection_of()
        if obs.enabled():
            obs.add("discords.lengths.swept", len(scan))
            obs.add("discords.profiles.recomputed", len(computed))
            obs.add("discords.profiles.pruned", len(scan) - len(computed))
            for length in computed:
                obs.add(f"discords.profiles.recomputed.l{length}")
            for length in scan:
                if length not in computed:
                    obs.add(f"discords.profiles.pruned.l{length}")
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

    # ------------------------------------------------------------------
    # eager snapshots (approximate, no materialization)

    def valmp_snapshot(self) -> Dict[str, np.ndarray]:
        """Best-known VALMP state without materializing a batch run.

        Entries are upper bounds on the exact VALMP of the current
        window (exact immediately after :meth:`motifs`); neighbors are
        window-relative, ``-1`` where unknown (e.g. after the neighbor
        was evicted).
        """
        count = self._stats.n_points - self.l_min + 1
        nbr = self._vl_nbr[:count].copy()
        known = nbr >= 0
        nbr[known] -= self._start
        return {
            "norm_distances": self._vl_norm[:count].copy(),
            "distances": self._vl_raw[:count].copy(),
            "lengths": self._vl_len[:count].copy(),
            "neighbors": nbr,
        }

    def discord_bounds(self) -> Dict[int, float]:
        """Maintained per-length normalized discord upper bounds."""
        return dict(self._discord_ub)
