"""``listDP``: per-profile stores of the p best lower-bound entries.

Algorithm 3 keeps, for every distance profile, the ``p`` entries with the
smallest lower-bound distance (a max-heap of capacity p in the paper).
Each entry carries the pair's centred co-moment
(:mod:`repro.distance.comoment`), which Welford's update advances in
O(1) per length increment (Algorithm 4, line 10, without its
``QT - l mu_i mu_j`` cancellation).

Instead of n Python heaps we store the structure as three ``(n, p)``
arrays — neighbor offsets, co-moments, and the k-independent lower
bound numerators ``lb_base`` (see :mod:`repro.core.lower_bound`) — so the
whole of Algorithm 4 vectorizes across profiles.  Window means are *not*
stored per entry: the store keeps one vector of them at its current
length, advanced with the co-moments.

Empty slots (profiles with fewer than p non-trivial candidates) have
neighbor -1 and ``lb_base = +inf``; the +inf makes ``max_lb`` infinite for
such profiles, which encodes "the store holds every candidate, nothing
was left unstored" — the validity test is then trivially satisfied.

Rank-space fill
---------------
Rows are (re)built from their co-moments by :func:`rank_rows`, one
stack of rows at a time.  It never evaluates Eq. 3 or Eq. 2 over a whole
row: for owner ``i`` it forms ``rank = C / sigma_j``, which is
``corr * l * sigma_i``, takes the p largest ranks
with one ``argpartition`` per stack, and evaluates Eq. 2 on those p
entries only.  Eq. 2's ``f(q)`` never increases with ``q`` (and is 1 for
every ``q <= 0``), and scaling by the positive ``1 / (l sigma_i)`` keeps
the order under rounding, so the p largest correlations are the p
smallest lower bounds up to ties among ``q <= 0``.  The profile minimum
is the best of the same p entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.types import BoolArray, FloatArray, IntArray

from repro.core.lower_bound import lower_bound_base
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.kernels.context import Workspace
from repro.matrixprofile.exclusion import exclusion_zone_half_width

__all__ = ["EntryStore", "RankedRows", "rank_rows"]


@dataclass(frozen=True)
class RankedRows:
    """The p best entries and the profile minimum of a stack of rows.

    ``neighbor`` / ``qt`` (co-moments) / ``lb_base`` are ``(B, k)`` with ``k =
    min(p, candidates)``, filled entries first and empty slots (-1, 0,
    +inf) after them; ``profile`` / ``index`` hold each row's exact
    distance-profile minimum and its offset (+inf / -1 when the row has
    no candidate outside the exclusion zone).
    """

    neighbor: IntArray
    qt: FloatArray
    lb_base: FloatArray
    profile: FloatArray
    index: IntArray

    def head(self, count: int) -> "RankedRows":
        """The first ``count`` rows."""
        return RankedRows(
            self.neighbor[:count],
            self.qt[:count],
            self.lb_base[:count],
            self.profile[:count],
            self.index[:count],
        )


def rank_rows(
    qt_block: FloatArray,
    rows: IntArray,
    sigma: FloatArray,
    length: int,
    p: int,
    workspace: Optional[Workspace] = None,
) -> RankedRows:
    """Score a ``(B, n)`` stack of co-moment rows in rank space.

    Row ``b`` of ``qt_block`` holds the centred co-moments of window
    ``rows[b]`` (any windows ``< n``, in any order) with every window
    ``0..n-1`` of the same series at ``length``; ``sigma`` holds that
    length's window deviations.
    Keeps the p candidates outside each row's exclusion zone with the
    smallest Eq. 2 lower bound and finds each row's profile minimum,
    with the constant-window conventions: distance 0 between two constant
    windows, ``sqrt(l)`` when only one is; a constant candidate's listDP
    correlation is 0.

    ``workspace`` (a :class:`~repro.kernels.context.Workspace`) holds
    the ``(B, n)`` rank block in its ``"rank"`` slot instead of a fresh
    array; ``qt_block`` must not be that slot.  The result is the
    same bit for bit, and holds no view of either block.
    """
    n_rows, n_cols = qt_block.shape
    rows = np.asarray(rows, dtype=np.int64)
    sigma = sigma[:n_cols]
    live = sigma >= CONSTANT_EPS
    inv_sigma = np.where(live, 1.0 / np.maximum(sigma, CONSTANT_EPS), 0.0)
    out = None if workspace is None else workspace.take("rank", qt_block.shape)
    rank = np.multiply(qt_block, inv_sigma, out=out)
    zone = exclusion_zone_half_width(length)
    _mask_zones(rank, rows, zone)

    k = min(p, n_cols)
    if k < n_cols:
        picked = np.argpartition(rank, n_cols - k, axis=1)[:, n_cols - k :]
    else:
        picked = np.broadcast_to(np.arange(n_cols), (n_rows, n_cols))
    top = np.take_along_axis(rank, picked, axis=1)
    qt = np.take_along_axis(qt_block, picked, axis=1)
    filled = np.isfinite(top)
    if not filled.all():
        # Exclusion-zone picks (rows with fewer than p candidates) move to
        # the end, where they become empty slots.
        order = np.argsort(~filled, axis=1, kind="stable")
        picked, top, qt, filled = (
            np.take_along_axis(a, order, axis=1) for a in (picked, top, qt, filled)
        )

    sigma_rows = sigma[rows]
    # 1 / (l sigma_i) turns a rank back into a correlation; constant
    # owners get correlation 0 (their bounds are vacuous anyway).
    to_corr = np.where(
        sigma_rows >= CONSTANT_EPS,
        1.0 / (length * np.maximum(sigma_rows, CONSTANT_EPS)),
        0.0,
    )
    corr = np.where(filled, top, 0.0) * to_corr[:, None]
    np.clip(corr, -1.0, 1.0, out=corr)
    lb = np.asarray(
        lower_bound_base(corr, length, sigma_rows[:, None]), dtype=np.float64
    )

    # The largest rank is the profile minimum; ties go to the smallest
    # offset, as an argmin over the full profile would break them.
    best = top.max(axis=1)
    index = np.where(top == best[:, None], picked, n_cols).min(axis=1)
    none = best == -np.inf
    best_corr = np.clip(np.where(none, 0.0, best) * to_corr, -1.0, 1.0)
    profile = np.sqrt(np.maximum(2.0 * length * (1.0 - best_corr), 0.0))
    profile[none] = np.inf
    index[none] = -1
    const_cols = np.flatnonzero(~live)
    if const_cols.size:
        _apply_constant_windows(
            profile, index, rows, const_cols, sigma_rows < CONSTANT_EPS,
            zone, n_cols, length,
        )
    return RankedRows(
        neighbor=np.where(filled, picked, -1),
        qt=np.where(filled, qt, 0.0),
        lb_base=np.where(filled, lb, np.inf),
        profile=profile,
        index=index,
    )


def _mask_zones(rank: FloatArray, rows: IntArray, zone: int) -> None:
    """Set row ``b``'s exclusion zone ``[rows[b] - zone + 1, rows[b] +
    zone)`` to -inf in place, for all rows at once; clipping to the
    columns only repeats edge columns that lie inside the zone anyway."""
    n_rows, n_cols = rank.shape
    cols = np.clip(rows[:, None] + np.arange(1 - zone, zone), 0, n_cols - 1)
    rank[np.arange(n_rows)[:, None], cols] = -np.inf


def _first_outside_zone(cols: IntArray, rows: IntArray, zone: int) -> IntArray:
    """Per row, the smallest of the sorted offsets ``cols`` outside its zone.

    Outside the exclusion zone of row ``i`` means ``j <= i - zone`` or
    ``j >= i + zone``; -1 marks a row with no such offset.
    """
    after = np.searchsorted(cols, rows + zone)
    later = np.where(after < cols.size, cols[np.minimum(after, cols.size - 1)], -1)
    return np.where(cols[0] <= rows - zone, cols[0], later)


def _apply_constant_windows(
    profile: FloatArray,
    index: IntArray,
    rows: IntArray,
    const_cols: IntArray,
    const_rows: BoolArray,
    zone: int,
    n_cols: int,
    length: int,
) -> None:
    """Fold the constant-window distances into each row's minimum, in place.

    A live row is ``sqrt(l)`` from every constant window; a constant row
    is 0 from the constant windows and ``sqrt(l)`` from every other one.
    Ties go to the smallest offset, as a full-profile argmin breaks them.
    """
    root_l = math.sqrt(length)
    first_const = _first_outside_zone(const_cols, rows, zone)
    has_const = first_const >= 0
    closer = has_const & ~const_rows & (
        (root_l < profile) | ((root_l == profile) & (first_const < index))
    )
    profile[closer] = root_l
    index[closer] = first_const[closer]

    first_any = _first_outside_zone(np.arange(n_cols), rows, zone)
    profile[const_rows] = np.where(
        has_const, 0.0, np.where(first_any >= 0, root_l, np.inf)
    )[const_rows]
    index[const_rows] = np.where(has_const, first_const, first_any)[const_rows]


@dataclass
class EntryStore:
    """Vectorized ``listDP`` for all profiles of one VALMOD run.

    Attributes
    ----------
    neighbor:
        ``(n, p)`` int64; the other offset of each stored pair, -1 = empty.
    qt:
        ``(n, p)`` float64; co-moment of the pair at ``current_length``.
    lb_base:
        ``(n, p)`` float64; ``f(q) sqrt(l_base) sigma[j, l_base]``
        evaluated at the row's base length (+inf = empty).
    base_length:
        ``(n,)`` int64; the length each row was (re)built at.
    current_length:
        The length the ``qt`` values correspond to right now.
    """

    neighbor: IntArray
    qt: FloatArray
    lb_base: FloatArray
    base_length: IntArray
    current_length: int

    @classmethod
    def empty(cls, n_profiles: int, p: int, length: int) -> "EntryStore":
        """Allocate an all-empty store for ``n_profiles`` rows of width p."""
        if p <= 0:
            raise InvalidParameterError(f"p must be positive, got {p}")
        if n_profiles <= 0:
            raise InvalidParameterError(
                f"need at least one profile, got {n_profiles}"
            )
        return cls(
            neighbor=np.full((n_profiles, p), -1, dtype=np.int64),
            qt=np.zeros((n_profiles, p), dtype=np.float64),
            lb_base=np.full((n_profiles, p), np.inf, dtype=np.float64),
            base_length=np.full(n_profiles, length, dtype=np.int64),
            current_length=length,
        )

    @property
    def n_profiles(self) -> int:
        return self.neighbor.shape[0]

    @property
    def p(self) -> int:
        return self.neighbor.shape[1]

    def fill_rows(
        self, slots: Union[slice, IntArray], ranked: RankedRows, length: int
    ) -> None:
        """Store the entries of :func:`rank_rows` in rows ``slots``.

        ``slots`` selects as many store rows as ``ranked`` has rows;
        ``length`` becomes their base length.
        """
        width = ranked.neighbor.shape[1]
        filled = ranked.neighbor >= 0
        if obs.enabled():
            obs.add("listdp.rows_filled", int(filled.shape[0]))
            obs.add("listdp.entries_stored", int(filled.sum()))
        self.neighbor[slots, :width] = ranked.neighbor
        self.neighbor[slots, width:] = -1
        self.qt[slots, :width] = ranked.qt
        self.qt[slots, width:] = 0.0
        self.lb_base[slots, :width] = ranked.lb_base
        self.lb_base[slots, width:] = np.inf
        self.base_length[slots] = length

    def fill_row(
        self, row: int, qt_row: FloatArray, sigma: FloatArray, length: int
    ) -> RankedRows:
        """Rank one co-moment row and store it: :meth:`fill_rows` for one row.

        ``qt_row`` holds the co-moments of window ``row`` with every
        window at ``length``.  Returns the row's :class:`RankedRows`.
        """
        ranked = rank_rows(qt_row[None, :], np.array([row]), sigma, length, self.p)
        self.fill_rows(slice(row, row + 1), ranked, length)
        return ranked

    def advance_to(self, new_length: int, series: FloatArray, mu: FloatArray) -> None:
        """Extend every stored pair's co-moment to ``new_length``.

        ``mu`` holds the window means of ``series`` at the current length.
        The O(1)-per-entry update of Algorithm 4, line 10, in Welford's
        form: with ``e[x] = t[x + l] - mu_l[x]``, appending one point to
        both windows adds ``l / (l + 1) e[i] e[j]``.  ``e`` is padded with
        zeros, so empty slots (-1) and pairs whose neighbor no longer fits
        in the series add 0 and stay as they were (their distance is
        reported as +inf downstream).
        """
        if new_length != self.current_length + 1:
            raise InvalidParameterError(
                f"advance_to expects length {self.current_length + 1}, "
                f"got {new_length}"
            )
        t = series
        n = t.size
        n_rows = min(self.n_profiles, n - new_length + 1)
        if n_rows <= 0:
            raise InvalidParameterError(
                f"length {new_length} leaves no subsequences"
            )
        nb = self.neighbor[:n_rows]
        if obs.enabled():
            in_range = (nb >= 0) & (nb <= n - new_length)
            obs.add("listdp.entries_advanced", int(in_range.sum()))
        length = self.current_length
        # e[x] for the n - length windows at new_length; offsets up to n - 1
        # and the -1 of an empty slot read the zeros after them.
        e = np.zeros(n + 1, dtype=np.float64)
        np.subtract(t[length:], mu[: n - length], out=e[: n - length])
        increment = np.take(e, nb)
        increment *= e[:n_rows, None] * (length / new_length)
        self.qt[:n_rows] += increment
        self.current_length = new_length
