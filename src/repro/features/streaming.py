"""Streaming mode of the features façade: ``StreamingFeatures``.

Wraps :class:`repro.matrixprofile.streaming_valmod.StreamingValmod`
behind the same vocabulary as :func:`repro.features.extract_features`:
feed points with :meth:`StreamingFeatures.append` / ``extend``, read
change events with :meth:`drain_events`, and call :meth:`snapshot` for a
full :class:`~repro.features.result.SeriesFeatures` of the current
window.

Snapshots are *resumable through the store*: ``snapshot()`` routes the
current window through ``extract_features(..., store=...)``, whose
content-addressed key covers the exact window bytes and parameters.  A
process that restarts mid-stream and replays the feed therefore serves
every previously-snapshotted window from disk (``features.cache.hits``)
and only computes windows it has never seen — the streaming analogue of
the batch façade's warm path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.valmod import DEFAULT_P, ValmodResult
from repro.core.discords import Discord
from repro.exceptions import InvalidParameterError
from repro.features.facade import DEFAULT_INCLUDE, StoreLike, extract_features
from repro.features.result import SeriesFeatures
from repro.matrixprofile.registry import DEFAULT_ENGINE
from repro.matrixprofile.streaming_valmod import StreamEvent, StreamingValmod
from repro.types import FloatArray

__all__ = ["StreamingFeatures"]


class StreamingFeatures:
    """Online variable-length feature maintenance over a point stream.

    Usage::

        sf = StreamingFeatures(seed_points, l_min=64, l_max=96)
        for value in feed:
            sf.append(value)
            for event in sf.drain_events():
                ...                      # motif/discord change alerts
        features = sf.snapshot()         # exact SeriesFeatures of window

    ``motifs()`` / ``discords()`` materialize just those families (warm,
    version-cached); ``snapshot()`` produces the full façade result and
    is what the ``store=`` argument makes resumable across restarts.
    """

    def __init__(
        self,
        series: FloatArray,
        l_min: int,
        l_max: int,
        *,
        p: int = DEFAULT_P,
        top_k: int = 5,
        include: Iterable[str] = DEFAULT_INCLUDE,
        motif_set_k: int = 10,
        radius_factor: float = 3.0,
        k_discords: int = 3,
        engine: str = DEFAULT_ENGINE,
        n_jobs: Optional[int] = 1,
        max_points: Optional[int] = None,
        store: StoreLike = None,
    ) -> None:
        for name, value in (("top_k", top_k), ("motif_set_k", motif_set_k)):
            if value <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {value}")
        self._stream = StreamingValmod(
            series,
            l_min,
            l_max,
            p=p,
            k_discords=k_discords,
            engine=engine,
            n_jobs=n_jobs,
            max_points=max_points,
        )
        self.l_min = int(l_min)
        self.l_max = int(l_max)
        self._snapshot_kwargs = dict(
            p=p,
            top_k=top_k,
            include=tuple(include),
            motif_set_k=motif_set_k,
            radius_factor=radius_factor,
            k_discords=k_discords,
            engine=engine,
            n_jobs=n_jobs,
        )
        self._store = store

    # -- stream ingestion --------------------------------------------

    def append(self, value: float) -> None:
        """Ingest one point (eager per-length bound/event maintenance)."""
        self._stream.append(value)

    def extend(self, values: Sequence[float]) -> None:
        """Ingest many points; ``extend([])`` is a strict no-op."""
        self._stream.extend(values)

    def drain_events(self) -> List[StreamEvent]:
        """Return and clear the pending change events."""
        return self._stream.drain_events()

    # -- window inspection -------------------------------------------

    @property
    def window_start(self) -> int:
        """Absolute stream offset of the first retained point."""
        return self._stream.window_start

    @property
    def total_points(self) -> int:
        """Total points ever ingested (including evicted ones)."""
        return self._stream.total_points

    @property
    def max_points(self) -> Optional[int]:
        """Sliding-window capacity (None = unbounded growth)."""
        return self._stream.max_points

    def __len__(self) -> int:
        return len(self._stream)

    def series(self) -> np.ndarray:
        """A copy of the currently retained window."""
        return self._stream.series()

    # -- materialization ---------------------------------------------

    def motifs(self) -> ValmodResult:
        """Exact VALMOD result on the current window (version-cached)."""
        return self._stream.motifs()

    def motif_pairs(self) -> Dict[int, object]:
        """Exact per-length motif pairs on the current window."""
        return self._stream.motif_pairs()

    def discords(self) -> List[Discord]:
        """Exact top-k variable-length discords (warm-start pruned)."""
        return self._stream.discords()

    def snapshot(self) -> SeriesFeatures:
        """Full façade result for the current window.

        Routed through :func:`extract_features` with this wrapper's
        ``store``, so a replayed stream resumes from disk: any window
        snapshotted before is a ``features.cache.hits`` lookup, bitwise
        identical to the original computation.
        """
        return extract_features(
            self._stream.series(),
            self.l_min,
            self.l_max,
            store=self._store,
            **self._snapshot_kwargs,
        )
