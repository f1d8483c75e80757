"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Input-validation problems raise
:class:`InvalidSeriesError` or :class:`InvalidParameterError`, which also
derive from :class:`ValueError` so that code written against plain NumPy
conventions keeps working.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidSeriesError",
    "InvalidParameterError",
    "NotComputedError",
    "WindowTooSmallError",
    "BudgetExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidSeriesError(ReproError, ValueError):
    """The input data series is unusable (too short, non-finite, wrong ndim)."""


class InvalidParameterError(ReproError, ValueError):
    """A parameter (subsequence length, range, p, K, D, ...) is out of domain."""


class NotComputedError(ReproError, RuntimeError):
    """A result was requested before the producing computation ran."""


class WindowTooSmallError(InvalidParameterError):
    """A sliding window cannot hold the configured subsequence lengths.

    Raised by the streaming engines when ``max_points`` (or an eviction
    that would shrink the retained window) leaves fewer than two
    non-overlapping subsequences of the largest configured length —
    the point where batch recomputation on the window becomes
    ill-defined and results would silently drift instead of failing.
    """


class BudgetExceededError(ReproError, RuntimeError):
    """A deadline-bounded run (benchmark harness) ran out of time.

    The paper reports baselines that "fail to terminate within a
    reasonable amount of time"; the harness reproduces those DNF entries
    by passing a deadline to the baselines and catching this error.
    """

