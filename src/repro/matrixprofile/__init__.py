"""Matrix-profile engines (the STOMP/STAMP substrate of the paper).

A matrix profile (Definition 2.5) stores, for every subsequence of a
series, the z-normalized Euclidean distance to its nearest non-trivial
neighbor, plus that neighbor's offset.  The motif pair of a length is the
smallest matrix-profile entry.

Engines
-------
:func:`repro.matrixprofile.brute.brute_force_matrix_profile`
    O(n^2 l) reference implementation used as ground truth.
:func:`repro.matrixprofile.stomp.stomp`
    The O(n^2) incremental-dot-product algorithm of Zhu et al. (2016),
    which Algorithm 3 of the paper extends.
:func:`repro.matrixprofile.stamp.stamp`
    MASS-based engine; supports anytime (random-order, early-stop) runs.
:func:`repro.matrixprofile.scrimp.scrimp`
    Diagonal-order anytime engine.
:func:`repro.kernels.blocked.blocked_stomp`
    Cache-blocked diagonal STOMP, the fastest exact engine.

The :mod:`repro.matrixprofile.registry` module maps engine names
(``"stomp" | "stamp" | "scrimp" | "brute" | "blocked-stomp"``) to
implementations so callers can dispatch by string.
"""

from repro.matrixprofile.exclusion import exclusion_zone_half_width, is_trivial_match
from repro.matrixprofile.index import MatrixProfile
from repro.matrixprofile.brute import brute_force_matrix_profile
from repro.matrixprofile.stomp import stomp
from repro.matrixprofile.stamp import stamp
from repro.matrixprofile.scrimp import pre_scrimp, scrimp
from repro.matrixprofile.registry import (
    EngineSpec,
    compute_with,
    engine_names,
    get_engine,
    register_engine,
)
from repro.matrixprofile.streaming import StreamingMatrixProfile
from repro.matrixprofile.leftright import LeftRightProfiles, stomp_left_right
from repro.matrixprofile.join import ab_join_motif, stomp_ab_join
from repro.matrixprofile.mpdist import mpdist

# StreamingValmod composes the repro.core drivers, and this package
# initializes *while* repro.core is still importing (core modules pull
# in the exclusion-zone helpers above), so the streaming engine must be
# resolved lazily (PEP 562) to avoid a circular import.
_LAZY = {"StreamingValmod", "StreamEvent"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.matrixprofile import streaming_valmod

        return getattr(streaming_valmod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MatrixProfile",
    "exclusion_zone_half_width",
    "is_trivial_match",
    "brute_force_matrix_profile",
    "stomp",
    "stamp",
    "scrimp",
    "pre_scrimp",
    "EngineSpec",
    "register_engine",
    "get_engine",
    "engine_names",
    "compute_with",
    "StreamingMatrixProfile",
    "StreamingValmod",
    "StreamEvent",
    "LeftRightProfiles",
    "stomp_left_right",
    "ab_join_motif",
    "stomp_ab_join",
    "mpdist",
]
