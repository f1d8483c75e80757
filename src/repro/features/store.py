"""Content-addressed on-disk store for extracted series features.

The cache key is a SHA-256 over everything that determines the result
bits: the raw series buffer and dtype, every extraction parameter, the
engine name, the package version, the kernel schema version
(:data:`repro.kernels.KERNEL_SCHEMA_VERSION`), and this store's own
schema version.  Equal key therefore implies bitwise-equal features, so
a hit may skip the kernels entirely (``engine.cells == 0`` on the warm
path).

Entries are one JSON file per key with a self-describing envelope
(schema, key, payload checksum).  Writes use the tempfile +
``os.replace`` pattern of ``benchmarks/_common.py`` so concurrent
readers never observe a half-written file; any unreadable, truncated,
tampered or alien file is counted (``features.cache.corrupt``) and
treated as a miss, never an error.  Layering: only :mod:`repro.features`
may import this module (lint rule R009).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.kernels import KERNEL_SCHEMA_VERSION

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "FeatureStore",
    "STORE_ENV",
    "STORE_SCHEMA_VERSION",
    "feature_cache_key",
    "resolve_store",
]

#: bump when the envelope or payload layout changes: old entries then
#: miss (their keys differ) instead of being misread.
STORE_SCHEMA_VERSION = 2

#: environment variable naming the default store directory.
STORE_ENV = "REPRO_FEATURES_STORE"

#: eviction threshold: oldest entries beyond this count are dropped.
DEFAULT_MAX_ENTRIES = 4096


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports this package, so a
    # module-level ``from repro import __version__`` would run against a
    # partially-initialized package during interpreter start.
    from repro import __version__

    return __version__


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def feature_cache_key(series: Any, params: Mapping[str, Any]) -> str:
    """Content address of one ``extract_features`` query.

    ``series`` is hashed as its raw buffer plus dtype and shape, so a
    float32 view of the same values keys differently from the float64
    original (their kernel results differ at the bit level).  ``params``
    must be a JSON-serializable mapping of every extraction parameter.
    """
    arr = np.ascontiguousarray(np.asarray(series))
    digest = hashlib.sha256()
    for part in (
        b"repro.features",
        str(arr.dtype).encode(),
        str(arr.shape).encode(),
        arr.tobytes(),
        _canonical_json(dict(params)).encode(),
        _package_version().encode(),
        str(KERNEL_SCHEMA_VERSION).encode(),
        str(STORE_SCHEMA_VERSION).encode(),
    ):
        digest.update(part)
        digest.update(b"\x00")
    return digest.hexdigest()


def _payload_checksum(payload: Mapping[str, Any]) -> str:
    return hashlib.sha256(_canonical_json(dict(payload)).encode()).hexdigest()


class FeatureStore:
    """A directory of content-addressed feature entries.

    Parameters
    ----------
    root:
        Directory holding the entries (created lazily on first write).
    max_entries:
        Eviction threshold; ``None`` reads ``REPRO_FEATURES_STORE_MAX``
        or falls back to :data:`DEFAULT_MAX_ENTRIES`.  When a write
        pushes the entry count above the threshold, the oldest entries
        (by modification time) are unlinked and counted as
        ``features.cache.evictions``.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        if max_entries is None:
            env = os.environ.get("REPRO_FEATURES_STORE_MAX", "")
            max_entries = int(env) if env.isdigit() else DEFAULT_MAX_ENTRIES
        if max_entries <= 0:
            raise InvalidParameterError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.max_entries = int(max_entries)

    # -- paths -------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The entry file a key addresses."""
        return self.root / f"{key}.json"

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    # -- read --------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on miss.

        Every failure mode of an on-disk cache — unreadable file,
        truncated JSON, checksum mismatch, foreign schema, key mismatch
        after a manual rename — degrades to a miss.
        """
        with obs.span("features.store"):
            path = self.path_for(key)
            try:
                text = path.read_text(encoding="utf-8")
            except FileNotFoundError:
                return None
            except (OSError, UnicodeDecodeError):
                obs.add("features.cache.corrupt")
                return None
            try:
                envelope = json.loads(text)
            except (json.JSONDecodeError, UnicodeDecodeError):
                obs.add("features.cache.corrupt")
                return None
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != STORE_SCHEMA_VERSION
                or envelope.get("key") != key
                or not isinstance(envelope.get("payload"), dict)
            ):
                obs.add("features.cache.corrupt")
                return None
            payload: Dict[str, Any] = envelope["payload"]
            if envelope.get("checksum") != _payload_checksum(payload):
                obs.add("features.cache.corrupt")
                return None
            return payload

    # -- write -------------------------------------------------------------

    def put(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``key``; evicts if full."""
        with obs.span("features.store"):
            envelope = {
                "schema": STORE_SCHEMA_VERSION,
                "key": key,
                "checksum": _payload_checksum(payload),
                "payload": dict(payload),
            }
            path = self.path_for(key)
            self._atomic_write(path, json.dumps(envelope, sort_keys=True))
            self._evict()
            return path

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        # The benchmarks/_common.py pattern: mkdir tolerates concurrent
        # creation, tempfile + os.replace means readers never observe a
        # half-written entry.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _evict(self) -> None:
        entries = sorted(
            self.root.glob("*.json"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        excess = len(entries) - self.max_entries
        for path in entries[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            obs.add("features.cache.evictions")

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed


def resolve_store(
    store: Union[FeatureStore, str, Path, bool, None],
) -> Optional[FeatureStore]:
    """Normalize the façade's ``store`` argument.

    ``None`` consults :data:`STORE_ENV` (no store when unset);
    ``False`` disables caching unconditionally; a path opens a store
    there; an existing :class:`FeatureStore` passes through.
    """
    if store is False:
        return None
    if isinstance(store, FeatureStore):
        return store
    if isinstance(store, (str, Path)):
        return FeatureStore(store)
    if store is None:
        root = os.environ.get(STORE_ENV, "")
        return FeatureStore(root) if root else None
    raise InvalidParameterError(
        f"store must be a FeatureStore, path, False or None, got {store!r}"
    )
