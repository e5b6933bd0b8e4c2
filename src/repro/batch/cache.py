"""Content-addressed on-disk cache of derived protocol entities.

The cache key is the SHA-256 of a canonical JSON envelope over three
inputs, so "have I derived this before?" is a pure function of what
actually determines the output:

* the **canonicalized specification text** — line endings normalized,
  trailing whitespace stripped — so cosmetic whitespace edits do not
  defeat the cache (the LOTOS grammar is whitespace-insensitive beyond
  token separation);
* the **canonicalized derivation options** — every option of
  :data:`repro.core.generator.OPTION_DEFAULTS`, spelled out even when
  defaulted, so ``--mixed-choice`` (or any future flag) can never
  alias a differently-derived entry;
* the **algorithm version tag**
  (:data:`repro.core.generator.ALGORITHM_VERSION`) — bumped whenever
  the derivation pipeline changes any entity text, which atomically
  invalidates every prior entry.

Entries are one JSON file each under ``<root>/<key[:2]>/<key>.json``
(two-level fan-out keeps directories small on big corpora), holding the
unparse'd entity texts.  Hits and misses are counted in the active
:mod:`repro.obs.metrics` registry as ``batch.cache.hits`` /
``batch.cache.misses``.

The store is deliberately crash-tolerant rather than locked: each write
goes through its own uniquely named temp file in the entry's directory
and then :func:`os.replace`, so two writers of one key never share a
temp file and the last rename wins with identical bytes.  A corrupt or
truncated entry, or one of an older entry schema, reads as a miss (and
is deleted), so the next derivation rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, Mapping, Optional

from repro.core.generator import ALGORITHM_VERSION, normalize_options
from repro.obs.metrics import get_registry

#: Schema tag of one cache entry file.
ENTRY_SCHEMA = "repro.batch.entry/v2"


def canonicalize_spec_text(text: str) -> str:
    """Whitespace-normal form of a specification text.

    Normalizes line endings to ``\\n``, strips trailing whitespace from
    every line and trailing blank lines from the document, and ends
    with exactly one newline.  Indentation and intra-line spacing are
    preserved — they never change the parse, but collapsing them would
    make cached texts unreadable for debugging.
    """
    lines = [line.rstrip() for line in text.replace("\r\n", "\n").split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def cache_key(
    text: str, options: Optional[Mapping[str, Any]] = None
) -> str:
    """The SHA-256 content address of one (spec, options) derivation."""
    envelope = json.dumps(
        {
            "algorithm": ALGORITHM_VERSION,
            "options": normalize_options(options),
            "spec": canonicalize_spec_text(text),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(envelope.encode("utf-8")).hexdigest()


class EntityCache:
    """Filesystem store of derivation results, addressed by content."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = pathlib.Path(root)

    # ------------------------------------------------------------------
    def key(
        self, text: str, options: Optional[Mapping[str, Any]] = None
    ) -> str:
        return cache_key(text, options)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key``, or ``None`` (counted as a miss).

        A malformed entry — truncated write, foreign file, schema or
        key mismatch — is deleted and reported as a miss, so a damaged
        store heals itself instead of serving garbage.
        """
        registry = get_registry()
        path = self._path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if entry.get("schema") != ENTRY_SCHEMA or entry.get("key") != key:
                raise ValueError("cache entry does not match its address")
        except FileNotFoundError:
            registry.counter(
                "batch.cache.misses", help="cache lookups that derived"
            ).inc()
            return None
        except (ValueError, OSError):
            path.unlink(missing_ok=True)
            registry.counter(
                "batch.cache.misses", help="cache lookups that derived"
            ).inc()
            return None
        registry.counter(
            "batch.cache.hits", help="cache lookups served from disk"
        ).inc()
        return entry

    def put(
        self,
        key: str,
        name: str,
        options: Optional[Mapping[str, Any]],
        entities: Mapping[str, str],
    ) -> pathlib.Path:
        """Store one derivation result; returns the entry path."""
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "name": name,
            "options": normalize_options(options),
            "algorithm": ALGORITHM_VERSION,
            "places": sorted(int(place) for place in entities),
            "entities": {str(place): text for place, text in entities.items()},
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(entry, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            pathlib.Path(tmp).unlink(missing_ok=True)
            raise
        return path

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
