"""Incremental analysis cache keyed by file content hashes.

Layout: a single JSON document at ``<cache-dir>/cache.json``::

    {
      "version": 2,
      "signature": "<sha256 of analyzer sources + active rule ids>",
      "files": {
        "<path as given>": {"hash": "<sha256 of source>", "analysis": {...}}
      },
      "names": {
        "<path as given>": {"hash": "<sha256 of source>", "names": {...}}
      }
    }

The entry payload is :meth:`reprolint.engine.FileAnalysis.to_json` — the
per-file pass output *including* import records and suppression
directives, which is what lets the project pass and the RL009 audit run
on a warm cache without re-parsing a single file. ``names`` holds the
identifier counts of the reference-root files that were not linted
themselves (``tools/``, ``perfbench/``), which RL010 reads as uses.

Invalidation is entirely content-driven:

- a file whose source hash changed is re-analyzed (and its fresh import
  records automatically update the project graph);
- ``signature`` folds in the content of every ``tools/reprolint/*.py``
  source plus the active rule ids, so editing the analyzer or changing
  the rule selection drops the whole cache;
- project-pass results are never cached, so graph-shape changes need no
  bookkeeping — the pass is recomputed each run from (possibly cached)
  import records in O(edges).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Sequence

from reprolint.engine import FileAnalysis, Rule

CACHE_VERSION = 2
DEFAULT_CACHE_DIR = Path(".reprolint_cache")


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def tool_signature(rules: Sequence[Rule]) -> str:
    """Hash of the analyzer's own sources and the active rule ids."""
    digest = hashlib.sha256()
    tool_dir = Path(__file__).resolve().parent
    for path in sorted(tool_dir.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.name.encode())
        try:
            digest.update(path.read_bytes())
        except OSError:
            pass
    digest.update(",".join(sorted(rule.id for rule in rules)).encode())
    return digest.hexdigest()


class AnalysisCache:
    """Load/store per-file analyses under a content-hash key."""

    def __init__(self, cache_dir: Path, signature: str) -> None:
        self.cache_dir = cache_dir
        self.path = cache_dir / "cache.json"
        self.signature = signature
        self._entries: Dict[str, Dict[str, object]] = {}
        self._names: Dict[str, Dict[str, object]] = {}
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or data.get("signature") != self.signature
        ):
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._entries = files
        names = data.get("names")
        if isinstance(names, dict):
            self._names = names

    def get(self, path: Path, content_hash: str) -> Optional[FileAnalysis]:
        entry = self._entries.get(str(path))
        if not isinstance(entry, dict) or entry.get("hash") != content_hash:
            return None
        payload = entry.get("analysis")
        if not isinstance(payload, dict):
            return None
        try:
            return FileAnalysis.from_json(path, payload)
        except (KeyError, TypeError, ValueError):
            return None

    def put(
        self, path: Path, content_hash: str, analysis: FileAnalysis
    ) -> None:
        self._entries[str(path)] = {
            "hash": content_hash,
            "analysis": analysis.to_json(),
        }

    def get_names(
        self, path: Path, content_hash: str
    ) -> Optional[Dict[str, int]]:
        entry = self._names.get(str(path))
        if not isinstance(entry, dict) or entry.get("hash") != content_hash:
            return None
        names = entry.get("names")
        return names if isinstance(names, dict) else None

    def put_names(
        self, path: Path, content_hash: str, names: Dict[str, int]
    ) -> None:
        self._names[str(path)] = {"hash": content_hash, "names": names}

    def save(self) -> None:
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "version": CACHE_VERSION,
                "signature": self.signature,
                "files": self._entries,
                "names": self._names,
            }
            tmp = self.path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(self.path)
        except OSError:
            # Caching is an optimization; never fail the run over it.
            pass
