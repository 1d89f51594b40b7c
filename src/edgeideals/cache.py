"""Content-addressed result cache on disk.

Keys are JSON-canonicalized parameter dictionaries hashed with sha256; every
parameter that can change the answer (canonical graph form, operation, field,
caps, package version) must be part of the key.  The CLI stores two kinds of
entry: the report list of one graph under one statement, and the graph6
strings of a `--max-n` family, keyed by op "family", max_n and the package
version.  An entry that cannot be read as JSON is a miss, and callers treat an
entry of the wrong shape as a miss too.  Writes go through a temporary file
and an atomic rename, so concurrent writers are safe and idempotent.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


class ResultCache:
    def __init__(self, root):
        self.root = Path(root) if root else None
        if self.root:
            self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key_of(parts: dict) -> str:
        canon = json.dumps(parts, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def _path(self, parts: dict) -> Path:
        k = self.key_of(parts)
        return self.root / k[:2] / f"{k}.json"

    def get(self, parts: dict):
        if not self.root:
            return None
        p = self._path(parts)
        try:
            with open(p, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):  # ValueError: not UTF-8, or not JSON
            return None

    def put(self, parts: dict, value) -> None:
        if not self.root:
            return
        p = self._path(parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=p.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh, sort_keys=True)
            os.replace(tmp, p)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
