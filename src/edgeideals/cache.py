"""Content-addressed result cache on disk.

A key is the sha256 hex of the canonical JSON of a parameter dict (`key_of`),
which holds every parameter that can change the answer (canonical graph form,
operation, field, caps, package version); its entry is root/k[:2]/k.json.  A
family run keys its graphs by `keys_by(parts, "graph6")`, which serialises the
other parts once.  The CLI stores two kinds of entry: the report list of one
graph under one statement, and the graph6 strings of a `--max-n` family, keyed
by op "family", max_n and the package version.  An entry that is not UTF-8 JSON
is a miss, and callers treat an entry of the wrong shape as a miss too.  Writes
go through a temporary file and an atomic rename, so concurrent writers are
safe and idempotent.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile


def _canon(parts: dict) -> str:
    return json.dumps(parts, sort_keys=True, separators=(",", ":"))


def _key_between(prefix: str, suffix: str, value) -> str:
    return hashlib.sha256((prefix + json.dumps(value) + suffix).encode("utf-8")).hexdigest()


class ResultCache:
    def __init__(self, root):
        self.root = os.fspath(root) if root else None
        if self.root:
            os.makedirs(self.root, exist_ok=True)

    @staticmethod
    def key_of(parts: dict) -> str:
        return hashlib.sha256(_canon(parts).encode("utf-8")).hexdigest()

    @staticmethod
    def keys_by(parts: dict, name: str):
        """A picklable v -> `key_of(dict(parts, **{name: v}))` for a str or number v, serialising parts once."""
        head = {k: v for k, v in parts.items() if k < name}
        tail = {k: v for k, v in parts.items() if k > name}
        prefix = _canon(head)[:-1] + ("," if head else "") + json.dumps(name) + ":"
        return functools.partial(_key_between, prefix, "," + _canon(tail)[1:] if tail else "}")

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str):
        if not self.root:
            return None
        try:
            with open(self._path(key), "rb", buffering=0) as fh:
                # decoded here, since json.loads would also take UTF-16 and UTF-32 bytes
                return json.loads(fh.read().decode("utf-8"))
        except (FileNotFoundError, ValueError):  # ValueError: not UTF-8, or not JSON
            return None

    def put(self, key: str, value) -> None:
        if not self.root:
            return
        folder = os.path.join(self.root, key[:2])
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
