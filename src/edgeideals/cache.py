"""Content-addressed result cache on disk: one append-only log per key.

A key is the sha256 hex of the canonical JSON of a parameter dict (`key_of`),
which holds every parameter that can change the answer (operation, statement,
field, caps, package version); its entry is root/k[:2]/k.log, one record per
line.  The CLI keeps two kinds of entry: the reports of a statement, one record
`<graph6> <JSON report list>` per graph, under a key without the graph; and the
graph6 strings of a `--max-n` family, keyed by op "family", max_n and the
package version.  `get` returns the lines undecoded; callers decode them, and a
line that is not UTF-8 JSON of the right shape is a miss.  `put` appends a line
in one write on an O_APPEND descriptor, so writers never overwrite each other.
A write cut short leaves a torn last line, which is a miss; the next `put` ends
it first, so it never swallows a later record.  Only the CLI's own process
reads and writes the cache: `--jobs` workers only compute.
"""

from __future__ import annotations

import hashlib
import json
import os


class ResultCache:
    def __init__(self, root):
        self.root = os.fspath(root) if root else None

    @staticmethod
    def key_of(parts: dict) -> str:
        canon = json.dumps(parts, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".log")

    def get(self, key: str):
        """The lines of key's entry as bytes without their newlines, or None when the cache is
        off or has no entry."""
        if not self.root:
            return None
        try:
            with open(self._path(key), "rb", buffering=0) as fh:
                return fh.read().split(b"\n")
        except FileNotFoundError:
            return None

    def put(self, key: str, line: str) -> None:
        """Append line, which ends in a newline, to key's entry in one write."""
        if not self.root:
            return
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            end = os.fstat(fd).st_size
            torn = end and os.pread(fd, 1, end - 1) != b"\n"
            os.write(fd, (b"\n" if torn else b"") + line.encode("utf-8"))
        finally:
            os.close(fd)
