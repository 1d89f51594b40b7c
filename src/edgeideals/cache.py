"""Content-addressed result cache on disk: one append-only log per key.

A key is the sha256 hex of the canonical JSON of a parameter dict and the
package's source digest (`key_of`).  The dict holds every parameter that can
change the answer (operation, statement, field, caps); the source digest, a
sha256 over the package's `*.py` files, stands for the code, so an edit to any
of them leaves every earlier entry unread.  The entry of key k is
root/k[:2]/k.log, one record per line.

The CLI keeps two kinds of entry.  The reports of a statement are one log under
a key without the graph, one sealed record per graph:

    <graph6> (TAB <statement> TAB <instance> TAB <JSON report> TAB <verdict>)* TAB <seal> NL

Each JSON report is the line the run prints, without its newline; JSON output
holds no control character, so the tabs split the record unambiguously.  The
seal is the first 16 hex digits of the sha256 of the text before its tab, so a
warm run checks a record and prints its reports without decoding JSON.  No
record holds a fail: the CLI never writes one, and reads one as a miss.  The
graph6 strings of a `--max-n` family are the other entry, one JSON list per
line, keyed by op "family" and max_n.

`get` opens an entry for reading line by line; callers check each line, and a
line that fails its check is a miss.  `put` appends a line in one write on an
O_APPEND descriptor, so writers never overwrite each other.  A write cut short
leaves a torn last line, which is a miss; the next `put` ends it first, so it
never swallows a later record.  Only the CLI's own process reads and writes the
cache: `--jobs` workers only compute.  `hashlib` is imported only where a key,
the source digest or a seal is computed, so a run with the cache off never loads
it.
"""

from __future__ import annotations

import functools
import json
import os

SEAL_DIGITS = 16


@functools.cache
def source_digest() -> str:
    """sha256 hex over the names and bytes of the package's `*.py` files, once per process."""
    import hashlib

    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            digest.update(name.encode("utf-8") + b"\0" + hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def seal(text: bytes) -> bytes:
    """The seal of a record's text: the first SEAL_DIGITS hex digits of its sha256."""
    import hashlib

    return hashlib.sha256(text).hexdigest()[:SEAL_DIGITS].encode("ascii")


class ResultCache:
    def __init__(self, root):
        self.root = os.fspath(root) if root else None

    @staticmethod
    def key_of(parts: dict) -> str:
        import hashlib

        canon = json.dumps({**parts, "source": source_digest()}, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".log")

    def get(self, key: str):
        """key's entry open for reading as binary lines, which the caller closes, or None when the
        cache is off or has no entry."""
        if not self.root:
            return None
        try:
            return open(self._path(key), "rb")
        except FileNotFoundError:
            return None

    def put(self, key: str, line) -> None:
        """Append line, which ends in a newline, to key's entry in one write; a line of None is
        nothing to append."""
        if not self.root or line is None:
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
