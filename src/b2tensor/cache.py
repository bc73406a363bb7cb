"""Checksummed JSON cache for computed payloads.

A file is the canonical JSON (sorted keys, fixed separators, ASCII) of
{"payload": ..., "schema": SCHEMA, "sha256": <hex>} and a newline, so
reruns are byte-identical, and the digest is that of the payload's
canonical text. The keys sort in that order, so a file is the fixed head
'{"payload":', the payload text, and a fixed-length tail that holds the
schema and the digest. load reads the file once, checks the head and the
tail, hashes the payload's bytes as they stand and parses only them; any
other file, a wrong schema or digest included, is a miss, and the value is
recomputed. A hit returns the payload with its text, which the CLI prints
as its JSON answer without serializing the payload again; or, when the
caller already holds what it made of a payload with the same digest, that,
without decoding the payload at all.

BoundedLRU is the in-process store of a long-lived process: the CLI's memo
of answer texts and the factor tables of fans.closed_form_point.

SCHEMA versions the payloads: a change to what a command stores must bump
it, which turns every older file into a miss (tests pin a few digests to it).
"""

from __future__ import annotations

import io
import json
import os
from collections import OrderedDict
from pathlib import Path

SCHEMA = 1

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_HEAD = b'{"payload":'
_MID = b',"schema":%d,"sha256":"' % SCHEMA
_END = b'"}\n'
_TAIL = len(_MID) + 64 + len(_END)  # a sha256 is 64 hex digits


def canonical_json(obj) -> str:
    return _ENCODER.encode(obj)


def _sha256(data: bytes) -> bytes:
    import hashlib  # loads OpenSSL (about 4 ms and 3.6 MB), which only a load or store needs

    return hashlib.sha256(data).hexdigest().encode("ascii")


def store(cache_dir, key: str, text: str) -> Path:
    """Write <key>.json, holding text (a payload's canonical_json), atomically
    and return its path.

    The body goes to a temporary file in the same directory, which then
    replaces <key>.json in one os.replace: a concurrent load sees the old
    file or the new one, never a partial one, and of two writers the last
    replace wins whole. The temporary name is unique to the writer (process
    id and 64 random bits). A failed write removes its temporary file.
    """
    path = Path(cache_dir) / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("ascii")
    body = b"".join((_HEAD, data, _MID, _sha256(data), _END))
    tmp = path.with_name(f".{key}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load(cache_dir, key: str, known=None):
    """(payload, its canonical text) from <key>.json, or None when absent,
    unreadable, corrupt or not as store writes it.

    known, when given, is called once the file has passed every check, with
    the payload's sha256 as the file holds it (64 hex digits, bytes). A value
    it returns other than None was derived from a payload with that digest,
    so from these very bytes: load then returns (that value, None) and
    decodes nothing.
    """
    try:
        with io.open(os.path.join(cache_dir, key + ".json"), "rb") as f:
            body = f.read()
    except OSError:
        return None
    end = len(body) - _TAIL  # where the tail starts
    if end <= len(_HEAD) or not body.startswith(_HEAD):
        return None
    if not body.startswith(_MID, end) or not body.endswith(_END):
        return None
    data = body[len(_HEAD) : end]
    digest = body[end + len(_MID) : -len(_END)]
    if _sha256(data) != digest:
        return None
    if known is not None:
        value = known(digest)
        if value is not None:
            return value, None
    try:
        text = data.decode("ascii")
        return json.loads(text), text
    except (ValueError, RecursionError):  # ValueError covers JSON and decode errors
        return None


class BoundedLRU:
    """Values by key, least recently used first, charged at most `bound` in all.

    charge(key, value) is what an entry costs. put refuses an entry charged
    more than the bound, and that entry evicts nothing; get counts as a use.
    A value just got or put that then grows in place is charged its growth
    through add; as the most recently used entry it is evicted last, and
    only when it alone is charged more than the bound.
    """

    def __init__(self, bound: int, charge):
        self.bound = bound
        self.charge = charge
        self.entries = OrderedDict()
        self.charged = 0

    def get(self, key):
        """The value under key, or None; a value found becomes the most recently used."""
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Keep value under key, which is not held, as the most recently used."""
        cost = self.charge(key, value)
        if cost > self.bound:
            return
        self.entries[key] = value
        self.add(cost)

    def add(self, cost: int) -> None:
        """Charge cost more, then evict the least recently used entries until
        the total is within the bound."""
        self.charged += cost
        while self.charged > self.bound:
            self.charged -= self.charge(*self.entries.popitem(last=False))

    def clear(self) -> None:
        self.entries.clear()
        self.charged = 0
