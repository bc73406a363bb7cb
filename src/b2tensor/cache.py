"""Checksummed JSON cache for computed payloads.

Files carry {"schema": 1, "sha256": <hex>, "payload": ...}; a wrong schema
or digest invalidates the file and the value is recomputed. Serialization is
canonical (sorted keys, fixed separators) so reruns are byte-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

SCHEMA = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(payload) -> str:
    import hashlib  # loads OpenSSL (about 4 ms and 3.6 MB), which only a load or store needs

    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def store(cache_dir, key: str, payload) -> Path:
    """Write <key>.json atomically and return its path.

    The body goes to a temporary file in the same directory, which then
    replaces <key>.json in one os.replace: a concurrent load sees the old
    file or the new one, never a partial one, and of two writers the last
    replace wins whole. The temporary name is unique to the writer (process
    id and 64 random bits). A failed write removes its temporary file.
    """
    path = Path(cache_dir) / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {"schema": SCHEMA, "sha256": payload_digest(payload), "payload": payload}
    text = canonical_json(body) + "\n"
    tmp = path.with_name(f".{key}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load(cache_dir, key: str):
    """The cached payload, or None when absent, unreadable or corrupt."""
    path = Path(cache_dir) / f"{key}.json"
    if not path.is_file():
        return None
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):  # ValueError covers JSON and UTF-8 decode errors
        return None
    if not isinstance(body, dict) or body.get("schema") != SCHEMA:
        return None
    payload = body.get("payload")
    if body.get("sha256") != payload_digest(payload):
        return None
    return payload


def cached(cache_dir, key: str, compute):
    """compute() with a pass-through JSON cache; cache_dir=None disables it."""
    if cache_dir is None:
        return compute()
    hit = load(cache_dir, key)
    if hit is not None:
        return hit
    payload = compute()
    store(cache_dir, key, payload)
    return payload
