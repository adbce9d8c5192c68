"""S3 model: buckets of byte-accounted objects.

Stores object metadata (and optional payloads for result inspection);
transfer *times* are computed by the caller from
:class:`repro.perf.transfer.TransferModel`, keeping this module a pure
data service.  Request/byte counters feed the cost model.

Two behaviours the durability layer (:mod:`repro.core.replication`)
relies on:

* **Preconditions** — ``put(..., if_none_match="*")`` models the real
  S3 ``If-None-Match`` conditional write: the put fails with
  :class:`PreconditionFailed` when the key already exists.  Lease
  creation uses this so two would-be holders cannot both "create" the
  lease object.

* **Durable roots** — a bucket created with ``root=`` persists every
  object (JSON-serializable payloads only) to that directory, writing a
  tmp file and publishing it with ``os.replace``, and a fresh process
  opening the same root sees the stored objects.  This stands in for S3's
  cross-instance durability: a SIGKILLed "instance" loses its memory
  and local filesystem, but objects it had put to the durable bucket
  survive for another instance to adopt.
"""

from __future__ import annotations

import json
import os
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.validation import check_non_negative


class PreconditionFailed(RuntimeError):
    """A conditional ``put`` lost: the key already holds an object."""

    def __init__(self, bucket: str, key: str) -> None:
        self.bucket = bucket
        self.key = key
        super().__init__(
            f"s3://{bucket}/{key} already exists (If-None-Match failed)"
        )


@dataclass(frozen=True)
class S3Object:
    """One stored object's metadata."""

    key: str
    size_bytes: float
    stored_at: float
    payload: Any = field(default=None, compare=False)


class S3Bucket:
    """A named bucket, optionally persisted under a durable root."""

    def __init__(self, name: str, *, root: Path | str | None = None) -> None:
        if not name:
            raise ValueError("bucket name must be non-empty")
        self.name = name
        self.root = Path(root) / name if root is not None else None
        self._objects: dict[str, S3Object] = {}
        self.put_count = 0
        self.get_count = 0
        #: puts that replaced an existing object (silent-overwrite audit)
        self.overwrites = 0
        self.bytes_in = 0.0
        self.bytes_out = 0.0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._load_root()

    # -- durable-root plumbing ---------------------------------------------

    def _object_path(self, key: str) -> Path:
        """Filesystem-safe path for one key (quote defeats separators)."""
        assert self.root is not None
        return self.root / urllib.parse.quote(key, safe="")

    def _load_root(self) -> None:
        """Attach to objects a previous process persisted under the root."""
        assert self.root is not None
        for entry in self.root.iterdir():
            if not entry.is_file():
                continue
            try:
                stored = json.loads(entry.read_text(encoding="utf-8"))
            except ValueError:
                continue  # torn write from a killed process: never published
            self._objects[stored["key"]] = S3Object(
                key=stored["key"],
                size_bytes=stored["size_bytes"],
                stored_at=stored["stored_at"],
                payload=stored.get("payload"),
            )

    def _persist(self, obj: S3Object) -> None:
        """Publish one object to the durable root (tmp file + rename)."""
        path = self._object_path(obj.key)
        blob = json.dumps(
            {
                "key": obj.key,
                "size_bytes": obj.size_bytes,
                "stored_at": obj.stored_at,
                "payload": obj.payload,
            }
        )
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(blob, encoding="utf-8")
        os.replace(tmp, path)

    # -- object API --------------------------------------------------------

    def put(
        self,
        key: str,
        size_bytes: float,
        *,
        now: float,
        payload: Any = None,
        if_none_match: str | None = None,
    ) -> S3Object:
        """Store (or overwrite) an object.

        ``if_none_match="*"`` makes the put conditional on the key not
        existing — the only If-None-Match form S3 supports — raising
        :class:`PreconditionFailed` instead of overwriting.
        """
        check_non_negative("size_bytes", size_bytes)
        if if_none_match is not None:
            if if_none_match != "*":
                raise ValueError('if_none_match only supports "*"')
            if key in self._objects:
                raise PreconditionFailed(self.name, key)
        if key in self._objects:
            self.overwrites += 1
        obj = S3Object(key=key, size_bytes=size_bytes, stored_at=now, payload=payload)
        self._objects[key] = obj
        if self.root is not None:
            self._persist(obj)
        self.put_count += 1
        self.bytes_in += size_bytes
        return obj

    def get(self, key: str) -> S3Object:
        """Fetch object metadata+payload; KeyError when missing."""
        if key not in self._objects:
            raise KeyError(f"s3://{self.name}/{key} does not exist")
        obj = self._objects[key]
        self.get_count += 1
        self.bytes_out += obj.size_bytes
        return obj

    def head(self, key: str) -> S3Object | None:
        """Metadata without transfer accounting (like HeadObject)."""
        return self._objects.get(key)

    def delete(self, key: str) -> bool:
        """Remove an object; False when it was absent (idempotent)."""
        existed = self._objects.pop(key, None) is not None
        if existed and self.root is not None:
            self._object_path(key).unlink(missing_ok=True)
        return existed

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def keys(self, prefix: str = "") -> list[str]:
        """List keys under a prefix, sorted (like ListObjectsV2)."""
        return sorted(k for k in self._objects if k.startswith(prefix))

    @property
    def total_bytes(self) -> float:
        return sum(o.size_bytes for o in self._objects.values())

    @property
    def object_count(self) -> int:
        return len(self._objects)


class S3Service:
    """Bucket registry; ``root`` makes every bucket durable (see above)."""

    def __init__(self, *, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._buckets: dict[str, S3Bucket] = {}

    def create_bucket(self, name: str) -> S3Bucket:
        if name in self._buckets:
            raise ValueError(f"bucket {name!r} already exists")
        bucket = S3Bucket(name, root=self.root)
        self._buckets[name] = bucket
        return bucket

    def bucket(self, name: str) -> S3Bucket:
        if name not in self._buckets:
            raise KeyError(f"bucket {name!r} does not exist")
        return self._buckets[name]

    def buckets(self) -> list[str]:
        return sorted(self._buckets)
