"""The content-addressed, versioned schedule store.

A replan today swaps the plan in process memory: no history, no
durability, no way to answer "what was on air at version 3?". The
:class:`ScheduleStore` is the durable side of :mod:`repro.sched` — a
directory holding

* ``objects/<sha256>.json`` — content-addressed documents: full plan
  snapshots (:func:`repro.sched.delta.plan_to_doc`) and delta documents
  between consecutive versions. Each object's name is the SHA-256 of
  its bytes. Identical content is stored once, which is what makes a
  rollback version *free*: its document already exists under the
  original version's address.
* ``log.jsonl`` — the append-only version log, one line per published
  version with a parent link, the document's content id, and whether
  the version is stored as a snapshot or as a delta against its parent.
  The log is the single source of truth; objects not reachable from it
  are garbage (:meth:`ScheduleStore.gc`).
* ``state.json`` — an optional crash snapshot blob
  (:meth:`save_state`/:meth:`load_state`) the serving loop uses to
  resume after an interrupt.

A version is stored as a delta against its parent only when the
delta's canonical bytes are smaller than the version's own snapshot
bytes. A weight drift that touches every item, or a changed tree,
gives a delta several times the snapshot's size, and such a version is
stored whole. A full snapshot is also written every ``snapshot_every``
versions to bound chain length.

Every load reconstructs the requested version from the nearest snapshot
(or a verified document still in memory) plus the delta chain and
verifies the result's SHA-256 against the logged content id — a flipped
bit anywhere in the chain surfaces as :class:`StoreError`, never as a
silently wrong schedule. The store keeps the verified documents of the
last two versions it published or loaded: the next publish diffs
against the head, and a load usually follows its publish.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ReproError
from ..obs.events import NULL_TRACER, Tracer
from ..obs.spans import span_tracer_of
from ..perf import PerfRecorder
from ..planners import PlanResult
from .delta import (
    DELTA_FORMAT,
    apply_delta,
    canonical_bytes,
    content_id,
    delta,
    plan_bytes,
    plan_from_doc,
)

__all__ = ["StoreError", "VersionRecord", "ScheduleStore"]

_LOG_NAME = "log.jsonl"
#: Bytes of the log a store keeps from its last read, to tell an
#: append from a rewrite.
_LOG_TAIL = 256
_OBJECTS_DIR = "objects"
_STATE_NAME = "state.json"

#: Verified documents a store keeps: the head, which the next publish
#: diffs against, and the version last loaded or published before it.
_CACHED_DOCS = 2


class StoreError(ReproError):
    """The store is malformed, or a load failed its integrity check."""


@dataclass(frozen=True)
class VersionRecord:
    """One line of the version log.

    ``content_id`` addresses the *full* document of this version (and is
    what integrity verification checks); ``delta_id`` addresses the
    stored delta object when ``kind == "delta"``, which the store writes
    only when it is smaller than the snapshot. ``parent`` is the
    version this one was published on top of (``None`` for version 1).
    """

    version: int
    content_id: str
    parent: int | None
    kind: str  # "snapshot" | "delta"
    delta_id: str | None = None
    note: str = ""

    def to_dict(self) -> dict:
        record = {
            "version": self.version,
            "content_id": self.content_id,
            "parent": self.parent,
            "kind": self.kind,
            "note": self.note,
        }
        if self.delta_id is not None:
            record["delta_id"] = self.delta_id
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "VersionRecord":
        try:
            return cls(
                version=int(record["version"]),
                content_id=record["content_id"],
                parent=record["parent"],
                kind=record["kind"],
                delta_id=record.get("delta_id"),
                note=record.get("note", ""),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(f"malformed log record {record!r}") from error


@dataclass
class _LogCursor:
    """How much of the log a store has parsed, and what it held."""

    file: tuple[int, int] | None = None  # (st_dev, st_ino)
    offset: int = 0  # bytes parsed, always whole lines
    lines: int = 0  # lines in those bytes, blank ones too
    records: list[VersionRecord] = field(default_factory=list)
    last: bytes = b""  # the final bytes parsed, to spot a rewrite
    mtime_ns: int = -1


def _parse_log(
    data: bytes, lines: int, records: list[VersionRecord]
) -> tuple[list[VersionRecord], int]:
    """``records`` and those of the log text ``data``, and its line count.

    ``data`` starts after line ``lines`` of the log, whose records are
    ``records``. Lines split as a text-mode file splits them.
    """
    records = list(records)
    number = lines
    text = io.StringIO(data.decode("utf-8"), newline=None)
    for number, line in enumerate(text, start=lines + 1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"log line {number} is not JSON: {error}"
            ) from error
        record = VersionRecord.from_dict(raw)
        expected = len(records) + 1
        if record.version != expected:
            raise StoreError(
                f"log line {number} has version {record.version}, "
                f"expected {expected} (append-only, contiguous)"
            )
        records.append(record)
    return records, number


def _replace_atomically(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temp file of its own.

    Two processes may write the same file at once, and each must rename
    only its own bytes, so the temp name is unique to this writer. A
    failed write leaves no temp file.
    """
    tmp = path.with_name(f"{path.stem}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ScheduleStore:
    """Durable versioned plans under one directory.

    Parameters
    ----------
    root:
        Store directory; created (with parents) when missing.
    snapshot_every:
        A full snapshot is stored whenever the delta chain since the
        last one would otherwise reach this length. ``1`` stores every
        version as a snapshot (no deltas at all). Below that length a
        version is still stored whole when its delta would not be
        smaller than its snapshot.
    perf:
        Optional shared recorder; counters are namespaced ``sched.*``
        (``sched.publishes``, ``sched.loads``, ``sched.rollbacks``,
        ``sched.gc_removed``).
    tracer:
        Optional trace sink. When it is (or wraps into) a
        :class:`~repro.obs.spans.SpanTracer`, every publish carrying a
        ``trace=`` context emits a ``store.publish`` span linked under
        that context.
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder`; every
        integrity failure (a :class:`StoreError` raised from a
        verification check) triggers a postmortem dump before the
        exception propagates.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        snapshot_every: int = 8,
        perf: PerfRecorder | None = None,
        tracer: Tracer | None = None,
        flight_recorder=None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.root = Path(root)
        self.snapshot_every = snapshot_every
        self.perf = perf if perf is not None else PerfRecorder()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._spans = (
            span_tracer_of(self.tracer) if self.tracer.enabled else None
        )
        self.recorder = flight_recorder
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _OBJECTS_DIR).mkdir(exist_ok=True)
        self._log_path = self.root / _LOG_NAME
        # Verified documents by version, least recently used first.
        self._doc_cache: dict[int, dict] = {}
        self._log = _LogCursor()
        self._read_log()  # validate eagerly: a corrupt log fails open()

    # -- the log -------------------------------------------------------------
    def _read_log(self, *, full: bool = False) -> list[VersionRecord]:
        """Every logged version record; callers must not mutate the list.

        Lines already parsed are kept, so a call parses only the bytes
        appended since the last one: this handle's publishes and any
        other handle's or process's. The whole log is parsed again when
        ``full`` is set, or when the file was replaced, shrank, or no
        longer has the bytes the last read ended with where that read
        ended. A final line with no newline yet is parsed on every
        call, and kept by none.
        """
        try:
            stat = os.stat(self._log_path)
        except FileNotFoundError:
            self._log = _LogCursor()
            return self._log.records
        cursor = self._log
        file = (stat.st_dev, stat.st_ino)
        if full or file != cursor.file or stat.st_size < cursor.offset:
            cursor = _LogCursor(file)
        elif (
            stat.st_size == cursor.offset
            and stat.st_mtime_ns == cursor.mtime_ns
        ):
            return cursor.records
        with open(self._log_path, "rb") as handle:
            handle.seek(cursor.offset - len(cursor.last))
            data = handle.read()
            if data.startswith(cursor.last):
                data = data[len(cursor.last):]
            else:  # rewritten in place
                cursor = _LogCursor(file)
                handle.seek(0)
                data = handle.read()
        end = data.rfind(b"\n") + 1
        if end:
            records, lines = _parse_log(data[:end], cursor.lines, cursor.records)
            cursor = _LogCursor(
                file,
                cursor.offset + end,
                lines,
                records,
                (cursor.last + data[:end])[-_LOG_TAIL:],
            )
        cursor.mtime_ns = stat.st_mtime_ns
        self._log = cursor
        if end == len(data):
            return cursor.records
        return _parse_log(data[end:], cursor.lines, cursor.records)[0]

    def versions(self) -> list[VersionRecord]:
        """Every published version, oldest first (as the log holds now)."""
        return list(self._read_log())

    @property
    def head(self) -> VersionRecord | None:
        """The latest version record, or ``None`` for an empty store."""
        records = self._read_log()
        return records[-1] if records else None

    def record(self, version: int) -> VersionRecord:
        records = self._read_log()
        if not 1 <= version <= len(records):
            raise StoreError(
                f"version {version} not in store (have 1..{len(records)})"
            )
        return records[version - 1]

    # -- objects -------------------------------------------------------------
    def _object_path(self, object_id: str) -> Path:
        return self.root / _OBJECTS_DIR / f"{object_id}.json"

    def _write_object(self, object_id: str, payload: bytes) -> None:
        path = self._object_path(object_id)
        if path.exists():
            return  # content-addressed: same id is the same bytes
        _replace_atomically(path, payload)

    def _read_object(self, object_id: str) -> dict:
        path = self._object_path(object_id)
        try:
            payload = path.read_bytes()
        except OSError as error:
            raise self._integrity_error(
                f"missing store object {object_id}"
            ) from error
        if hashlib.sha256(payload).hexdigest() == object_id:
            return json.loads(payload)  # the bytes this store wrote
        # Other bytes pass if their canonical form is the object.
        try:
            doc = json.loads(payload)
            intact = content_id(doc) == object_id
        except ValueError:  # not JSON, or not canonical JSON
            intact = False
        if not intact:
            raise self._integrity_error(
                f"store object {object_id} failed its integrity check"
            )
        return doc

    def _integrity_error(self, message: str) -> StoreError:
        """A :class:`StoreError` that dumps the flight recorder first.

        An integrity failure is exactly the anomaly the recorder exists
        for: the rings are frozen *before* the exception unwinds the
        caller, so the bundle still holds the events leading up to it.
        """
        if self.recorder is not None:
            self.recorder.trigger(
                "store_error", detail=message, tracer=self.tracer
            )
        return StoreError(message)

    # -- publish / load ------------------------------------------------------
    def publish(
        self,
        result: PlanResult,
        *,
        note: str = "",
        trace: tuple[int, int] | None = None,
        slot: int = 0,
    ) -> VersionRecord:
        """Append ``result`` as the next version; returns its record.

        The first version — and every ``snapshot_every``-th since the
        last snapshot — is stored whole. Another version stores only the
        structural delta against its parent when that delta's canonical
        bytes are smaller than the version's own, and is stored whole
        otherwise. A document whose content already exists (a rollback,
        an unchanged replan) is stored as a snapshot record pointing at
        the existing object: no new bytes.

        ``trace`` is an optional ``(trace_id, span_id)`` causal context
        (typically the replan span the caller opened); when the store's
        tracer is span-capable a ``store.publish`` span covering logical
        ``slot`` is emitted under it.
        """
        payload = plan_bytes(result)
        cid = hashlib.sha256(payload).hexdigest()
        doc = json.loads(payload)
        records = self._read_log()
        parent = records[-1] if records else None
        version = len(records) + 1

        stored = None
        if not (
            parent is None
            or self._object_path(cid).exists()
            or self._chain_length(records) + 1 >= self.snapshot_every
        ):
            stored = self._smaller_delta(records, cid, doc, len(payload))
        if stored is None:
            self._write_object(cid, payload)
            record = VersionRecord(
                version=version,
                content_id=cid,
                parent=parent.version if parent else None,
                kind="snapshot",
                note=note,
            )
        else:
            did, delta_payload = stored
            self._write_object(did, delta_payload)
            record = VersionRecord(
                version=version,
                content_id=cid,
                parent=parent.version,
                kind="delta",
                delta_id=did,
                note=note,
            )
        self._append_log(record)
        self._remember(version, doc)
        self.perf.count("sched.publishes")
        if self._spans is not None and trace is not None:
            self._spans.finish(
                name="store.publish",
                trace_id=trace[0],
                parent_id=trace[1],
                start_slot=slot,
                end_slot=slot,
                component="store",
                attrs=(
                    ("version", version),
                    ("kind", record.kind),
                    ("content_id", record.content_id[:12]),
                ),
            )
        return record

    def _append_log(self, record: VersionRecord) -> None:
        """Append ``record`` to the log.

        When the log held just what the last read parsed, the record
        joins the parsed log too, so the next read has nothing to parse.
        """
        line = (json.dumps(record.to_dict(), sort_keys=True) + "\n").encode()
        with open(self._log_path, "ab") as handle:
            start = handle.tell()
            handle.write(line)
            handle.flush()
            stat = os.fstat(handle.fileno())
        cursor = self._log
        if (
            (stat.st_dev, stat.st_ino) == cursor.file
            and start == cursor.offset
            and stat.st_size == start + len(line)
        ):
            self._log = _LogCursor(
                cursor.file,
                stat.st_size,
                cursor.lines + 1,
                [*cursor.records, record],
                (cursor.last + line)[-_LOG_TAIL:],
                stat.st_mtime_ns,
            )

    def _smaller_delta(
        self, records: list[VersionRecord], cid: str, doc: dict, size: int
    ) -> tuple[str, bytes] | None:
        """The delta object onto the head, if under ``size`` bytes.

        Returns its id and canonical bytes, or ``None`` when the delta
        would take ``size`` bytes or more. The diff gives up as soon as
        a floor on the ops' bytes says so.
        """
        parent = records[-1]
        delta_doc = {
            "format": DELTA_FORMAT,
            "version": 1,
            "base": parent.content_id,
            "target": cid,
            "ops": [],
        }
        # The document's bytes around its op list ("[]").
        frame = len(canonical_bytes(delta_doc)) - 2
        ops = delta(
            self._reconstruct(records, parent.version), doc,
            limit=size - frame,
        )
        if ops is None:
            return None
        delta_doc["ops"] = ops
        delta_payload = canonical_bytes(delta_doc)
        if len(delta_payload) >= size:
            return None
        return hashlib.sha256(delta_payload).hexdigest(), delta_payload

    def _chain_length(self, records: list[VersionRecord]) -> int:
        """Deltas since (and excluding) the most recent snapshot."""
        length = 0
        for record in reversed(records):
            if record.kind == "snapshot":
                break
            length += 1
        return length

    def _remember(self, version: int, doc: dict) -> None:
        """Keep ``version``'s verified document as the most recent."""
        cache = self._doc_cache
        cache.pop(version, None)
        cache[version] = doc
        while len(cache) > _CACHED_DOCS:
            del cache[next(iter(cache))]

    def _reconstruct(self, records: list[VersionRecord], version: int) -> dict:
        """The verified document of ``version``; callers must not mutate it.

        The chain starts at the nearest earlier snapshot, or at a
        version whose verified document is still cached.
        """
        cache = self._doc_cache
        base = version
        while base not in cache and records[base - 1].kind != "snapshot":
            base -= 1
            if base < 1:
                raise StoreError("version log has no snapshot to start from")
        doc = cache.get(base)
        if doc is None:
            doc = self._read_object(records[base - 1].content_id)
        for index in range(base + 1, version + 1):
            record = records[index - 1]
            delta_doc = self._read_object(record.delta_id)
            if delta_doc.get("format") != DELTA_FORMAT:
                raise StoreError(
                    f"object {record.delta_id} is not a delta document"
                )
            if delta_doc.get("base") != records[index - 2].content_id:
                raise StoreError(
                    f"delta for version {index} does not chain from its parent"
                )
            doc = apply_delta(delta_doc["ops"], doc)
        # With no delta applied, the document is a cached one or a
        # snapshot object checked against its id as it was read.
        if base != version and (
            content_id(doc) != records[version - 1].content_id
        ):
            raise self._integrity_error(
                f"version {version} failed its integrity check: "
                "reconstructed document does not match the logged content id"
            )
        self._remember(version, doc)
        return doc

    def _verified_doc(self, version: int | None) -> dict:
        """The shared, verified document of ``version`` (or head)."""
        records = self._read_log()
        if not records:
            raise StoreError("store is empty")
        if version is None:
            version = len(records)
        if not 1 <= version <= len(records):
            raise StoreError(
                f"version {version} not in store (have 1..{len(records)})"
            )
        return self._reconstruct(records, version)

    def doc(self, version: int | None = None) -> dict:
        """The full, integrity-verified document of ``version`` (or head)."""
        return copy.deepcopy(self._verified_doc(version))

    def load(self, version: int | None = None) -> PlanResult:
        """Rebuild the :class:`~repro.planners.PlanResult` of a version."""
        result = plan_from_doc(self._verified_doc(version))
        self.perf.count("sched.loads")
        return result

    def rollback(
        self,
        version: int,
        *,
        note: str = "",
        trace: tuple[int, int] | None = None,
        slot: int = 0,
    ) -> VersionRecord:
        """Publish ``version``'s content again as the new head.

        History stays append-only — nothing is rewritten — and content
        addressing makes the new version's object the *same file* as the
        original's, so the restored plan is bit-identical by
        construction (and verified on every later load).
        ``trace``/``slot`` carry the causal context through to
        :meth:`publish`.
        """
        record = self.publish(
            plan_from_doc(self._verified_doc(version)),
            note=note or f"rollback to version {version}",
            trace=trace,
            slot=slot,
        )
        if record.content_id != self.record(version).content_id:
            raise self._integrity_error(
                f"rollback of version {version} did not round-trip "
                "byte-exactly"
            )
        self.perf.count("sched.rollbacks")
        return record

    # -- maintenance ---------------------------------------------------------
    def gc(self) -> list[str]:
        """Remove objects the log does not reference; returns their ids.

        Unreferenced objects arise from interrupted publishes (the
        object was written, the log append never happened) — the log is
        authoritative, so they are garbage by definition.
        """
        referenced: set[str] = set()
        for record in self._read_log():
            if record.kind == "snapshot":
                referenced.add(record.content_id)
            if record.delta_id is not None:
                referenced.add(record.delta_id)
        removed: list[str] = []
        for path in sorted((self.root / _OBJECTS_DIR).glob("*.json")):
            object_id = path.stem
            if object_id not in referenced:
                path.unlink()
                removed.append(object_id)
        self.perf.count("sched.gc_removed", len(removed))
        return removed

    def verify(self) -> int:
        """Integrity-check every version; returns how many were checked."""
        records = self._read_log(full=True)
        self._doc_cache.clear()
        for record in records:
            self._reconstruct(records, record.version)
        return len(records)

    def size_bytes(self) -> int:
        """Total bytes of every stored object plus the log."""
        total = (
            self._log_path.stat().st_size if self._log_path.exists() else 0
        )
        for path in (self.root / _OBJECTS_DIR).glob("*.json"):
            total += path.stat().st_size
        return total

    # -- crash state ---------------------------------------------------------
    def save_state(self, state: dict) -> None:
        """Atomically persist a JSON crash-snapshot blob."""
        _replace_atomically(
            self.root / _STATE_NAME,
            json.dumps(state, sort_keys=True, indent=2).encode("utf-8"),
        )

    def load_state(self) -> dict | None:
        """The last saved crash snapshot, or ``None``."""
        path = self.root / _STATE_NAME
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise StoreError(f"corrupt state snapshot: {error}") from error

    def clear_state(self) -> None:
        path = self.root / _STATE_NAME
        if path.exists():
            path.unlink()
