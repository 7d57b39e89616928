"""Crash-safe persistence for the allocation service: a write-ahead
journal with snapshot compaction.

The service's whole state — who is admitted, every epoch bump, the last
pushed allocation — lives in memory; :class:`Journal` makes it survive
a process death.  The design is the classic WAL shape, kept deliberately
small:

* **Append-only NDJSON segments** (``journal-NNNNNN.ndjson``): one JSON
  record per line, written with an ``O_APPEND`` file descriptor and
  ``fsync``'d per record (configurable), so a crash can only ever tear
  the *last* record.
* **CRC per record**: every line carries a CRC32 over the canonical
  serialization of its payload, and a monotonically increasing global
  ``seq``.  :func:`load_journal` truncates a torn tail at the last
  valid record instead of loading corrupt state, and skips duplicated
  records (``seq`` already applied) instead of double-applying them.
* **Generation-numbered snapshots** (``snapshot-NNNNNN.json``): a
  compaction writes the full state via :func:`atomic_write` (temp file
  in the same directory, ``fsync``, ``os.replace``, directory
  ``fsync``) and rolls the journal to a fresh segment.  Recovery loads
  the newest snapshot whose CRC validates and replays every later
  journal segment after it; a corrupt snapshot falls back to the
  previous generation, which compaction keeps around exactly for this.

The records themselves are opaque event dicts; their vocabulary and the
deterministic replay that rebuilds a byte-identical
:class:`~repro.serve.registry.WorkloadRegistry` live in
:meth:`~repro.serve.service.AllocationService.recover`.  File I/O is
done through ``os``-level descriptors on purpose: appends must control
``fsync`` explicitly, and the journal is written from the unix-socket
server's event loop where a record append is a bounded few-microsecond
write, not unbounded blocking I/O.

Everything else in the tree that writes durable state should go through
:func:`atomic_write` — the IO001 lint rule points here.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field

from repro.errors import ServiceError

__all__ = [
    "atomic_write",
    "encode_record",
    "decode_record",
    "RecoveryLoad",
    "load_journal",
    "latest_journal_segment",
    "Journal",
]

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{6})\.json$")
_JOURNAL_RE = re.compile(r"^journal-(\d{6})\.ndjson$")


def _snapshot_name(generation: int) -> str:
    return f"snapshot-{generation:06d}.json"


def _journal_name(generation: int) -> str:
    return f"journal-{generation:06d}.ndjson"


def _canonical(obj) -> str:
    """The one serialization CRCs are computed over (sorted, compact)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_file(path: str) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    """Persist a directory entry (rename/create); best-effort off POSIX."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # repro: noqa[EXC002]
        # Directory fsync is unsupported on some filesystems; the
        # rename itself is still atomic, only its durability ordering
        # is weakened — best effort is the intended contract here.
        pass
    finally:
        os.close(fd)


def atomic_write(path: str, data: bytes, *, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` so readers see old bytes or new bytes.

    Temp file in the same directory, ``fsync``, ``os.replace``, then a
    directory ``fsync`` — the temp+rename idiom every durable-state
    write in this tree must use (lint rule IO001 flags bypasses).
    """
    directory = os.path.dirname(path) or "."
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        _write_all(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(directory)


# ----------------------------------------------------------------------
# Record / snapshot codecs
# ----------------------------------------------------------------------
def encode_record(seq: int, event: dict) -> str:
    """One journal line (no trailing newline): CRC'd, seq-stamped.

    The line is ``_canonical({"crc", "event", "seq"})``, built from the
    CRC payload instead of serialising the event twice: ``crc`` sorts
    before ``event`` and ``seq``, so prefixing it to the payload's
    fields gives the same bytes.
    """
    payload = _canonical({"event": event, "seq": seq})
    crc = zlib.crc32(payload.encode("utf-8"))
    return '{"crc":%d,' % crc + payload[1:]


def decode_record(line: str) -> tuple[int, dict]:
    """Parse and CRC-check one journal line; ``(seq, event)``.

    Raises :class:`~repro.errors.ServiceError` on malformed JSON, a
    missing field, or a CRC mismatch — the caller decides whether that
    means a torn tail (truncate) or corruption (stop).
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed journal record: {exc}") from exc
    if not isinstance(data, dict):
        raise ServiceError(
            f"journal record must be an object, got {type(data).__name__}"
        )
    seq = data.get("seq")
    event = data.get("event")
    crc = data.get("crc")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise ServiceError(f"journal record needs a positive 'seq': {seq!r}")
    if not isinstance(event, dict):
        raise ServiceError(f"journal record needs an 'event' object: {event!r}")
    if not isinstance(crc, int) or isinstance(crc, bool):
        raise ServiceError(f"journal record needs an integer 'crc': {crc!r}")
    payload = _canonical({"event": event, "seq": seq})
    expected = zlib.crc32(payload.encode("utf-8"))
    if crc != expected:
        raise ServiceError(
            f"journal record seq={seq} failed its CRC check "
            f"({crc} != {expected})"
        )
    return seq, event


def _encode_snapshot(generation: int, seq: int, state: dict) -> bytes:
    payload = _canonical({"seq": seq, "state": state})
    crc = zlib.crc32(payload.encode("utf-8"))
    return (
        _canonical(
            {"crc": crc, "generation": generation, "seq": seq, "state": state}
        )
        + "\n"
    ).encode("utf-8")


def _decode_snapshot(data: bytes) -> tuple[int, dict]:
    """``(seq, state)`` of a snapshot file; raises on any corruption."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed snapshot: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServiceError("snapshot must be a JSON object")
    seq = obj.get("seq")
    state = obj.get("state")
    crc = obj.get("crc")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ServiceError(f"snapshot needs a non-negative 'seq': {seq!r}")
    if not isinstance(state, dict):
        raise ServiceError("snapshot needs a 'state' object")
    payload = _canonical({"seq": seq, "state": state})
    expected = zlib.crc32(payload.encode("utf-8"))
    if crc != expected:
        raise ServiceError(
            f"snapshot failed its CRC check ({crc!r} != {expected})"
        )
    return seq, state


# ----------------------------------------------------------------------
# Directory layout
# ----------------------------------------------------------------------
def _scan(path: str) -> tuple[dict[int, str], dict[int, str]]:
    """``(snapshots, journals)``: generation -> absolute file path."""
    snapshots: dict[int, str] = {}
    journals: dict[int, str] = {}
    try:
        names = os.listdir(path)
    except FileNotFoundError:
        return snapshots, journals
    for name in names:
        match = _SNAPSHOT_RE.match(name)
        if match:
            snapshots[int(match.group(1))] = os.path.join(path, name)
            continue
        match = _JOURNAL_RE.match(name)
        if match:
            journals[int(match.group(1))] = os.path.join(path, name)
    return snapshots, journals


def latest_journal_segment(path: str) -> str:
    """Path of the newest journal segment (chaos helpers corrupt it)."""
    _, journals = _scan(path)
    if not journals:
        raise ServiceError(f"no journal segments under {path!r}")
    return journals[max(journals)]


# ----------------------------------------------------------------------
# Recovery load
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryLoad:
    """Everything :func:`load_journal` reconstructed from disk.

    ``state`` is the newest valid snapshot's state (``None`` when no
    snapshot validated — recovery then starts from an empty service),
    ``events`` the journal records after it, in append order.  The
    diagnostic fields record what the loader had to tolerate: a torn
    tail truncated at the last valid record, snapshot generations that
    failed their CRC, duplicated records skipped by ``seq``.
    """

    state: dict | None
    events: tuple[dict, ...]
    last_seq: int
    generation: int
    records: int
    truncated_tail: bool = False
    snapshot_fallbacks: int = 0
    duplicates_skipped: int = 0
    notes: tuple[str, ...] = field(default_factory=tuple)


def load_journal(path: str) -> RecoveryLoad:
    """Read a journal directory back into snapshot state plus events.

    The loader picks the newest snapshot whose CRC validates (falling
    back generation by generation), then replays every journal segment
    from that generation on, in order, skipping records whose ``seq``
    was already applied (duplicated segments) and truncating at the
    first invalid record — which, on the newest segment's last line, is
    the torn tail of a crashed append.  A corrupt record anywhere else
    stops the replay at the last consistent prefix rather than applying
    events on a broken base.
    """
    snapshots, journals = _scan(path)
    notes: list[str] = []
    state: dict | None = None
    base_gen = 0
    last_seq = 0
    fallbacks = 0
    for gen in sorted(snapshots, reverse=True):
        try:
            seq, snap_state = _decode_snapshot(_read_file(snapshots[gen]))
        except (ServiceError, OSError) as exc:
            fallbacks += 1
            notes.append(
                f"snapshot generation {gen} rejected ({exc}); "
                f"falling back"
            )
            continue
        state, base_gen, last_seq = snap_state, gen, seq
        break
    if state is None and snapshots:
        notes.append("no snapshot validated; replaying from the beginning")

    events: list[dict] = []
    records = 0
    truncated = False
    duplicates = 0
    newest_gen = max(journals, default=0)
    replay_gens = sorted(g for g in journals if g >= base_gen)
    stop = False
    for gen in replay_gens:
        if stop:
            break
        raw = _read_file(journals[gen])
        lines = raw.split(b"\n")
        # A well-formed segment ends with a newline, leaving one empty
        # trailing chunk; anything after the last newline is tail bytes.
        non_empty = [
            (i, line) for i, line in enumerate(lines) if line.strip()
        ]
        for position, (i, line) in enumerate(non_empty):
            try:
                seq, event = decode_record(line.decode("utf-8"))
            except (ServiceError, UnicodeDecodeError) as exc:
                last_line = position == len(non_empty) - 1
                if gen == newest_gen and last_line:
                    truncated = True
                    notes.append(
                        f"torn tail in generation {gen} truncated at "
                        f"seq {last_seq} ({exc})"
                    )
                else:
                    notes.append(
                        f"corrupt record in generation {gen} line {i + 1}; "
                        f"stopping replay at seq {last_seq} ({exc})"
                    )
                stop = True
                break
            if seq <= last_seq:
                duplicates += 1
                continue
            if seq != last_seq + 1:
                notes.append(
                    f"sequence gap in generation {gen} "
                    f"({last_seq} -> {seq}); stopping replay"
                )
                stop = True
                break
            last_seq = seq
            records += 1
            events.append(event)
    return RecoveryLoad(
        state=state,
        events=tuple(events),
        last_seq=last_seq,
        generation=max([base_gen, newest_gen]),
        records=records,
        truncated_tail=truncated,
        snapshot_fallbacks=fallbacks,
        duplicates_skipped=duplicates,
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------
class Journal:
    """Append side of the write-ahead log; one writer per directory.

    Use :meth:`open` (never the constructor): it creates the directory,
    picks the next generation number after whatever already exists, and
    continues the global ``seq`` where the previous life left off.
    """

    def __init__(
        self,
        path: str,
        generation: int,
        fd: int,
        seq: int,
        *,
        fsync: bool,
        compact_every: int | None,
    ) -> None:
        self.path = path
        self.generation = generation
        self._fd: int | None = fd
        self._seq = seq
        self._fsync = fsync
        self.compact_every = compact_every
        self._since_compact = 0
        #: records appended by this writer (not counting earlier lives).
        self.records = 0

    @classmethod
    def open(
        cls,
        path: str,
        *,
        fsync: bool = True,
        compact_every: int | None = 1024,
        start_seq: int | None = None,
    ) -> "Journal":
        """Start (or continue) the journal under directory ``path``."""
        if compact_every is not None and compact_every < 1:
            raise ServiceError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        os.makedirs(path, exist_ok=True)
        snapshots, journals = _scan(path)
        generation = max([0, *snapshots, *journals]) + 1
        if start_seq is None:
            start_seq = (
                load_journal(path).last_seq if (snapshots or journals) else 0
            )
        segment = os.path.join(path, _journal_name(generation))
        fd = os.open(segment, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        _fsync_dir(path)
        return cls(
            path,
            generation,
            fd,
            start_seq,
            fsync=fsync,
            compact_every=compact_every,
        )

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; appends then raise."""
        return self._fd is None

    def append(self, event: dict) -> int:
        """Durably append one event record; returns its ``seq``."""
        if self._fd is None:
            raise ServiceError("journal is closed")
        self._seq += 1
        line = (encode_record(self._seq, event) + "\n").encode("utf-8")
        _write_all(self._fd, line)
        if self._fsync:
            os.fsync(self._fd)
        self.records += 1
        self._since_compact += 1
        return self._seq

    def should_compact(self) -> bool:
        """True when ``compact_every`` appends accumulated."""
        return (
            self.compact_every is not None
            and self._since_compact >= self.compact_every
        )

    def compact(self, state: dict) -> int:
        """Snapshot ``state`` and roll to a fresh segment; new generation.

        The snapshot is stamped with the current ``seq`` so replay knows
        exactly where the journal takes over.  Old generations are
        pruned only once *two* valid snapshots exist — the previous
        snapshot generation (and every journal segment from it on) stays
        around so a corrupt newest snapshot can still recover
        losslessly.
        """
        if self._fd is None:
            raise ServiceError("journal is closed")
        new_gen = self.generation + 1
        atomic_write(
            os.path.join(self.path, _snapshot_name(new_gen)),
            _encode_snapshot(new_gen, self._seq, state),
            fsync=self._fsync,
        )
        new_fd = os.open(
            os.path.join(self.path, _journal_name(new_gen)),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        os.close(self._fd)
        self._fd = new_fd
        self.generation = new_gen
        self._since_compact = 0
        _fsync_dir(self.path)
        self._prune()
        return new_gen

    def _prune(self) -> None:
        snapshots, journals = _scan(self.path)
        if len(snapshots) < 2:
            return
        keep_from = sorted(snapshots)[-2]
        removed = False
        for gen, file_path in list(snapshots.items()) + list(
            journals.items()
        ):
            if gen < keep_from:
                os.remove(file_path)
                removed = True
        if removed:
            _fsync_dir(self.path)

    def close(self) -> None:
        """Release the segment descriptor (idempotent; no compaction)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
