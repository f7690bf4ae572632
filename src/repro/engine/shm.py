"""Shared-memory trace segments: publish a compiled trace once, attach everywhere.

The batch scheduler (PR 4) made each worker task acquire its compiled trace
on its own -- load the ``.npz`` artifact (decompress) or regenerate from the
seed -- so a run over ``T`` traces and ``W`` warm workers can pay for the
same trace up to ``W`` times, and *every* run pays again because nothing
survives between :meth:`ParallelRunner.run` calls except the per-process
memo.  This module makes a compiled trace a process-shared resource instead:

:class:`SharedTraceSegment`
    One ``multiprocessing.shared_memory`` block holding the layout of
    :func:`repro.program.program.pack` -- the static program's sid-indexed
    columns plus the trace's dynamic ``sid``/``address``/``mispredicted``
    columns (raw, uncompressed, 64-byte aligned) -- and a small JSON header
    describing it.  The parent *publishes* a segment once per trace; workers
    *attach* by name, copy the columns out of the block, close the mapping
    and gather the trace's static columns from the program by sid -- no
    column bytes ever travel through the task queue or the filesystem.

:class:`SegmentRegistry`
    The parent-side owner of all segments of one
    :class:`~repro.engine.parallel.ParallelRunner`.  Segments are keyed by
    :meth:`~repro.engine.job.SimulationJob.trace_key` and refcounted: the
    registry itself holds one resident reference (so segments stay warm
    across ``run()`` calls -- the whole point), every in-flight worker task
    holds one more, and a segment is closed *and unlinked* exactly when its
    count reaches zero (``release``/``close``).  A :mod:`weakref` finalizer
    backstops ``close()`` so a dropped runner cannot leak ``/dev/shm``
    blocks.

A worker loads a segment with :func:`attach_segment` (attach, copy out,
close); the engine memoises the result in its per-process trace memo, keyed
by trace rather than by segment name, so later batches of the same trace
reuse the rebuilt program and trace.  No mapping outlives the load, so no
array ever points into a closed block.  Attachments deliberately
*unregister* from the ``multiprocessing`` resource tracker -- on Python <
3.13 an attaching process otherwise claims unlink responsibility for a block
it does not own, and its exit would tear the segment out from under the
parent (and spam spurious leak warnings).

Lifetime invariant
------------------
Only the creating process ever unlinks a segment, and it does so exactly
once: on the last ``release``/``close``.  Workers only ever
``close`` their own mapping.  On Linux an unlink while workers are still
attached is benign (the kernel keeps the memory alive until the last map
closes), so parent-side cleanup never races worker-side use.

Correctness invariant
---------------------
Attached traces are bit-identical to published ones: the columns are
copied byte-for-byte into the block and copied back out with the same dtypes
and shapes, and the trace is gathered from them exactly as trace generation
and the artifact store build it (the
:class:`~repro.uops.compiled.CompiledTrace` constructor).  The program's
columns are read-only, and the rebuilt trace arrives frozen (as every bound
trace is; see :meth:`ClusteredProcessor.bind`), so an in-place write from a
worker raises at the offending line.  A block whose columns fail the program's
validation raises ``ValueError`` at :meth:`SharedTraceSegment.load`.
Simulating against an attached trace is therefore bit-identical to
simulating against the original (pinned by the round-trip property tests).
"""

from __future__ import annotations

import json
import os
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only; loaded where segments are built
    from repro.program.program import Program
    from repro.uops.compiled import CompiledTrace

#: Bump when the in-block layout changes (header schema, alignment).
#: 2: program columns plus the trace's dynamic columns, all numeric.
SEGMENT_LAYOUT_VERSION = 2

#: Column start alignment inside a segment; generous enough for every dtype
#: the stored columns use and cache-line friendly.
_ALIGN = 64

#: Size of the little-endian header-length prefix at offset 0.
_PREFIX = 8


def _shared_memory():
    """``multiprocessing.shared_memory``, or ``None`` where the platform lacks it."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - e.g. stripped-down interpreters
        return None
    return shared_memory


def shared_memory_available() -> bool:
    """Whether this platform can back :class:`SharedTraceSegment` at all."""
    return _shared_memory() is not None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _unregister_from_tracker(shm) -> None:
    """Drop an *attached* block from this process's resource tracker.

    Attaching registers the block with ``multiprocessing.resource_tracker``
    on Python < 3.13, which would make this process unlink the segment on
    exit even though the publishing process still owns it.  Unregistering is
    the documented workaround; failures are ignored (newer interpreters may
    not register attachments in the first place).
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


class SharedTraceSegment:
    """A program and its compiled trace published in one shared block.

    Instances come in two flavours: *owners* (built by :meth:`create`, the
    only side that may :meth:`unlink`) and *attachments* (built by
    :meth:`attach`, which only ever :meth:`close` their mapping).
    """

    __slots__ = ("name", "trace_key", "nbytes", "owner", "_shm", "__weakref__")

    def __init__(self, shm, trace_key: str, owner: bool) -> None:
        self._shm = shm
        self.name = shm.name
        self.trace_key = trace_key
        self.nbytes = shm.size
        self.owner = owner

    # ------------------------------------------------------------- publish --
    @classmethod
    def create(
        cls, trace_key: str, program: Program, compiled: CompiledTrace, name: Optional[str] = None
    ) -> "SharedTraceSegment":
        """Publish ``(program, compiled)`` as a new shared block.

        The block holds an 8-byte header-length prefix, a JSON header
        (layout version, trace key, the program's meta, per-column
        dtype/shape/offset), then the raw column bytes, each aligned to 64
        bytes.
        """
        import numpy as np

        from repro.program.program import pack

        shared_memory = _shared_memory()
        if shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        meta, columns = pack(program, compiled)
        arrays = {key: np.ascontiguousarray(array) for key, array in columns.items()}

        # Column offsets relative to the start of the data region.
        relative = 0
        layouts = {}
        for key, array in arrays.items():
            relative = _align(relative)
            layouts[key] = relative
            relative += array.nbytes
        # The absolute offsets depend on the header's own length, so reserve
        # a slot and grow it until the serialised header fits (stable after
        # at most two passes -- only offset digit counts can move it).
        slot = 512
        while True:
            data_base = _align(_PREFIX + slot)
            header: Dict[str, object] = {
                "version": SEGMENT_LAYOUT_VERSION,
                "trace_key": trace_key,
                "program": meta,
                "columns": {
                    key: {
                        "dtype": arrays[key].dtype.str,
                        "shape": list(arrays[key].shape),
                        "offset": layouts[key] + data_base,
                    }
                    for key in arrays
                },
            }
            header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
            if len(header_bytes) <= slot:
                break
            slot = len(header_bytes) + _ALIGN
        total = data_base + relative

        shm = shared_memory.SharedMemory(create=True, size=max(total, 1), name=name)
        try:
            buffer = shm.buf
            buffer[0:_PREFIX] = len(header_bytes).to_bytes(_PREFIX, "little")
            buffer[_PREFIX:_PREFIX + len(header_bytes)] = header_bytes
            for key, array in arrays.items():
                offset = header["columns"][key]["offset"]
                target = np.ndarray(array.shape, dtype=array.dtype, buffer=buffer, offset=offset)
                target[...] = array
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, trace_key, owner=True)

    # -------------------------------------------------------------- attach --
    @classmethod
    def attach(cls, name: str) -> "SharedTraceSegment":
        """Map an existing segment by name (no unlink responsibility)."""
        shared_memory = _shared_memory()
        if shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        shm = shared_memory.SharedMemory(name=name)
        _unregister_from_tracker(shm)
        header = cls._read_header(shm)
        return cls(shm, str(header["trace_key"]), owner=False)

    @staticmethod
    def _read_header(shm) -> Dict[str, object]:
        length = int.from_bytes(bytes(shm.buf[0:_PREFIX]), "little")
        if not 0 < length <= shm.size - _PREFIX:
            raise ValueError(f"segment {shm.name!r} has a corrupt header length {length}")
        header = json.loads(bytes(shm.buf[_PREFIX:_PREFIX + length]).decode("utf-8"))
        if int(header.get("version", -1)) != SEGMENT_LAYOUT_VERSION:
            raise ValueError(
                f"segment {shm.name!r} has layout version {header.get('version')!r}, "
                f"expected {SEGMENT_LAYOUT_VERSION}"
            )
        return header

    def load(self) -> Tuple[Program, CompiledTrace]:
        """Rebuild ``(program, compiled trace)`` from the block.

        Every column is copied out of the block (12-24 KB of program columns
        per figure 5 trace), so the result stays valid after the mapping
        closes; the trace is gathered from the program and frozen.
        Raises ``ValueError`` when a column has an unexpected dtype or fails
        the program's validation.
        """
        import numpy as np

        from repro.program.program import LAYOUT_DTYPES, unpack

        header = self._read_header(self._shm)
        columns: Dict[str, np.ndarray] = {}
        for key, dtype in LAYOUT_DTYPES.items():
            spec = header["columns"][key]
            if np.dtype(spec["dtype"]) != dtype:
                raise ValueError(f"segment column {key!r} has dtype {spec['dtype']}")
            columns[key] = np.ndarray(
                tuple(spec["shape"]),
                dtype=dtype,
                buffer=self._shm.buf,
                offset=int(spec["offset"]),
            ).copy()
        program, compiled = unpack(header["program"], columns)
        return program, compiled.freeze()

    # ------------------------------------------------------------- cleanup --
    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - exported views still alive
                # Numpy views over the buffer are still referenced somewhere;
                # the mapping dies with the process instead.  Unlink (below)
                # is unaffected, so nothing persistent leaks.
                return
            self._shm = None

    def unlink(self) -> None:
        """Remove the segment from the system (owner side, after close)."""
        if not self.owner:
            raise RuntimeError(f"segment {self.name!r} is attached, not owned; not unlinking")
        try:
            # Re-opening by name is how the owner unlinks after close().
            _shared_memory().SharedMemory(name=self.name).unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "attached"
        return f"SharedTraceSegment({self.name!r}, {self.nbytes} bytes, {role})"


#: Default cap on resident segments per registry.  Shared memory is tmpfs
#: (typically bounded at half of RAM), so a paper-scale sweep over dozens of
#: traces must not pin every one of them forever: beyond the cap, the
#: least-recently-used segment with no in-flight task references is unlinked
#: and simply republished if its trace comes around again.
DEFAULT_RESIDENT_CAP = 32


class SegmentRegistry:
    """Parent-side table of published segments, refcounted by trace key.

    ``publish`` installs a segment with one *resident* reference held by the
    registry (segments stay warm across runs until evicted past
    ``max_resident``, :meth:`release`-d or :meth:`close`-d);
    ``acquire``/``release`` bracket each in-flight worker task.  The count
    reaching zero closes *and unlinks* the segment -- exactly once, and only
    here.
    """

    _COUNTER = 0

    def __init__(self, max_resident: int = DEFAULT_RESIDENT_CAP) -> None:
        if max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        self.max_resident = max_resident
        self._entries: "OrderedDict[str, Tuple[SharedTraceSegment, int]]" = OrderedDict()
        self.stats: Dict[str, int] = {"published": 0, "reused": 0, "unlinked": 0}
        # Backstop: a runner dropped without shutdown() must still unlink.
        self._finalizer = weakref.finalize(
            self, SegmentRegistry._cleanup, self._entries, self.stats
        )

    @staticmethod
    def _cleanup(entries: Dict[str, Tuple[SharedTraceSegment, int]], stats: Dict[str, int]) -> None:
        for segment, _ in entries.values():
            segment.close()
            segment.unlink()
            stats["unlinked"] += 1
        entries.clear()

    @classmethod
    def _next_name(cls) -> str:
        # Short (macOS caps names around 30 chars), unique per process.
        cls._COUNTER += 1
        return f"repro-{os.getpid()}-{cls._COUNTER}"

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total bytes currently published."""
        return sum(segment.nbytes for segment, _ in self._entries.values())

    def get(self, trace_key: str) -> Optional[SharedTraceSegment]:
        entry = self._entries.get(trace_key)
        return entry[0] if entry is not None else None

    def publish(
        self, trace_key: str, loader: Callable[[], Tuple[Program, CompiledTrace]]
    ) -> SharedTraceSegment:
        """The segment for ``trace_key``, creating it from ``loader()`` if new."""
        entry = self._entries.get(trace_key)
        if entry is not None:
            self._entries.move_to_end(trace_key)
            self.stats["reused"] += 1
            return entry[0]
        program, compiled = loader()
        segment = SharedTraceSegment.create(trace_key, program, compiled, name=self._next_name())
        self._entries[trace_key] = (segment, 1)  # the registry's resident ref
        self.stats["published"] += 1
        self._evict()
        return segment

    def _evict(self) -> None:
        """Unlink LRU resident-only segments beyond ``max_resident``.

        Segments with in-flight task references are never evicted, and
        neither is the most recently published entry (its caller has not had
        the chance to ``acquire`` it yet); if nothing else is evictable the
        registry temporarily exceeds the cap rather than pulling work out
        from under a task.
        """
        while len(self._entries) > self.max_resident:
            newest = next(reversed(self._entries))
            victim = next(
                (
                    key
                    for key, (_, refs) in self._entries.items()
                    if refs <= 1 and key != newest
                ),
                None,
            )
            if victim is None:
                break
            segment, _ = self._entries.pop(victim)
            segment.close()
            segment.unlink()
            self.stats["unlinked"] += 1

    def acquire(self, trace_key: str) -> SharedTraceSegment:
        """Take a task reference on an existing segment."""
        segment, refs = self._entries[trace_key]
        self._entries[trace_key] = (segment, refs + 1)
        self._entries.move_to_end(trace_key)
        return segment

    def release(self, trace_key: str) -> None:
        """Drop a task reference; unlink when the count reaches zero."""
        entry = self._entries.get(trace_key)
        if entry is None:
            return
        segment, refs = entry
        refs -= 1
        if refs <= 0:
            del self._entries[trace_key]
            segment.close()
            segment.unlink()
            self.stats["unlinked"] += 1
        else:
            self._entries[trace_key] = (segment, refs)

    def close(self) -> None:
        """Unlink every remaining segment, whatever its count (idempotent)."""
        self._cleanup(self._entries, self.stats)


def attach_segment(name: str) -> Tuple[Program, CompiledTrace]:
    """The ``(program, compiled trace)`` of segment ``name``, loaded by a worker.

    Attaches, copies the columns out and closes the mapping before
    returning, so no array points into the block.  Callers memoise the
    result by trace (the engine's per-process trace memo), not by name.
    """
    segment = SharedTraceSegment.attach(name)
    try:
        return segment.load()
    finally:
        segment.close()
