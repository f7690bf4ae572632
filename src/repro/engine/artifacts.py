"""Content-addressed on-disk store of compiled trace artifacts.

Trace generation -- synthesising the static program and expanding the
dynamic µop stream -- is the second-most expensive step of a simulation job
after the simulation itself, and it is *shared*: every configuration of a
``(benchmark, phase)`` pair consumes the exact same stream (the paper's
methodology).  :class:`TraceArtifactStore` makes that stream a durable
artifact: one ``.npz`` file per :meth:`SimulationJob.trace_key
<repro.engine.job.SimulationJob.trace_key>`, holding the
:class:`~repro.uops.compiled.CompiledTrace` columns plus the pickled static
program, stored under ``<root>/<key[:2]>/<key>.npz``.  Parallel workers (and
later invocations, sweeps, figure reruns) load the artifact instead of
regenerating the trace; the per-process ``_TRACE_MEMO`` in
:mod:`repro.engine.parallel` is just a thin in-memory layer over this store.

Trace artifacts are independent of the steering configuration by design:
annotation columns are refreshed per job via
:meth:`CompiledTrace.annotate_from`, and the µop-class-derived columns
(latency, queue routing) are recomputed on load, so neither compiler passes
nor opcode-table edits can stale an artifact.  What *does* invalidate them
-- changes to the workload synthesis itself -- is exactly what
:meth:`trace_key` covers (profile, phase, length, register space and the
engine schema version), plus this module's :data:`TRACE_ARTIFACT_VERSION`
for layout changes.

Writes are atomic (temporary sibling + ``os.replace``) so concurrent workers
sharing one cache directory race benignly; corrupt, truncated or
version-mismatched files are treated as misses and rewritten.

Security note: the program half of an artifact is a pickle, so artifacts are
trusted local cache state (the same trust level as the result cache), not an
interchange format.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only; loaded where artifacts are read or written
    import numpy as np

    from repro.program.program import Program
    from repro.uops.compiled import CompiledTrace

#: Bump when the artifact layout changes (stored columns, program pickling).
TRACE_ARTIFACT_VERSION = 1


#: Deflate level of artifact members.  Level 1 keeps the files within about
#: 10 % of ``np.savez_compressed``'s default level while compressing several
#: times faster; an uncompressed ``np.savez`` would be faster still but
#: about eight times larger on disk.
ARTIFACT_DEFLATE_LEVEL = 1


def _write_npz(handle, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as a standard ``.npz`` (one ``<name>.npy`` member each).

    The layout ``np.savez_compressed`` writes -- so ``np.load`` reads these
    files and older artifacts alike -- at :data:`ARTIFACT_DEFLATE_LEVEL`.
    """
    import numpy as np

    with zipfile.ZipFile(
        handle,
        mode="w",
        compression=zipfile.ZIP_DEFLATED,
        compresslevel=ARTIFACT_DEFLATE_LEVEL,
        allowZip64=True,
    ) as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", mode="w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(array), allow_pickle=False)


class TraceArtifactStore:
    """Directory-backed map from trace keys to ``(program, compiled trace)``.

    Parameters
    ----------
    root:
        Artifact directory; created on first write.  The engine defaults to
        ``<result-cache>/traces`` so one ``--cache-dir`` governs both caches.

    Attributes
    ----------
    hits / misses / stores:
        Running counters, exposed for the CLI footer and the tests.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    def get(self, key: str) -> Optional[Tuple[Program, CompiledTrace]]:
        """Load the artifact for ``key``, or ``None`` on any kind of miss."""
        import numpy as np

        from repro.uops.compiled import CompiledTrace

        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["artifact_version"][0]) != TRACE_ARTIFACT_VERSION:
                    raise ValueError("trace artifact version mismatch")
                trace = CompiledTrace(
                    **{name: data[name] for name in CompiledTrace.STORED_FIELDS}
                )
                program = pickle.loads(data["program_pickle"].tobytes())
        except (OSError, ValueError, KeyError, TypeError, EOFError, IndexError,
                AttributeError, ImportError, zipfile.BadZipFile,
                pickle.UnpicklingError):
            # Missing, corrupt, truncated or incompatible artifact: a miss.
            # IndexError covers out-of-range opclass codes hitting the derived
            # lookup tables; AttributeError/ImportError cover program pickles
            # written by builds whose classes have since moved or changed.
            self.misses += 1
            return None
        self.hits += 1
        return program, trace

    def put(self, key: str, program: Program, trace: CompiledTrace) -> None:
        """Store ``(program, trace)`` under ``key`` (atomic, last-writer-wins)."""
        import numpy as np

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(trace.stored_columns())
        payload["program_pickle"] = np.frombuffer(
            pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
        )
        payload["artifact_version"] = np.array([TRACE_ARTIFACT_VERSION], dtype=np.int64)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                _write_npz(handle, payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store counters as a plain dictionary."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def stats_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since a previous :meth:`stats` snapshot.

        Worker processes keep one long-lived store per root whose counters
        accumulate across tasks; a task that wants to report *its own*
        traffic snapshots the counters on entry and returns the delta, which
        the parent then sums into its run-level totals (the CLI ``[traces]``
        footer).  Deltas are safe to add across tasks and processes;
        cumulative counters are not.
        """
        return {name: value - snapshot.get(name, 0) for name, value in self.stats().items()}
