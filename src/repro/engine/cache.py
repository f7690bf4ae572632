"""Content-addressed on-disk cache of simulation results.

Every cache entry is the lossless :meth:`SimulationMetrics.to_dict` dump of
one :class:`~repro.engine.job.SimulationJob`, stored as JSON under a path
derived from the job's content hash (``<root>/<key[:2]>/<key>.json``).  The
key covers every simulation *input* (see :meth:`SimulationJob.cache_key`),
so for unchanged simulator code a hit is exactly the metrics a fresh run
would produce -- integer counters survive the JSON round trip bit-for-bit,
which is what the determinism test suite enforces.  Edits to simulator
*logic* are invisible to the key: bump
:data:`~repro.engine.job.CACHE_SCHEMA_VERSION` after behaviour changes (the
golden-metrics test flags such changes, and the CLI prints hit/miss counts
so replayed results are never silent).

Writes are atomic (write to a temporary sibling, then ``os.replace``) so
parallel figure runs and overlapping ablation sweeps can safely share one
cache directory; corrupt or schema-incompatible entries are treated as
misses and overwritten rather than propagated.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cluster.metrics import SimulationMetrics


class ResultCache:
    """Directory-backed map from job content hashes to simulation metrics.

    Parameters
    ----------
    root:
        Cache directory; created on first write.

    Attributes
    ----------
    hits / misses / stores:
        Running counters, exposed so the CLI and the engine benchmarks can
        report cache effectiveness.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimulationMetrics]:
        """Return the cached metrics for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            metrics = SimulationMetrics.from_dict(data)
        except (OSError, ValueError, TypeError, KeyError):
            # Missing, corrupt or schema-incompatible entry: a miss.
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def get_many(self, keys: List[str]) -> List[Optional[SimulationMetrics]]:
        """Look up several keys at once (one slot per key, ``None`` on miss).

        The runner looks up a run's distinct keys before grouping its jobs
        by trace, so a fully-cached batch -- every slot filled -- never
        reaches a worker.  Counters advance exactly as per-key :meth:`get`
        calls would.
        """
        return [self.get(key) for key in keys]

    def put(self, key: str, metrics: SimulationMetrics) -> None:
        """Store ``metrics`` under ``key`` (atomic, last-writer-wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(metrics.to_dict(), handle, sort_keys=True)
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
