"""Bound trace columns are read-only: freeze-on-bind for compiled traces.

Contracts pinned here:

* **``CompiledTrace.freeze`` is total and sticky.**  Every stored column
  becomes read-only, a deliberate in-place write raises ``ValueError``, and
  ``annotate_from`` and ``install_annotations`` (which *replace* annotation
  arrays) install read-only replacements.
* **``bind`` always freezes**, on both kernels and with no environment
  set: a deliberate in-place mutation of a bound column is caught.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.processor import ClusteredProcessor
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.uops.compiled import CompiledTrace, empty_annotations
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture
def compiled(small_profile):
    _, trace = WorkloadGenerator(small_profile).generate_compiled_trace(500)
    return trace


def make_processor(kernel=None):
    policy = TABLE3_CONFIGURATIONS["OP"].make_policy(2, 2)
    return ClusteredProcessor(ClusterConfig(num_clusters=2), policy, kernel=kernel)


def writable_columns(trace):
    return [name for name in CompiledTrace.STORED_FIELDS if getattr(trace, name).flags.writeable]


class TestFreeze:
    def test_freeze_marks_every_stored_column_read_only(self, compiled):
        assert writable_columns(compiled) == list(CompiledTrace.STORED_FIELDS)
        result = compiled.freeze()
        assert result is compiled
        assert writable_columns(compiled) == []

    def test_frozen_column_write_raises(self, compiled):
        compiled.freeze()
        with pytest.raises(ValueError, match="read-only"):
            compiled.opclass[0] = 0  # detlint: ok DET109 (this write must raise)

    def test_freeze_is_idempotent(self, compiled):
        compiled.freeze()
        compiled.freeze()
        assert writable_columns(compiled) == []

    def test_annotate_from_refreezes_replaced_columns(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        compiled.freeze()
        compiled.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)
        assert writable_columns(compiled) == []
        compiled.install_annotations(empty_annotations(len(compiled)))
        assert writable_columns(compiled) == []


@pytest.mark.parametrize("kernel", ["interpreter", "vectorized"])
class TestSanitizedBind:
    def test_bind_freezes_and_catches_deliberate_mutation(
        self, monkeypatch, compiled, kernel
    ):
        """No environment variable is needed: every bound trace is frozen."""
        for name in sorted(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        processor = make_processor(kernel)
        bound = processor.bind(compiled)
        assert writable_columns(bound) == []
        # The deliberate in-place corruption the freeze exists to catch:
        with pytest.raises(ValueError, match="read-only"):
            bound.opclass[:4] = 0  # detlint: ok DET109 (this write must raise)


class TestShmViewsAlwaysFrozen:
    """Traces loaded from segments arrive frozen like every bound trace (see shm.py)."""

    def test_attached_trace_reports_frozen(self, small_profile):
        shm = pytest.importorskip("repro.engine.shm")
        if not shm.shared_memory_available():
            pytest.skip("multiprocessing.shared_memory unavailable")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        segment = shm.SharedTraceSegment.create("frozen", program, compiled)
        try:
            attached = shm.SharedTraceSegment.attach(segment.name)
            try:
                _, rebuilt = attached.load()
                assert writable_columns(rebuilt) == []
                with pytest.raises(ValueError, match="read-only"):
                    rebuilt.sid[0] = 99  # detlint: ok DET109 (this write must raise)
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_frozen_columns_are_still_zero_copy(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        compiled.freeze()
        rebuilt = CompiledTrace(program, compiled.sid, compiled.address, compiled.mispredicted)
        for name in ("sid", "address", "mispredicted"):
            assert np.shares_memory(getattr(rebuilt, name), getattr(compiled, name))
