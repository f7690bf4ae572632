"""Pinned compile-time annotations of the figure 5 and figure 7 scenarios.

Every (trace, partitioner key) of the built-in ``figure5`` (OB, RHOP, VC)
and ``figure7`` (4 clusters: OB, RHOP, VC(4->4), VC(2->4)) scenarios at their
shipped settings is annotated the way the engine does it (the first job of a
key through :func:`repro.engine.parallel._prepare_job`), and the SHA-256 of
its ``vc_id``, ``chain_leader`` and ``static_cluster`` columns, in job order,
is pinned per configuration.  A rewrite of a compile-time pass or of its
caller must leave these digests unchanged.

The dynamic µop streams themselves are pinned the same way: the SHA-256 of
every trace's :data:`STREAM_FIELDS` columns, one trace per phase in job order,
per scenario.  A change to trace generation must leave them unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.engine.parallel import _TRACE_MEMO, _prepare_job, _trace_for
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.builtin import builtin_scenario

ANNOTATION_DIGESTS = {
    ("figure5", "OB"): "25473cfc6e8f4b70957b3ca52a5a16c1b92d84bfb574209501112edeb3867c9d",
    ("figure5", "RHOP"): "eb85009d7603fe1334f0a94b9ec258fea87a746d00c2c3dd3fb956bc04037b35",
    ("figure5", "VC"): "7d4900281f5ebbe93083764a2ed2a85bd09d2b4d4af9493fed2ebc33d10cd1cf",
    ("figure7", "OB"): "7a26915343f207a54351f51b9b1321184b8706cfc7eefa02503fe757ac6b5373",
    ("figure7", "RHOP"): "e6afb70fcf5399352c9f72dcd38d26fd42040eedaa5e81f729872e1fe249edca",
    ("figure7", "VC(4->4)"): "28945ec5af378665dc9d9e054bcd1f676b65505c667ec9c3159eb8d6e486172a",
    # VC ignores the physical cluster count: VC(2->4) is figure 5's VC pass.
    ("figure7", "VC(2->4)"): "7d4900281f5ebbe93083764a2ed2a85bd09d2b4d4af9493fed2ebc33d10cd1cf",
}

# Figure 7 runs figure 5's traces on a 4-cluster machine: one stream digest.
STREAM_DIGESTS = {
    "figure5": "3cb75bd280ef44c01089f1d05eef57eccbba3458390f3adef432f23281dbff13",
    "figure7": "3cb75bd280ef44c01089f1d05eef57eccbba3458390f3adef432f23281dbff13",
}

#: The columns of a dynamic µop stream: the dynamic rows and the static
#: facts gathered by sid.
STREAM_FIELDS = (
    "sid",
    "block",
    "opclass",
    "address",
    "mispredicted",
    "src_offsets",
    "src_regs",
    "dest_offsets",
    "dest_regs",
)


def _column_bytes(compiled, names) -> bytes:
    return b"".join(np.ascontiguousarray(getattr(compiled, name)).tobytes() for name in names)


@pytest.fixture(scope="module")
def scenario_digests() -> Dict[str, Dict[Optional[str], str]]:
    """``{scenario: {configuration: sha256, None: stream sha256}}`` over the jobs."""
    _TRACE_MEMO.clear()
    out: Dict[str, Dict[Optional[str], str]] = {}
    try:
        for scenario in ("figure5", "figure7"):
            spec = builtin_scenario(scenario)
            matrix = ExperimentRunner(spec).expand_phase_matrix(
                spec.resolved_benchmarks(), spec.configurations
            )
            hashes: Dict[Optional[str], "hashlib._Hash"] = {None: hashlib.sha256()}
            seen: Dict[str, List[object]] = {}
            for job in matrix.jobs:
                program, compiled = _trace_for(job)
                done = seen.get(job.trace_key())
                if done is None:
                    done = seen[job.trace_key()] = []
                    hashes[None].update(_column_bytes(compiled, STREAM_FIELDS))
                configuration = job.configuration
                key = configuration.partitioner_key(
                    job.num_clusters, job.num_virtual_clusters, job.region_size
                )
                if key is None or key in done:
                    continue
                done.append(key)
                _prepare_job(job, program, compiled)
                digest = hashes.setdefault(configuration.name, hashlib.sha256())
                digest.update(_column_bytes(compiled, compiled.ANNOTATION_FIELDS))
            out[scenario] = {name: digest.hexdigest() for name, digest in hashes.items()}
    finally:
        _TRACE_MEMO.clear()
    return out


def test_every_partitioned_configuration_is_pinned(scenario_digests):
    pinned = {(s, c) for s, names in scenario_digests.items() for c in names if c is not None}
    assert pinned == set(ANNOTATION_DIGESTS)


@pytest.mark.parametrize("scenario, configuration", sorted(ANNOTATION_DIGESTS))
def test_annotation_columns_are_unchanged(scenario_digests, scenario, configuration):
    assert scenario_digests[scenario][configuration] == ANNOTATION_DIGESTS[
        (scenario, configuration)
    ]


@pytest.mark.parametrize("scenario", sorted(STREAM_DIGESTS))
def test_trace_streams_are_unchanged(scenario_digests, scenario):
    assert scenario_digests[scenario][None] == STREAM_DIGESTS[scenario]
