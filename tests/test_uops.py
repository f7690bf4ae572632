"""Unit tests for the µop / ISA model (repro.uops)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.uops.compiled import CompiledTrace
from repro.uops.encoding import (
    ANNOTATION_BITS,
    MAX_PHYSICAL_CLUSTERS,
    MAX_VIRTUAL_CLUSTERS,
    SteeringAnnotation,
    encode_annotation,
)
from repro.uops.opcodes import (
    FP_OPCODES,
    INT_OPCODES,
    MEM_OPCODES,
    IssueQueueKind,
    UopClass,
    is_branch,
    is_floating_point,
    is_memory,
    latency_of,
    queue_of,
)
from repro.uops.registers import NUM_FP_REGISTERS, NUM_INT_REGISTERS, NUM_REGISTERS
from tests.conftest import make_instruction, make_program


class TestOpcodes:
    def test_every_class_has_latency_and_queue(self):
        for opclass in UopClass:
            assert latency_of(opclass) >= 1
            assert isinstance(queue_of(opclass), IssueQueueKind)

    def test_fp_classes_route_to_fp_queue(self):
        for opclass in FP_OPCODES:
            assert queue_of(opclass) == IssueQueueKind.FP

    def test_int_and_memory_classes_route_to_int_queue(self):
        for opclass in INT_OPCODES:
            assert queue_of(opclass) == IssueQueueKind.INT

    def test_copy_routes_to_copy_queue(self):
        assert queue_of(UopClass.COPY) == IssueQueueKind.COPY

    def test_memory_classification(self):
        assert is_memory(UopClass.LOAD)
        assert is_memory(UopClass.STORE)
        assert not is_memory(UopClass.INT_ALU)
        assert MEM_OPCODES == frozenset({UopClass.LOAD, UopClass.STORE})

    def test_fp_classification(self):
        assert is_floating_point(UopClass.FP_MUL)
        assert not is_floating_point(UopClass.LOAD)

    def test_branch_classification(self):
        assert is_branch(UopClass.BRANCH)
        assert not is_branch(UopClass.STORE)

    def test_long_latency_operations_are_slower_than_simple_alu(self):
        assert latency_of(UopClass.INT_DIV) > latency_of(UopClass.INT_MUL) > latency_of(UopClass.INT_ALU)
        assert latency_of(UopClass.FP_DIV) > latency_of(UopClass.FP_ADD)

    def test_classes_partition_into_int_fp_copy(self):
        routed = INT_OPCODES | FP_OPCODES | {UopClass.COPY}
        assert routed == frozenset(UopClass)


class TestRegisterSpace:
    def test_total(self):
        """64 INT + 64 FP: every cache key and trace artifact records this split."""
        assert (NUM_INT_REGISTERS, NUM_FP_REGISTERS, NUM_REGISTERS) == (64, 64, 128)


class TestStaticInstructionRows:
    """A static instruction is one row of its program's sid-indexed columns."""

    def test_basic_properties(self):
        program = make_program(
            [make_instruction()], [make_instruction(UopClass.LOAD, dests=(10,), srcs=(1, 2))],
            edges=[(0, 1, 1.0, False)],
        )
        assert program.opclass[1] == UopClass.LOAD
        assert program.latency_list()[1] == latency_of(UopClass.LOAD)
        assert program.block[1] == 1
        assert program.dest_tuples()[1] == (10,)
        assert program.src_tuples()[1] == (1, 2)

    def test_carries_no_annotation(self):
        """Annotations are a pass's sid-indexed columns, never program columns."""
        program = make_program([make_instruction()])
        for name in ("vc_id", "chain_leader", "static_cluster"):
            assert not hasattr(program, name)

    def test_branch_flag(self):
        program = make_program(
            [make_instruction(UopClass.FP_MUL, dests=(70,)), make_instruction(UopClass.BRANCH)]
        )
        trace = CompiledTrace(program, [0, 1], [0, 0], [False, False])
        assert trace.is_branch.tolist() == [False, True]


def decode_annotation(word):
    """The :class:`SteeringAnnotation` that :func:`encode_annotation` packed into ``word``."""
    if word < 0 or word >= (1 << ANNOTATION_BITS):
        raise ValueError(f"annotation word {word} out of range")
    if word & 1 == 0:
        return SteeringAnnotation()
    pc_field = (word >> 6) & 0xF
    return SteeringAnnotation(
        vc_id=(word >> 2) & 0xF,
        chain_leader=bool((word >> 1) & 1),
        static_cluster=pc_field - 1 if pc_field > 0 else None,
    )


class TestEncoding:
    def test_empty_annotation_encodes_to_zero(self):
        assert encode_annotation(SteeringAnnotation()) == 0
        assert decode_annotation(0) == SteeringAnnotation()

    def test_roundtrip_explicit(self):
        annotation = SteeringAnnotation(vc_id=3, chain_leader=True, static_cluster=None)
        assert decode_annotation(encode_annotation(annotation)) == annotation

    def test_static_cluster_roundtrip(self):
        annotation = SteeringAnnotation(vc_id=0, chain_leader=False, static_cluster=2)
        decoded = decode_annotation(encode_annotation(annotation))
        assert decoded.static_cluster == 2

    def test_out_of_range_vc_raises(self):
        with pytest.raises(ValueError):
            encode_annotation(SteeringAnnotation(vc_id=MAX_VIRTUAL_CLUSTERS))

    def test_out_of_range_cluster_raises(self):
        with pytest.raises(ValueError):
            encode_annotation(SteeringAnnotation(vc_id=0, static_cluster=MAX_PHYSICAL_CLUSTERS))

    def test_pass_columns_encode_per_instruction(self, small_profile):
        """Every instruction's entries of a pass's columns fit the ISA field."""
        from repro.partition import OperationBasedPartitioner, VirtualClusterPartitioner
        from repro.workloads.generator import generate_program

        program = generate_program(small_profile)
        vc = VirtualClusterPartitioner(2).annotate_program(program)
        ob = OperationBasedPartitioner(2).annotate_program(program)
        for sid in range(program.num_instructions):
            for report in (vc, ob):
                vc_id, leader, cluster = (column[sid].item() for column in report.columns)
                annotation = SteeringAnnotation(
                    vc_id=None if vc_id < 0 else vc_id,
                    chain_leader=leader,
                    static_cluster=None if cluster < 0 else cluster,
                )
                assert not annotation.is_empty
                assert decode_annotation(encode_annotation(annotation)).chain_leader == leader

    @given(
        vc=st.integers(min_value=0, max_value=MAX_VIRTUAL_CLUSTERS - 1),
        leader=st.booleans(),
        cluster=st.one_of(st.none(), st.integers(min_value=0, max_value=MAX_PHYSICAL_CLUSTERS - 1)),
    )
    def test_roundtrip_property(self, vc, leader, cluster):
        annotation = SteeringAnnotation(vc_id=vc, chain_leader=leader, static_cluster=cluster)
        word = encode_annotation(annotation)
        assert 0 <= word < (1 << ANNOTATION_BITS)
        assert decode_annotation(word) == annotation
