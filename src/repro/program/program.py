"""Static programs: read-only columns indexed by static id.

A :class:`Program` is what the compile-time passes read and the trace
expander walks; neither changes it.  It is a set of numpy columns, in the
dtypes of the :class:`~repro.uops.compiled.CompiledTrace` columns:

* per static instruction -- the static id (sid) is the row number, in block
  order: ``opclass``, ``block`` (derived from ``block_start``) and the
  register lists as CSR pairs ``src_offsets``/``src_regs`` and
  ``dest_offsets``/``dest_regs``;
* per basic block: ``block_start`` -- block ``b`` holds sids
  ``block_start[b]:block_start[b + 1]``;
* per CFG edge, in insertion order: ``edge_src``, ``edge_dst``,
  ``edge_probability`` and ``edge_back`` (a loop back-edge).  The order
  breaks ties in region formation and fixes the order of the trace walk's
  random draws;

plus the entry block and the name.  Every program is built through one
validation (:meth:`Program.__init__`), so columns read from a tampered
artifact or segment fail there with a ``ValueError``.

A compiled trace is the program's rows:
:class:`~repro.uops.compiled.CompiledTrace` gathers the static columns by
sid.  :func:`pack`/:func:`unpack` are the one layout trace artifacts and
shared-memory segments store: the program's columns plus the trace's
``sid``, ``address`` and ``mispredicted``, every one a numeric column.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.uops.registers import NUM_FP_REGISTERS, NUM_INT_REGISTERS, NUM_REGISTERS

if TYPE_CHECKING:  # pragma: no cover - typing only; numpy loads when a program is built
    import numpy as np

    from repro.uops.compiled import CompiledTrace

#: One instruction as a builder row: ``(opclass, dests, srcs)``.
InstructionRow = Tuple[int, Sequence[int], Sequence[int]]
#: One CFG edge as a builder row: ``(src block, dst block, probability, back-edge)``.
EdgeRow = Tuple[int, int, float, bool]

#: The stored program columns and their dtypes.
COLUMN_DTYPES: Dict[str, str] = {
    "opclass": "uint8",
    "src_offsets": "int64",
    "src_regs": "int32",
    "dest_offsets": "int64",
    "dest_regs": "int32",
    "block_start": "int64",
    "edge_src": "int32",
    "edge_dst": "int32",
    "edge_probability": "float64",
    "edge_back": "bool",
}

#: Every column of the stored layout: the program's, then the trace's own.
LAYOUT_DTYPES: Dict[str, str] = {
    **COLUMN_DTYPES,
    "sid": "int64",
    "address": "int64",
    "mispredicted": "bool",
}

#: Tolerance of the check that a block's out-edge probabilities sum to 1.
PROBABILITY_TOLERANCE = 1e-6


def _check_offsets(name: str, offsets: np.ndarray, flat_length: int) -> None:
    if (
        not len(offsets)
        or offsets[0] != 0
        or offsets[-1] != flat_length
        or (offsets[1:] < offsets[:-1]).any()
    ):
        raise ValueError(f"column {name!r} must rise from 0 to {flat_length}")


class Program:
    """A static program as read-only sid-indexed columns.

    Parameters
    ----------
    name:
        Program (benchmark/trace) name, used in reports.
    columns:
        Every :data:`COLUMN_DTYPES` column, as arrays or sequences.
    entry:
        The entry block.

    Every register the instructions name is an architectural register
    (:mod:`repro.uops.registers`).
    """

    #: The stored columns, in the order every persistence layer writes them.
    COLUMNS = tuple(COLUMN_DTYPES)

    def __init__(self, name: str, columns: Mapping[str, object], entry: int = 0) -> None:
        import numpy as np

        from repro.uops.opcodes import UopClass

        self.name = name
        self.entry = int(entry)
        arrays = {}
        for column, dtype in COLUMN_DTYPES.items():
            array = np.asarray(columns[column], dtype=dtype)
            if array.ndim != 1:
                raise ValueError(f"column {column!r} must be one-dimensional")
            array.flags.writeable = False
            arrays[column] = array
        opclass = arrays["opclass"]
        size = len(opclass)
        if size and int(opclass.max()) >= len(UopClass):
            raise ValueError("column 'opclass' holds a code that is no µop class")
        for kind in ("src", "dest"):
            offsets, regs = arrays[f"{kind}_offsets"], arrays[f"{kind}_regs"]
            if len(offsets) != size + 1:
                raise ValueError(f"column '{kind}_offsets' must have one row per sid, plus one")
            _check_offsets(f"{kind}_offsets", offsets, len(regs))
            if len(regs) and (regs.min() < 0 or regs.max() >= NUM_REGISTERS):
                raise ValueError(f"column '{kind}_regs' names a register outside the register space")
        block_start = arrays["block_start"]
        _check_offsets("block_start", block_start, size)
        num_blocks = len(block_start) - 1
        if not 0 <= self.entry < num_blocks:
            raise ValueError(f"entry block {self.entry} is not a block")
        edge_src, edge_dst = arrays["edge_src"], arrays["edge_dst"]
        probability = arrays["edge_probability"]
        if not len(edge_src) == len(edge_dst) == len(probability) == len(arrays["edge_back"]):
            raise ValueError("the edge columns differ in length")
        for endpoints in (edge_src, edge_dst):
            if len(endpoints) and (endpoints.min() < 0 or endpoints.max() >= num_blocks):
                raise ValueError("an edge endpoint is not a block")
        if not ((probability >= 0) & (probability <= 1)).all():
            raise ValueError("an edge probability lies outside [0, 1]")
        totals = np.bincount(edge_src, weights=probability, minlength=num_blocks)
        has_edges = np.bincount(edge_src, minlength=num_blocks) > 0
        if (np.abs(totals[has_edges] - 1.0) > PROBABILITY_TOLERANCE).any():
            raise ValueError("a block's out-edge probabilities do not sum to 1")
        block = np.repeat(np.arange(num_blocks, dtype=np.int32), np.diff(block_start))
        block.flags.writeable = False
        self.opclass: np.ndarray = opclass
        self.block: np.ndarray = block
        self.src_offsets: np.ndarray = arrays["src_offsets"]
        self.src_regs: np.ndarray = arrays["src_regs"]
        self.dest_offsets: np.ndarray = arrays["dest_offsets"]
        self.dest_regs: np.ndarray = arrays["dest_regs"]
        self.block_start: np.ndarray = block_start
        self.edge_src: np.ndarray = edge_src
        self.edge_dst: np.ndarray = edge_dst
        self.edge_probability: np.ndarray = probability
        self.edge_back: np.ndarray = arrays["edge_back"]
        self._memo: Dict[Hashable, object] = {}

    @classmethod
    def from_blocks(
        cls, name: str, blocks: Sequence[Sequence[InstructionRow]], edges: Sequence[EdgeRow] = ()
    ) -> "Program":
        """Build a program from per-block instruction rows and CFG edge rows.

        Sids number the instructions in block order; edges keep their order;
        block 0 is the entry.
        """
        import numpy as np

        from repro.uops.compiled import csr_from_rows

        rows = [row for block in blocks for row in block]
        src_offsets, src_regs = csr_from_rows([tuple(srcs) for _, _, srcs in rows])
        dest_offsets, dest_regs = csr_from_rows([tuple(dests) for _, dests, _ in rows])
        edge_columns = list(zip(*edges)) if edges else [(), (), (), ()]
        columns = {
            "opclass": [int(opclass) for opclass, _, _ in rows],
            "src_offsets": src_offsets,
            "src_regs": src_regs,
            "dest_offsets": dest_offsets,
            "dest_regs": dest_regs,
            "block_start": np.cumsum([0, *map(len, blocks)]),
        }
        columns.update(zip(("edge_src", "edge_dst", "edge_probability", "edge_back"), edge_columns))
        return cls(name, columns)

    # -- derived values -------------------------------------------------------------
    def memo(self, key: Hashable, build: Callable[[], object]) -> object:
        """The value stored on this program under ``key``; ``build()`` makes it once.

        For values derived from the program, such as the compile-time
        passes' regions and region DDGs
        (:func:`repro.partition.base.region_ddg`).  ``key`` must cover every
        input of ``build`` besides the program.
        """
        value = self._memo.get(key)
        if value is None:
            value = build()
            self._memo[key] = value
        return value

    def src_tuples(self) -> List[Tuple[int, ...]]:
        """Per sid, its source registers."""
        from repro.uops.compiled import rows_from_csr

        return self.memo("srcs", lambda: rows_from_csr(self.src_offsets, self.src_regs))

    def dest_tuples(self) -> List[Tuple[int, ...]]:
        """Per sid, its destination registers."""
        from repro.uops.compiled import rows_from_csr

        return self.memo("dests", lambda: rows_from_csr(self.dest_offsets, self.dest_regs))

    def latency_list(self) -> List[int]:
        """Per sid, its functional-unit latency."""
        from repro.uops.opcodes import latency_of

        return self.memo("latency", lambda: list(map(latency_of, self.opclass.tolist())))

    def block_list(self) -> List[int]:
        """Per sid, its basic block."""
        return self.memo("block", self.block.tolist)

    def block_sids(self, bid: int) -> range:
        """The sids of block ``bid``."""
        start = self.memo("block start", self.block_start.tolist)
        return range(start[bid], start[bid + 1])

    def successors(self, bid: int) -> List[Tuple[int, float, bool]]:
        """``(dst, probability, back-edge)`` of each out-edge of ``bid``, in edge order."""

        def build() -> List[List[Tuple[int, float, bool]]]:
            table: List[List[Tuple[int, float, bool]]] = [[] for _ in range(self.num_blocks)]
            for src, *edge in zip(
                self.edge_src.tolist(),
                self.edge_dst.tolist(),
                self.edge_probability.tolist(),
                self.edge_back.tolist(),
            ):
                table[src].append(tuple(edge))
            return table

        return self.memo("successors", build)[bid]

    # -- queries -----------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self.block_start) - 1

    @property
    def num_instructions(self) -> int:
        """Number of static instructions."""
        return len(self.opclass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program(name={self.name!r}, blocks={self.num_blocks}, "
            f"instructions={self.num_instructions})"
        )


def pack(program: Program, trace: CompiledTrace) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """The stored form of ``(program, trace)``: ``(meta, columns)``.

    ``meta`` holds the program's name and entry block and the architectural
    register counts as JSON-ready values; ``columns`` holds every
    :data:`LAYOUT_DTYPES` column.
    """
    meta = {
        "name": program.name,
        "entry": program.entry,
        "num_int": NUM_INT_REGISTERS,
        "num_fp": NUM_FP_REGISTERS,
    }
    columns = {name: getattr(program, name) for name in COLUMN_DTYPES}
    columns.update(sid=trace.sid, address=trace.address, mispredicted=trace.mispredicted)
    return meta, columns


def unpack(
    meta: Mapping[str, object], columns: Mapping[str, np.ndarray]
) -> Tuple[Program, CompiledTrace]:
    """Rebuild ``(program, trace)`` from :func:`pack`'s output.

    Every column must have its :data:`LAYOUT_DTYPES` dtype, the register
    counts must be the architectural ones, and the program passes its
    validation; otherwise this raises ``ValueError`` (or
    ``KeyError``/``TypeError`` for a missing or malformed entry).
    """
    if (meta["num_int"], meta["num_fp"]) != (NUM_INT_REGISTERS, NUM_FP_REGISTERS):
        raise ValueError(
            f"stored register counts {meta['num_int']}+{meta['num_fp']} are not "
            f"the architectural {NUM_INT_REGISTERS}+{NUM_FP_REGISTERS}"
        )
    for name, dtype in LAYOUT_DTYPES.items():
        if columns[name].dtype != dtype:
            raise ValueError(f"column {name!r} has dtype {columns[name].dtype}, expected {dtype}")
    program = Program(str(meta["name"]), columns, entry=int(meta["entry"]))
    from repro.uops.compiled import CompiledTrace

    return program, CompiledTrace(
        program, columns["sid"], columns["address"], columns["mispredicted"]
    )
