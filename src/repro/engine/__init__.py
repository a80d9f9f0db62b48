"""The vectorised batch walk engine.

Compile a pointer-wired broadcast program **once** into flat arrays
(:func:`compile_dense` → :class:`DenseProgram`), then execute 10⁵–10⁶
client walks as array operations (:func:`run_batch` →
:class:`BatchRecords`) — bit-identical, walk for walk, to the scalar
:func:`~repro.client.protocol.object_walk` /
:func:`~repro.client.protocol.recovering_walk`, at orders of magnitude
their throughput.
"""

from .batch import run_batch
from .bench import ENVELOPE_WALKS_PER_SECOND, run_engine_bench
from .dense import DenseProgram, compile_dense
from .masks import materialise_outcomes
from .records import BatchRecords

__all__ = [
    "DenseProgram",
    "compile_dense",
    "run_batch",
    "BatchRecords",
    "materialise_outcomes",
    "ENVELOPE_WALKS_PER_SECOND",
    "run_engine_bench",
]
