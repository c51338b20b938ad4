"""Attributed Dynamic Control Flow Graphs (A-DCFG).

The A-DCFG is the paper's central data structure (§V-B): a DCFG whose nodes
are basic blocks carrying per-visit, per-instruction memory-access
histograms, and whose edges carry traversal counts plus the distribution of
the *previous* edge (used to build the control-flow transition matrices of
§VII-C).  Folding every warp of a kernel into a single A-DCFG is what gives
Owl its scalability: redundant per-thread information is aggregated away
while the multiplicities (counts) are preserved.
"""

from repro.adcfg.builder import ADCFGBuilder
from repro.adcfg.graph import (
    END_LABEL,
    START_LABEL,
    ADCFG,
    Edge,
    MemoryRecord,
    Node,
)
from repro.adcfg.serialize import (
    adcfg_size_bytes,
    deserialize_adcfg,
    serialize_adcfg,
)
from repro.adcfg.table import ADCFGTable

__all__ = [
    "ADCFG",
    "ADCFGBuilder",
    "ADCFGTable",
    "Edge",
    "END_LABEL",
    "MemoryRecord",
    "Node",
    "START_LABEL",
    "adcfg_size_bytes",
    "deserialize_adcfg",
    "serialize_adcfg",
]
