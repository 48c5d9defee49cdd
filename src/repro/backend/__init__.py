"""The compile-to-host backend: hoisted machine programs as staged Python.

The layer the paper's closure conversion was building toward: hoisted
CC-CC programs — static code table, flat environments — are translated
once per block into host Python closures (:mod:`repro.backend.compile`),
serialized as content-addressed artifacts cached in the persistent tier
and shared across pool workers (:mod:`repro.backend.artifact`), and run
reporting the abstract machine's own
:class:`~repro.machine.machine.MachineStats`.  ``machine/machine.py``
stays an independent interpreter, the differential oracle; the
differential compares values, error documents, *and* counters.
"""

from repro.backend.artifact import (
    ARTIFACT_VERSION,
    ArtifactMeta,
    artifact_key,
    decode_artifact,
    encode_artifact,
    load_artifact,
    store_artifact,
)
from repro.backend.compile import CompiledProgram, compile_program

__all__ = [
    "ARTIFACT_VERSION",
    "BACKENDS",
    "ArtifactMeta",
    "CompiledProgram",
    "artifact_key",
    "compile_program",
    "decode_artifact",
    "encode_artifact",
    "load_artifact",
    "store_artifact",
    "validate_backend",
]

#: The execution backends ``Session.run`` accepts.
BACKENDS = ("machine", "compiled")


def validate_backend(backend: str) -> str:
    """``backend`` if it names a run backend, else a ValueError."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {', '.join(BACKENDS)}"
        )
    return backend
