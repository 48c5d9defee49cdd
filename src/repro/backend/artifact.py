"""Serializable compiled-program artifacts: compile once, run everywhere.

A compiled program is a tree of live Python closures and cannot itself
cross a process boundary.  What *can* is the thing it is a pure function
of: the α-canonical hoisted source program plus the compile options — so
that is what an artifact carries, in the same content-addressed binary
encoding :mod:`repro.wire` ships terms in, together with the recorded
check/verify fuel of the cold compile.  Any worker that holds the artifact
reconstitutes the compiled closures with one cheap staging pass, skipping
the expensive half of the pipeline (type checking, closure conversion,
Theorem 5.6 verification, hoisting) entirely.

Artifact layout (all integers LEB128 varints)::

    "RPYC"  artifact-version
    verified flag (1 byte)
    check-steps  verify-steps        -- recorded fuel, replayed on warm hits
    block count
    block*                           -- label, then a wire-encoded CodeLam
    main                             -- wire-encoded term

Artifacts are keyed by **source content**, before any compilation work:
``artifact_key`` hashes the interned CC source term's wire content hash
together with the options that change the output (kernel engine, whether
Theorem 5.6 verification ran) and the artifact version.  Two sessions —
or two pool workers, or two runs separated by a restart — that submit
α-equivalent programs therefore agree on the key byte for byte, which is
what lets the ``artifact`` table of the persistent SQLite tier
(:mod:`repro.wire.persist`) act as a shared compile cache: sealed rows,
seal-or-miss reads, and the recorded fuel replayed so a warm run's result
document — including the position of a fuel-exhaustion error — is
byte-identical to the cold one.

The in-memory half is a per-session dict on the
:class:`~repro.kernel.state.KernelState` (its ``dict_cache``, so
``clear_caches``/``reset`` empty it like any other): key → live
:class:`CompiledProgram`, so repeated warm runs in one session skip even
the decode+staging pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any

from repro import cc, cccc
from repro.backend.compile import CompiledProgram, compile_program
from repro.cc.ast import LANGUAGE as CC_LANGUAGE
from repro.cccc.ast import LANGUAGE as CCCC_LANGUAGE
from repro.common.errors import ReproError, WireDecodeError
from repro.machine.hoist import Program
from repro.wire.codec import (
    _Reader,
    _write_str,
    _write_varint,
    content_hash,
    decode_term,
    encode_term,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactMeta",
    "artifact_key",
    "decode_artifact",
    "encode_artifact",
    "load_artifact",
    "store_artifact",
]

#: Bumped on any change to the artifact layout or the key preimage: old
#: rows then stop matching instead of decoding wrongly.
ARTIFACT_VERSION = 1

_MAGIC = b"RPYC"
_KEY_SEAL = b"repro-backend-key"


@dataclass(frozen=True)
class ArtifactMeta:
    """The non-program half of an artifact: recorded fuel and verification.

    ``check_steps``/``verify_steps`` are the budgets the cold compile
    spent; a warm hit charges them back into fresh budgets so warm runs
    replay the cold run's fuel trajectory exactly.
    """

    check_steps: int
    verify_steps: int
    verified: bool


def artifact_key(source: cc.Term, *, engine: str, verify: bool) -> bytes:
    """The shared-store key of ``source``'s compiled artifact.

    ``source`` must be the interned CC term (the session-independent
    α-class representative); ``engine`` and ``verify`` are the compile
    options that change the recorded fuel or the verified flag.
    """
    hasher = blake2b(digest_size=24, key=_KEY_SEAL)
    hasher.update(ARTIFACT_VERSION.to_bytes(4, "little"))
    hasher.update(engine.encode("ascii"))
    hasher.update(b"\x01" if verify else b"\x00")
    hasher.update(content_hash(CC_LANGUAGE, source))
    return hasher.digest()


def encode_artifact(program: Program, meta: ArtifactMeta) -> bytes:
    """Encode a hoisted (α-canonical) program plus its compile metadata."""
    out = bytearray(_MAGIC)
    _write_varint(out, ARTIFACT_VERSION)
    out.append(1 if meta.verified else 0)
    _write_varint(out, meta.check_steps)
    _write_varint(out, meta.verify_steps)
    _write_varint(out, len(program.code_table))
    for label, code in program.code_table.items():
        _write_str(out, label)
        blob = encode_term(CCCC_LANGUAGE, code)
        _write_varint(out, len(blob))
        out += blob
    main_blob = encode_term(CCCC_LANGUAGE, program.main)
    _write_varint(out, len(main_blob))
    out += main_blob
    return bytes(out)


def decode_artifact(data: bytes) -> tuple[Program, ArtifactMeta]:
    """Decode an artifact buffer, raising :class:`WireDecodeError` when torn.

    Every embedded term travels through :func:`repro.wire.codec.decode_term`,
    so per-node content hashes reject corruption inside blocks exactly as
    they do on the wire.
    """
    reader = _Reader(data)
    if reader.read(4) != _MAGIC:
        raise WireDecodeError("bad magic: not a compiled-program artifact")
    version = reader.varint()
    if version != ARTIFACT_VERSION:
        raise WireDecodeError(
            f"unsupported artifact version {version} (this build speaks {ARTIFACT_VERSION})"
        )
    flag = reader.read(1)[0]
    if flag > 1:
        raise WireDecodeError(f"malformed verified flag {flag}")
    check_steps = reader.varint()
    verify_steps = reader.varint()
    table: dict[str, cccc.CodeLam] = {}
    for _ in range(reader.varint()):
        label = reader.string()
        if label in table:
            raise WireDecodeError(f"duplicate code label {label!r} in artifact")
        code = decode_term(CCCC_LANGUAGE, reader.read(reader.varint()))
        if not isinstance(code, cccc.CodeLam):
            raise WireDecodeError(f"artifact block {label!r} is not a code literal")
        table[label] = code
    main = decode_term(CCCC_LANGUAGE, reader.read(reader.varint()))
    if not reader.done():
        raise WireDecodeError(
            f"trailing garbage: {len(data) - reader.pos} byte(s) after artifact main"
        )
    return Program(table, main), ArtifactMeta(check_steps, verify_steps, bool(flag))


# -- per-session cache plumbing ----------------------------------------------

#: The state's key → (live compiled program, meta) cache.
_MEMORY = "backend.compiled"


def load_artifact(state: Any, key: bytes) -> tuple[CompiledProgram, ArtifactMeta] | None:
    """The cached compiled program for ``key``, or None.

    Memory first; then the persistent tier's ``artifact`` table, staging
    the decoded program back into closures and memoizing the result.  An
    undecodable or uncompilable row is a miss, never an error — the same
    degradation contract as the memo tier.
    """
    cache = state.dict_cache(_MEMORY)
    found = cache.get(key)
    if found is not None:
        return found
    tier = state.persistent
    if tier is None:
        return None
    row = tier.store.get(key, "artifact")
    if row is None:
        return None
    _steps, blob = row
    try:
        program, meta = decode_artifact(blob)
        compiled = compile_program(program)
    except ReproError:
        return None
    cache[key] = (compiled, meta)
    return compiled, meta


def store_artifact(
    state: Any, key: bytes, compiled: CompiledProgram, meta: ArtifactMeta
) -> None:
    """Publish a freshly compiled program to every cache tier available."""
    state.dict_cache(_MEMORY)[key] = (compiled, meta)
    tier = state.persistent
    if tier is not None:
        tier.store.put(
            key,
            meta.check_steps + meta.verify_steps,
            encode_artifact(compiled.program, meta),
            "artifact",
        )
