"""The binary DAG codec: content-addressed node tables for interned terms.

A buffer is a *node table* in topological (children-first) order::

    "RDAG"  codec-version  language-name
    class-name table (the node classes this buffer uses, by name)
    node count
    node*                     -- one entry per unique node
    root index

Each node entry carries its class (an index into the buffer's class-name
table), its fields in dataclass ``field_order`` — binder names as UTF-8
strings, data fields as tagged scalars, children as *indices into the
table* (strictly earlier entries, so sharing in the source DAG is preserved
exactly: a subterm appearing a thousand times in the unfolding is one entry
and a thousand one-byte indices) — and finally its 128-bit **content
hash**.

The content hash is structural and position-independent: BLAKE2b-128 over
the class *name* and the fields, with each child contributing its own
content hash rather than its table index.  Two encodings of the same term
therefore agree on every node hash, which is what makes ingest O(new
nodes): the decoder looks each hash up in the receiving session's
``by_hash`` index and *adopts* known nodes by pointer, verifying (and
hash-consing) only the genuinely new ones.  For the same reason the hash
doubles as the persistent memo tier's term key (:mod:`repro.wire.persist`).
Being a pure fact of the node, a computed hash is stored on the node itself
(its ``_hash`` slot, named only in this module) and shared by every
session; ``by_hash`` is the only per-session table the codec keeps.

The encoding is driven entirely by :class:`~repro.kernel.nodespec.NodeSpec`,
so both calculi — and any future one — share this one codec.  Encoding is
canonical: structurally equal terms (shared or unshared, any construction
history) produce byte-identical buffers, and ``encode(decode(b)) == b``.

Hashing is name-sensitive (it hashes binder names literally rather than
α-normalizing).  That is deliberate: the service ingests α-canonical
interned terms anyway, the hash of an interned representative is then a
function of the α-class, and keeping the hash a pure function of the
visible structure makes corruption checks and cross-process key agreement
trivial to reason about.
"""

from __future__ import annotations

import base64
import binascii
from hashlib import blake2b
from typing import Any

from repro.common.errors import WireDecodeError, WireError
from repro.kernel.intern import _build
from repro.kernel.nodespec import Language, NodeSpec

__all__ = [
    "CODEC_VERSION",
    "HASH_BYTES",
    "content_hash",
    "decode_term",
    "encode_term",
    "term_from_b64",
    "term_to_b64",
]

#: Bumped on any change to the buffer layout or the hash preimage.
CODEC_VERSION = 1

#: Content hashes are BLAKE2b-128: 64 bits is within birthday reach of a
#: large persistent store; 128 bits is not, and costs 8 bytes per node.
HASH_BYTES = 16

# Frozen dataclasses refuse ``setattr``; the ``_hash`` slot is written
# underneath it.
_fill = object.__setattr__

_MAGIC = b"RDAG"
_PERSON = b"repro.wire.v1"  # domain-separates these hashes from every other use

# Scalar tags for data fields (``BoolLit.value`` etc.) and, in the hash
# preimage, field-kind tags that keep adjacent fields from aliasing.
_D_NONE, _D_FALSE, _D_TRUE, _D_INT, _D_STR = 0, 1, 2, 3, 4
_F_BINDER, _F_CHILD, _F_DATA = b"\x01", b"\x02", b"\x03"


def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _write_varint(out, len(data))
    out += data


def _data_bytes(value: Any) -> bytes:
    """The tagged scalar encoding of one data-field value."""
    if value is None:
        return bytes((_D_NONE,))
    if value is False:
        return bytes((_D_FALSE,))
    if value is True:
        return bytes((_D_TRUE,))
    if isinstance(value, int):
        if value < 0:
            raise WireError(f"unencodable negative data value {value!r}")
        out = bytearray((_D_INT,))
        _write_varint(out, value)
        return bytes(out)
    if isinstance(value, str):
        out = bytearray((_D_STR,))
        _write_str(out, value)
        return bytes(out)
    raise WireError(f"unencodable data field value {value!r}")


def _node_digest(spec: NodeSpec, node: Any, child_hashes: list[bytes]) -> bytes:
    """The content hash of one node, given its children's content hashes."""
    hasher = blake2b(digest_size=HASH_BYTES, person=_PERSON)
    hasher.update(spec.cls.__name__.encode("ascii"))
    hasher.update(b"\x00")
    binders = spec.binder_attrs
    child_attrs = spec.child_attrs
    children = iter(child_hashes)
    buf = bytearray()
    for attr in spec.field_order:
        if attr in child_attrs:
            hasher.update(_F_CHILD)
            hasher.update(next(children))
        elif attr in binders:
            buf.clear()
            _write_str(buf, getattr(node, attr))
            hasher.update(_F_BINDER)
            hasher.update(buf)
        else:
            hasher.update(_F_DATA)
            hasher.update(_data_bytes(getattr(node, attr)))
    return hasher.digest()


def content_hash(lang: Language, term: Any) -> bytes:
    """The stable 128-bit content hash of ``term``.

    A pure function of the term's visible structure (class names, binder
    names, data, child structure) — independent of sharing, session, or
    process.  Stored in each node's ``_hash`` slot (declared on both
    calculi's ``Term``; only this module names it), so repeated hashing of
    live (e.g. hash-consed) terms is O(1) in every session.
    """
    found = getattr(term, "_hash", None)
    if found is not None:
        return found
    specs = lang.specs
    results: list[bytes] = []
    stack: list[tuple[Any, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            cached = getattr(node, "_hash", None)
            if cached is not None:
                results.append(cached)
                continue
            spec = specs.get(type(node))
            if spec is None:
                raise WireError(f"not a {lang.name.upper()} term: {node!r}")
            stack.append((node, True))
            for child in reversed(spec.children):
                stack.append((getattr(node, child.attr), False))
        else:
            spec = specs[type(node)]
            count = len(spec.children)
            child_hashes = results[len(results) - count :] if count else []
            if count:
                del results[len(results) - count :]
            digest = _node_digest(spec, node, child_hashes)
            _fill(node, "_hash", digest)
            results.append(digest)
    return results[-1]


def encode_term(lang: Language, term: Any) -> bytes:
    """Encode ``term`` as a content-addressed binary node table.

    Canonical: the node-table order is the children-first order of *first
    structural occurrence*, so structurally equal terms — shared DAG or
    unfolded tree alike — encode to byte-identical buffers.
    """
    root_hash = content_hash(lang, term)  # also fills every node's hash
    specs = lang.specs
    names: list[str] = []
    name_tags: dict[str, int] = {}
    index_of: dict[bytes, int] = {}
    body = bytearray()
    stack: list[tuple[Any, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        digest = node._hash
        if digest in index_of:
            continue  # this structure is already in the table
        spec = specs[type(node)]
        if not expanded:
            stack.append((node, True))
            for child in reversed(spec.children):
                stack.append((getattr(node, child.attr), False))
            continue
        cls_name = type(node).__name__
        tag = name_tags.get(cls_name)
        if tag is None:
            tag = name_tags[cls_name] = len(names)
            names.append(cls_name)
        _write_varint(body, tag)
        binders = spec.binder_attrs
        child_attrs = spec.child_attrs
        for attr in spec.field_order:
            if attr in child_attrs:
                _write_varint(body, index_of[getattr(node, attr)._hash])
            elif attr in binders:
                _write_str(body, getattr(node, attr))
            else:
                body += _data_bytes(getattr(node, attr))
        body += digest
        index_of[digest] = len(index_of)
    out = bytearray(_MAGIC)
    _write_varint(out, CODEC_VERSION)
    _write_str(out, lang.name)
    _write_varint(out, len(names))
    for name in names:
        _write_str(out, name)
    _write_varint(out, len(index_of))
    out += body
    _write_varint(out, index_of[root_hash])
    return bytes(out)


class _Reader:
    """Bounds-checked cursor over a buffer; every overrun is a decode error."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def read(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise WireDecodeError(
                f"truncated buffer: wanted {count} byte(s) at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def varint(self) -> int:
        value = 0
        shift = 0
        while True:
            if self.pos >= len(self.data):
                raise WireDecodeError(f"truncated varint at offset {self.pos}")
            if shift > 63:
                raise WireDecodeError(f"overlong varint at offset {self.pos}")
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def string(self) -> str:
        length = self.varint()
        raw = self.read(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireDecodeError(f"malformed UTF-8 string at offset {self.pos}") from error

    def data_value(self) -> Any:
        tag = self.read(1)[0]
        if tag == _D_NONE:
            return None
        if tag == _D_FALSE:
            return False
        if tag == _D_TRUE:
            return True
        if tag == _D_INT:
            return self.varint()
        if tag == _D_STR:
            return self.string()
        raise WireDecodeError(f"unknown data tag {tag} at offset {self.pos - 1}")

    def done(self) -> bool:
        return self.pos == len(self.data)


def decode_term(lang: Language, data: bytes) -> Any:
    """Decode a buffer into the active session, adopting known nodes.

    O(new nodes): each entry's content hash is probed against the session's
    ``by_hash`` index first — a hit adopts the existing (already verified,
    already hash-consed) node by pointer.  Only unknown entries are
    re-hashed (rejecting corruption), built through the hash-consing
    constructor, and registered for future adoption.  Raises
    :class:`~repro.common.errors.WireDecodeError` on any malformed,
    truncated, or corrupt buffer, with a deterministic message.
    """
    reader = _Reader(data)
    if reader.read(4) != _MAGIC:
        raise WireDecodeError("bad magic: not a term DAG buffer")
    version = reader.varint()
    if version != CODEC_VERSION:
        raise WireDecodeError(
            f"unsupported codec version {version} (this build speaks {CODEC_VERSION})"
        )
    encoded_lang = reader.string()
    if encoded_lang != lang.name:
        raise WireDecodeError(
            f"language mismatch: buffer encodes {encoded_lang!r}, expected {lang.name!r}"
        )
    classes: list[type] = []
    for _ in range(reader.varint()):
        name = reader.string()
        cls = lang.by_name.get(name)
        if cls is None:
            raise WireDecodeError(f"unknown node class {name!r} for language {lang.name!r}")
        classes.append(cls)
    count = reader.varint()
    if count == 0:
        raise WireDecodeError("empty node table")
    by_hash = lang.by_hash
    table = lang.hashcons
    specs = lang.specs
    nodes: list[Any] = []
    hashes: list[bytes] = []
    for index in range(count):
        tag = reader.varint()
        if tag >= len(classes):
            raise WireDecodeError(f"node {index}: class tag {tag} out of range")
        cls = classes[tag]
        spec = specs[cls]
        binders = spec.binder_attrs
        child_attrs = spec.child_attrs
        args: list[Any] = []
        child_hashes: list[bytes] = []
        for attr in spec.field_order:
            if attr in child_attrs:
                child = reader.varint()
                if child >= index:
                    raise WireDecodeError(
                        f"node {index}: forward/self child reference {child}"
                    )
                args.append(nodes[child])
                child_hashes.append(hashes[child])
            elif attr in binders:
                args.append(reader.string())
            else:
                args.append(reader.data_value())
        digest = reader.read(HASH_BYTES)
        node = by_hash.get(digest)
        if node is None:
            node = _build(lang, table, cls, tuple(args))
            expected = _node_digest(spec, node, child_hashes)
            if expected != digest:
                raise WireDecodeError(f"node {index}: content hash mismatch (corrupt buffer)")
            by_hash[digest] = node
            _fill(node, "_hash", digest)
        nodes.append(node)
        hashes.append(digest)
    root = reader.varint()
    if root >= count:
        raise WireDecodeError(f"root index {root} out of range (table has {count})")
    if not reader.done():
        raise WireDecodeError(
            f"trailing garbage: {len(data) - reader.pos} byte(s) after root index"
        )
    return nodes[root]


def term_to_b64(lang: Language, term: Any) -> str:
    """:func:`encode_term`, base64-encoded for JSON transport."""
    return base64.b64encode(encode_term(lang, term)).decode("ascii")


def term_from_b64(lang: Language, text: str) -> Any:
    """:func:`decode_term` from base64 text; bad base64 is a decode error."""
    try:
        data = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError, ValueError) as error:
        raise WireDecodeError(f"malformed base64 term payload: {error}") from error
    return decode_term(lang, data)
