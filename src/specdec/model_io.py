"""Binary persistence for n-gram models.

Layout (little-endian throughout):

    magic "SDNG" | u16 version | u32 order | f64 smoothing_k | u32 vocab_size
    | u64 n_contexts | records... | u32 crc32

Each record is ``(order - 1) * u32`` context tokens, then ``u32 n_entries``,
then ``n_entries * (u32 token, u64 count)``. The CRC covers every byte
before it, so truncation or corruption anywhere surfaces as a checksum
failure. Contexts and entries are written sorted, making serialization
deterministic.
"""

from __future__ import annotations

import struct
import zlib
from itertools import chain

from .models import NGramModel

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ModelFormatError",
    "BadMagicError",
    "VersionMismatchError",
    "ChecksumMismatchError",
    "save_model",
    "load_model",
    "serialize_model",
    "deserialize_model",
]

MAGIC = b"SDNG"
FORMAT_VERSION = 1
# After the magic and the version: order, smoothing, vocab size, contexts.
_HEADER = struct.Struct("<IdIQ")


class ModelFormatError(ValueError):
    """Model file is structurally invalid."""


class BadMagicError(ModelFormatError):
    """File does not start with the model magic bytes."""


class VersionMismatchError(ModelFormatError):
    """Model file written by an unsupported format version."""


class ChecksumMismatchError(ModelFormatError):
    """Trailing CRC32 does not match (truncated or corrupted file)."""


def serialize_model(model: NGramModel) -> bytes:
    if not isinstance(model, NGramModel):
        raise TypeError("only NGramModel supports binary persistence")
    parts = [MAGIC, struct.pack("<H", FORMAT_VERSION),
             _HEADER.pack(model.order, model.smoothing_k, model.vocab_size, len(model.counts))]
    for ctx in sorted(model.counts):
        table = model.counts[ctx]
        parts.append(struct.pack(f"<{len(ctx)}I", *ctx) if ctx else b"")
        parts.append(struct.pack("<I", len(table)))
        for tok in sorted(table):
            parts.append(struct.pack("<IQ", tok, table[tok]))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize_model(data: bytes) -> NGramModel:
    if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise BadMagicError("not a model file (missing SDNG magic)")
    if len(data) < len(MAGIC) + 2:
        raise ChecksumMismatchError("file truncated before version field")
    (version,) = struct.unpack_from("<H", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"format version {version}, expected {FORMAT_VERSION}")
    if len(data) < len(MAGIC) + 2 + 4:
        raise ChecksumMismatchError("file truncated before payload")
    body, trailer = data[:-4], data[-4:]
    (stored_crc,) = struct.unpack("<I", trailer)
    if zlib.crc32(body) != stored_crc:
        raise ChecksumMismatchError("CRC32 mismatch (truncated or corrupted file)")

    off = len(MAGIC) + 2
    try:
        order, smoothing_k, vocab_size, n_contexts = _HEADER.unpack_from(body, off)
        off += _HEADER.size
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        ctx_len = order - 1
        for _ in range(n_contexts):
            ctx = struct.unpack_from(f"<{ctx_len}I", body, off) if ctx_len else ()
            off += 4 * ctx_len
            n_entries, = struct.unpack_from("<I", body, off); off += 4
            entries = body[off : off + 12 * n_entries]
            if len(entries) != 12 * n_entries:
                raise struct.error("entries run past the payload")
            off += len(entries)
            counts[ctx] = dict(struct.iter_unpack("<IQ", entries))
    except struct.error as exc:
        # CRC passed but the structure ran past the payload: writer bug.
        raise ModelFormatError(f"malformed record structure: {exc}") from exc
    if off != len(body):
        raise ModelFormatError(f"{len(body) - off} trailing bytes after records")
    # Ids are unsigned, so the largest context or next-token id bounds them all.
    ids = chain(chain.from_iterable(counts), chain.from_iterable(counts.values()))
    top = max(ids, default=-1)
    if top >= vocab_size:
        raise ModelFormatError(f"token id {top} outside vocab of {vocab_size}")
    try:
        return NGramModel(order, vocab_size, smoothing_k, counts=counts)
    except ValueError as exc:  # a header field out of the model's domain
        raise ModelFormatError(f"bad header: {exc}") from exc


def save_model(model: NGramModel, path: str) -> None:
    blob = serialize_model(model)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path: str) -> NGramModel:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
