"""Binary model persistence: round trips and corruption detection."""

from __future__ import annotations

import itertools
import json
import struct
import zlib

import numpy as np
import pytest

from specdec.model_io import (
    BadMagicError,
    ChecksumMismatchError,
    FORMAT_VERSION,
    MAGIC,
    ModelFormatError,
    VersionMismatchError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from specdec.models import NGramModel, StatelessModel, train_ngram

from conftest import run_limited


@pytest.fixture
def model():
    return train_ngram([0, 1, 2, 0, 1, 2, 3, 1, 0], order=3, vocab_size=4, smoothing_k=0.05)


def test_round_trip_bitwise_on_all_short_prefixes(model, tmp_path):
    path = tmp_path / "m.sdng"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.order == model.order
    assert loaded.vocab_size == model.vocab_size
    assert loaded.smoothing_k == model.smoothing_k
    for length in range(model.order + 1):
        for prefix in itertools.product(range(model.vocab_size), repeat=length):
            np.testing.assert_array_equal(
                loaded.evaluate(list(prefix)), model.evaluate(list(prefix))
            )


def test_serialization_is_deterministic(model):
    assert serialize_model(model) == serialize_model(deserialize_model(serialize_model(model)))


def test_truncated_file_is_checksum_mismatch(model, tmp_path):
    blob = serialize_model(model)
    for cut in (len(blob) - 1, len(blob) // 2, 10):
        with pytest.raises(ChecksumMismatchError):
            deserialize_model(blob[:cut])
    # Cuts inside the version field, and after it but short of a CRC.
    for cut, message in [(len(MAGIC), "before version field"),
                         (len(MAGIC) + 1, "before version field"),
                         (len(MAGIC) + 5, "before payload")]:
        with pytest.raises(ChecksumMismatchError, match=f"^file truncated {message}$"):
            deserialize_model(blob[:cut])


def test_corrupted_byte_is_checksum_mismatch(model):
    blob = bytearray(serialize_model(model))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(ChecksumMismatchError):
        deserialize_model(bytes(blob))


def test_wrong_magic(model):
    blob = serialize_model(model)
    with pytest.raises(BadMagicError):
        deserialize_model(b"XXXX" + blob[4:])


def test_version_mismatch(model):
    blob = bytearray(serialize_model(model))
    struct.pack_into("<H", blob, len(MAGIC), FORMAT_VERSION + 1)
    with pytest.raises(VersionMismatchError):
        deserialize_model(bytes(blob))


@pytest.mark.parametrize(
    "counts",
    [
        {(0, 1): {2: 3, 7: 1}},  # next-token id past the vocabulary
        {(0, 1): {2: 3}, (4, 1): {0: 1}},  # context id equal to vocab_size
    ],
    ids=["token", "context"],
)
def test_out_of_vocab_ids_rejected(counts):
    # The writer does not validate, so this blob carries a valid CRC.
    blob = serialize_model(NGramModel(3, 4, 0.05, counts=counts))
    with pytest.raises(ModelFormatError, match="outside vocab of 4"):
        deserialize_model(blob)


def test_record_running_past_payload_rejected():
    # One record claims two entries but holds one; the CRC is valid.
    body = b"".join([MAGIC, struct.pack("<HIdIQ", FORMAT_VERSION, 2, 0.05, 4, 1),
                     struct.pack("<II", 0, 2), struct.pack("<IQ", 1, 3)])
    with pytest.raises(ModelFormatError, match="malformed record structure"):
        deserialize_model(body + struct.pack("<I", zlib.crc32(body)))


def test_trailing_bytes_after_records_rejected(model):
    # Two bytes after the last record, under a recomputed CRC.
    body = serialize_model(model)[:-4] + b"\x00\x00"
    with pytest.raises(ModelFormatError, match="^2 trailing bytes after records$"):
        deserialize_model(body + struct.pack("<I", zlib.crc32(body)))


def test_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_model(str(tmp_path / "nope.sdng"))


def test_only_ngram_models_serialize():
    with pytest.raises(TypeError):
        serialize_model(StatelessModel(np.array([0.5, 0.5])))


def test_unigram_round_trip(tmp_path):
    model = train_ngram([0, 0, 1, 2], order=1, vocab_size=3)
    path = tmp_path / "uni.sdng"
    save_model(model, str(path))
    loaded = load_model(str(path))
    np.testing.assert_array_equal(loaded.evaluate([]), model.evaluate([]))


# Byte mutations of a valid model file, each with its CRC recomputed so that
# the structure, not the checksum, is what the reader must judge. Prints the
# count loaded, the count rejected, and every case that raised anything else.
_FUZZ = """
import json, random, struct, sys, zlib
from specdec.model_io import ModelFormatError, deserialize_model, serialize_model
from specdec.models import train_ngram

seed, cases = int(sys.argv[1]), int(sys.argv[2])
body = serialize_model(train_ngram([0, 1, 2, 0, 1, 3, 4, 1, 0, 2, 2, 5], 3, 6))[:-4]
rng = random.Random(seed)
loaded = rejected = 0
failures = []
for case in range(cases):
    b = bytearray(body)
    kind = rng.randrange(3)
    if kind == 0:  # a few bytes set at random
        for _ in range(rng.randint(1, 4)):
            b[rng.randrange(len(b))] = rng.randrange(256)
    elif kind == 1:  # one 4- or 8-byte field set to an extreme or random value
        width = rng.choice((4, 8))
        at = rng.randrange(len(b) - width + 1)
        value = rng.choice((0, 1, 2**(8 * width) - 1, rng.getrandbits(8 * width)))
        b[at:at + width] = value.to_bytes(width, "little")
    else:  # a run of bytes deleted or inserted
        at = rng.randrange(len(b))
        run = rng.randint(1, 12)
        if rng.random() < 0.5:
            del b[at:at + run]
        else:
            b[at:at] = rng.randbytes(run)
    blob = bytes(b) + struct.pack("<I", zlib.crc32(b))
    try:
        deserialize_model(blob)
        loaded += 1
    except ModelFormatError:
        rejected += 1
    except Exception as exc:
        failures.append([case, repr(exc)[:200]])
print(json.dumps([loaded, rejected, failures]))
"""


def test_fuzzed_files_load_or_raise_model_format_error():
    # Under a 1 GiB address-space cap, so a header that asks for a huge
    # allocation fails fast rather than taking the machine's memory.
    proc = run_limited(_FUZZ, "20240613", "20000")
    assert proc.returncode == 0, proc.stderr
    loaded, rejected, failures = json.loads(proc.stdout)
    assert failures == []
    assert loaded > 0 and rejected > 0
