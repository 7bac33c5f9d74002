"""Byte- and word-level tokenizers.

Byte mode is the default: any file is a corpus with zero preprocessing,
vocab is 258 (256 byte values plus BOS=256, EOS=257), and decode(encode(x))
round-trips exactly. Word mode splits on whitespace against an explicit
vocabulary, one token per line.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ByteTokenizer", "WordTokenizer", "UnknownTokenError"]


class UnknownTokenError(KeyError):
    """Word not present in a word-level vocabulary."""


class ByteTokenizer:
    BOS = 256
    EOS = 257

    vocab_size = 258

    def encode(self, text: str | bytes) -> list[int]:
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        return list(data)

    def decode(self, tokens: Sequence[int]) -> str:
        data = bytes(t for t in tokens if t < 256)
        return data.decode("utf-8", errors="replace")

    def render_token(self, token: int) -> str:
        """Single-token display form for traces (escapes non-printables)."""
        if token == self.BOS:
            return "<BOS>"
        if token == self.EOS:
            return "<EOS>"
        ch = chr(token)
        if token in (9, 10, 13) or 32 <= token < 127:
            return ch
        return f"\\x{token:02x}"


class WordTokenizer:
    def __init__(self, words: Sequence[str]):
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in vocabulary")
        self._words = list(words)
        self._ids = {w: i for i, w in enumerate(self._words)}
        self.BOS = len(self._words)
        self.EOS = len(self._words) + 1

    @classmethod
    def from_vocab_file(cls, path: str) -> "WordTokenizer":
        with open(path, "r", encoding="utf-8") as fh:
            return cls([line.strip() for line in fh if line.strip()])

    @classmethod
    def from_corpus(cls, text: str) -> "WordTokenizer":
        return cls(list(dict.fromkeys(text.split())))

    @property
    def vocab_size(self) -> int:
        return len(self._words) + 2  # + BOS, EOS

    def encode(self, text: str) -> list[int]:
        try:
            return [self._ids[w] for w in text.split()]
        except KeyError as exc:  # the first unknown word
            raise UnknownTokenError(exc.args[0]) from None

    def decode(self, tokens: Sequence[int]) -> str:
        return " ".join(self._words[t] for t in tokens if t < len(self._words))

    def render_token(self, token: int) -> str:
        if token == self.BOS:
            return "<BOS> "
        if token == self.EOS:
            return "<EOS> "
        if token >= len(self._words):  # past the word list: shown as its id
            return f"<{token}> "
        return self._words[token] + " "
