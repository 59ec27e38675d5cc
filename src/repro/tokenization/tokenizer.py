"""Word-level tokenizer with prompt-token awareness and batch encoding."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.tokenization.vocab import CLS, SEP, Vocab

# Order matters: bracketed prompt tokens first, then words/numbers/punctuation.
_TOKEN_PATTERN = re.compile(
    r"\[[A-Za-z_]+\]"          # prompt/special tokens like [ALM], [KPI]
    r"|[A-Za-z][A-Za-z0-9_\-]*"  # words, identifiers, hyphenated jargon
    r"|\d+(?:\.\d+)?"           # integers / decimals
    r"|\|"                      # the field separator used by prompt templates
    r"|[^\sA-Za-z0-9]"          # any remaining single punctuation mark
)


def basic_tokenize(text: str, lowercase: bool = False) -> list[str]:
    """Split text into word/number/punctuation tokens.

    Bracketed prompt tokens (``[ALM]`` etc.) and the ``|`` separator survive
    as single tokens.  ``lowercase`` leaves bracketed tokens untouched.
    """
    tokens = _TOKEN_PATTERN.findall(text)
    if lowercase:
        tokens = [t if t.startswith("[") else t.lower() for t in tokens]
    return tokens


@dataclass
class Encoding:
    """Result of encoding one sentence (or a padded batch row)."""

    ids: np.ndarray            # (T,) int token ids
    attention_mask: np.ndarray  # (T,) 1 for real tokens, 0 for padding
    tokens: list[str]          # tokens including [CLS]/[SEP], without padding

    def __len__(self) -> int:
        return int(self.attention_mask.sum())


class WordTokenizer:
    """Tokenizer mapping raw text to id sequences against a :class:`Vocab`.

    Encodes as ``[CLS] tokens... [SEP]`` (Sec. III-B), truncating to
    ``max_length`` and padding batches to a common length.
    """

    def __init__(self, vocab: Vocab, max_length: int = 64,
                 lowercase: bool = False):
        if max_length < 3:
            raise ValueError("max_length must allow [CLS] + 1 token + [SEP]")
        self.vocab = vocab
        self.max_length = max_length
        self.lowercase = lowercase

    def tokenize(self, text: str) -> list[str]:
        return basic_tokenize(text, lowercase=self.lowercase)

    def encode(self, text: str) -> Encoding:
        """Encode a single sentence; no padding is applied."""
        tokens = self.tokenize(text)[: self.max_length - 2]
        wrapped = [CLS] + tokens + [SEP]
        ids = np.asarray(self.vocab.encode(wrapped), dtype=np.int64)
        mask = np.ones(len(wrapped), dtype=np.int64)
        return Encoding(ids=ids, attention_mask=mask, tokens=wrapped)

    def encode_batch_with_tokens(
            self, texts: Sequence[str], pad_to: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
        """Like :meth:`encode_batch` but also returns per-row token lists.

        Tokenizes each text exactly once — callers that need both the padded
        id matrices and the token strings (the stage-2 masking path) should
        use this instead of calling :meth:`encode_batch` and :meth:`encode`
        separately, which doubles the tokenization work per training step.
        Each token list is :meth:`encode`'s ``tokens``: wrapped and cut at
        ``max_length``, never cut to ``pad_to``.
        """
        return self._encode_rows(texts, pad_to)

    def encode_batch(self, texts: Sequence[str],
                     pad_to: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Encode texts into padded ``(ids, attention_mask)`` matrices.

        Row ``i`` holds :meth:`encode` of ``texts[i]`` cut to the padded
        length (``pad_to``, else the longest row), then ``pad_id`` with
        mask 0; both matrices are int64.
        """
        ids, mask, _ = self._encode_rows(texts, pad_to)
        return ids, mask

    def _encode_rows(self, texts: Sequence[str], pad_to: int | None
                     ) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
        """The padded ``(ids, mask)`` and token lists of ``texts``.

        One pass for the whole batch: every row's tokens map to ids in a
        single :meth:`Vocab.encode` call, and one boolean row-length mask
        places them in the padded matrix.  The two public batch methods
        share it rather than call each other, so each call is one
        ``encode_batch*`` call to anything that wraps them.
        """
        keep = self.max_length - 2
        rows = [[CLS, *self.tokenize(text)[:keep], SEP] for text in texts]
        length = pad_to or max(len(row) for row in rows)
        lengths = np.array([min(len(row), length) for row in rows],
                           dtype=np.int64)
        filled = np.arange(length) < lengths[:, None]
        ids = np.full((len(rows), length), self.vocab.pad_id,
                      dtype=np.int64)
        ids[filled] = self.vocab.encode(
            [token for row in rows for token in row[:length]])
        return ids, filled.astype(np.int64), rows

    def decode(self, ids: Iterable[int], skip_special: bool = True) -> str:
        """Best-effort detokenization (space-joined)."""
        tokens = self.vocab.decode(list(ids))
        if skip_special:
            tokens = [t for t in tokens if not self.vocab.is_special(t)]
        return " ".join(tokens)

    def oov_rate(self, sentences: Sequence[str]) -> float:
        """Fraction of corpus tokens that map to ``[UNK]``.

        A coverage diagnostic: stage-2 data pipelines use it to decide which
        extra vocabulary to register before re-training.
        """
        total = 0
        unknown = 0
        for sentence in sentences:
            for token in self.tokenize(sentence):
                total += 1
                if self.vocab.token_to_id(token) == self.vocab.unk_id:
                    unknown += 1
        if total == 0:
            raise ValueError("no tokens in the given sentences")
        return unknown / total

    @classmethod
    def from_corpus(cls, sentences: Sequence[str], min_freq: int = 1,
                    max_length: int = 64, lowercase: bool = False,
                    max_vocab: int | None = None) -> "WordTokenizer":
        """Build vocabulary from raw sentences and return a tokenizer."""
        tokenised = [basic_tokenize(s, lowercase=lowercase) for s in sentences]
        vocab = Vocab.build(tokenised, min_freq=min_freq, max_size=max_vocab)
        return cls(vocab, max_length=max_length, lowercase=lowercase)
