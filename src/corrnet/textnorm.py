"""Deterministic normalization of correlate descriptions into token lists."""

from __future__ import annotations

import re
import unicodedata

MAX_TOKENS = 32

# Anything that is not a word character, whitespace, hyphen or apostrophe
# becomes a space. Hyphens/apostrophes survive this pass so that in-word
# occurrences ("self-esteem", "worker's") can be kept below.
_PUNCT_RE = re.compile(r"[^\w\s'’-]", re.UNICODE)
_EDGE_CHARS = "'’-"


def normalize(raw: str) -> list[str]:
    """Turn a raw description into an ordered list of tokens.

    Applies NFC unicode normalization, lowercasing, punctuation stripping
    (hyphens and apostrophes inside words are kept), whitespace splitting,
    and truncation to MAX_TOKENS. An empty result list is valid; callers
    decide whether to reject it.
    """
    text = _PUNCT_RE.sub(" ", unicodedata.normalize("NFC", raw).lower())
    tokens = [t.strip(_EDGE_CHARS) for t in text.split()]
    return [t for t in tokens if t][:MAX_TOKENS]
