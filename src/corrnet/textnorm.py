"""Deterministic normalization of correlate descriptions into token lists,
and the UTF-8 error that the text-file loaders share."""

from __future__ import annotations

import re
import unicodedata
from contextlib import contextmanager

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


@contextmanager
def utf8_errors(path):
    """Turn a UnicodeDecodeError raised while path is read as UTF-8 text into
    ValueError("path:line: not valid UTF-8"). The line is found by a rescan in
    binary only then, so a valid file pays nothing."""
    try:
        yield
    except UnicodeDecodeError:
        raise ValueError(f"{path}:{_first_undecodable_line(path)}: not valid UTF-8") from None


def _first_undecodable_line(path) -> int:
    """The number of path's first line that is not valid UTF-8, counting lines
    as text-mode reading does: a line ends at \\n, \\r\\n or \\r. None of those
    bytes can occur inside a multi-byte character, so the file decodes if
    and only if every line does."""
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for line in chunk.splitlines():
                lineno += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    return lineno
    return lineno
