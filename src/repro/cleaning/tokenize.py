"""Tokenizers used by the comparison-pruning monoids.

Token filtering (§4.2/§4.3) splits each word into overlapping q-grams and
groups words by shared token; similarity checks then happen only within a
group.  The tokenizer is deliberately simple and deterministic.
"""

from __future__ import annotations


def qgrams(text: str, q: int = 3, pad: bool = False) -> list[str]:
    """Overlapping substrings of length ``q``.

    Words shorter than ``q`` yield themselves as a single token so that every
    word lands in at least one group (a word with no tokens could never be
    validated).  With ``pad=True`` the string is padded with ``#`` so edge
    characters appear in ``q`` tokens, which boosts recall for short strings.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if pad:
        text = "#" * (q - 1) + text + "#" * (q - 1)
    if len(text) < q:
        return [text] if text else []
    return [text[i : i + q] for i in range(len(text) - q + 1)]


def words(text: str) -> list[str]:
    """Whitespace word-split with lowercasing; used for record blocking."""
    return text.lower().split()

