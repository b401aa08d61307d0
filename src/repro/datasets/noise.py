"""Noise injection utilities shared by the workload generators (§8 setup).

The paper's generators perturb a fraction of the entries of one attribute
("we add noise to 10% of the author names by a factor of 20%"): the
*fraction* picks which records are dirtied, the *rate* how many characters
of the value are edited.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
import string
from typing import Any, Sequence

_ALPHABET = string.ascii_lowercase


def perturb_string(value: str, rate: float, rng: random.Random) -> str:
    """Apply ``ceil(len * rate)`` random character edits (sub/insert/delete).

    Guaranteed to return a string different from the input when the input is
    non-empty and ``rate > 0`` (re-rolls substitute characters as needed).
    """
    if not value or rate <= 0:
        return value
    chars = list(value)
    edits = max(1, round(len(chars) * rate))
    for _ in range(edits):
        kind = rng.choice(("substitute", "insert", "delete"))
        if kind == "delete" and len(chars) > 1:
            del chars[rng.randrange(len(chars))]
        elif kind == "insert":
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_ALPHABET))
        else:
            index = rng.randrange(len(chars))
            old = chars[index]
            replacement = rng.choice(_ALPHABET)
            while replacement == old:
                replacement = rng.choice(_ALPHABET)
            chars[index] = replacement
    result = "".join(chars)
    if result == value:  # possible via insert+delete cancelling out
        result = value + rng.choice(_ALPHABET)
    return result


def inject_value_noise(
    records: list[dict[str, Any]],
    attr: str,
    fraction: float,
    domain: Sequence[Any],
    seed: int = 37,
) -> tuple[list[dict[str, Any]], list[int]]:
    """Overwrite ``fraction`` of ``attr`` with values drawn from ``domain``.

    This is the TPC-H noise procedure: edited values come from the smallest
    scale factor's domain "so that we increase the skew as we increase the
    dataset size" (§8).  Returns the new records and the edited indices.
    """
    rng = random.Random(seed)
    indices = list(range(len(records)))
    rng.shuffle(indices)
    chosen = sorted(indices[: round(len(records) * fraction)])
    out = [dict(r) for r in records]
    for i in chosen:
        out[i][attr] = rng.choice(domain)
    return out, chosen


def zipf_int(rng: random.Random, s: float, low: int, high: int) -> int:
    """A Zipf-distributed integer in ``[low, high]`` (rank-frequency law).

    Used for the customer-duplicate counts ("a random value generated using
    Zipf's distribution", §8).
    """
    if low > high:
        raise ValueError("low must not exceed high")
    n = high - low + 1
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    target = rng.random() * total
    acc = 0.0
    for rank, w in enumerate(weights, start=1):
        acc += w
        if target <= acc:
            return low + rank - 1
    return high


def zipf_choice(rng: random.Random, items: Sequence[Any], s: float = 1.2):
    """Pick an item with Zipf-weighted probability over its index."""
    index = zipf_int(rng, s, 1, len(items)) - 1
    return items[index]
