"""Seed derivation, canonical and strict JSON, Markdown tables, and config hashing.

Every randomized operation takes an explicit integer seed. A single run-level
seed fans out to per-module streams via ``derive_seed(seed, label)`` and to
per-replicate streams via ``replicate_rng(seed, i)``, so that replicate i's
stream depends only on (seed, i) and results are independent of scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Sequence

import numpy as np

_MASK63 = (1 << 63) - 1


def derive_seed(seed: int, label: str) -> int:
    """Derive a module-level substream seed from a run seed and a stable tag.

    The tag is a ``SeedSequence`` spawn key, not XORed in: nested derivations
    do not commute and distinct (seed, label) pairs do not collide.
    """
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK63, spawn_key=(tag,))
    return int(ss.generate_state(1, np.uint64)[0]) & _MASK63


def replicate_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for one replicate; the stream depends only on (seed, *path)."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK63, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def canonical_json(obj) -> str:
    """Stable, human-readable, strict JSON: sorted keys, fixed layout, trailing newline.

    NaN and infinities raise ``ValueError``: strict parsers reject them, so an
    undefined or unbounded value must be written as null by its owner.
    """
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _finite(text: str) -> float:
    value = float(text)  # a number, or one of the constants NaN, Infinity and -Infinity
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {text}")
    return value


def strict_json(text: str):
    """Parse JSON as strict parsers do: ``NaN``, ``(-)Infinity`` and numbers beyond a float raise ``ValueError``."""
    return json.loads(text, parse_float=_finite, parse_constant=_finite)


def slot_fields(obj) -> dict:
    """Shallow ``{field: value}`` dump of a slotted dataclass, in field order.

    Values are neither copied nor converted (``dataclasses.asdict`` would
    deep-copy every nested list and dict); JSON writes tuples as arrays.
    Classes whose JSON form is exactly their fields bind it as
    ``to_json_dict = slot_fields``.
    """
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """Lines of a Markdown pipe table; cells are rendered with ``str``."""
    lines = ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return lines


def config_hash(obj) -> str:
    """sha256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
