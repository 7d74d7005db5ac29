"""Canonical cache keys for the content-addressed result store.

Every per-trial result is addressed by a SHA-256 digest of *what produced
it*: the job's declarative specs (graph family + params, protocol name +
params, seed, engine options) plus the execution context that affects the
result bits (the randomness policy) and :data:`ENGINE_VERSION`.
Two configurations that would produce identical bits must digest to the same
key, so the payload is canonicalised before hashing:

* dict keys are sorted (insertion order never matters),
* numpy scalars collapse to the Python values they JSON-serialise as
  (``np.int64(5)`` and ``5`` digest identically, as do ``np.float64(p)``
  and ``float(p)``),
* tuples and numpy arrays become lists.

Conversely, anything that *can* change the result bits must be part of the
payload — most importantly :data:`ENGINE_VERSION`, which is baked into every
digest so results computed by an older engine can never be mistaken for
current ones.

The trials of one sweep differ only in their seed, so their keys are
spliced from one template (:func:`seeded_digests`): the body is
canonicalised once with :data:`SEED_SLOT` in the seed's place, the text is
split at the slot, and each key hashes ``prefix + str(seed) + suffix`` from
a prefix-primed hash.  Canonical JSON fixes the key order and prints an
integer as its decimal digits, so a spliced key is byte for byte the
:func:`trial_digest` of the same body with the seed filled in.
"""

from __future__ import annotations

import hashlib
import json
import operator
from typing import Any, Iterable, List, Mapping

import numpy as np

__all__ = [
    "ENGINE_VERSION",
    "SEED_SLOT",
    "canonicalize",
    "canonical_dumps",
    "seeded_digests",
    "trial_digest",
]

#: Version tag of the simulation engine's *semantics*.  Bump this on any
#: change that alters what a (graph, protocol, seed) triple computes — rng
#: consumption order, collision resolution, protocol round logic, trace
#: contents — and every previously stored result silently becomes a cache
#: miss instead of a wrong answer.  Purely representational changes (state
#: layout, scheduling, sharding) are bit-identical by construction and do
#: not require a bump.
ENGINE_VERSION = "4.0"


#: Exact types that are already canonical JSON values.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-ready form (see module docstring)."""
    # Exact built-in types first: a ``Mapping`` isinstance check runs the
    # ABC subclass hook, which dominated the cost on payload leaves.
    kind = type(value)
    if kind is dict:
        return {str(k): canonicalize(value[k]) for k in sorted(value, key=str)}
    if kind is list or kind is tuple:
        return [canonicalize(v) for v in value]
    if kind in _JSON_SCALARS:
        return value
    # Subclasses and numpy values.
    if isinstance(value, Mapping):
        return {str(k): canonicalize(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [canonicalize(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"value of type {type(value).__name__} cannot be part of a cache key"
    )


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON text of ``payload`` (sorted keys, no whitespace)."""
    return json.dumps(
        canonicalize(payload), sort_keys=True, separators=(",", ":")
    )


def _versioned_text(payload: Mapping[str, Any]) -> str:
    """Canonical text of ``payload`` with :data:`ENGINE_VERSION` merged in."""
    body = dict(payload)
    body["engine_version"] = ENGINE_VERSION
    return canonical_dumps(body)


def trial_digest(payload: Mapping[str, Any]) -> str:
    """The store key for one trial: SHA-256 over the canonical payload.

    :data:`ENGINE_VERSION` is merged into the payload before hashing, so a
    version bump invalidates every existing key at once.
    """
    return hashlib.sha256(_versioned_text(payload).encode("utf-8")).hexdigest()


#: Placeholder for the seed in a :func:`seeded_digests` template.  Its JSON
#: text (quotes included) is replaced by each seed's decimal digits.
SEED_SLOT = "\x00seed\x00"


def seeded_digests(template: Mapping[str, Any], seeds: Iterable[int]) -> List[str]:
    """``trial_digest`` of ``template`` with :data:`SEED_SLOT` replaced by
    each seed in turn, in seed order.

    The template is canonicalised once; each key then hashes only the
    seed's digits and the suffix on a copy of a hash primed with the
    prefix.  Raises ``ValueError`` unless the slot occurs exactly once.
    """
    text = _versioned_text(template)
    parts = text.split(json.dumps(SEED_SLOT))
    if len(parts) != 2:
        raise ValueError(
            f"a key template needs exactly one seed slot, found {len(parts) - 1}"
        )
    prefix, suffix = (part.encode("utf-8") for part in parts)
    primed = hashlib.sha256(prefix)
    digests = []
    for seed in seeds:
        digest = primed.copy()
        digest.update(b"%d" % operator.index(seed))
        digest.update(suffix)
        digests.append(digest.hexdigest())
    return digests
