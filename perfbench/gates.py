"""Correctness gates.  Each returns a list of failure messages (empty = pass).

The gates take plain values (snapshots, dicts, id lists) so the self-tests
can feed them injected faults.
"""

from __future__ import annotations

import numpy as np

#: Tolerance of the recompute head against a one-shot extender on a
#: replayed twin database (the service's own verification bar).
ONE_SHOT_TOLERANCE = 1e-9

#: Response keys that must be identical between a pinned read during the
#: stream and its reference recorded before it (head/staleness move).
_PINNED_KEYS = ("version", "fact_ids", "vectors", "neighbors", "relation", "index")


def op_mix(num_ops: dict, requested: tuple[str, ...]) -> list[str]:
    """Every requested op kind occurs, and no other kind does."""
    errors = [f"requested op kind {kind!r} never occurs in the feed"
              for kind in requested if not num_ops.get(kind)]
    errors += [f"op kind {kind!r} occurs {count} times but was not requested"
               for kind, count in num_ops.items() if count and kind not in requested]
    return errors


def samples(batches: int, queries: int, min_batches: int, min_queries: int) -> list[str]:
    """Enough batches and queries for the reported percentiles."""
    errors = []
    if batches < min_batches:
        errors.append(f"{batches} batches streamed, need at least {min_batches}")
    if queries < min_queries:
        errors.append(f"{queries} queries sent, need at least {min_queries}")
    return errors


def pinned_read(reference: dict, response: dict) -> list[str]:
    """A pinned read during the stream equals its serial reference exactly."""
    for key in _PINNED_KEYS:
        if reference.get(key) != response.get(key):
            return [f"pinned read differs from its reference in {key!r}"]
    return []


def stable(head, baseline, trained_ids) -> list[str]:
    """Trained facts keep their version-1 vectors bit for bit."""
    ids = list(trained_ids)
    missing = [fid for fid in ids if fid not in head]
    if missing:
        return [f"{len(missing)} trained facts missing from the head store"]
    if not np.array_equal(head.fetch(ids), baseline.fetch(ids)):
        return ["a trained fact's head vector differs from version 1"]
    return []


def deleted_absent(head, deleted_ids) -> list[str]:
    """No deleted fact is readable from the head store."""
    leaked = sorted(fid for fid in deleted_ids if fid in head)
    return [f"deleted facts still in the head store: {leaked[:5]}"] if leaked else []


def same_snapshot(live, loaded) -> list[str]:
    """A saved and reloaded store equals the live head bit for bit."""
    live_ids = sorted(live.row_of)
    if live_ids != sorted(loaded.row_of):
        return ["reloaded store holds other facts than the live head"]
    if loaded.version != live.version:
        return [f"reloaded version {loaded.version} != live {live.version}"]
    if not np.array_equal(live.fetch(live_ids), loaded.fetch(live_ids)):
        return ["reloaded vectors differ from the live head"]
    return []


def identical(outcomes: list) -> list[str]:
    """Repeated builds or passes from one seed produce the same outcome."""
    if any(outcome != outcomes[0] for outcome in outcomes[1:]):
        return [f"{len(outcomes)} repeats from one seed gave different results"]
    return []


def one_shot(streamed: np.ndarray, one_shot_vectors: np.ndarray) -> list[str]:
    """The recompute head equals a one-shot extension within tolerance."""
    if streamed.shape != one_shot_vectors.shape:
        return [f"one-shot shape {one_shot_vectors.shape} != streamed {streamed.shape}"]
    diff = float(np.max(np.abs(streamed - one_shot_vectors))) if streamed.size else 0.0
    if not diff <= ONE_SHOT_TOLERANCE:
        return [f"recompute head differs from one-shot by {diff:.3e}"]
    return []
