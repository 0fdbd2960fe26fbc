"""Seeded random generation and independent sampling routes for node depths.

Three routes produce depth samples of key l: counting the ancestors of l in
a random permutation, drawing from the two-stage position/record
representation, and counting quickselect recursions; key samples a uniformly
random key's depth through the representation.  They agree in distribution,
which the test suite exploits for cross-validation against the exact law; no
route reads it.

Each stream's quota is drawn in numpy chunks of a fixed size (_chunk_rows),
a few MiB at any n: _KEY_CHUNK_CELLS // n rows of arrival keys on bst,
_CHUNK_CELLS // 16 draws on find, representation and key; single-sample
functions draw a chunk of one.  A bst row gives each value 1..n an i.i.d.
uniform 64-bit arrival key, _arrival_keys, and reads every one of them.
find draws only the part of the arrival order that quickselect reads, one
uniform pivot per level (_find_pivots), O(log n) per sample; verify's find
suite runs the same chain on every fixed arrival order.  A stream,
identified by (seed, stream_id), always replays the same draws, so
collect_samples is a pure function of (route, n, l, count, seed, streams);
a parallel run gives each worker one stream and reduces in stream order.
find's generator is keyed apart from the other routes' (see
RngStream.route_generator), in collect_samples and in a single-sample call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; loaded here, the cost falls in import, not in a draw

from .distributions import Pmf, _validate_nl
from .trees import Permutation

__all__ = [
    "RngStream",
    "EmpiricalPmf",
    "random_permutation",
    "sample_depth_bst",
    "sample_depth_representation",
    "sample_find_recursions",
    "sample_random_key_depth",
    "empirical_pmf",
    "collect_samples",
]

# Array cells per chunk; fixed, so draws depend on collect_samples' arguments alone.
_CHUNK_CELLS = 1 << 18
# bst's chunks hold arrival keys, n to a row: 0.5 MiB of uint64 at this size.
_KEY_CHUNK_CELLS = 1 << 16

@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)
    _find_gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = _generator(self.seed, (self.stream_id,))
        return self._gen

    def route_generator(self, route: str) -> np.random.Generator:
        """The stream's generator for the named route, built at its first use.

        find's generator takes one more spawn-key word, (stream_id, 1), and
        the other routes share ``generator``: find's pivots are then never
        derived from the bits that bst reads as keys on the same stream.
        """
        if route != "find":
            return self.generator
        if self._find_gen is None:
            self._find_gen = _generator(self.seed, (self.stream_id, 1))
        return self._find_gen


def _generator(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(seq))


def random_permutation(n: int, rng: RngStream) -> Permutation:
    """Uniform random permutation of 1..n (Fisher-Yates with unbiased bounded ints)."""
    _validate_nl(n, 1)
    values = rng.generator.permutation(n) + 1
    return Permutation(tuple(int(v) for v in values))


def _arrival_keys(n: int, rows: int, gen: np.random.Generator) -> np.ndarray:
    """One i.i.d. uniform 64-bit arrival key per value 1..n (column v - 1), per row."""
    return gen.integers(0, 2**64 - 1, size=(rows, n), dtype=np.uint64, endpoint=True)


def _bst_depths(keys: np.ndarray, l: int) -> np.ndarray:
    """Depth of key l in the tree built in arrival-key order, by the ancestor rule.

    keys[:, k - 1] is the arrival key of key k.  A key k < l is an ancestor
    of l exactly when it arrives before every key in (k, l], and a key k > l
    when it arrives before every key in [l, k).  So the depth is the number
    of strict running minima of the arrival keys, read outwards from l on
    each side, l itself not counted.  No permutation and no tree is built.
    The route stays independent of representation, which never sees a
    permutation.  A row departs from the exact law only if two of its keys
    tie, with probability at most C(n, 2) / 2**64: 2.7e-14 at n = 1000 and
    2.9e-11 at DEFAULT_N_CAP.

    keys is overwritten with the running minima, which saves allocating
    arrays for them: about 40% of this kernel's time at n = 1000.
    """
    depths = np.zeros(keys.shape[0], dtype=np.int64)
    for side in (keys[:, l - 1 :: -1], keys[:, l - 1 :]):
        np.minimum.accumulate(side, axis=1, out=side)
        depths += np.count_nonzero(side[:, 1:] < side[:, :-1], axis=1)
    return depths


def _find_pivots(n: int, l: int, rows: int,
                 pivots: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Quickselect recursion count at rank l for rows arrival orders of 1..n.

    Every live row holds a window [lo, hi) of 0-based value indices, at
    first [0, n); each level takes one pivot per live row from
    pivots(lo, hi), stops the rows whose pivot is l - 1 with the level as
    their count, and moves lo or hi past the pivot.  A window's pivot is its
    first arrival, so a source that returns it for a fixed arrival order per
    row runs quickselect on those orders (verify's find suite).

    _draw passes Generator.integers, which draws exactly uniform integers;
    this is the law of quickselect on a uniform arrival order, exactly.  The
    event "every earlier pivot arrived first in its window" does not change
    when arrival times are swapped among the values still in [lo, hi), since
    each earlier window holds all of them and no earlier pivot.  So, given
    the levels above, those values arrive in a uniform order, and the next
    pivot is uniform on [lo, hi).  Only the pivots quickselect reads are
    drawn, and no row departs from the law: there are no keys to tie.
    """
    out = np.empty(rows, dtype=np.int64)
    todo = np.arange(rows)
    lo, hi = np.zeros(rows, dtype=np.int64), np.full(rows, n, dtype=np.int64)
    for recursions in range(n):  # each level drops at least its pivot
        if not todo.size:
            break
        pivot = pivots(lo, hi)
        hit = pivot == l - 1
        if hit.any():
            out[todo[hit]] = recursions
            keep = ~hit
            todo, lo, hi, pivot = (a[keep] for a in (todo, lo, hi, pivot))
        lower = pivot > l - 1
        hi = np.where(lower, pivot, hi)
        lo = np.where(lower, lo, pivot + 1)
    return out


def _record_counts(m: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One record count, sum_{i=1..m} Bernoulli(1/i), per entry of m.

    After a record at time t the next comes after s >= t with probability
    t/s, so at floor(t/U) + 1 for U uniform on (0, 1]: O(log m) uniforms.
    """
    counts = (m >= 1).astype(np.int64)
    idx = np.flatnonzero(m > 1)
    t = np.ones(idx.size)
    while idx.size:
        t = np.floor(t / (1.0 - gen.random(idx.size))) + 1.0
        placed = t <= m[idx]
        idx, t = idx[placed], t[placed]
        counts[idx] += 1
    return counts


def _predecessor_split(n: int, keys: np.ndarray, positions: np.ndarray, gen) -> np.ndarray:
    """Smaller keys among each key's position - 1 predecessors (hypergeometric)."""
    return gen.hypergeometric(keys - 1, n - keys, positions - 1)


def _representation_depths(n: int, keys: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Depth of each key: records of its smaller plus its larger predecessors."""
    positions = gen.integers(1, n + 1, size=keys.size)
    smaller = _predecessor_split(n, keys, positions, gen)
    records = _record_counts(np.concatenate((smaller, positions - 1 - smaller)), gen)
    return records[: keys.size] + records[keys.size :]


def _chunk_rows(route: str, n: int) -> int:
    """Samples per chunk on the named route: a bst row holds n arrival keys,
    and a pivot chain's or a representation draw's arrays about 16 cells."""
    return max(1, _KEY_CHUNK_CELLS // n if route == "bst" else _CHUNK_CELLS // 16)


def _draw(route: str, n: int, l: int | None, count: int, gen: np.random.Generator) -> list[int]:
    """count samples on the named route from one generator, chunk by chunk.

    bst passes each chunk of _arrival_keys to its kernel as drawn; find runs
    the pivot chain, which draws its own pivots.
    """
    if route not in ("bst", "representation", "find", "key"):
        raise ValueError(f"unknown route {route!r}")
    _validate_nl(n, 1 if route == "key" else l)
    chunk = _chunk_rows(route, n)
    out: list[int] = []
    for start in range(0, count, chunk):
        rows = min(chunk, count - start)
        if route == "bst":
            batch = _bst_depths(_arrival_keys(n, rows, gen), l)
        elif route == "find":
            batch = _find_pivots(n, l, rows, gen.integers)
        else:
            keys = np.full(rows, l) if route == "representation" else gen.integers(1, n + 1, rows)
            batch = _representation_depths(n, keys, gen)
        out.extend(batch.tolist())
    return out


def sample_depth_bst(n: int, l: int, rng: RngStream) -> int:
    """Route A: the ancestor count of key l under i.i.d. uniform arrival keys."""
    return _draw("bst", n, l, 1, rng.generator)[0]


def sample_depth_representation(n: int, l: int, rng: RngStream) -> int:
    """Route B: position uniform, split hypergeometric, two Bernoulli sums."""
    return _draw("representation", n, l, 1, rng.generator)[0]


def sample_find_recursions(n: int, l: int, rng: RngStream) -> int:
    """Route C: recursion count of quickselect at rank l on a random permutation."""
    return _draw("find", n, l, 1, rng.route_generator("find"))[0]


def sample_random_key_depth(n: int, rng: RngStream) -> int:
    """Depth of a uniformly random key, drawn through the representation route."""
    return _draw("key", n, None, 1, rng.generator)[0]


@dataclass(frozen=True)
class EmpiricalPmf:
    """Depth counts from a batch of samples."""

    counts: tuple[int, ...]
    offset: int
    sample_size: int

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "EmpiricalPmf":
        if len(samples) == 0:
            raise ValueError("no samples")
        arr = np.asarray(samples, dtype=np.int64)
        if np.any(arr < 0):
            raise ValueError("samples must be nonnegative")
        lo = int(arr.min())
        counts = np.bincount(arr - lo)
        return cls(counts=tuple(int(c) for c in counts), offset=lo, sample_size=len(arr))

    def to_pmf(self) -> Pmf:
        masses = np.asarray(self.counts, dtype=np.float64) / self.sample_size
        return Pmf.from_masses(self.offset, masses)


def empirical_pmf(samples: Sequence[int]) -> Pmf:
    """Normalized counts of integer samples; the tail is exactly zero."""
    return EmpiricalPmf.from_samples(samples).to_pmf()


def collect_samples(
    route: str,
    n: int,
    l: int | None,
    count: int,
    seed: int,
    streams: int = 1,
) -> list[int]:
    """Draw depth samples on the named route, partitioned over streams.

    The per-stream quotas and the stream order are fixed, so the output is
    identical no matter how the streams are actually scheduled.  Streams
    past the count draw nothing, so no generator is built for them.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    out: list[int] = []
    base, extra = divmod(count, streams)
    for sid in range(min(streams, count)):
        quota = base + (1 if sid < extra else 0)
        out.extend(_draw(route, n, l, quota, RngStream(seed, sid).route_generator(route)))
    return out
