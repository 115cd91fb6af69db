"""Deterministic, injectable randomness.

Everything stochastic in the reproduction (platform overheads, random
fault sweeps, workload generation, sporadic arrivals) must replay
bit-exactly from a seed — otherwise the paper's tables cannot be
checked against a rerun.  Two helpers make that easy to get right:

* :func:`stable_hash` — a process-independent hash for seeding.  The
  builtin :func:`hash` is salted per process for ``str``/``bytes``
  (PEP 456), so ``random.Random(hash(("tau1", 5)))`` yields a
  *different* stream on every run; ``stable_hash`` does not.
* :func:`derive_rng` — an independent seeded stream per key, so
  per-entity draws (e.g. each generated system of a population) are
  query-order independent.

Call sites accept an optional ``rng: random.Random`` so tests and
experiments can inject their own stream; :func:`resolve_rng` implements
the convention (``None`` -> fresh ``Random(seed)``).

The ``RT003`` lint rule (:mod:`repro.analysis.rules.determinism`)
enforces that no code bypasses this module with global or
``hash``-seeded randomness.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["stable_hash", "derive_rng", "resolve_rng"]


def stable_hash(*parts: object) -> int:
    """A hash of *parts* that is identical in every Python process.

    Parts are combined via their ``repr`` (unambiguous for the str/int
    keys used as RNG identities here) and crushed with CRC-32 — cheap,
    and 32 bits is plenty for seed derivation.
    """
    data = "\x1f".join(repr(p) for p in parts).encode("utf-8", "surrogatepass")
    return zlib.crc32(data)


def derive_rng(seed: int, *parts: object) -> random.Random:
    """An independent :class:`random.Random` stream for (*seed*, *parts*).

    Streams with different keys are decorrelated by hashing the key
    *together with* the seed (rather than XORing two hashes, which
    would collide whenever key hashes collide pairwise).
    """
    return random.Random(stable_hash(seed, *parts))


def resolve_rng(rng: random.Random | None, seed: int) -> random.Random:
    """The injection convention: an explicit *rng* wins, otherwise a
    fresh seeded stream."""
    return rng if rng is not None else random.Random(seed)
