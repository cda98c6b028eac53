"""Stable, process-independent random seeding.

``random.Random(tuple)`` falls back to ``hash(tuple)``, which is salted per
process for strings — that would make synthetic content differ across runs.
All seeding in this library goes through :func:`stable_seed`, which derives
a 64-bit integer from SHA-256 over the parts' reprs (or through
:func:`stable_seeder`, the same function with its leading parts hashed once).

Two leak classes are guarded against:

* ``hash()``-based seeding (the per-process ``PYTHONHASHSEED`` salt) —
  avoided by construction, since only SHA-256 over reprs is used;
* reprs that are themselves process-dependent — the default ``object``
  repr embeds the id (``<Foo object at 0x7f...>``), which would smuggle
  a different seed into every process.  :func:`stable_seed` rejects such
  parts loudly instead of producing silently unstable content.

``tests/test_cross_process_determinism.py`` verifies the end-to-end
guarantee by diffing detector output across subprocesses with different
hash seeds.
"""

from __future__ import annotations

import hashlib
import random
import re

#: Default object.__repr__ output: "<module.Class object at 0x7f...>".
#: Memory addresses differ per process, so such reprs are not stable.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def _stable_text(parts) -> str:
    """The parts' reprs joined by ``\\x1f``, each checked to be stable."""
    text = "\x1f".join(map(repr, parts))
    # The pattern cannot match across a separator, so one search over the
    # joined text finds exactly what a search per part would.
    if _ADDRESS_REPR.search(text):
        bad = next(repr(part) for part in parts
                   if _ADDRESS_REPR.search(repr(part)))
        raise ValueError(
            f"seed part {bad} has a process-dependent repr (memory "
            "address); pass stable identifiers (names, ints) instead")
    return text


def stable_seed(*parts) -> int:
    """Derive a deterministic 64-bit seed from arbitrary repr-able parts.

    Raises:
        ValueError: a part's repr embeds a memory address and would make
            the seed differ between processes.
    """
    digest = hashlib.sha256(_stable_text(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stable_seeder(*prefix):
    """``stable_seeder(*prefix)(*rest) == stable_seed(*prefix, *rest)``.

    For loops that draw many seeds sharing their leading parts: the
    prefix is checked and hashed once, and each call checks and hashes
    only ``rest`` onto a copy of that state.
    """
    hashed = hashlib.sha256(_stable_text(prefix).encode("utf-8"))
    separator = "\x1f" if prefix else ""

    def seed(*rest) -> int:
        state = hashed.copy()
        if rest:
            state.update(
                (separator + _stable_text(rest)).encode("utf-8"))
        return int.from_bytes(state.digest()[:8], "big")

    return seed


def stable_rng(*parts) -> random.Random:
    """A ``random.Random`` seeded deterministically from ``parts``."""
    return random.Random(stable_seed(*parts))
