"""Recompute the digests pinned in `reference.PINS`.

    PYTHONPATH=src python3 perfbench/derive_pins.py

Prints the pins as a Python literal.  It also enumerates the unital systems
over C_8 by brute force (about a minute) and checks that they equal the
fiberwise list whose digest is pinned.
"""
from __future__ import annotations

import sys

import windex as w

import reference as ref
from workloads import keys_of


def main():
    c8 = keys_of(w.enumerate_systems_fiberwise(w.chain_group(2, 3), "unital"))
    brute = keys_of(w.enumerate_systems(w.chain_group(2, 3), "unital"))
    if sorted(brute) != sorted(c8):
        print("C_8: brute force and fiberwise disagree", file=sys.stderr)
        return 1
    c16 = keys_of(w.enumerate_systems_fiberwise(w.chain_group(2, 4), "unital"))
    c32 = keys_of(w.enumerate_systems_fiberwise(w.chain_group(2, 5), "unital"))
    pins = {
        "c8_unital": (len(c8), ref.digest(c8)),
        "c16_unital": (len(c16), ref.digest(c16)),
        "c16_unital_covers": len(ref.Lattice(c16).covers()),
        "c32_unital": (len(c32), ref.digest(c32)),
    }
    print("PINS = {")
    for k, v in pins.items():
        print(f"    {k!r}: {v!r},")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
