"""Seeded order-8 group tables for the triple-verify workload.

The tables are built here from first principles, not read from the
package's fixtures:

* D4 acts on the corners 0..3 of a square; it is generated by the rotation
  ``i -> i + 1`` and the reflection ``i -> -i`` (mod 4), closed under
  composition. The rotations form the normal subgroup Z/4.
* Q8 is the group of quaternion units ``+-1, +-i, +-j, +-k``. The subgroup
  ``<i> = {1, i, -1, -i}`` is normal and cyclic of order 4.

``group_table`` writes a table in the CLI's plain-text format after a seeded
relabelling: the element names, the order of the ``elements:`` header (and
so the basis order inside the engine) and the order of the product rows are
all drawn from the seed.
"""

from __future__ import annotations

import random

GROUPS = ("D4", "Q8")


def _closure(gens, mul, ident):
    elems = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.append(y)
                    new.append(y)
        frontier = new
    return elems


def dihedral_d4():
    """(elements, product, subgroup) with permutations of 0..3 as tuples."""
    def mul(p, q):          # apply q first, then p
        return tuple(p[q[i]] for i in range(4))
    ident = (0, 1, 2, 3)
    rot = (1, 2, 3, 0)
    refl = (0, 3, 2, 1)
    elems = _closure([rot, refl], mul, ident)
    sub = _closure([rot], mul, ident)
    return elems, mul, sub


# quaternion units as (sign, unit), unit in "1ijk"
_UNIT = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def quaternion_q8():
    """(elements, product, subgroup) with quaternion units as (sign, unit)."""
    def mul(x, y):
        s, u = _UNIT[(x[1], y[1])]
        return (x[0] * y[0] * s, u)
    ident = (1, "1")
    elems = _closure([(1, "i"), (1, "j")], mul, ident)
    sub = _closure([(1, "i")], mul, ident)
    return elems, mul, sub


BUILDERS = {"D4": dihedral_d4, "Q8": quaternion_q8}


def group_table(group: str, seed: int):
    """(text, label) for ``group`` under the relabelling drawn from ``seed``.

    ``text`` is the table in the CLI's plain-text format; ``label`` maps each
    abstract element (as built by ``BUILDERS[group]``) to its name.
    """
    rng = random.Random(f"{group}/{seed}")
    elems, mul, sub = BUILDERS[group]()
    pool = [f"{c}{d}" for c in "abcdefghjkmnpqrstuvwxyz" for d in range(10)]
    label = dict(zip(elems, rng.sample(pool, len(elems))))
    header = [label[x] for x in rng.sample(elems, len(elems))]
    rows = [f"{label[x]} {label[y]} -> {label[mul(x, y)]}" for x in elems for y in elems]
    rng.shuffle(rows)
    text = (f"# {group} over Z/4, seeded relabelling\n"
            + "elements: " + " ".join(header) + "\n"
            + "subgroup: " + " ".join(sorted(label[x] for x in sub)) + "\n"
            + "\n".join(rows) + "\n")
    return text, label
