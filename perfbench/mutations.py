"""Seeded single-field mutations of the shipped catalog.

Each mutation changes one field of one catalog entry and always changes the
file.  Mutations come in rounds that hold every class once, in seeded order,
so each class has the same share of any run.  The same seed and count give
byte-identical files.
"""

from __future__ import annotations

import copy
import json
import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

CLASSES = (
    "weights-bump", "weights-swap", "weights-float", "weights-string", "weights-null",
    "weights-zero", "degrees-bump", "degrees-int", "a_cube-wrong", "a_cube-float",
    "subfamily", "id", "basket-count-bump", "basket-count-drop", "link-tag", "drop-field",
)

REQUIRED_FIELDS = ("id", "kind", "weights", "degrees", "subfamily", "a_cube", "basket", "links")
LINK_TAGS = ("none", "QI", "EI", "II", "link")


@dataclass(frozen=True)
class Mutation:
    cls: str
    family: int  # id of the mutated entry before the mutation
    text: str  # the whole mutated catalog file


def _mutate(entry: dict, cls: str, rng: random.Random, ids: list[int], subfamilies: list[str]) -> None:
    """Change one field of `entry` in place."""
    w, d = entry["weights"], entry["degrees"]
    if cls == "weights-bump":
        w[rng.randrange(len(w))] += 1
    elif cls == "weights-swap":
        i, j = rng.choice([(i, j) for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] != w[j]])
        w[i], w[j] = w[j], w[i]
    elif cls == "weights-float":
        w[rng.randrange(len(w))] += 0.5
    elif cls == "weights-string":
        entry["weights"] = ",".join(map(str, w))
    elif cls == "weights-null":
        entry["weights"] = None
    elif cls == "weights-zero":
        w[rng.randrange(len(w))] = 0
    elif cls == "degrees-bump":
        d[rng.randrange(len(d))] += 1
    elif cls == "degrees-int":
        entry["degrees"] = d[rng.randrange(len(d))]
    elif cls == "a_cube-wrong":
        a = Fraction(entry["a_cube"])
        entry["a_cube"] = str(a + Fraction(1, a.denominator))
    elif cls == "a_cube-float":
        entry["a_cube"] = float(Fraction(entry["a_cube"]))
    elif cls == "subfamily":
        entry["subfamily"] = rng.choice([s for s in subfamilies if s != entry["subfamily"]])
    elif cls == "id":
        entry["id"] = rng.choice([i for i in ids if i != entry["id"]])
    elif cls == "basket-count-bump":
        rng.choice(entry["basket"])["count"] += 1
    elif cls == "basket-count-drop":
        del rng.choice(entry["basket"])["count"]
    elif cls == "link-tag":
        link = rng.choice(entry["links"])
        link["tag"] = rng.choice([t for t in LINK_TAGS if t != link["tag"]])
    elif cls == "drop-field":
        del entry[rng.choice(REQUIRED_FIELDS)]
    else:
        raise ValueError(f"unknown mutation class {cls!r}")


def _eligible(entry: dict, cls: str) -> bool:
    if cls in ("basket-count-bump", "basket-count-drop"):
        return bool(entry["basket"])
    if cls == "link-tag":
        return bool(entry["links"])
    return True


def generate(entries: list[dict], seed: int, count: int) -> Iterator[Mutation]:
    """`count` mutations of the catalog `entries`, drawn from `seed`."""
    rng = random.Random(seed)
    ids = sorted({e["id"] for e in entries})
    subfamilies = sorted({e["subfamily"] for e in entries})
    encoded = [json.dumps(e) for e in entries]
    made = 0
    while made < count:
        order = list(CLASSES)
        rng.shuffle(order)
        for cls in order[:count - made]:
            index = rng.choice([k for k, e in enumerate(entries) if _eligible(e, cls)])
            entry = copy.deepcopy(entries[index])
            _mutate(entry, cls, rng, ids, subfamilies)
            mutated = encoded[:index] + [json.dumps(entry)] + encoded[index + 1:]
            made += 1
            yield Mutation(cls=cls, family=entries[index]["id"],
                           text="[\n" + ",\n".join(mutated) + "\n]\n")
