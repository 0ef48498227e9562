"""Seeded synthetic kinship datasets for the benchmark workloads.

Each clan is a two-generation family tree: a grandparent couple, their
children (each married), and grandchildren, with the twelve kinship
relations closed over the tree (blood uncles and aunts only). The same
generator feeds every workload; `groups > 1` splits each relation into
per-clan-group copies (`fatherOf_g3`), which multiplies the predicate count
while keeping the rule structure inside each group. With `fixed_genders`
the genders alternate (m, f, m, ...) instead of being drawn, so a graph of
fixed-size clans has the same shape, and the same twelve relations, on every
seed.

The generator keeps its own counts of entities, triples and triples per
relation, so the benchmark can check the program's loader against them.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

RELATIONS = (
    "brotherOf", "sisterOf", "fatherOf", "motherOf", "husbandOf", "wifeOf",
    "sonOf", "daughterOf", "uncleOf", "auntOf", "nephewOf", "nieceOf",
)
SPLIT_FRACTIONS = (0.84, 0.08, 0.08)


@dataclass
class Dataset:
    root: Path
    splits: dict[str, list[tuple[str, str, str]]]
    entities: set[str] = field(default_factory=set)
    per_relation: Counter = field(default_factory=Counter)

    @property
    def num_triples(self) -> int:
        return sum(self.per_relation.values())

    def paths(self):
        return [self.root / f"{name}.txt" for name in ("train", "valid", "test")]


def kinship_triples(rng: random.Random, num_clans: int, children: tuple[int, int],
                    grandchildren: tuple[int, int], groups: int = 1,
                    fixed_genders: bool = False):
    """Closed kinship triples of `num_clans` clans, as sorted (h, r, t) names."""
    triples = set()

    def gender(i):
        return "mf"[i % 2] if fixed_genders else rng.choice("mf")

    for c in range(num_clans):
        suffix = f"_g{c % groups}" if groups > 1 else ""
        fresh = itertools.count()

        def add(h, rel, t):
            triples.add((h, rel + suffix, t))

        def person(gender):
            return f"c{c}_{gender}{next(fresh)}"

        def marry(m, f):
            add(m, "husbandOf", f)
            add(f, "wifeOf", m)

        def child_of(kid, gender, father, mother):
            add(father, "fatherOf", kid)
            add(mother, "motherOf", kid)
            rel = "sonOf" if gender == "m" else "daughterOf"
            add(kid, rel, father)
            add(kid, rel, mother)

        def siblings(kids):
            for (a, ga), (b, _) in itertools.permutations(kids, 2):
                add(a, "brotherOf" if ga == "m" else "sisterOf", b)

        gpa, gma = person("m"), person("f")
        marry(gpa, gma)
        parents = []
        for i in range(rng.randint(*children)):
            g = gender(i)
            kid = person(g)
            child_of(kid, g, gpa, gma)
            parents.append((kid, g))
        siblings(parents)
        for kid, g in parents:
            spouse = person("f" if g == "m" else "m")
            father, mother = (kid, spouse) if g == "m" else (spouse, kid)
            marry(father, mother)
            grandkids = []
            for i in range(rng.randint(*grandchildren)):
                gg = gender(i)
                gk = person(gg)
                child_of(gk, gg, father, mother)
                grandkids.append((gk, gg))
            siblings(grandkids)
            for u, ug in parents:
                if u == kid:
                    continue
                for gk, gg in grandkids:
                    add(u, "uncleOf" if ug == "m" else "auntOf", gk)
                    add(gk, "nephewOf" if gg == "m" else "nieceOf", u)
    return sorted(triples)


def write_dataset(root, seed: int, num_clans: int, children=(2, 3),
                  grandchildren=(1, 3), groups: int = 1,
                  fixed_genders: bool = False) -> Dataset:
    """Generate, shuffle and split a kinship graph; write train/valid/test.txt."""
    rng = random.Random(seed)
    triples = kinship_triples(rng, num_clans, children, grandchildren, groups,
                              fixed_genders)
    rng.shuffle(triples)
    n = len(triples)
    n_train = int(SPLIT_FRACTIONS[0] * n)
    n_valid = int(SPLIT_FRACTIONS[1] * n)
    splits = {
        "train": triples[:n_train],
        "valid": triples[n_train:n_train + n_valid],
        "test": triples[n_train + n_valid:],
    }
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, rows in splits.items():
        (root / f"{name}.txt").write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8"
        )
    ds = Dataset(root, splits)
    for h, r, t in triples:
        ds.entities.update((h, t))
        ds.per_relation[r] += 1
    return ds
