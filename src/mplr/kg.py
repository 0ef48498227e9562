"""Knowledge graph loading, vocabularies, query grouping, and TSV reports.

Triple files are UTF-8 text, one triple per line, three TAB-separated fields:
head, relation, tail. Entity and predicate identifiers are opaque strings;
integer indices are assigned by first appearance so repeated loads of the same
files are reproducible. The loader turns each split into an (n, 3) index array
and finds repeated lines and triples shared between splits by one integer key
per triple. A loaded graph is one read-only (n, 3) int64 triple array, which
`KnowledgeGraph` accepts as it is; every other view of it (per-predicate edge
lists, successors, edge counts, membership, and the tuple list `triples`
and the read-only operator set `operators`, each built on first use) is
derived from that array, in input order, or from its sorted triple keys, in
(predicate, head, tail) order.

`group_queries` turns a split into multi-target queries, one per (head,
predicate) pair with all of its tails. Each is a `MultiTargetQuery`, a
validated named tuple (head, query, targets); the grouping builds them
through the unchecked `_make`, since it already guarantees what the
constructor checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

Triple = tuple[int, int, int]

DEFAULT_GRAPH_SOURCE = ("train", "valid", "test")


class TripleParseError(ValueError):
    """A triple file line does not have exactly three TAB-separated fields."""


def check_key_range(num_entities: int, num_predicates: int) -> None:
    """Refuse a graph whose int64 triple keys would wrap.

    Every per-triple key in the program, (p * |E| + h) * |E| + t here and
    (own * (|P|+1) + operator) * |E| + other in `OperatorSet`, is below
    (|P|+1) * |E|^2, so that product must fit in an int64.
    """
    if (num_predicates + 1) * num_entities**2 > np.iinfo(np.int64).max:
        raise ValueError(
            f"graph of {num_predicates} predicates and {num_entities} entities "
            "is too large: (|P|+1)*|E|^2 triple keys overflow int64"
        )


class KnowledgeGraph:
    """Immutable triple store: one triple array and the views derived from it.

    The constructor takes the triples as an (n, 3) integer array or as any
    iterable of (head, predicate, tail) index triples, and refuses
    out-of-range indices and repeated triples. `triple_array` is the
    read-only (n, 3) int64 copy of the distinct triples, in input order;
    `triples`, the same rows as int tuples, is built from it on first use.
    The one index is the sorted keys (predicate * |E| + head) * |E| + tail:
    `per_predicate[p]`, the (n_p, 2) (head, tail) edge list of predicate p in
    (head, tail) order, is a read-only view into the key-sorted rows, and
    `successors` (tails in ascending order) and `has_triple` search the keys.
    `operators`, the graph's one read-only `OperatorSet`, is built on first
    use and shared by every caller.
    """

    def __init__(self, entities, predicates, triples):
        self.entities = list(entities)
        self.predicates = list(predicates)
        self.entity_index = {e: i for i, e in enumerate(self.entities)}
        self.predicate_index = {p: i for i, p in enumerate(self.predicates)}
        if len(self.entity_index) != len(self.entities):
            raise ValueError("duplicate entity identifiers")
        if len(self.predicate_index) != len(self.predicates):
            raise ValueError("duplicate predicate identifiers")

        ne, np_ = len(self.entities), len(self.predicates)
        check_key_range(ne, np_)
        if isinstance(triples, np.ndarray):
            if triples.dtype.kind not in "iu" or triples.shape[1:] != (3,):
                raise ValueError(f"triple array must be (n, 3) integers, not "
                                 f"{triples.dtype} of shape {triples.shape}")
            array = triples.astype(np.int64)  # a copy: this graph freezes it
        else:
            flat = itertools.chain.from_iterable(triples)
            array = np.fromiter(flat, dtype=np.int64).reshape(-1, 3)
        h, p, t = array.T
        bad_entity = (np.minimum(h, t) < 0) | (np.maximum(h, t) >= ne)
        bad = bad_entity | (p < 0) | (p >= np_)
        # triples before the first out-of-range one are keyed; a duplicate
        # among them comes first, as it would in a walk over the input
        valid = int(np.argmax(bad)) if bad.any() else len(array)
        keys = (p[:valid] * ne + h[:valid]) * ne + t[:valid]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeats = order[1:][keys[1:] == keys[:-1]]  # the later copies
        if len(repeats):
            raise ValueError(f"duplicate triple {tuple(array[repeats.min()].tolist())}")
        if valid < len(array):
            kind = "entity" if bad_entity[valid] else "predicate"
            raise ValueError(
                f"{kind} index out of range in triple {tuple(array[valid].tolist())}"
            )

        array.flags.writeable = False
        self.triple_array = array
        self._keys = keys  # every triple's key, sorted: the graph's one index
        edges = array[order][:, [0, 2]]
        edges.flags.writeable = False
        bounds = keys.searchsorted(np.arange(np_ + 1) * ne**2)
        self.per_predicate: dict[int, np.ndarray] = {
            q: edges[bounds[q] : bounds[q + 1]] for q in range(np_)
        }

    @functools.cached_property
    def triples(self) -> list[Triple]:
        return list(map(tuple, self.triple_array.tolist()))

    @functools.cached_property
    def operators(self):
        from .operators import OperatorSet

        return OperatorSet(self)

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    def num_edges(self, predicate: int) -> int:
        """Edge count of the predicate subgraph (n^q); ValueError for an
        index that names no predicate."""
        edges = self.per_predicate.get(predicate)
        if edges is None:
            n = self.num_predicates
            raise ValueError(f"predicate index {predicate} out of range: "
                             f"the graph has {n} predicates, 0..{n - 1}")
        return len(edges)

    def successors(self, predicate: int, v: int) -> list[int]:
        """Tails of the `predicate` edges leaving v, in ascending order."""
        ne = self.num_entities
        if not (0 <= predicate < self.num_predicates and 0 <= v < ne):
            return []
        lo, hi = self._keys.searchsorted([(predicate * ne + v) * ne,
                                          (predicate * ne + v + 1) * ne])
        return (self._keys[lo:hi] % ne).tolist()

    def has_triple(self, h: int, p: int, t: int) -> bool:
        ne = self.num_entities
        if not (0 <= p < self.num_predicates and 0 <= h < ne and 0 <= t < ne):
            return False
        key = (p * ne + h) * ne + t
        return key in self._keys[self._keys.searchsorted(key) :][:1]


@dataclass
class DatasetSplits:
    """Index triples of the three dataset files plus which of them feed the graph."""

    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    graph_source: tuple[str, ...] = DEFAULT_GRAPH_SOURCE

    def split(self, name: str) -> list[Triple]:
        return {"train": self.train, "valid": self.valid, "test": self.test}[name]


@dataclass
class LoadSummary:
    num_entities: int
    num_predicates: int
    num_graph_triples: int
    split_sizes: dict[str, int] = field(default_factory=dict)
    duplicates: dict[str, int] = field(default_factory=dict)
    graph_source: tuple[str, ...] = DEFAULT_GRAPH_SOURCE

    def as_text(self) -> str:
        lines = [
            f"entities = {self.num_entities}",
            f"predicates = {self.num_predicates}",
            f"graph_triples = {self.num_graph_triples}",
            f"graph_source = {','.join(self.graph_source)}",
        ]
        for name in ("train", "valid", "test"):
            lines.append(f"{name}_triples = {self.split_sizes.get(name, 0)}")
            lines.append(f"{name}_duplicates = {self.duplicates.get(name, 0)}")
        return "\n".join(lines) + "\n"


def read_text(path) -> str:
    """A UTF-8 file's text; ValueError, naming the path, if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def tsv(header, rows, preamble=()) -> str:
    """A TAB-separated report: the preamble lines, the header, one line per
    row with each field written by str (a float as its repr), a final newline."""
    lines = [*preamble, "\t".join(header), *("\t".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _triple_fields(path) -> list[str]:
    """The stripped fields of one TAB-separated triple file, three per non-empty
    line in line order; raises TripleParseError with the line number.

    The non-empty lines are checked at once, by their tab counts and the
    stripped fields of one split of the lines joined by tabs; only a file
    that fails is walked line by line, to name its first bad line.
    """
    numbered = read_text(path).split("\n")
    lines = list(filter(None, numbered))
    if not lines:
        return []
    tabs = list(map(str.count, lines, itertools.repeat("\t")))
    fields = list(map(str.strip, "\t".join(lines).split("\t")))
    if tabs.count(2) < len(lines) or not all(fields):
        for lineno, line in enumerate(numbered, 1):
            parts = line.split("\t")
            if line and (len(parts) != 3 or not all(map(str.strip, parts))):
                raise TripleParseError(
                    f"{path}:{lineno}: expected 3 TAB-separated fields, got {len(parts)}"
                )
    return fields


def load_dataset(
    train_path,
    valid_path,
    test_path,
    graph_source: tuple[str, ...] = DEFAULT_GRAPH_SOURCE,
):
    """Load the three split files into a KnowledgeGraph plus DatasetSplits.

    Vocabularies cover the union of all splits in first-appearance order
    (train, then valid, then test; head, relation, tail within a line). The
    reasoning graph is built from the splits named by `graph_source`. Duplicate
    lines within a split are stored once and counted in the summary; a triple
    appearing in two different splits is an error. Each split is an (n, 3)
    index array from parsing on, with one integer key per triple,
    (predicate * |E| + head) * |E| + tail, that finds its repeated lines and
    its overlap with the other splits.

    Returns (kg, splits, summary).
    """
    names = ("train", "valid", "test")
    if not graph_source:
        raise ValueError("graph source names no split (expected train, valid or test)")
    for name in graph_source:
        if name not in names:
            raise ValueError(f"unknown graph source {name!r}")
    fields = [_triple_fields(path) for path in (train_path, valid_path, test_path)]
    if not fields[0]:
        raise ValueError(f"empty train file: {train_path}")

    # heads and tails interleave line by line in the entities' first-appearance order
    ends = [f.copy() for f in fields]
    for e in ends:
        del e[1::3]
    entities = list(dict.fromkeys(itertools.chain.from_iterable(ends)))
    predicates = list(dict.fromkeys(itertools.chain.from_iterable(f[1::3] for f in fields)))
    ent_idx = dict(zip(entities, itertools.count()))
    pred_idx = dict(zip(predicates, itertools.count()))

    ne = len(entities)
    check_key_range(ne, len(predicates))
    rows: dict[str, np.ndarray] = {}
    keys: dict[str, np.ndarray] = {}  # each split's distinct keys, sorted
    duplicates: dict[str, int] = {}
    for name, f, e in zip(names, fields, ends):
        n = len(f) // 3
        ht = np.fromiter(map(ent_idx.__getitem__, e), np.int64, count=2 * n).reshape(n, 2)
        p = np.fromiter(map(pred_idx.__getitem__, f[1::3]), np.int64, count=n)
        keys[name], first = np.unique((p * ne + ht[:, 0]) * ne + ht[:, 1],
                                      return_index=True)
        first.sort()  # each triple at its first line
        rows[name] = np.column_stack([ht[first, 0], p[first], ht[first, 1]])
        duplicates[name] = n - len(first)

    for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
        shared = len(np.intersect1d(keys[a], keys[b], assume_unique=True))
        if shared:
            raise ValueError(
                f"splits {a} and {b} share {shared} triples; "
                "splits must be pairwise disjoint"
            )

    kg = KnowledgeGraph(entities, predicates,
                        np.concatenate([rows[n] for n in names if n in graph_source]))
    splits = DatasetSplits(*(list(zip(*rows[n].T.tolist())) for n in names),
                           tuple(graph_source))
    summary = LoadSummary(
        num_entities=kg.num_entities,
        num_predicates=kg.num_predicates,
        num_graph_triples=len(kg.triple_array),
        split_sizes={k: len(v) for k, v in rows.items()},
        duplicates=duplicates,
        graph_source=tuple(graph_source),
    )
    return kg, splits, summary


class _QueryFields(NamedTuple):
    head: int
    query: int
    targets: tuple[int, ...]


class MultiTargetQuery(_QueryFields):
    """One (head, query predicate) pair together with every tail answering it.

    A named tuple (head, query, targets): it unpacks as a 3-tuple and equals
    the plain tuple of its fields. Direct construction refuses an empty or
    repeated target list; `group_queries` builds records through the
    unchecked `_make`, since its grouping already guarantees both.
    """

    __slots__ = ()

    def __new__(cls, head: int, query: int, targets: tuple[int, ...]):
        if not targets:
            raise ValueError("query must have at least one target")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate targets in query")
        return super().__new__(cls, head, query, targets)


def group_queries(split: list[Triple]) -> list[MultiTargetQuery]:
    """Group a triple list into one query per distinct (head, predicate) pair.

    Output order and target order are first-appearance, so grouping is
    deterministic for a fixed split.
    """
    targets: dict[tuple[int, int], list[int]] = {}
    for h, q, t in split:
        ts = targets.setdefault((h, q), [])
        if t not in ts:
            ts.append(t)
    make = MultiTargetQuery._make
    return [make((h, q, tuple(ts))) for (h, q), ts in targets.items()]
