import itertools
import math
import random

import numpy as np
import pytest

from mplr.indicators import sample_subgraph
from mplr import kg as kg_module
from mplr.kg import (
    KnowledgeGraph,
    MultiTargetQuery,
    TripleParseError,
    check_key_range,
    group_queries,
    load_dataset,
)

from conftest import (
    TOY_LINES,
    adjacency_reference,
    bw_degree,
    fw_degree,
    group_queries_reference,
    load_dataset_reference,
    parse_triple_file_reference,
    random_kg,
    triple_lines,
    write_triples,
)


def write_dataset(tmp_path, train, valid="", test=""):
    d = tmp_path / "ds"
    d.mkdir(exist_ok=True)
    (d / "train.txt").write_text(train)
    (d / "valid.txt").write_text(valid)
    (d / "test.txt").write_text(test)
    return d / "train.txt", d / "valid.txt", d / "test.txt"


class TestLoading:
    def test_toy_daughter_edges(self, tmp_path):
        kg, _, _ = load_dataset(*write_dataset(tmp_path, "\n".join(TOY_LINES) + "\n"))
        assert kg.num_entities == 6
        p = kg.predicate_index["daughterOf"]
        e = kg.entity_index
        assert sorted(map(tuple, kg.per_predicate[p].tolist())) == sorted(
            [(e["z1"], e["x1"]), (e["z2"], e["x1"]), (e["z4"], e["x2"])]
        )

    def test_minimal_input(self, tmp_path):
        kg, splits, summary = load_dataset(*write_dataset(tmp_path, "a\tr\tb\n"))
        assert kg.num_entities == 2
        assert kg.num_predicates == 1
        assert len(kg.triples) == 1
        assert splits.train == [(0, 0, 1)]
        assert summary.split_sizes == {"train": 1, "valid": 0, "test": 0}

    def test_duplicate_line_stored_once_and_counted(self, tmp_path):
        kg, splits, summary = load_dataset(
            *write_dataset(tmp_path, "a\tr\tb\na\tr\tb\nb\tr\ta\n")
        )
        assert len(kg.triples) == 2
        assert summary.duplicates["train"] == 1
        assert "train_duplicates = 1" in summary.as_text()

    def test_malformed_line_reports_line_number(self, tmp_path):
        paths = write_dataset(tmp_path, "a\tr\tb\na b c\n")
        with pytest.raises(TripleParseError, match="train.txt:2"):
            load_dataset(*paths)

    @pytest.mark.parametrize("text", [
        "a\tb\tc\n d \t e\tf \n\n\ng\th\ti",  # padding, blank lines, no last newline
        "a\tb\tc\r\n\r\nd\te\tf\r\n",
        "a\tb\tc\rd\te\tf\r",
        "a\tb\u00a0\tc\x0cd\n",  # non-TAB whitespace stays inside a field or is stripped
        "", "\n\n",
        "a\tb\tc\nx\t \ty\n",  # a blank field
        "a\tb\tc\nx\ty\tz\tw\n",
        "a\tb\tc\n\nxyz\n",
        "a\tb\tc\td\nx\ty\n",  # four fields, then two: the tab total is right
        "a\tb\tc\n   \n",
        "\t\t\n",
    ])
    def test_parse_equals_the_line_walk(self, tmp_path, text):
        path = tmp_path / "triples.txt"
        path.write_bytes(text.encode())
        try:
            want = parse_triple_file_reference(path)
        except TripleParseError as exc:
            with pytest.raises(TripleParseError) as got:
                kg_module._triple_fields(path)
            assert str(got.value) == str(exc)
        else:
            fields = kg_module._triple_fields(path)
            assert list(zip(fields[0::3], fields[1::3], fields[2::3])) == want

    def test_empty_train_is_error(self, tmp_path):
        with pytest.raises(ValueError, match="empty train"):
            load_dataset(*write_dataset(tmp_path, ""))

    def test_overlapping_splits_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, "a\tr\tb\n", valid="a\tr\tb\n")
        with pytest.raises(ValueError, match="disjoint"):
            load_dataset(*paths)

    def test_first_appearance_vocabulary_order(self, tmp_path):
        kg, _, _ = load_dataset(
            *write_dataset(tmp_path, "b\tr2\ta\nc\tr1\tb\n", valid="d\tr2\ta\n")
        )
        assert kg.entities == ["b", "a", "c", "d"]
        assert kg.predicates == ["r2", "r1"]

    def test_graph_source_selects_splits(self, tmp_path):
        paths = write_dataset(
            tmp_path, "a\tr\tb\n", valid="b\tr\tc\n", test="c\tr\ta\n"
        )
        kg_all, _, _ = load_dataset(*paths)
        assert len(kg_all.triples) == 3
        kg_train, splits, _ = load_dataset(*paths, graph_source=("train",))
        assert len(kg_train.triples) == 1
        # vocabularies still cover every split
        assert kg_train.num_entities == 3
        assert len(splits.valid) == 1 and len(splits.test) == 1
        with pytest.raises(ValueError, match="unknown graph source"):
            load_dataset(*paths, graph_source=("tain",))
        with pytest.raises(ValueError, match="graph source names no split"):
            load_dataset(*paths, graph_source=())

    def test_split_by_name(self, tmp_path):
        paths = write_dataset(tmp_path, "a\tr\tb\n", valid="b\tr\tc\n", test="c\tr\ta\n")
        _, splits, _ = load_dataset(*paths)
        assert [splits.split(name) for name in ("train", "valid", "test")] == [
            [(0, 0, 1)], [(1, 0, 2)], [(2, 0, 0)]]

    def test_inverse_of_a_name_already_loaded_keeps_its_index(self, tmp_path):
        # a name spelled like an inverse is an ordinary predicate: it keeps its
        # first-appearance index and no reversed edges are added to the graph
        paths = write_dataset(tmp_path, "b\tr\ta\na\tinv:r\tc\nb\tr\ta\n",
                              valid="d\tq\tb\n")
        kg, splits, summary = load_dataset(*paths)
        assert kg.entities == ["b", "a", "c", "d"]
        assert kg.predicates == ["r", "inv:r", "q"]
        assert splits.train == [(0, 0, 1), (1, 1, 2)] and splits.valid == [(3, 2, 0)]
        assert kg.triples == [(0, 0, 1), (1, 1, 2), (3, 2, 0)]
        assert summary.duplicates == {"train": 1, "valid": 0, "test": 0}

    def test_round_trip(self, tmp_path, toy_kg):
        out = tmp_path / "roundtrip.txt"
        write_triples(toy_kg, out)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        kg2, _, _ = load_dataset(out, empty, empty)
        original = set(triple_lines(toy_kg))
        assert set(triple_lines(kg2)) == original

    def test_kg_invariants_validated(self):
        with pytest.raises(ValueError, match="duplicate triple"):
            KnowledgeGraph(["a", "b"], ["r"], [(0, 0, 1), (0, 0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            KnowledgeGraph(["a"], ["r"], [(0, 0, 3)])
        # the message names the first offending triple in input order
        for triples, message in [
            ([(0, 0, 0), (1, 0, 1), (1, 0, 1), (0, 0, 0)], "duplicate triple (1, 0, 1)"),
            ([(0, 0, 1), (0, 0, 1), (0, 0, 5)], "duplicate triple (0, 0, 1)"),
            ([(0, 0, 1), (0, 0, 5), (0, 0, 1)],
             "entity index out of range in triple (0, 0, 5)"),
            ([(1, 0, 0), (-1, 0, 0)], "entity index out of range in triple (-1, 0, 0)"),
            ([(1, 2, 0), (0, 0, 9)], "predicate index out of range in triple (1, 2, 0)"),
            ([(0, 3, 7)], "entity index out of range in triple (0, 3, 7)"),
        ]:
            with pytest.raises(ValueError) as err:
                KnowledgeGraph(["a", "b"], ["r"], triples)
            assert str(err.value) == message

    def test_per_predicate_sizes_sum_to_triples(self, toy_kg):
        total = sum(len(edges) for edges in toy_kg.per_predicate.values())
        assert total == len(toy_kg.triples)


NAMES = ["a", "b c", "Zoë", "北京", "x  y", "naïve", "e1", "e2", "e\u00a0n", "ü"]
RELATIONS = ["r", "has part", "ρ", "inv:r", "q"]
GRAPH_SOURCES = [combo for k in (1, 2, 3)
                 for combo in itertools.permutations(("train", "valid", "test"), k)]


def random_split_texts(seed, *, empty=()):
    """Three disjoint split files as text: repeated lines within a split,
    non-ASCII names and names with inner spaces, padded fields, blank lines,
    and LF or CRLF line ends; the splits named in `empty` hold no triple."""
    rng = random.Random(seed)
    pool = list(itertools.product(NAMES, RELATIONS, NAMES))
    rng.shuffle(pool)
    sizes = {"train": rng.randint(1, 40), "valid": rng.randint(0, 12),
             "test": rng.randint(0, 12)}
    texts, start = {}, 0
    for name, size in sizes.items():
        size = 0 if name in empty else size
        rows = pool[start : start + size]
        start += size
        rows += rng.choices(rows, k=rng.randint(0, size // 2)) if rows else []
        rng.shuffle(rows)
        end = rng.choice(["\n", "\r\n"])
        lines = []
        for h, r, t in rows:
            pad = rng.choice(["", " ", "  "])
            lines.append(f"{pad}{h}\t{r}{pad}\t{t}")
            if rng.random() < 0.1:
                lines.append("")
        texts[name] = end.join(lines) + (end if rng.random() < 0.7 else "")
    return texts


def write_texts(tmp_path, texts):
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in ("train", "valid", "test"):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(texts[name].encode())
        paths.append(path)
    return paths


def assert_same_load(got, want):
    (kg, splits, summary), (kg_ref, splits_ref, summary_ref) = got, want
    assert kg.entities == kg_ref.entities
    assert kg.predicates == kg_ref.predicates
    assert kg.triple_array.dtype == kg_ref.triple_array.dtype == np.int64
    assert np.array_equal(kg.triple_array, kg_ref.triple_array)
    assert kg.triples == kg_ref.triples
    for p in range(kg.num_predicates):
        assert np.array_equal(kg.per_predicate[p], kg_ref.per_predicate[p])
    assert splits == splits_ref
    assert all(type(x) is int for split in (splits.train, splits.valid, splits.test)
               for triple in split for x in triple)
    assert summary == summary_ref


def assert_same_error(paths, **kwargs):
    with pytest.raises(ValueError) as want:
        load_dataset_reference(*paths, **kwargs)
    with pytest.raises(ValueError) as got:
        load_dataset(*paths, **kwargs)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return str(got.value)


class TestLoaderOracle:
    """`load_dataset` against the tuple-walking loader it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_reference_on_random_splits(self, tmp_path, seed):
        empty = [(), ("valid",), ("test",), ("valid", "test")][seed % 4]
        paths = write_texts(tmp_path, random_split_texts(seed, empty=empty))
        for source in GRAPH_SOURCES:
            assert_same_load(load_dataset(*paths, graph_source=source),
                             load_dataset_reference(*paths, graph_source=source))

    @pytest.mark.parametrize("pair", [("train", "valid"), ("train", "test"),
                                      ("valid", "test")])
    def test_overlap_message_and_count_equal_reference(self, tmp_path, pair):
        texts = random_split_texts(1)
        a, b = pair
        lines = [line for line in texts[a].splitlines() if line.strip()]
        # two distinct shared triples, one of them twice
        shared = list(dict.fromkeys(line.strip() for line in lines))[:2]
        assert len(shared) == 2
        texts[b] = "\n".join([texts[b].rstrip("\r\n"), *shared, shared[0]]) + "\n"
        message = assert_same_error(write_texts(tmp_path, texts))
        assert f"splits {a} and {b} share {len(shared)} triples" in message

    @pytest.mark.parametrize("name", ["train", "valid", "test"])
    def test_malformed_line_message_equals_reference(self, tmp_path, name):
        texts = random_split_texts(3)
        lines = texts[name].split("\n")
        lines.insert(len(lines) // 2, "one field only")
        texts[name] = "\n".join(lines)
        message = assert_same_error(write_texts(tmp_path, texts))
        assert f"{name}.txt:" in message

    @pytest.mark.parametrize("text", ["", "\n\n", "\r\n"])
    def test_empty_train_message_equals_reference(self, tmp_path, text):
        texts = random_split_texts(5) | {"train": text}
        assert "empty train file" in assert_same_error(write_texts(tmp_path, texts))

    def test_graph_from_array_equals_graph_from_tuples(self):
        for seed in range(10):
            base = random_kg(seed, num_entities=7, num_predicates=3, edge_prob=0.35)
            triples = list(base.triples)
            np.random.default_rng(seed).shuffle(triples)
            for dtype in (np.int64, np.int32, np.uint16):
                array = np.array(triples, dtype=dtype).reshape(-1, 3)
                kg = KnowledgeGraph(base.entities, base.predicates, array)
                ref = KnowledgeGraph(base.entities, base.predicates, triples)
                assert kg.triple_array.dtype == np.int64
                assert np.array_equal(kg.triple_array, ref.triple_array)
                assert kg.triples == ref.triples
                for p in range(kg.num_predicates):
                    assert np.array_equal(kg.per_predicate[p], ref.per_predicate[p])
                # the graph freezes its own copy, not the caller's array
                assert array.flags.writeable
                assert not np.shares_memory(array, kg.triple_array)

    @pytest.mark.parametrize("triples", [
        [(0, 0, 0), (1, 0, 1), (1, 0, 1), (0, 0, 0)],
        [(0, 0, 1), (0, 0, 1), (0, 0, 5)],
        [(0, 0, 1), (0, 0, 5), (0, 0, 1)],
        [(1, 0, 0), (-1, 0, 0)],
        [(1, 2, 0), (0, 0, 9)],
        [(0, 3, 7)],
    ])
    def test_array_and_tuples_raise_the_same_message(self, triples):
        with pytest.raises(ValueError) as want:
            KnowledgeGraph(["a", "b"], ["r"], triples)
        with pytest.raises(ValueError) as got:
            KnowledgeGraph(["a", "b"], ["r"], np.array(triples))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("entities, predicates, message", [
        (["a", "b", "a"], ["r"], "duplicate entity identifiers"),
        (["a", "b"], ["r", "s", "r"], "duplicate predicate identifiers"),
    ], ids=["entities", "predicates"])
    def test_duplicate_identifiers_are_refused(self, entities, predicates, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            KnowledgeGraph(entities, predicates, [(0, 0, 1)])

    @pytest.mark.parametrize("array", [np.zeros((2, 2), dtype=np.int64),
                                       np.zeros(6, dtype=np.int64),
                                       np.zeros((2, 3))])
    def test_array_of_the_wrong_shape_or_kind_is_refused(self, array):
        with pytest.raises(ValueError, match="triple array must be"):
            KnowledgeGraph(["a", "b"], ["r"], array)

    def test_sample_subgraph_unchanged(self):
        kg = random_kg(3, num_entities=12, num_predicates=4, edge_prob=0.3)
        for seed, size in [(0, 1), (1, 10), (2, len(kg.triples))]:
            sample = sample_subgraph(kg, seed, size)
            idx = np.sort(np.random.default_rng(seed).choice(
                len(kg.triples), size=size, replace=False))
            ref = KnowledgeGraph(kg.entities, kg.predicates,
                                 [kg.triples[i] for i in idx])
            assert sample.entities == ref.entities and sample.predicates == ref.predicates
            assert np.array_equal(sample.triple_array, ref.triple_array)
            for p in range(kg.num_predicates):
                assert np.array_equal(sample.per_predicate[p], ref.per_predicate[p])
            assert sample.triples == ref.triples


class TestIndex:
    """The views derived from the triple array against a Python-built index."""

    @staticmethod
    def assert_matches_reference(kg):
        out, _ = adjacency_reference(kg)
        stored = set(kg.triples)
        assert not kg.triple_array.flags.writeable
        assert kg.triple_array.shape == (len(kg.triples), 3)
        assert list(map(tuple, kg.triple_array.tolist())) == kg.triples
        assert all(type(x) is int for triple in kg.triples for x in triple)
        n = kg.num_entities
        for p in range(kg.num_predicates):
            rows = [(h, t) for h, q, t in kg.triples if q == p]
            assert kg.per_predicate[p].shape == (len(rows), 2)
            assert list(map(tuple, kg.per_predicate[p].tolist())) == sorted(rows)
            assert kg.num_edges(p) == len(rows)
            for v in range(n):
                assert kg.successors(p, v) == sorted(out[p].get(v, []))
                for t in range(n):
                    assert kg.has_triple(v, p, t) == ((v, p, t) in stored)
            assert kg.successors(p, n) == [] and kg.successors(p, -1) == []
            assert not kg.has_triple(0, p, n) and not kg.has_triple(n, p, 0)

    def test_views_match_reference_on_random_graphs(self):
        for seed in range(20):
            # dense enough for self-loops and one (h, t) pair under several predicates
            base = random_kg(seed, num_entities=7, num_predicates=3, edge_prob=0.35)
            triples = list(base.triples)
            np.random.default_rng(seed).shuffle(triples)
            # one entity without edges and one predicate without edges
            kg = KnowledgeGraph(base.entities + ["isolated"],
                                base.predicates + ["empty"], triples)
            assert kg.num_edges(kg.num_predicates - 1) == 0
            assert any(h == t for h, _, t in kg.triples)
            assert len({(h, t) for h, _, t in kg.triples}) < len(kg.triples)
            self.assert_matches_reference(kg)

    def test_views_match_reference_on_edge_cases(self, toy_kg):
        for kg in (toy_kg, KnowledgeGraph(["a", "b"], ["r", "s"], []),
                   KnowledgeGraph([], ["r"], []), KnowledgeGraph(["a"], [], [])):
            self.assert_matches_reference(kg)


class TestDegrees:
    def test_toy_backward_degree(self, toy_kg):
        q = toy_kg.predicate_index["daughterOf"]
        x1 = toy_kg.entity_index["x1"]
        assert bw_degree(toy_kg, q, x1) == 2

    def test_toy_forward_degree(self, toy_kg):
        q = toy_kg.predicate_index["daughterOf"]
        x1 = toy_kg.entity_index["x1"]
        assert fw_degree(toy_kg, q, x1) == 0

    def test_absent_vertex_is_zero(self, toy_kg):
        q = toy_kg.predicate_index["daughterOf"]
        z3 = toy_kg.entity_index["z3"]
        assert fw_degree(toy_kg, q, z3) == 0
        assert bw_degree(toy_kg, q, z3) == 0

    def test_out_of_range_raises(self, toy_kg):
        with pytest.raises(IndexError):
            fw_degree(toy_kg, 0, 99)

    def test_degree_sums_equal_edge_count(self):
        for seed in range(5):
            kg = random_kg(seed, num_entities=9, num_predicates=3)
            for q in range(kg.num_predicates):
                fw = sum(fw_degree(kg, q, v) for v in range(kg.num_entities))
                bw = sum(bw_degree(kg, q, v) for v in range(kg.num_entities))
                assert fw == bw == kg.num_edges(q)


class TestKeyRange:
    @pytest.mark.parametrize("num_predicates", [1, 12, 1000])
    def test_boundary(self, num_predicates):
        int64_max = np.iinfo(np.int64).max
        largest = math.isqrt(int64_max // (num_predicates + 1))
        check_key_range(largest, num_predicates)
        # the largest operator key, (own * (|P|+1) + |P|) * |E| + |E| - 1, fits
        e, k = np.int64(largest), np.int64(num_predicates + 1)
        top = ((e - 1) * k + k - 1) * e + e - 1
        assert int(top) == (num_predicates + 1) * largest**2 - 1 <= int64_max
        with pytest.raises(ValueError) as info:
            check_key_range(largest + 1, num_predicates)
        message = str(info.value)
        assert "\n" not in message
        assert f"{num_predicates} predicates and {largest + 1} entities" in message

    def test_graph_and_loader_check_the_range(self, tmp_path, monkeypatch):
        seen = []

        def refuse(num_entities, num_predicates):
            seen.append((num_entities, num_predicates))
            raise ValueError("too large")

        monkeypatch.setattr(kg_module, "check_key_range", refuse)
        with pytest.raises(ValueError, match="too large"):
            KnowledgeGraph(["a", "b"], ["p"], [(0, 0, 1)])
        with pytest.raises(ValueError, match="too large"):
            load_dataset(*write_dataset(tmp_path, "a\tp\tb\nb\tq\tc\n"))
        assert seen == [(2, 1), (3, 2)]


class TestGroupQueries:
    def test_multi_target_example(self, toy_kg):
        s = toy_kg.predicate_index["sisterOf"]
        e = toy_kg.entity_index
        split = [(e["z1"], s, e["z2"]), (e["z1"], s, e["z4"])]
        queries = group_queries(split)
        assert len(queries) == 1
        assert queries[0].head == e["z1"]
        assert set(queries[0].targets) == {e["z2"], e["z4"]}

    def test_single_triple(self):
        (q,) = group_queries([(3, 1, 5)])
        assert (q.head, q.query, q.targets) == (3, 1, (5,))

    def test_matches_hash_count_oracle(self, family_data):
        _, splits, _ = family_data
        queries = group_queries(splits.train)
        # independent grouping pass
        expected = {}
        for h, q, t in splits.train:
            expected.setdefault((h, q), set()).add(t)
        assert len(queries) == len(expected)
        for query in queries:
            assert set(query.targets) == expected[(query.head, query.query)]

    def test_partitions_split(self, family_data):
        _, splits, _ = family_data
        for split in (splits.train, splits.valid, splits.test):
            queries = group_queries(split)
            assert sum(len(q.targets) for q in queries) == len(split)

    @staticmethod
    def assert_matches_reference(split):
        queries = group_queries(split)
        want = group_queries_reference(split)
        assert len(queries) == len(want)
        for got, (h, q, ts) in zip(queries, want):
            assert type(got) is MultiTargetQuery
            assert got.head == h and got.query == q
            assert type(got.targets) is tuple and got.targets == ts

    def test_equals_reference_on_family_splits(self, family_data):
        _, splits, _ = family_data
        for split in (splits.train, splits.valid, splits.test):
            self.assert_matches_reference(split)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference_on_random_splits(self, seed):
        # few heads and predicates, so (h, q) pairs repeat, and rows drawn
        # with replacement, so whole triples repeat too
        rng = random.Random(seed)
        pool = [(rng.randrange(6), rng.randrange(3), rng.randrange(10))
                for _ in range(40)]
        split = [rng.choice(pool) for _ in range(rng.randrange(60, 120))]
        assert len(set(split)) < len(split)
        self.assert_matches_reference(split)

    def test_direct_construction_checks_targets(self):
        with pytest.raises(ValueError, match="^query must have at least one target$"):
            MultiTargetQuery(0, 1, ())
        with pytest.raises(ValueError, match="^duplicate targets in query$"):
            MultiTargetQuery(0, 1, (2, 3, 2))

    def test_records_are_tuples_of_their_fields(self):
        a, b = MultiTargetQuery(0, 1, (2, 3)), group_queries([(0, 1, 2), (0, 1, 3)])[0]
        assert a == b and hash(a) == hash(b)
        assert a == (0, 1, (2, 3))
        head, query, targets = b
        assert (head, query, targets) == (0, 1, (2, 3))
        assert a != MultiTargetQuery(0, 1, (3, 2))

    def test_deterministic_first_appearance_order(self):
        split = [(0, 0, 1), (2, 0, 3), (0, 0, 4)]
        queries = group_queries(split)
        assert [(q.head, q.targets) for q in queries] == [(0, (1, 4)), (2, (3,))]
