import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.datamodel import DataSourceKind
from camlpad.ensemble import (
    BUCKET_WIDTH_MS,
    LabelVector,
    binarize,
    cross_source_vote,
    ensemble_score,
    labels_to_jsonl,
    normalize_scores,
    VoteTable,
    verdicts_to_jsonl,
    vote,
)
from camlpad.errors import CamlpadError


class TestNormalize:
    def test_min_max_scaling(self):
        assert normalize_scores(np.array([1.0, 3.0, 5.0]), 3).tolist() == [0.0, 0.5, 1.0]

    def test_constant_vector_maps_to_half(self):
        assert normalize_scores(np.array([7.0, 7.0]), 2).tolist() == [0.5, 0.5]

    def test_constant_history_maps_every_row_to_half(self):
        assert normalize_scores(np.array([7.0, 7.0, 9.0, 1.0]), 2).tolist() == [0.5] * 4

    def test_order_preserved(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(0, 10, 50)
        assert np.array_equal(np.argsort(scores), np.argsort(normalize_scores(scores, 50)))

    def test_scale_is_fitted_on_history_and_later_rows_are_clipped(self):
        scaled = normalize_scores(np.array([1.0, 3.0, 5.0, 4.0, 9.0, -1.0]), 3)
        assert scaled.tolist() == [0.0, 0.5, 1.0, 0.75, 1.0, 0.0]

    @pytest.mark.parametrize("n_history", [0, 4, -1])
    def test_history_must_be_a_non_empty_prefix(self, n_history):
        with pytest.raises(ValueError, match="score scale"):
            normalize_scores(np.array([1.0, 2.0, 3.0]), n_history)


class TestBinarize:
    def test_top_m_rule(self):
        labels = binarize(np.array([0.1, 0.9, 0.2, 0.8, 0.3]), contamination=0.4)
        assert labels.labels.tolist() == [0, 1, 0, 1, 0]

    def test_all_equal_ties_break_to_lowest_index(self):
        labels = binarize(np.full(10, 3.3), contamination=0.1)
        assert labels.labels.tolist() == [1] + [0] * 9

    def test_single_row_is_labeled(self):
        assert binarize(np.array([0.2]), contamination=0.1).labels.tolist() == [1]

    def test_exact_count_over_random_inputs(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            contamination = float(rng.uniform(0.01, 0.99))
            scores = rng.normal(0, 1, n)
            if rng.random() < 0.3:  # force heavy ties
                scores = np.round(scores)
            labels = binarize(scores, contamination)
            assert labels.labels.sum() == math.ceil(contamination * n)

    def test_contamination_bounds(self):
        with pytest.raises(ValueError):
            binarize(np.array([1.0]), contamination=0.0)
        with pytest.raises(ValueError):
            binarize(np.array([1.0]), contamination=1.0)


class TestVote:
    def test_majority_truth_table(self):
        for bits in itertools.product((0, 1), repeat=3):
            vectors = [LabelVector(row_ids=["r"], labels=np.array([b])) for b in bits]
            result = vote(*vectors)
            assert result.labels[0] == (1 if sum(bits) >= 2 else 0), bits

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        ids = [f"r{i}" for i in range(20)]
        vectors = [LabelVector(row_ids=ids, labels=rng.integers(0, 2, 20)) for _ in range(3)]
        reference = vote(*vectors).labels
        for perm in itertools.permutations(vectors):
            assert np.array_equal(vote(*perm).labels, reference)

    def test_monotone_in_each_input(self):
        ids = ["r0"]
        zero = LabelVector(row_ids=ids, labels=np.array([0]))
        one = LabelVector(row_ids=ids, labels=np.array([1]))
        for bits in itertools.product((0, 1), repeat=3):
            vectors = [one if b else zero for b in bits]
            before = vote(*vectors).labels[0]
            for i in range(3):
                if not bits[i]:
                    flipped = list(vectors)
                    flipped[i] = one
                    assert vote(*flipped).labels[0] >= before

    def test_misaligned_rows_rejected(self):
        a = LabelVector(row_ids=["x"], labels=np.array([1]))
        b = LabelVector(row_ids=["y"], labels=np.array([1]))
        with pytest.raises(CamlpadError, match=r"^label vectors do not share row_ids$"):
            vote(a, a, b)


class TestEnsembleScore:
    def _normalized(self, *vectors):
        return [normalize_scores(np.asarray(vector, dtype=float), len(vector)) for vector in vectors]

    def test_identical_normalized_vectors_pass_through(self):
        v = [0.0, 0.5, 1.0]
        assert ensemble_score(self._normalized(v, v, v)).tolist() == v

    def test_bounds(self):
        scores = ensemble_score(self._normalized([0, 1], [2, 5], [1, 9]))
        assert scores.tolist() == [0.0, 1.0]

    def test_mean_of_normalized_rows(self):
        # detector vectors already span [0,1], so normalization is the identity
        scores = ensemble_score(self._normalized([0, 0.2, 1], [0, 0.4, 1], [0, 0.6, 1]))
        assert scores[1] == pytest.approx(0.4, abs=1e-12)

    def test_row_maximal_everywhere_is_maximal_in_ensemble(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            base = rng.normal(0, 1, 30)
            top = base.argmax()
            detectors = []
            for _ in range(3):
                noisy = rng.normal(0, 1, 30)
                noisy[top] = noisy.max() + 1.0  # same row maximal in every detector
                detectors.append(noisy)
            combined = ensemble_score(self._normalized(*detectors))
            assert combined.argmax() == top


def reference_cross_source_vote(labeled, bucket_width_ms, contamination, tie_breaks_anomalous):
    """The per-row dict vote the array code replaced: [(bucket_start, [(source, vote), ...], final)]."""
    counts = {}
    for source, (timestamps, labels) in labeled.items():
        for timestamp, label in zip(timestamps, labels):
            bucket = (timestamp // bucket_width_ms) * bucket_width_ms
            pair = counts.setdefault(bucket, {}).setdefault(source, [0, 0])
            pair[0] += 1
            pair[1] += int(label)
    verdicts = []
    for bucket in sorted(counts):
        votes = {}
        for source, (total, outliers) in counts[bucket].items():
            votes[source] = 1 if outliers / total > contamination else 0
        present, ones = len(votes), sum(votes.values())
        if ones * 2 > present:
            final = 1
        elif ones * 2 == present:
            final = 1 if tie_breaks_anomalous else 0
        else:
            final = 0
        verdicts.append((bucket, list(votes.items()), final))
    return verdicts


def table_rows(table):
    """A vote table in the reference's shape: each bucket's present sources, in column order."""
    return [
        (start, [(source, flag) for source, flag in zip(table.sources, row) if flag >= 0], final)
        for start, row, final in zip(table.bucket_starts.tolist(), table.votes.tolist(), table.final.tolist())
    ]


class TestCrossSourceVote:
    YAF, SNORT, MERAKI = DataSourceKind.YAF, DataSourceKind.SNORT, DataSourceKind.MERAKI

    def _rows(self, bucket_start, outliers, total, width=60_000):
        """(timestamps, labels) of ``total`` rows in one bucket, the first ``outliers`` labelled 1."""
        labels = [1] * outliers + [0] * (total - outliers)
        return np.array([bucket_start + i % width for i in range(total)]), np.array(labels)

    def test_single_source_degenerate_majority(self):
        (t1, l1), (t2, l2) = self._rows(0, 5, 10), self._rows(60_000, 0, 10)
        labeled = {self.YAF: (np.concatenate([t1, t2]), np.concatenate([l1, l2]))}
        table = cross_source_vote(labeled, contamination=0.1)
        assert table_rows(table) == [(0, [(self.YAF, 1)], 1), (60_000, [(self.YAF, 0)], 0)]
        assert len(table) == 2

    def test_three_sources_majority(self):
        table = cross_source_vote(
            {
                self.YAF: self._rows(0, 5, 10),
                self.SNORT: self._rows(0, 5, 10),
                self.MERAKI: self._rows(0, 0, 10),
            },
            contamination=0.1,
        )
        assert table_rows(table) == [(0, [(self.YAF, 1), (self.SNORT, 1), (self.MERAKI, 0)], 1)]

    def test_two_source_tie_resolves_to_alert(self):
        labeled = {self.YAF: self._rows(0, 5, 10), self.SNORT: self._rows(0, 0, 10)}
        assert cross_source_vote(labeled, contamination=0.1).final.tolist() == [1]

    def test_fraction_must_strictly_exceed_contamination(self):
        assert cross_source_vote({self.YAF: self._rows(0, 1, 10)}, contamination=0.1).final.tolist() == [0]

    def test_every_record_in_exactly_one_bucket(self):
        rng = np.random.default_rng(13)
        labeled = {source: (rng.integers(0, 10**7, 200), rng.integers(0, 2, 200)) for source in (self.YAF, self.SNORT)}
        width = BUCKET_WIDTH_MS
        table = cross_source_vote(labeled)
        assert (table.bucket_starts % width == 0).all()
        for column, (timestamps, _) in enumerate(labeled.values()):
            starts = {(int(t) // width) * width for t in timestamps}
            covered = set(table.bucket_starts[table.votes[:, column] >= 0].tolist())
            assert starts == covered

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.dictionaries(
            st.sampled_from(list(DataSourceKind)),
            st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1)), max_size=30),
            min_size=1,
        ),
        offset=st.sampled_from([0, 10**12, 2**62]),
        contamination=st.sampled_from([0.1, 0.25, 0.5, 0.75]),
    )
    def test_matches_per_row_reference(self, rows, offset, contamination):
        # times 15 s apart: each one-minute bucket holds up to four of a source's rows, and an example several buckets
        reference_input = {
            source: ([offset + t * 15_000 for t, _ in pairs], [label for _, label in pairs])
            for source, pairs in rows.items()
        }
        labeled = {
            source: (np.array(timestamps, dtype=np.int64), np.array(labels, dtype=int))
            for source, (timestamps, labels) in reference_input.items()
        }
        table = cross_source_vote(labeled, contamination)
        expected = reference_cross_source_vote(reference_input, 60_000, contamination, tie_breaks_anomalous=True)
        assert table_rows(table) == expected
        assert table.sources == tuple(rows)
        assert (table.bucket_starts.dtype, table.votes.dtype) == (np.int64, np.int8)
        assert table.votes.shape == (len(table), len(rows)) and table.final.shape == (len(table),)

    def test_exact_contamination_fraction_and_one_to_one_tie(self):
        # 1 of 4 rows is exactly 0.25: not above it; 2 of 4 is. A 1:1 split alerts.
        times = np.array([0, 1, 2, 3])
        labeled = {self.YAF: (times, np.array([1, 0, 0, 0])), self.SNORT: (times, np.array([1, 1, 0, 0]))}
        table = cross_source_vote(labeled, contamination=0.25)
        assert table_rows(table) == [(0, [(self.YAF, 0), (self.SNORT, 1)], 1)]

    def test_source_with_no_rows_casts_no_vote(self):
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=int))
        table = cross_source_vote({self.YAF: empty, self.SNORT: self._rows(0, 5, 10)}, contamination=0.1)
        assert table_rows(table) == [(0, [(self.SNORT, 1)], 1)]
        assert table.votes.tolist() == [[-1, 1]]
        assert len(cross_source_vote({self.YAF: empty})) == 0

    def test_result_holds_at_most_64_bytes_per_bucket(self):
        # 5 sources, each with a row in 12,000 one-minute buckets of its own: 60,000 buckets in all
        labeled = {
            source: (np.arange(12_000, dtype=np.int64) * 300_000 + k * 60_000, np.arange(12_000) % 2)
            for k, source in enumerate(DataSourceKind)
        }
        cross_source_vote(labeled)  # numpy's one-off allocations on a first call are not the result's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = cross_source_vote(labeled)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == 60_000
        assert held <= 64 * len(table)


class TestJsonlExports:
    def test_labels_jsonl_shape(self):
        ids = ["a", "b"]
        ens = LabelVector(row_ids=ids, labels=np.array([1, 0]))
        det = {name: LabelVector(row_ids=ids, labels=np.array([1, 0])) for name in ("iforest", "hbos", "cblof")}
        lines = labels_to_jsonl(ens, det).strip().splitlines()
        assert len(lines) == 2
        assert '"row_id": "a"' in lines[0].replace('","', '", "') or '"row_id"' in lines[0]

    def test_labels_jsonl_matches_per_row_json_dumps(self):
        ids = ['plain', 'quo"te', "back\\slash", "caf\u00e9 \u2603", "tab\there", "100%d", "{}"]
        rng = np.random.default_rng(4)
        names = ("iforest", "hbos", "cblof", "odd%name")
        ens = LabelVector(row_ids=ids, labels=rng.integers(0, 2, len(ids)))
        det = {name: LabelVector(row_ids=ids, labels=rng.integers(0, 2, len(ids))) for name in names}
        expected = [
            json.dumps(
                {
                    "row_id": row_id,
                    "label": int(ens.labels[i]),
                    "votes": {name: int(vec.labels[i]) for name, vec in sorted(det.items())},
                },
                sort_keys=True,
            )
            for i, row_id in enumerate(ids)
        ]
        assert labels_to_jsonl(ens, det) == "\n".join(expected) + "\n"
        assert [json.loads(line)["row_id"] for line in labels_to_jsonl(ens, det).splitlines()] == ids

    def test_labels_jsonl_empty_is_empty_text(self):
        empty = LabelVector(row_ids=[], labels=np.zeros(0, dtype=int))
        assert labels_to_jsonl(empty, {"iforest": empty}) == ""

    def test_verdicts_jsonl_shape(self):
        verdicts = cross_source_vote({DataSourceKind.YAF: (np.array([0, 1]), np.array([1, 0]))}, contamination=0.1)
        text = verdicts_to_jsonl(verdicts)
        assert text.startswith('{"bucket_start"')
        assert text.endswith("\n")

    def test_verdicts_jsonl_is_json_dumps_with_sorted_keys(self):
        flags = {
            0: {},
            3_600_000: {DataSourceKind.YAF: 1, DataSourceKind.BRO_DNS: 0, DataSourceKind.SNORT: 1},
            1_614_556_800_000: {kind: i % 2 for i, kind in enumerate(reversed(DataSourceKind))},
        }
        expected = [
            json.dumps(
                {"bucket_start": start, "final": final, "votes": {k.value: f for k, f in votes.items()}},
                sort_keys=True,
            )
            for (start, votes), final in zip(flags.items(), [0, 1, 0])
        ]
        for sources in (tuple(DataSourceKind), tuple(reversed(DataSourceKind))):  # either column order
            table = VoteTable(
                bucket_starts=np.array(list(flags), dtype=np.int64),
                sources=sources,
                votes=np.array([[votes.get(kind, -1) for kind in sources] for votes in flags.values()], dtype=np.int8),
                final=np.array([0, 1, 0], dtype=np.int8),
            )
            assert verdicts_to_jsonl(table) == "\n".join(expected) + "\n"
            empty = VoteTable(table.bucket_starts[:0], sources, table.votes[:0], table.final[:0])
            assert verdicts_to_jsonl(empty) == ""


@st.composite
def labelled_rows(draw):
    """Row ids and (label, cblof, hbos, iforest) codes 0-15, every one of the 16 patterns among them."""
    codes = draw(st.permutations(range(16))) + draw(st.lists(st.integers(0, 15), max_size=24))
    ids = draw(st.lists(st.text(max_size=6), min_size=len(codes), max_size=len(codes)))
    return ids, np.array([[code >> bit & 1 for bit in (3, 2, 1, 0)] for code in codes])


@st.composite
def vote_tables(draw):
    """Tables over one to five sources in any column order, votes -1 (absent), 0 or 1 in any mix."""
    sources = draw(st.permutations(tuple(DataSourceKind)))[: draw(st.integers(1, len(DataSourceKind)))]
    starts = sorted(draw(st.sets(st.integers(0, 2**62), max_size=40)))
    votes = draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(sources), max_size=len(sources)),
                          min_size=len(starts), max_size=len(starts)))
    finals = draw(st.lists(st.integers(0, 1), min_size=len(starts), max_size=len(starts)))
    return VoteTable(
        bucket_starts=np.array(starts, dtype=np.int64),
        sources=tuple(sources),
        votes=np.array(votes, dtype=np.int8).reshape(len(starts), len(sources)),
        final=np.array(finals, dtype=np.int8),
    )


class TestJsonlExportsAgainstJsonDumps:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(labelled_rows())
    def test_labels_jsonl_over_all_sixteen_patterns(self, drawn):
        ids, cells = drawn
        names = ("cblof", "hbos", "iforest")
        ens = LabelVector(row_ids=ids, labels=cells[:, 0])
        det = {name: LabelVector(row_ids=ids, labels=cells[:, k]) for k, name in enumerate(names, 1)}
        expected = "".join(
            json.dumps(
                {"row_id": row_id, "label": int(row[0]), "votes": dict(zip(names, map(int, row[1:])))},
                sort_keys=True,
            ) + "\n"
            for row_id, row in zip(ids, cells)
        )
        assert labels_to_jsonl(ens, det) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vote_tables())
    def test_verdicts_jsonl_leaves_absent_sources_out(self, table):
        expected = "".join(
            json.dumps(
                {
                    "bucket_start": int(start),
                    "final": int(final),
                    "votes": {source.value: int(flag) for source, flag in zip(table.sources, row) if flag >= 0},
                },
                sort_keys=True,
            ) + "\n"
            for start, final, row in zip(table.bucket_starts, table.final, table.votes)
        )
        assert verdicts_to_jsonl(table) == expected
