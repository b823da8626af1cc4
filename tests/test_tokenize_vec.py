"""Bit-equivalence of the vectorized combine tokenizer vs the Python
reference path — same table, same column order, same nested values,
same varint position blobs — across analyzers, hot-term salting,
unicode text, empties and degenerate batches."""

import numpy as np
import pyarrow as pa
import pytest

from pdfsearch_ray.stages.tokenize import Tokenizer

WORDS = ("data stream window the and of merge pipeline process "
         "1,000 12.5 world's isn't Text TEXT text 123abc abc123 "
         "naïve café 東京 mixed_case under_score a b").split()


def _random_batch(rng, n_docs, max_words=60, with_empty=True):
    texts = []
    for i in range(n_docs):
        if with_empty and i % 7 == 3:
            texts.append("")
        elif with_empty and i % 11 == 5:
            texts.append(None)
        else:
            k = int(rng.randint(0, max_words))
            texts.append(" ".join(rng.choice(WORDS) for _ in range(k)))
    ids = rng.permutation(np.arange(n_docs, dtype=np.int64) * 13 + 7)
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })


@pytest.mark.parametrize("analyzer", ["en", "simple"])
@pytest.mark.parametrize("with_positions", [True, False])
@pytest.mark.parametrize("hot", [None, {"data": 4, "the": 3, "process": 2}])
def test_combine_vectorized_equivalence(analyzer, with_positions, hot):
    rng = np.random.RandomState(1234)
    tok = Tokenizer(analyzer=analyzer, hot_terms=hot,
                    with_positions=with_positions, combine=True,
                    num_buckets=8)
    for trial in range(6):
        batch = _random_batch(rng, n_docs=int(rng.randint(1, 40)))
        got, got_dl = tok._combine_vectorized(batch)
        want, want_dl = tok._python_path(batch)
        assert got.schema.equals(want.schema), (trial, got.schema,
                                                want.schema)
        assert got.equals(want), (
            trial, got.to_pydict(), want.to_pydict())
        # both paths count the same doc lengths, one per batch row
        np.testing.assert_array_equal(got_dl, want_dl)
        assert got_dl.size == batch.num_rows


def test_combine_vectorized_empty_and_all_stop():
    tok = Tokenizer(analyzer="en", combine=True)
    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string()),
    })
    assert tok(empty).num_rows == 0
    assert tok(empty).schema.equals(tok._python_path(empty)[0].schema)
    allstop = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["the and of", "to from up"], type=pa.string()),
    })
    assert tok(allstop).num_rows == 0
    assert tok(allstop).equals(tok._python_path(allstop)[0])
    assert tok._combine_vectorized(allstop)[1].tolist() == [0, 0]


def test_callable_dispatches_to_vectorized():
    rng_batch = pa.table({
        "doc_id": pa.array([5, 9], type=pa.int64()),
        "text": pa.array(["data stream data", "window merge"],
                         type=pa.string()),
    })
    tok = Tokenizer(analyzer="en", combine=True)
    assert tok(rng_batch).equals(tok._python_path(rng_batch)[0])
    # non-combine mode still runs the (order-sensitive) python path
    tok2 = Tokenizer(analyzer="en", combine=False)
    out = tok2(rng_batch)
    assert "positions" in out.schema.names


@pytest.mark.parametrize("with_positions", [True, False])
def test_spill_carries_only_what_encode_needs(with_positions):
    """The combine output (the build's token spill) has no doc lengths
    and no per-posting position byte lengths: encode looks ``dl`` up in
    the docs catalog and cuts positions with ``tf``.  The one positions
    stream per segment holds exactly ``sum(tf)`` varints, first position
    then gaps per posting."""
    from pdfsearch_ray.index.codec import varint_decode

    tok = Tokenizer(analyzer="en", combine=True,
                    with_positions=with_positions)
    batch = pa.table({
        "doc_id": pa.array([5, 9, 11], type=pa.int64()),
        "text": pa.array(["data stream data", "window merge data",
                          "the stream"], type=pa.string()),
    })
    want = ["term", "salt", "bucket", "seg_docs", "seg_tfs"]
    want += ["seg_pos_blob"] if with_positions else []
    for out in (tok._combine_vectorized(batch)[0],
                tok._python_path(batch)[0],
                tok._empty_combine_table()):
        assert out.schema.names == want
    if with_positions:
        out = tok(batch)
        for row in out.to_pylist():
            vals = varint_decode(row["seg_pos_blob"],
                                 count=sum(row["seg_tfs"]))
            assert (vals > 0).all()
        data = {r["term"]: r for r in out.to_pylist()}["data"]
        assert data["seg_docs"] == [5, 9] and data["seg_tfs"] == [2, 1]
        # "data stream data": positions 1, 3; "window merge data": 3
        assert varint_decode(data["seg_pos_blob"]).tolist() == [1, 2, 3]
