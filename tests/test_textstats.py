"""Text-analysis + similarity operator tests."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from pdfsearch_ray.pipelines.textstats import (
    classify_language,
    fingerprints,
    language_id,
    token_counts,
)

SAMPLES = {
    "en": "the quick brown fox jumps over the lazy dog and the engineers "
          "are being measured in the most careful of ways on this day",
    "de": "der schnelle braune fuchs springt über den faulen hund und die "
          "ingenieure werden an diesem tag sorgfältig gemessen und gewogen",
    "fr": "le renard brun rapide saute par dessus le chien paresseux et les "
          "ingénieurs sont mesurés avec soin les plus grands que la ville",
}


def test_language_id_classifier():
    for lang, text in SAMPLES.items():
        assert classify_language(text) == lang, lang
    assert classify_language("") == "und"
    assert classify_language("zzz qqq 123") == "und"


def test_language_id_pipeline(ray_session):
    tbl = pa.table({
        "doc_id": pa.array(range(3), type=pa.int64()),
        "text": pa.array(list(SAMPLES.values()), type=pa.string()),
    })
    out = language_id(rd.from_arrow(tbl)).to_pandas().sort_values("doc_id")
    assert out["lang_pred"].tolist() == list(SAMPLES.keys())


def test_token_counts(ray_session):
    texts = ["hello world", "it's a test-case with 123 numbers", ""]
    tbl = pa.table({
        "doc_id": pa.array(range(3), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    out = token_counts(rd.from_arrow(tbl)).to_pandas().sort_values("doc_id")
    assert out["n_ws_tokens"].tolist() == [len(t.split()) for t in texts]
    assert out["n_bpe_pieces"].tolist()[0] == 2  # "hello", " world"
    assert out["n_bpe_pieces"].tolist()[2] == 0


def test_fingerprints_deterministic(ray_session):
    texts = ["some document body", "some document body", "different body"]
    tbl = pa.table({
        "doc_id": pa.array(range(3), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    out = fingerprints(rd.from_arrow(tbl)).to_pandas().sort_values("doc_id")
    fps = out["fingerprint"].tolist()
    chs = out["content_hash"].tolist()
    assert fps[0] == fps[1] and chs[0] == chs[1]
    assert chs[0] != chs[2]


def test_ann_lsh_recall_vs_bruteforce(ray_session):
    from pdfsearch_ray.pipelines.queries import ann_cosine_topk
    from pdfsearch_ray.pipelines.similarity import ann_lsh_topk

    sf = "/root/testdata/sf0.001"
    exact = ann_cosine_topk(sf).to_pandas()
    # the driver's embeddings are isotropic noise (no cluster structure),
    # so LSH recall ≈ fraction of buckets probed; at nbits=4 multi-probe
    # covers 5/16 of the space → expect ~0.3 recall, and exact sim values
    # for every (query, vec) the approx path does return
    approx = ann_lsh_topk(sf, nbits=4).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.15, recalls
    merged = approx.merge(exact, on=["query_id", "vec_id"], suffixes=("_a", "_e"))
    if len(merged):
        np.testing.assert_allclose(merged["sim_a"], merged["sim_e"], atol=2e-6)


def test_ann_ivf_recall_vs_bruteforce(ray_session):
    """IVF with n_probe/n_clusters = 1/4 of the space on RANDOM vectors
    (no cluster structure in the fixture embeddings) must still return
    exact sims for whatever it returns, with recall ≈ probed fraction."""
    from pdfsearch_ray.pipelines.queries import ann_cosine_topk
    from pdfsearch_ray.pipelines.similarity import ann_ivf_topk

    sf = "/root/testdata/sf0.001"
    exact = ann_cosine_topk(sf).to_pandas()
    approx = ann_ivf_topk(sf, n_clusters=8, n_probe=4).to_pandas()
    recalls = []
    for qid, grp in exact.groupby("query_id"):
        e = set(grp.vec_id)
        a = set(approx[approx.query_id == qid].vec_id)
        recalls.append(len(e & a) / len(e))
        # sims of overlapping ids must agree exactly (both rounded 6dp)
        m = grp.merge(approx[approx.query_id == qid], on="vec_id",
                      suffixes=("_e", "_a"))
        assert (m.sim_e - m.sim_a).abs().max() <= 1e-9
    import numpy as np

    assert np.mean(recalls) >= 0.25, recalls


def test_gopher_quality_rules(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.pipelines.textstats import (
        GOPHER_MIN_WORDS,
        gopher_filter,
        gopher_quality,
    )

    ok = " ".join(["word"] * GOPHER_MIN_WORDS)           # passes every rule
    too_short = " ".join(["word"] * (GOPHER_MIN_WORDS - 1))
    too_terse = " ".join(["ab"] * 60)                    # mean word len 2 < 3
    too_long_word = ok + " " + "x" * 31                  # max word len 31 > 30
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([ok, too_short, too_terse, too_long_word]),
    }))
    out = gopher_quality(docs).to_pandas().set_index("doc_id").sort_index()
    assert out["keep"].tolist() == [1, 0, 0, 0]
    assert out.loc[0, "n_words"] == GOPHER_MIN_WORDS
    assert out.loc[2, "n_word_chars"] == 120
    assert out.loc[3, "max_word_len"] == 31

    kept = gopher_filter(docs).to_pandas()
    assert kept["doc_id"].tolist() == [0]
    assert kept["text"].tolist() == [ok]


def test_unigram_lm_train_exact_math(ray_session):
    import ray.data as rd

    from pdfsearch_ray.pipelines import textstats as ts

    # corpus: 'a' x6, 'b' x3, 'c' x1  => N=10
    docs = rd.from_items([
        {"doc_id": 0, "text": "a a a b"},
        {"doc_id": 1, "text": "a A b; b!"},
        {"doc_id": 2, "text": "a c"},
    ])
    vb, oov_bits, n = ts.unigram_lm_train(docs, top_v=2)
    assert n == 10 and oov_bits == n.bit_length() + 1 == 5
    # top-2 by (tf desc, term asc) = {a:6, b:3}; bits = bit_length(N//tf)
    assert vb == {"a": (10 // 6).bit_length(), "b": (10 // 3).bit_length()}
    assert vb == {"a": 1, "b": 2}


def test_lm_surprisal_scores_and_oov(ray_session, tmp_path):
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines import textstats as ts

    # vocab-boundary tie: 'd' and 'c' both tf=2 -> top-V keeps the
    # lexicographically smaller at the cut (deterministic both sides)
    rows = {
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["a a a b b c", "a b c d", "d rare"]),
    }
    pq.write_table(pa.table(rows), tmp_path / "documents.parquet")
    old = ts.LM_VOCAB_TOP
    ts.LM_VOCAB_TOP = 3
    try:
        got = ts.lm_surprisal(str(tmp_path)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
        want = con.sql(ts.lm_surprisal_sql()).df()
        assert got.equals(want.astype(got.dtypes.to_dict()))
    finally:
        ts.LM_VOCAB_TOP = old
    # N=12: a:4 b:3 c:2 d:2 rare:1; top3 = a,b,c (c beats d on term asc)
    # bits: a=bl(3)=2 b=bl(4)=3 c=bl(6)=3; oov = bl(12)+1 = 5
    assert got.loc[0, "n_tokens"] == 6 and got.loc[0, "n_oov"] == 0
    assert got.loc[0, "bits_total"] == 3 * 2 + 2 * 3 + 3
    assert got.loc[1, "bits_total"] == 2 + 3 + 3 + 5  # d is OOV
    assert got.loc[2, "n_oov"] == 2 and got.loc[2, "bits_total"] == 10


def test_dsir_weights_matches_oracle_and_prefers_target(ray_session,
                                                        tmp_path):
    """DSIR hashed-ngram importance weights: engine == DuckDB retrain
    (integer-exact), and a doc written in the target slice's
    vocabulary outscores a doc written in the other slice's."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines import textstats as ts

    en = "the quick brown fox jumps over the lazy dog near the river"
    xx = "zorblat frumix quandle vepp trosk mibble jarn klopzu wrenfa"
    rows = {
        "doc_id": pa.array(list(range(12)), type=pa.int64()),
        "lang": pa.array(["en"] * 5 + ["xx"] * 5 + ["de", "de"]),
        # probes 10/11 share no lang-label with the models: pure
        # vocabulary should decide their scores
        "text": pa.array([en] * 5 + [xx] * 5 + [en, xx]),
    }
    pq.write_table(pa.table(rows), tmp_path / "documents.parquet")

    got = ts.dsir_weights(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.sql(ts.dsir_weights_sql()).df()
    assert got.equals(want.astype(got.dtypes.to_dict()))

    byid = got.set_index("doc_id")
    # target-vocabulary probe beats the raw-only-vocabulary probe
    assert byid.loc[10, "dsir_bits"] > byid.loc[11, "dsir_bits"]
    # and target-slice docs sit above raw-slice docs in the ranking
    assert byid.loc[0, "dsir_bits"] > byid.loc[5, "dsir_bits"]
    # n_feats = tokens + bigrams (12 tokens -> 23 features)
    assert byid.loc[0, "n_feats"] == 23


def test_dsir_weights_oracle_parity_sf(ray_session):
    import duckdb

    from pdfsearch_ray.pipelines import textstats as ts

    sf = "/root/testdata/sf0.001"
    got = ts.dsir_weights(sf).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = con.sql(ts.dsir_weights_sql()).df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # the score actually separates: the corpus has >1 lang, so weights
    # must not be constant
    assert got["dsir_bits"].nunique() > 10


def test_quality_signals_matches_oracle_and_vectorized_distinct(ray_session):
    """Fused signals equal the DuckDB recompute; the packed-key distinct
    counter equals a per-doc set() on raw text."""
    import duckdb
    import pyarrow.parquet as pq

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines import textstats as T

    sf = "/root/testdata/sf0.001"
    got = T.quality_signals(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(T.quality_signals_sql()).df()
    assert got.values.tolist() == \
        want[got.columns].astype("int64").values.tolist()

    t = pq.read_table(f"{sf}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas().head(50)
    ref = {int(r.doc_id): len(set(analyze_simple(r.text)))
           for r in t.itertuples() if analyze_simple(r.text)}
    sub = got.set_index("doc_id")["n_distinct"]
    for did, nd in ref.items():
        assert int(sub.loc[did]) == nd


def test_ccnet_buckets_oracle_and_tercile_shape(ray_session, tmp_path):
    """Planted corpus with a 5-way ppl tie STRADDLING a tercile
    boundary (n=9, terciles of 3): engine == DuckDB oracle bit-for-bit
    (so the doc_id tie split is exercised), per-lang bucket sizes
    differ by at most 1, and head ppl <= tail ppl."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines import textstats as ts

    # docs 0-4 identical text -> identical ppl, spanning head+middle;
    # docs 5-8 increasingly OOV-heavy -> strictly higher ppl
    texts = ["a a b c"] * 5 + ["a b zz1", "zz1 zz2 zz3",
                               "zz1 zz2 zz3 zz4 zz5", "zz9 zz9 zz9 zz9"]
    rows = {
        "doc_id": pa.array(list(range(9)), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 9),
        "source": pa.array(["s0"] * 9),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    }
    pq.write_table(pa.table(rows), tmp_path / "documents.parquet")
    old = ts.LM_VOCAB_TOP
    ts.LM_VOCAB_TOP = 3
    try:
        got = ts.ccnet_buckets(str(tmp_path)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
        want = con.sql(ts.ccnet_buckets_sql()).df()
        assert got["bucket"].tolist() == want["bucket"].tolist()
        assert got["ppl_milli"].tolist() == want["ppl_milli"].tolist()
    finally:
        ts.LM_VOCAB_TOP = old
    # the 5-way tie splits by doc_id: ranks 1-3 head, 4-5 middle
    tie = got[got["doc_id"] <= 4]["bucket"].tolist()
    assert tie == ["head", "head", "head", "middle", "middle"]
    sizes = got.groupby("bucket").size()
    assert sizes.max() - sizes.min() <= 1
    # bucket order respects ppl order
    assert (got[got["bucket"] == "head"]["ppl_milli"].max()
            <= got[got["bucket"] == "tail"]["ppl_milli"].min())


def test_quality_classifier_contract(ray_session):
    """Hashed-linear scorer: logit equals a brute per-doc recompute,
    keep is the sign gate, and both keep classes are populated (the
    weight vector is load-bearing, not constant-sign)."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines.textstats import (
        QC_BUCKETS,
        _qc_weights,
        quality_classifier,
    )

    sf = "/root/testdata/sf0.001"
    out = quality_classifier(sf).to_pandas().set_index("doc_id")
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "text"])
    w = _qc_weights()
    md5 = hashlib.md5
    for did, text in list(zip(docs["doc_id"].to_pylist(),
                              docs["text"].to_pylist()))[:50]:
        toks = analyze_simple(text or "")
        logit = sum(int(w[int.from_bytes(
            md5(t.encode()).digest()[8:16], "little") % QC_BUCKETS])
            for t in toks)
        row = out.loc[did]
        assert row["n_tokens"] == len(toks)
        assert row["logit"] == logit
        assert row["keep"] == int(logit > 0)
    ks = out["keep"].to_numpy()
    assert 0 < ks.sum() < len(ks)       # both classes present
    assert int(np.abs(w).max()) <= 498 and w.min() < 0 < w.max()
