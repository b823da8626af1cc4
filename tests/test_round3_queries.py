"""Round-3 query pipelines: bigram counts, doc chunking, tf-idf top-K —
shape/determinism checks at sf0.001 (the DuckDB value-hash oracle runs
at sf0.01 via tools/check_oracle.py and the driver)."""

SF = "/root/testdata/sf0.001"


def test_bigram_counts(ray_session):
    from pdfsearch_ray.pipelines.queries import (
        BIGRAM_MIN_COUNT,
        BIGRAM_TOPK,
        bigram_counts,
    )

    t = bigram_counts(SF)
    assert 0 < t.num_rows <= BIGRAM_TOPK
    ns = t["n"].to_pylist()
    assert all(n >= BIGRAM_MIN_COUNT for n in ns)
    assert ns == sorted(ns, reverse=True)
    for b in t["bigram"].to_pylist()[:20]:
        a, _, c = b.partition(" ")
        assert a and c and " " not in c
    assert t.equals(bigram_counts(SF))  # deterministic


def test_doc_chunks(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines.queries import (
        CHUNK_SIZE,
        CHUNK_STRIDE,
        doc_chunks,
    )

    out = doc_chunks(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    texts = dict(zip(docs["doc_id"], docs["text"]))
    n_expected = sum(
        1 if len(t) <= CHUNK_SIZE
        else 1 + -(-(len(t) - CHUNK_SIZE) // CHUNK_STRIDE)
        for t in texts.values() if t)
    assert len(out) == n_expected
    # the non-redundancy invariant: each doc's last chunk must add new
    # tail text (its window is not contained in the previous chunk's)
    last = out.sort_values(["doc_id", "chunk_id"]).groupby("doc_id").tail(1)
    for _, row in last.iterrows():
        if row["chunk_id"] == 0:
            continue
        prev_end = (int(row["chunk_id"]) - 1) * CHUNK_STRIDE + CHUNK_SIZE
        assert prev_end < len(texts[row["doc_id"]])
    # spot-check chunk payloads against direct slicing
    rng = np.random.RandomState(0)
    for _, row in out.sample(25, random_state=rng).iterrows():
        text = texts[row["doc_id"]]
        s = int(row["chunk_start"])
        assert row["chunk_text"] == text[s:s + CHUNK_SIZE]
        assert s == int(row["chunk_id"]) * CHUNK_STRIDE


def test_tfidf_topk(ray_session):
    from pdfsearch_ray.pipelines.queries import TFIDF_TOPK, tfidf_topk

    t = tfidf_topk(SF).to_pandas()
    assert t.groupby("doc_id")["rank"].max().max() <= TFIDF_TOPK
    assert (t.groupby("doc_id")["rank"].apply(
        lambda r: list(r) == list(range(1, len(r) + 1)))).all()
    # scores are non-increasing within a doc
    for _, g in list(t.groupby("doc_id"))[:30]:
        sc = g.sort_values("rank")["score"].tolist()
        assert sc == sorted(sc, reverse=True)


def test_tfidf_topk_bucket_count_invariant(ray_session):
    """The bucket count is a layout knob, never a semantics knob: the
    result must be identical at two counts, and the auto-derived count
    must floor at 16 on small inputs (round-4 verdict item 5)."""
    from pdfsearch_ray.pipelines.queries import (
        _tfidf_num_buckets,
        tfidf_topk,
    )

    key = ["doc_id", "rank"]
    a = tfidf_topk(SF, num_buckets=4).to_pandas() \
        .sort_values(key).reset_index(drop=True)
    b = tfidf_topk(SF, num_buckets=32).to_pandas() \
        .sort_values(key).reset_index(drop=True)
    assert a.equals(b)
    assert _tfidf_num_buckets(SF) == 16  # sf0.001 is far below target


def test_knn_label_accuracy(ray_session):
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines.queries import knn_label_accuracy

    t = knn_label_accuracy(SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["label"])
    assert t["n"].sum() == emb.num_rows
    assert ((t["n_correct"] >= 0) & (t["n_correct"] <= t["n"])).all()
    # brute-force spot check on one vector
    import numpy as np

    ref = pq.read_table(f"{SF}/embeddings.parquet")
    ids = ref["vec_id"].to_numpy()
    order = np.argsort(ids)
    labels = ref["label"].to_numpy(zero_copy_only=False)[order]
    dim = len(ref["embedding"][0])
    m = ref["embedding"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False).astype(np.float64).reshape(-1, dim)[order]
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = np.round(mn[0] @ mn.T, 9)
    sims[0] = -np.inf
    pred0 = labels[(sims >= sims.max()).argmax()]
    # count of correct among label[0]'s group must reflect this one
    assert isinstance(bool(pred0 == labels[0]), bool)

    # full single-process reference of the SAME bucketed semantics:
    # shared centroids, argmax-dot assignment, n_probe probe set
    # (dot desc, c asc), candidate sims at 9 dp, (sim desc, vec_id asc)
    # argmax — must match the distributed result exactly
    from pdfsearch_ray.pipelines.queries import KNN_N_CLUSTERS, KNN_N_PROBE
    from pdfsearch_ray.pipelines.similarity import ivf_centroids

    cents = ivf_centroids(SF, num_queries=0, n_clusters=KNN_N_CLUSTERS)
    dots = m @ cents.T
    assign = np.argmax(dots, axis=1)
    probe = np.argsort(-dots, axis=1, kind="stable")[:, :KNN_N_PROBE]
    ids_sorted = ids[order]
    n_by, nc_by = {}, {}
    for i in range(len(ids_sorted)):
        cand = np.nonzero(np.isin(assign, probe[i]))[0]
        cand = cand[cand != i]
        if len(cand) == 0:
            continue
        sims_i = np.round(mn[i] @ mn[cand].T, 9)
        best = sims_i.max()
        # lowest vec_id among ties (cand is sorted by position == id order)
        nn = cand[(sims_i >= best).argmax()]
        la = int(labels[i])
        n_by[la] = n_by.get(la, 0) + 1
        nc_by[la] = nc_by.get(la, 0) + int(labels[nn] == labels[i])
    got = {int(r.label): (int(r.n), int(r.n_correct))
           for r in t.itertuples()}
    want = {la: (n_by[la], nc_by[la]) for la in n_by}
    assert got == want


def test_source_mix(ray_session):
    from pdfsearch_ray.pipelines.queries import source_mix

    t = source_mix(SF).to_pandas()
    assert t["n_docs"].sum() == 500
    assert (t["share_bp"] >= 0).all() and t["share_bp"].sum() <= 10_000
    assert t.duplicated(["source", "lang"]).sum() == 0
