"""Web-corpus curation kernels (pipelines/webops.py, round 5):
URL canonicalization edge cases, PII scrub idempotence, and the two
gate queries against their DuckDB oracles at sf0.001."""

import duckdb
import numpy as np
import pyarrow as pa

from pdfsearch_ray.pipelines import webops as w

SF = "/root/testdata/sf0.001"


def test_canonicalize_urls_cases():
    raw = pa.array([
        "HTTPS://WWW.Ex1.com/P/9/?utm_source=a&utm_medium=b",
        "https://ex1.com/p/9?utm_campaign=c",
        "http://www.ex1.com/p/9/",
        # utm in the middle of real params must not eat them
        "https://a.com/x?utm_source=s&id=7",
        "https://a.com/x?id=7&utm_source=s",
        # three consecutive tracking params (fixpoint > 2 passes)
        "https://b.com/?utm_a=1&utm_b=2&utm_c=3",
        "no-scheme.com/path",
    ])
    got = w.canonicalize_urls(raw).to_pylist()
    assert got[:3] == ["ex1.com/p/9"] * 3
    assert got[3] == "a.com/x?id=7"
    assert got[4] == "a.com/x?id=7"
    assert got[5] == "b.com"
    assert got[6] == "no-scheme.com/path"


def test_scrub_pii_kernel_and_idempotence():
    texts = pa.array([
        "mail bob.smith+x@corp.example.org now",
        "call +1-555-0042 or +1-555-9999",
        "clean text with at sign only a@b (no tld match)",
        "",
    ])
    scrubbed, counts = w.scrub_pii(texts)
    got = scrubbed.to_pylist()
    assert got[0] == "mail <EMAIL> now"
    assert got[1] == "call <PHONE> or <PHONE>"
    assert counts["email"].tolist() == [1, 0, 0, 0]
    assert counts["phone"].tolist() == [0, 2, 0, 0]
    # idempotent: scrubbing scrubbed text changes nothing
    again, c2 = w.scrub_pii(scrubbed)
    assert again.to_pylist() == got
    assert c2["email"].sum() == 0 and c2["phone"].sum() == 0


def test_gate_queries_match_oracles(ray_session):
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")

    t = w.url_dedup(SF).to_pandas().reset_index(drop=True)
    o = con.sql(w.url_dedup_sql()).df().reset_index(drop=True)
    assert t["n_docs"].max() == 3  # the synth really makes dupe groups
    assert t.equals(o.astype(t.dtypes.to_dict()))

    p = (w.pii_scrub_stats(SF).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    op = (con.sql(w.pii_scrub_stats_sql()).df()
          .sort_values("doc_id").reset_index(drop=True))
    assert set(p["n_emails"]) == {0, 1, 2}  # variable counts, not const
    assert p.equals(op.astype(p.dtypes.to_dict()))


def test_decontaminate_matches_oracle_and_plants_hits(ray_session):
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    t = w.decontaminate(SF).to_pandas().reset_index(drop=True)
    o = con.sql(w.decontaminate_sql()).df().reset_index(drop=True)
    assert t.equals(o.astype(t.dtypes.to_dict()))
    # planted docs are flagged; the vast majority of training docs are
    # clean (word-salad text has no accidental 8-gram overlap)
    assert (t["contaminated"] == 1).sum() > 0
    assert (t["contaminated"] == 0).sum() > len(t) * 0.8
    planted = t[t["doc_id"] % w.DECON_INJECT_MOD == 0]
    assert (planted["n_contaminated"] >= w.DECON_INJECT_WORDS
            - w.DECON_NGRAM + 1).all()


def test_line_dedup_semantics_and_oracle(ray_session):
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    t = w.line_dedup_stats(SF).to_pandas().reset_index(drop=True)
    o = con.sql(w.line_dedup_stats_sql()).df().reset_index(drop=True)
    assert t.equals(o.astype(t.dtypes.to_dict()))
    # independent brute-force expectation in pure python (no engine
    # code): inject, window into 10-word lines, df-count, strip
    docs = con.sql("SELECT doc_id, text FROM documents "
                   "ORDER BY doc_id").fetchall()
    lines_by_doc = {}
    for did, text in docs:
        if did % 3 == 0:
            text = w._BOILER_1 + " " + text
        if did % 7 == 0:
            # boilerplate 2 sits AFTER 1 when both (engine prepends 1|2)
            text = text.split(w._BOILER_1 + " ", 1)
            text = (w._BOILER_1 + " " + w._BOILER_2 + " " + text[1]
                    if len(text) == 2 else w._BOILER_2 + " " + text[0])
        ws = text.split(" ")
        lines_by_doc[did] = [" ".join(ws[i:i + 10])
                             for i in range(0, len(ws), 10)]
    from collections import Counter
    df = Counter()
    for ls in lines_by_doc.values():
        df.update(set(ls))
    hot = {ln for ln, n in df.items() if n >= w.LINE_DF_MIN}
    for _, row in t.iterrows():
        ls = lines_by_doc[row["doc_id"]]
        kept = [ln for ln in ls if ln not in hot]
        assert row["n_lines"] == len(ls)
        assert row["n_removed"] == len(ls) - len(kept)
        assert row["kept_chars"] == len(" ".join(kept))
    ids = t["doc_id"].to_numpy()
    # injected boilerplate is always removed (df far above threshold)
    exp_min = (ids % 3 == 0).astype(int) + (ids % 7 == 0).astype(int)
    assert (t["n_removed"].to_numpy() >= exp_min).all()
    assert exp_min.max() == 2  # a doc with BOTH boilerplates exists
    # and natural df==1 lines survive: clean docs keep everything
    assert len(hot) >= 2 and w._BOILER_1 in hot and w._BOILER_2 in hot


def test_line_df_threshold_distributed(ray_session):
    import ray.data as rd
    # 6 docs: line A in 5 docs (hot at df_min=5), line B in 2 (cold)
    la = "a b c d e f g h i j"
    lb = "k l m n o p q r s t"
    rows = [{"doc_id": i, "text": la if i < 5 else lb} for i in range(6)]
    rows.append({"doc_id": 6, "text": lb})
    hot = w.line_df(rd.from_items(rows), df_min=5).to_pandas()
    import pyarrow as pa
    want = int(w._line_hash_arrays(
        pa.array([la], type=pa.string()))[0].view(np.int64)[0])
    assert hot["h"].tolist() == [want] and hot["df"].tolist() == [5]


def test_strip_boiler_lines_in_curation(ray_session):
    import ray.data as rd

    from pdfsearch_ray.pipelines.curate import curate_chunks

    boiler = w._BOILER_1
    rows = []
    for i in range(40):
        body = " ".join(f"w{i}x{j}" for j in range(60))
        text = (boiler + " " + body) if i % 2 == 0 else body
        rows.append({"doc_id": i, "text": text, "lang": "en"})
    ds = rd.from_items(rows)
    # kernel: boilerplate line stripped everywhere, bodies intact
    out = w.strip_boiler_lines(ds, df_min=5).to_pandas() \
        .sort_values("doc_id")
    assert not out["text"].str.contains("subscribe").any()
    assert out["text"].str.contains("x59").all()
    # composed into curation: no boilerplate survives into chunk text
    chunks = curate_chunks(rd.from_items(rows), default_rate=1.0,
                           strip_boilerplate=True).to_pandas()
    assert len(chunks) > 0
    assert not chunks["chunk_text"].str.contains("newsletter").any()
    # default-off keeps boilerplate (pins the historical composition)
    chunks_off = curate_chunks(rd.from_items(rows),
                               default_rate=1.0).to_pandas()
    assert chunks_off["chunk_text"].str.contains("newsletter").any()


def test_exact_substring_hand_corpus(ray_session):
    """ExactSubstr semantics on a hand corpus at window=3: cross-doc
    shared span, within-doc self-repeat, and the interval union over
    overlapping flagged windows."""
    import ray.data as rd

    ds = rd.from_items([
        {"doc_id": 1, "text": "a b c d e"},
        {"doc_id": 2, "text": "x b c d y"},
        {"doc_id": 3, "text": "p q r s t p q r s t"},
        {"doc_id": 4, "text": "u v"},  # shorter than the window
    ])
    out = w.exact_substring_over(ds, window=3).to_pandas() \
        .set_index("doc_id")
    # docs 1/2 share exactly "b c d": one window each, covering 3 toks
    assert out.loc[1].tolist() == [3, 1, 3]
    assert out.loc[2].tolist() == [3, 1, 3]
    # doc 3 self-repeats: windows at starts 0,1,2 recur at 5,6,7 (the
    # wrap windows "s t p"/"t p q" are unique) -> 6 flagged windows
    # whose union [0,5)+[5,10) covers all 10 tokens
    assert out.loc[3].tolist() == [8, 6, 10]
    assert out.loc[4].tolist() == [0, 0, 0]


def test_exact_substring_gate_matches_oracle(ray_session):
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    t = w.exact_substring_stats(SF).to_pandas().reset_index(drop=True)
    o = con.sql(w.exact_substring_stats_sql()).df() \
        .reset_index(drop=True)[t.columns].astype("int64")
    assert t.astype("int64").equals(o)
    # the planted span really flags: every doc_id%5==0 doc has at least
    # span_A's interior windows and >= the span's token coverage
    span_a_words = len(w._SPAN_A.split(" "))
    marked = t[t.doc_id % 5 == 0]
    assert (marked["n_dup_windows"]
            >= span_a_words - w.SUBSTR_WINDOW + 1).all()
    assert (marked["dup_tokens"] >= span_a_words).all()


def test_domain_stats_rollup_and_blocklist(ray_session):
    import pyarrow.parquet as pq

    got = w.domain_stats(SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want = con.sql(w.domain_stats_sql()).df()
    assert got.equals(want.astype(got.dtypes.to_dict()))

    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert got["n_docs"].sum() == n_docs           # every doc lands once
    assert (got["n_canonical"] <= got["n_docs"]).all()
    assert got["host"].str.match(r"^ex\d+\.com$").all()
    assert set(got.loc[got["blocked"], "host"]) == set(w.DOMAIN_BLOCKLIST)
    # the synth spreads docs over 50 hosts; a 500-doc corpus hits all
    assert len(got) == 50


def test_link_pagerank_matches_oracle_and_dense_reference(ray_session):
    """Distributed scatter/gather PageRank == the SQL oracle == a dense
    single-process reference, bit-for-bit (integer-exact arithmetic is
    parallelism-independent by construction)."""
    import pyarrow.parquet as pq

    got = w.link_pagerank(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want = con.sql(w.link_pagerank_sql()).df().reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))

    # dense reference: full edge list + np.add.at gather per iteration
    n = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    ids = np.arange(n, dtype=np.int64)
    src, dst, odeg = w._synth_out_edges(ids, n)
    base = (w.PAGERANK_SCALE
            * (w.PAGERANK_DAMP_DEN - w.PAGERANK_DAMP_NUM)
            ) // w.PAGERANK_DAMP_DEN
    r = np.full(n, w.PAGERANK_SCALE, dtype=np.int64)
    for _ in range(w.PAGERANK_ITERS):
        contrib = (r[src] * w.PAGERANK_DAMP_NUM) \
            // (w.PAGERANK_DAMP_DEN * odeg)
        nxt = np.full(n, base, dtype=np.int64)
        np.add.at(nxt, dst, contrib)
        r = nxt
    assert got["doc_id"].to_numpy().tolist() == ids.tolist()
    assert got["rank_scaled"].to_numpy().tolist() == r.tolist()

    # graph/rank invariants: floor losses only ever shrink total mass;
    # zero-in-degree nodes sit exactly at the teleport base
    assert got["rank_scaled"].min() >= base
    assert got["rank_scaled"].sum() <= n * w.PAGERANK_SCALE
    sinks = np.setdiff1d(ids, np.unique(dst))
    assert sinks.size > 0  # the synth graph really has such nodes
    assert (got.set_index("doc_id").loc[sinks, "rank_scaled"]
            == base).all()


def test_anchor_text_agg_matches_oracle_and_edge_totals(ray_session):
    """Anchor-text aggregation == SQL oracle; totals tie out to the
    dense edge list (every anchored edge counted exactly once)."""
    import pyarrow.parquet as pq
    import re

    got = w.anchor_text_agg(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want = con.sql(w.anchor_text_agg_sql()).df().reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))

    # dense tie-out: n_links sums to the number of edges whose source
    # page has at least one word (all of them, in the synth corpus)
    tbl = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"])
    n = tbl.num_rows
    ids = np.arange(n, dtype=np.int64)
    src, dst, _ = w._synth_out_edges(ids, n)
    texts = tbl["text"].to_pylist()
    anchored = np.array([bool(re.search("[A-Za-z]", t or ""))
                         for t in texts])
    assert got["n_links"].sum() == int(anchored[src].sum())
    # every anchor term is a single lowercased word
    assert got["anchor_term"].str.fullmatch("[a-z]+").all()
    # per-target in-link totals match the dense in-degree restricted
    # to anchored sources
    import pandas as pd
    dense = pd.Series(dst[anchored[src]]).value_counts().sort_index()
    mine = got.groupby("target_doc_id")["n_links"].sum().sort_index()
    assert mine.equals(dense.rename_axis("target_doc_id")
                       .rename("n_links").astype("int64"))


def test_crawl_frontier_matches_oracle_and_politeness_invariants(
        ray_session):
    """Frontier == SQL oracle; per-host fetch_round is a dense 0..n-1
    permutation ordered by winner_doc_id; blocked hosts are absent."""
    got = w.crawl_frontier(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want = con.sql(w.crawl_frontier_sql()).df().reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))

    assert not got["host"].isin(w.DOMAIN_BLOCKLIST).any()
    for host, g in got.groupby("host"):
        assert g["fetch_round"].tolist() == list(range(len(g)))
        assert g["winner_doc_id"].is_monotonic_increasing
    # bucketing is an implementation knob: a different bucket count
    # gives the identical frontier
    alt = w.crawl_frontier(SF, num_buckets=3).to_pandas() \
        .reset_index(drop=True)
    assert alt.equals(got)


def test_host_graph_matches_oracle_and_edge_conservation(ray_session):
    """Host rollup == SQL oracle; link mass is conserved (sum n_links
    == total page-level edges) and endpoints are real synth hosts."""
    import pyarrow.parquet as pq

    got = w.host_graph(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want = con.sql(w.host_graph_sql()).df().reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))

    n = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    ids = np.arange(n, dtype=np.int64)
    src, _, _ = w._synth_out_edges(ids, n)
    assert got["n_links"].sum() == src.size
    hosts = {f"ex{k}.com" for k in range(w._N_SYNTH_HOSTS)}
    assert set(got["src_host"]) <= hosts and set(got["dst_host"]) <= hosts


def test_anchor_boosted_topk_matches_oracle_and_boost_matters(
        ray_session):
    """Anchor-boosted ranking == SQL oracle; every query returns a full
    K block with dense ranks; the anchor signal actually reorders the
    tf-only ranking for at least one query."""
    got = w.anchor_boosted_topk(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want = con.sql(w.anchor_boosted_topk_sql()).df() \
        .reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))

    assert len(got) == len(w.ANCHOR_BOOST_QUERIES) * w.ANCHOR_BOOST_K
    for q, g in got.groupby("query"):
        assert g["rank"].tolist() == list(range(1, w.ANCHOR_BOOST_K + 1))
        # total order: scores non-increasing, doc_id ascending on ties
        s = g["score"].tolist()
        assert s == sorted(s, reverse=True)

    changed = 0
    for q in w.ANCHOR_BOOST_QUERIES:
        terms = ", ".join(f"'{t}'" for t in q.split())
        tf_only = con.sql(f"""
            WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array(
                lower(text), '[^a-z0-9]+')) AS term FROM documents)
            SELECT doc_id FROM (
                SELECT doc_id, row_number() OVER (
                    ORDER BY count(*) DESC, doc_id) r
                FROM toks WHERE term IN ({terms}) GROUP BY doc_id
            ) WHERE r <= {w.ANCHOR_BOOST_K}
        """).df()["doc_id"].tolist()
        if got[got["query"] == q]["doc_id"].tolist() != tf_only:
            changed += 1
    assert changed > 0


def test_link_graph_ops_on_empty_corpus(ray_session, tmp_path):
    """Every link-graph operator returns a typed empty result on an
    empty corpus instead of dividing by a zero doc count."""
    import pyarrow.parquet as pq

    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string()),
        "lang": pa.array([], type=pa.string()),
        "source": pa.array([], type=pa.string()),
        "n_chars": pa.array([], type=pa.int64()),
    })
    pq.write_table(empty, str(tmp_path / "documents.parquet"))
    sf = str(tmp_path)
    for fn in (w.link_pagerank, w.anchor_text_agg, w.crawl_frontier,
               w.host_graph, w.anchor_boosted_topk):
        out = fn(sf)
        assert out.num_rows == 0, fn.__name__
        assert out.num_columns >= 2, fn.__name__


def test_link_indegree_hist_matches_oracle_and_mass(ray_session):
    """In-degree histogram == SQL oracle; pages sum to the corpus size
    and edge mass to the dense edge count; sinks (in_degree 0) exist."""
    import pyarrow.parquet as pq

    got = w.link_indegree_hist(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want = con.sql(w.link_indegree_hist_sql()).df().reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))

    n = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    ids = np.arange(n, dtype=np.int64)
    src, _, _ = w._synth_out_edges(ids, n)
    assert got["n_pages"].sum() == n
    assert (got["in_degree"] * got["n_pages"]).sum() == src.size
    assert got.loc[got["in_degree"] == 0, "n_pages"].sum() > 0


def test_window_hash_arrays_vs_scalar_reference():
    """The vectorized window keys are collision-equivalent to window
    STRINGS: equal keys ⟺ equal joined window text, across docs, with
    empty/null/short/multi-space texts and within-doc repeats."""
    import pyarrow as pa

    texts = [
        "a b c d e",
        "x b c d y",
        "p q r s t p q r s t",
        "u v",              # shorter than window
        "",                 # empty → one empty word
        None,               # null → as empty
        "a  b c d",         # double space → empty token inside
    ]
    window = 3
    H, win_doc, n_win, lens, starts, offs = w._window_hash_arrays(
        pa.array(texts, type=pa.string()), window)
    # enumerate the scalar reference windows in the same order
    ref_wins, ref_doc = [], []
    for d, txt in enumerate(texts):
        ws = w._doc_windows(txt, window)
        ref_wins += ws
        ref_doc += [d] * len(ws)
    assert win_doc.tolist() == ref_doc
    assert n_win.tolist() == [len(w._doc_windows(t, window))
                              for t in texts]
    # key equality must exactly mirror string equality
    seen: dict[int, str] = {}
    for h, s in zip(H.tolist(), ref_wins):
        if h in seen:
            assert seen[h] == s
        else:
            seen[h] = s
    # and distinct strings must get distinct keys here
    assert len(set(seen.values())) == len(seen)
    # starts index the flat word axis: window words match the split
    flat_words = []
    for txt in texts:
        flat_words += (txt or "").split(" ")
    for s, win_str in zip(starts.tolist(), ref_wins):
        assert " ".join(flat_words[s:s + window]) == win_str


def test_line_hash_arrays_vs_scalar_reference():
    """Line keys mirror line STRINGS across docs, including tail lines
    shorter than LINE_WORDS, empty/null texts, and char counts."""
    import pyarrow as pa

    texts = ["a b c d e f g h i j k l m",   # 10-word line + 3-word tail
             "a b c d e f g h i j",          # exactly one full line
             "k l",                          # single short line
             "", None,
             "a  b"]                         # double space → empty word
    (line_h, line_doc, n_lines, line_chars,
     word_doc, word_line, flat, lens) = w._line_hash_arrays(
        pa.array(texts, type=pa.string()))
    ref_lines, ref_doc = [], []
    for d, txt in enumerate(texts):
        ls = w._doc_lines(txt)
        ref_lines += ls
        ref_doc += [d] * len(ls)
    assert line_doc.tolist() == ref_doc
    assert n_lines.tolist() == [len(w._doc_lines(t)) for t in texts]
    assert line_chars.tolist() == [len(s) for s in ref_lines]
    seen = {}
    for h, s in zip(line_h.tolist(), ref_lines):
        assert seen.setdefault(h, s) == s
    assert len(set(seen.values())) == len(seen)
    # shared first line of texts[0] and texts[1] must collide on key
    assert line_h[0] == line_h[line_doc.index(1) if isinstance(
        line_doc, list) else int(np.flatnonzero(line_doc == 1)[0])]


def test_cdc_chunk_stats_planted_and_oracle(ray_session, tmp_path):
    """Planted corpus: a repeated paragraph dedups (distinct < chunks),
    the oracle agrees exactly, and the content-defined property holds —
    a word inserted at the front re-keys only the first chunk(s), so
    most chunks of the edited doc stay in the distinct set."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines import webops as W

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(50)]
    para = " ".join(rng.choice(words, size=120).tolist())
    other = " ".join(rng.choice(words, size=200).tolist())
    edited = "zzz " + para
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([para, para, other, edited], type=pa.string()),
        "lang": pa.array(["en", "en", "en", "en"], type=pa.string()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    got = W.cdc_chunk_stats(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{tmp_path}/documents.parquet'")
    want = con.execute(W.cdc_chunk_stats_sql()).df()
    assert got.values.tolist() == \
        want[got.columns].astype(got.dtypes).values.tolist()
    row = got.iloc[0]
    # doc1 duplicates doc0's chunks entirely; doc3 shares all but the
    # first chunk of doc0 (the inserted word only re-keys up to the
    # first boundary) -> heavy dedup
    assert row["distinct_chunks"] < row["n_chunks"]
    assert row["total_words"] == 120 + 120 + 200 + 121
    # edit-stability: per-doc chunk key sets via the oracle's string
    # identity — doc3 must share all doc0 chunks except its first
    per_doc = con.execute("""
        WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array(
                 lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr
             FROM documents),
        pos AS (SELECT doc_id, arr[i] AS term, i
                FROM arrs, unnest(generate_series(1, len(arr))) AS t(i)),
        cid AS (SELECT doc_id, term, i,
                coalesce(sum(CASE WHEN md5_number_lower(term) % 16 = 0
                             THEN 1 ELSE 0 END) OVER (
                    PARTITION BY doc_id ORDER BY i
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                    0) AS chunk FROM pos)
        SELECT doc_id, chunk, string_agg(term, ' ' ORDER BY i) AS ctext
        FROM cid GROUP BY doc_id, chunk ORDER BY doc_id, chunk""").df()
    c0 = set(per_doc[per_doc.doc_id == 0]["ctext"])
    c3 = set(per_doc[per_doc.doc_id == 3]["ctext"])
    assert len(c0 - c3) <= 1 and len(c3 - c0) <= 1


def test_docid_remap_oracle_bijection_order(ray_session, monkeypatch):
    """docID remap: oracle equivalence; new_id is a 0..n-1 permutation;
    urls are sorted in new_id order; the mapping is invariant to the
    sample-sort bucket count."""
    import duckdb
    import numpy as np

    from pdfsearch_ray.pipelines import webops as W

    sf = "/root/testdata/sf0.001"
    got = W.docid_remap(sf).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = con.execute(W.docid_remap_sql()).df()
    assert (got["doc_id"].to_numpy()
            == want["doc_id"].to_numpy().astype("int64")).all()
    assert (got["new_id"].to_numpy()
            == want["new_id"].to_numpy().astype("int64")).all()
    n = len(got)
    assert sorted(got["new_id"].tolist()) == list(range(n))
    # urls sorted in new_id order
    import pyarrow as pa

    urls = W._synth_urls(pa.table({
        "doc_id": pa.array(got["doc_id"].tolist(), type=pa.int64())
    }))["url"].to_pylist()
    by_new = [u for _, u in sorted(zip(got["new_id"].tolist(), urls))]
    assert by_new == sorted(by_new)
    # bucket-count invariance
    monkeypatch.setattr(W, "REMAP_BUCKETS", 3)
    got3 = W.docid_remap(sf).to_pandas()
    assert (got3["new_id"].to_numpy() == got["new_id"].to_numpy()).all()
