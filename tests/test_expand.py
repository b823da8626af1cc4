"""Fuzzy / prefix term expansion (pipelines/expand.py): the vectorized
Levenshtein<=1 kernel against a brute-force reference, the distributed
dictionary scan, and both gates value-checked against their DuckDB
oracles end-to-end."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _lev(a: str, b: str) -> int:
    # classic O(len a * len b) DP reference
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


def test_fuzzy1_mask_vs_brute():
    from pdfsearch_ray.pipelines.expand import fuzzy1_mask

    rng = np.random.default_rng(7)
    alpha = np.array(list("abcdez0"))
    vocab = np.array(sorted({
        "".join(rng.choice(alpha, size=rng.integers(1, 8)))
        for _ in range(600)
    }))
    for q in ("abc", "a", "zz", "deca", "abcdez", "qqqq", "e0d"):
        got = fuzzy1_mask(vocab, q)
        want = np.array([_lev(t, q) <= 1 for t in vocab])
        assert (got == want).all(), (q, vocab[got != want].tolist())


def test_fuzzy1_mask_edges():
    from pdfsearch_ray.pipelines.expand import fuzzy1_mask

    v = np.array(["part", "sort", "port", "pot", "porte", "pärt"])
    got = fuzzy1_mask(v, "port")
    # pärt is non-ASCII: declared unmatched (out of analyzer domain)
    assert got.tolist() == [True, True, True, True, True, False]
    assert fuzzy1_mask(np.empty(0, dtype=str), "x").size == 0
    assert not fuzzy1_mask(v, "").any()


def test_prefix_upper():
    from pdfsearch_ray.pipelines.expand import _prefix_upper

    assert _prefix_upper("ab") == "ac"
    assert _prefix_upper("s") == "t"
    # every string with the prefix sorts inside [p, upper)
    for p in ("s", "qu", "zz"):
        u = _prefix_upper(p)
        assert p < p + "zzz" < u


def test_expand_terms_scan(ray_session):
    from pdfsearch_ray.pipelines.expand import (
        expand_terms,
        simple_index_cached,
    )

    d = simple_index_cached(SF)
    exp = expand_terms(d, fuzzy=("port", "zzzq"), prefix=("s", "zz"))
    assert exp["port"] == ["part", "port", "sort"] or \
        exp["port"] == ["part", "sort"]  # "port" itself may not occur
    assert exp["zzzq"] == [] and exp["zz"] == []
    assert exp["s"] == sorted(t for t in exp["s"] if t.startswith("s"))
    assert {"scan", "slow", "small", "sort", "spark", "stream"} <= set(exp["s"])


def test_index_cache_reused(ray_session):
    from pdfsearch_ray.pipelines.expand import simple_index_cached

    d1 = simple_index_cached(SF)
    d2 = simple_index_cached(SF)
    assert d1 == d2  # same fingerprint => same layout, no rebuild


@pytest.mark.parametrize("which", ["fuzzy", "prefix"])
def test_gates_match_oracle(ray_session, which):
    import duckdb

    from pdfsearch_ray.pipelines import expand as E

    fn = E.fuzzy_topk if which == "fuzzy" else E.prefix_topk
    sql = E.fuzzy_topk_sql() if which == "fuzzy" else E.prefix_topk_sql()
    got = fn(SF).to_pandas().sort_values(["query", "rank"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(sql).df().sort_values(
        ["query", "rank"]).reset_index(drop=True)
    assert len(got) == len(want) and len(got) > 0
    assert (got["query"].values == want["query"].values).all()
    assert (got["doc_id"].values == want["doc_id"].values).all()
    assert (got["rank"].values == want["rank"].values).all()
    assert np.allclose(got["score"], want["score"], atol=1e-9)
    if which == "fuzzy":
        # the multi-expansion query is live: "port" hits docs containing
        # part OR sort, so some top hit must lack the literal query term
        assert (got["query"] == "port").any()


def test_wildcard_matches_oracle(ray_session):
    import duckdb

    from pdfsearch_ray.pipelines import expand as E

    got = E.wildcard_topk(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(E.wildcard_topk_sql()).df()
    assert len(got) == len(want) > 0
    assert (got["doc_id"].values == want["doc_id"].astype("int64").values).all()
    assert np.allclose(got["score"], want["score"], atol=1e-9)
    # dead infix drops out on both sides
    assert "zz" not in set(got["query"])


def test_wildcard_expansion_sets(ray_session):
    from pdfsearch_ray.pipelines.expand import (
        expand_terms_infix,
        simple_index_cached,
    )

    exp = expand_terms_infix(simple_index_cached(SF), ("ar", "ow", "zz"))
    assert exp["ar"] == ["part", "spark"]
    assert exp["ow"] == ["row", "slow", "window"]
    assert exp["zz"] == []


def test_prefix_range_filter_pushes_into_read(ray_session):
    """The [p, next(p)) range filter must reach the parquet scanner —
    a silently-dropped kwarg would leave correctness intact (the kernel
    re-applies starts_with) but kill the row-group pruning this gate's
    scale story depends on."""
    import os

    import pyarrow.compute as pc

    from pdfsearch_ray.functions.tables import read_parquet_nometa
    from pdfsearch_ray.pipelines.expand import (
        _prefix_upper,
        simple_index_cached,
    )

    d = simple_index_cached(SF)
    pdir = os.path.join(d, "postings")
    files = sorted(os.path.join(pdir, f) for f in os.listdir(pdir)
                   if f.endswith(".parquet"))
    full = read_parquet_nometa(files, columns=["term"]).count()
    flt = (pc.field("term") >= "s") & (pc.field("term") < _prefix_upper("s"))
    sub = read_parquet_nometa(files, columns=["term"], filter=flt)
    rows = sub.to_pandas()["term"]
    assert 0 < len(rows) < full
    assert rows.str.startswith("s").all()


def test_rm3_matches_oracle_and_expands(ray_session):
    import duckdb

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines import expand as E
    from pdfsearch_ray.pipelines.query import BM25Index

    got = E.rm3_topk(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(E.rm3_topk_sql()).df()
    assert len(got) == len(want) > 0
    assert (got["doc_id"].values == want["doc_id"].astype("int64").values).all()
    assert np.allclose(got["score"], want["score"], atol=1e-9)

    # the feedback loop is live: for at least one query the RM3 top-k
    # differs from plain BM25 over the original terms
    idx = BM25Index(E.simple_index_cached(SF))
    changed = False
    for q in E.RM3_QUERIES:
        terms = sorted(set(analyze_simple(q)))
        ids, sc = idx.score_terms(terms)
        sc = np.round(sc, 6)
        order = np.lexsort((ids.astype(np.int64), -sc))[:E.RM3_K]
        plain = ids[order].astype(np.int64).tolist()
        rm3 = got.loc[got["query"] == q, "doc_id"].tolist()
        if plain != rm3:
            changed = True
    assert changed


def test_compound_split_matches_oracle(ray_session):
    import duckdb

    from pdfsearch_ray.pipelines import expand as E

    got = E.compound_split_topk(SF).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(E.compound_split_sql()).df()
    assert len(got) == len(want) > 0
    assert (got["doc_id"].values == want["doc_id"].astype("int64").values).all()
    assert np.allclose(got["score"], want["score"], atol=1e-9)
    assert "zzznope" not in set(got["query"])  # unsplittable drops out


def test_dict_membership(ray_session):
    from pdfsearch_ray.pipelines.expand import (
        dict_membership,
        simple_index_cached,
    )

    d = simple_index_cached(SF)
    got = dict_membership(d, ("fast", "scan", "notaword", "big"))
    assert got == {"fast", "scan", "big"}


def test_regexp_and_range_match_oracles(ray_session):
    import duckdb

    from pdfsearch_ray.pipelines import expand as E

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    for fn, sql in ((E.regexp_topk, E.regexp_topk_sql()),
                    (E.term_range_topk, E.term_range_topk_sql())):
        got = fn(SF).to_pandas().reset_index(drop=True)
        want = con.execute(sql).df()
        assert len(got) == len(want) > 0, fn.__name__
        assert (got["query"].astype(str).values ==
                want["query"].astype(str).values).all()
        assert (got["doc_id"].values ==
                want["doc_id"].astype("int64").values).all()
        assert np.allclose(got["score"], want["score"], atol=1e-9)


def test_regexp_is_whole_term_anchored(ray_session):
    """The pattern must match the ENTIRE term (bleve/Lucene RegexpQuery):
    'u' alone expands to nothing even though many terms CONTAIN 'u',
    and the alternation expands to exactly its three members."""
    from pdfsearch_ray.pipelines.expand import (
        expand_terms_regex,
        simple_index_cached,
    )

    d = simple_index_cached(SF)
    exp = expand_terms_regex(d, ("u", "s(mall|low|ort)", "r.w"))
    assert exp["u"] == []
    assert exp["s(mall|low|ort)"] == ["slow", "small", "sort"]
    assert exp["r.w"] == ["row"]


def test_term_range_is_dictionary_slice(ray_session):
    """Range expansion equals the sorted dictionary slice [lo, hi) —
    cross-checked against the full unfiltered dictionary scan."""
    from pdfsearch_ray.pipelines.expand import (
        expand_terms_range,
        expand_terms_infix,
        simple_index_cached,
        _range_label,
    )

    d = simple_index_cached(SF)
    # the full dictionary via the infix scan with an empty infix
    vocab = sorted(expand_terms_infix(d, ("",))[""])
    assert len(vocab) > 10
    for lo, hi in (("m", "p"), ("a", "c"), ("zza", "zzb")):
        got = expand_terms_range(d, ((lo, hi),))[_range_label(lo, hi)]
        assert got == [t for t in vocab if lo <= t < hi], (lo, hi)


def test_complete_prefix_oracle_and_ranks(ray_session):
    """Autocomplete gate: oracle equivalence at sf0.001; ranks are
    contiguous per prefix under (df desc, term asc); every completion
    starts with its prefix; the no-match prefix is absent."""
    import duckdb

    from pdfsearch_ray.pipelines.expand import (COMPLETE_K,
                                                complete_prefix,
                                                complete_prefix_sql)

    sf = "/root/testdata/sf0.001"
    t = complete_prefix(sf).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    o = con.execute(complete_prefix_sql()).fetchdf()
    t2 = t.sort_values(["prefix", "rank"]).reset_index(drop=True)
    o2 = o[t2.columns].sort_values(["prefix", "rank"]).reset_index(drop=True)
    assert len(t2) == len(o2) and len(t2) > 0
    for c in t2.columns:
        assert (t2[c].to_numpy() == o2[c].to_numpy()).all(), c
    assert "zz" not in set(t["prefix"])
    for p, g in t.groupby("prefix"):
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        assert len(g) <= COMPLETE_K
        assert all(term.startswith(p) for term in g["term"])
        keys = list(zip(-g["df"], g["term"]))
        assert keys == sorted(keys)


@pytest.fixture(scope="module")
def zero_token_sf(tmp_path_factory):
    """Planted corpus with no ``lang`` column: an empty row and a
    punctuation-only row hold no token (so the index's N, the docs with
    at least one token, is 2 below the row count), and ``data`` is in
    every doc that has a token."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = [
        "data stream window merge",
        "",
        "... !!! ,,, --",
        "data fast scan sort data",
        "data dup window table filter",
        "Data, DATA; data-stream! stream",
        "data scan merge dup dup table",
        "data window filter sort stream fast",
        "data",
    ]
    d = str(tmp_path_factory.mktemp("zero_tok_sf"))
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
    }), os.path.join(d, "documents.parquet"))
    return d


@pytest.mark.parametrize("gate", ["bm25_topk", "dfr_pl2_topk",
                                  "lm_dirichlet_topk", "term_df",
                                  "top_terms", "index_stats"])
def test_index_stat_gates_match_oracle_on_zero_token_docs(
        ray_session, zero_token_sf, gate):
    """The gates that read corpus statistics from the shared simple
    index equal their DuckDB oracles on a corpus whose N differs from
    its row count and that has no ``lang`` column."""
    import duckdb

    import __ray_entry__ as entry

    got = entry.queries()[gate](zero_token_sf).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"'{zero_token_sf}/documents.parquet'")
    want = con.execute(entry.oracle_sql()[gate]).fetchdf()
    assert len(got) > 0
    assert sorted(got.columns) == sorted(want.columns)
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    assert len(g) == len(w)
    for c in cols:
        assert (g[c].dtype.kind == "f") == (w[c].dtype.kind == "f"), c
        if np.issubdtype(w[c].dtype, np.floating):
            assert np.allclose(g[c].astype(float), w[c], rtol=0, atol=1e-9), c
        else:
            assert g[c].astype(str).tolist() == w[c].astype(str).tolist(), c
