"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in pdfsearch_ray) calls ``ray.init``/``ray.shutdown``.

``queries()`` keys with a matching ``oracle_sql()`` entry are verified by
the driver against DuckDB at sf0.01 (row-count + schema + value-hash).
158 of 160 queries carry an oracle (round-5 close-out; the 2 rows-only
entries are the media tensor pipelines) — including BOTH real engine
paths:
``fulltext_topk_simple`` (the SQL-reproducible ``simple`` analyzer) and,
since round 3, ``fulltext_topk`` — the FULL ``en`` chain, whose oracle
inlines the vocabulary→term mapping produced by the engine's own
analyzer at generation time (the ann_ivf centroid precedent) and
recomputes tokenization/stats/BM25 from raw text.  The two rows-only
entries are the media tensor pipelines (``media_features``,
``media_features_real``), pinned by golden pytest fixtures.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship: build the en-chain BM25 index over sf0.001 documents and
    answer the reference query set; returns the result table."""
    import pyarrow as pa

    from pdfsearch_ray.functions.spill import spill_dir
    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    with spill_dir("pdfsearch_entry_") as index_dir:
        build_index(
            f"{SF_SMOKE}/documents.parquet", index_dir,
            analyzer="en", lang_col="lang", num_buckets=16,
        )
        idx = BM25Index(index_dir)
        return pa.concat_tables([
            idx.search_to_table(q, max_results=10)
            for q in ("data processing pipeline", "stream window",
                      "information")
        ])


def _windowed_event_counts(sf_dir: str):
    from pdfsearch_ray.pipelines.events import windowed_event_counts

    return windowed_event_counts(sf_dir)


def _user_sessions(sf_dir: str):
    from pdfsearch_ray.pipelines.events import user_sessions

    return user_sessions(sf_dir)


def _funnel_counts(sf_dir: str):
    from pdfsearch_ray.pipelines.events import funnel_counts

    return funnel_counts(sf_dir)


def _events_mod():
    from pdfsearch_ray.pipelines import events

    return events


def _asof_join_events(sf_dir: str):
    from pdfsearch_ray.pipelines.events import asof_join_events

    return asof_join_events(sf_dir)


def _sliding_event_counts(sf_dir: str):
    from pdfsearch_ray.pipelines.events import sliding_event_counts

    return sliding_event_counts(sf_dir)


def _sample_rate():
    from pdfsearch_ray.pipelines.queries import SAMPLE_RATE

    return SAMPLE_RATE


def _top_per_lang_k():
    from pdfsearch_ray.pipelines.queries import TOP_PER_LANG_K

    return TOP_PER_LANG_K


def _ft_simple_queries():
    from pdfsearch_ray.pipelines.queries import FT_SIMPLE_QUERIES

    return FT_SIMPLE_QUERIES


def _ft_simple_k():
    from pdfsearch_ray.pipelines.queries import FT_SIMPLE_K

    return FT_SIMPLE_K


def _webops():
    from pdfsearch_ray.pipelines import webops

    return webops


def _sketches():
    from pdfsearch_ray.pipelines import sketches

    return sketches


def _relational():
    from pdfsearch_ray.pipelines import relational

    return relational


def _expand():
    from pdfsearch_ray.pipelines import expand

    return expand


def _diversify():
    from pdfsearch_ray.pipelines import diversify

    return diversify


def _fields():
    from pdfsearch_ray.pipelines import fields

    return fields


def _prune():
    from pdfsearch_ray.pipelines import prune

    return prune


def _tiering():
    from pdfsearch_ray.pipelines import tiering

    return tiering


def _vsm():
    from pdfsearch_ray.pipelines import vsm

    return vsm


def _dfr():
    from pdfsearch_ray.pipelines import dfr

    return dfr


def _geo():
    from pdfsearch_ray.pipelines import geo

    return geo


def _blockjoin():
    from pdfsearch_ray.pipelines import blockjoin

    return blockjoin


def _snippets():
    from pdfsearch_ray.pipelines import snippets

    return snippets


def _qpp():
    from pdfsearch_ray.pipelines import qpp

    return qpp


def _densefb():
    from pdfsearch_ray.pipelines import densefb

    return densefb


def _ltr():
    from pdfsearch_ray.pipelines import ltr

    return ltr


def _nextword():
    from pdfsearch_ray.pipelines import nextword

    return nextword


def _querystring():
    from pdfsearch_ray.pipelines import querystring

    return querystring


def _boolquery():
    from pdfsearch_ray.pipelines import boolquery

    return boolquery


def _scorequery():
    from pdfsearch_ray.pipelines import scorequery

    return scorequery


def _merge():
    from pdfsearch_ray.pipelines import merge

    return merge


def _ireval():
    from pdfsearch_ray.pipelines import ireval

    return ireval


def _searchx():
    from pdfsearch_ray.pipelines import searchx

    return searchx


def _hybrid():
    from pdfsearch_ray.pipelines import hybrid

    return hybrid


def _percolate():
    from pdfsearch_ray.pipelines import percolate

    return percolate


def _sigterms():
    from pdfsearch_ray.pipelines import sigterms

    return sigterms


def _bpe():
    from pdfsearch_ray.pipelines import bpe

    return bpe


def _lm_surprisal(sf_dir: str):
    from pdfsearch_ray.pipelines.textstats import lm_surprisal

    return lm_surprisal(sf_dir)


def _ccnet_buckets(sf_dir: str):
    from pdfsearch_ray.pipelines.textstats import ccnet_buckets

    return ccnet_buckets(sf_dir)


def _dsir_weights(sf_dir: str):
    from pdfsearch_ray.pipelines.textstats import dsir_weights

    return dsir_weights(sf_dir)


def _quality_signals(sf_dir: str):
    from pdfsearch_ray.pipelines.textstats import quality_signals

    return quality_signals(sf_dir)


def _quality_signals_sql():
    from pdfsearch_ray.pipelines.textstats import quality_signals_sql

    return quality_signals_sql()


def _unit_topk_oracle():
    from pdfsearch_ray.pipelines import oracles as _oracles
    from pdfsearch_ray.pipelines.queries import (
        UNIT_K,
        UNIT_QUERIES,
        UNIT_SIZE,
        UNIT_STRIDE,
    )

    return _oracles.unit_topk_sql(UNIT_QUERIES, size=UNIT_SIZE,
                                  stride=UNIT_STRIDE, k=UNIT_K)


def queries() -> dict[str, Callable[[str], Any]]:
    from pdfsearch_ray.pipelines import queries as q

    # A consumer may check only the first 50 keys: the flagship search,
    # index-lifecycle and serving gates come first.
    return {
        "term_df": q.term_df,
        "top_terms": q.top_terms,
        "doc_token_stats": q.doc_token_stats,
        "exact_dedup": q.exact_dedup,
        "quality_scores": q.quality_scores,
        "bm25_topk": q.bm25_topk,
        "lang_distribution": q.lang_distribution,
        "ann_cosine_topk": q.ann_cosine_topk,
        "fulltext_topk": q.fulltext_topk,
        "fulltext_topk_simple": q.fulltext_topk_simple,
        "unit_topk": q.unit_topk,
        "merged_index_topk": _merge().merged_index_topk,
        "compacted_index_topk": _merge().compacted_index_topk,
        "federated_topk": _merge().federated_topk,
        "shard_selected_topk": _merge().shard_selected_topk,
        "search_after": _searchx().search_after,
        "snapshot_diff": _webops().snapshot_diff,
        "fuzzy_topk": _expand().fuzzy_topk,
        "prefix_topk": _expand().prefix_topk,
        "wildcard_topk": _expand().wildcard_topk,
        "regexp_topk": _expand().regexp_topk,
        "term_range_topk": _expand().term_range_topk,
        "rm3_topk": _expand().rm3_topk,
        "compound_split_topk": _expand().compound_split_topk,
        "bm25_and_topk": _boolquery().bm25_and_topk,
        "bm25_not_topk": _boolquery().bm25_not_topk,
        "phrase_match_counts": _boolquery().phrase_match_counts,
        "phrase_topk": _boolquery().phrase_topk,
        "near_match_counts": _boolquery().near_match_counts,
        "sloppy_phrase_topk": _boolquery().sloppy_phrase_topk,
        "phrase_prefix_topk": _boolquery().phrase_prefix_topk,
        "ann_filtered": q.ann_filtered,
        "champion_topk": _prune().champion_topk,
        "tiered_topk": _tiering().tiered_topk,
        "impact_topk": _tiering().impact_topk,
        "vsm_lnc_ltc_topk": _vsm().vsm_lnc_ltc_topk,
        "lm_dirichlet_topk": _vsm().lm_dirichlet_topk,
        "dfr_pl2_topk": _dfr().dfr_pl2_topk,
        "blockjoin_topk": _blockjoin().blockjoin_topk,
        "snippet_windows": _snippets().snippet_windows,
        "rocchio_dense_topk": _densefb().rocchio_dense_topk,
        "ltr_rerank_topk": _ltr().ltr_rerank_topk,
        "ordered_span_topk": _boolquery().ordered_span_topk,
        "span_not_topk": _boolquery().span_not_topk,
        "nextword_phrase_topk": _nextword().nextword_phrase_topk,
        "querystring_topk": _querystring().querystring_topk,
        "champion_safety": _prune().champion_safety,
        "bm25f_topk": _fields().bm25f_topk,
        "bm25_msm_topk": _scorequery().bm25_msm_topk,
        "dismax_topk": _scorequery().dismax_topk,
        "boosted_topk": _scorequery().boosted_topk,
        "synonym_topk": _scorequery().synonym_topk,
        "recency_boost_topk": _scorequery().recency_boost_topk,
        "quality_signals": _quality_signals,
        "geo_knn": _geo().geo_knn,
        "geo_grid": _geo().geo_grid,
        "ndcg_eval": _ireval().ndcg_eval,
        "query_clarity": _qpp().query_clarity,
        "quality_classifier": __import__(
            "pdfsearch_ray.pipelines.textstats",
            fromlist=["quality_classifier"]).quality_classifier,
        "routed_lang_topk": _merge().routed_lang_topk,
        "hybrid_rrf_topk": _hybrid().hybrid_rrf_topk,
        "hybrid_interp_topk": _hybrid().hybrid_interp_topk,
        "hybrid_combmnz_topk": _hybrid().hybrid_combmnz_topk,
        "mmr_diversify": _diversify().mmr_diversify,
        "percolate_matches": _percolate().percolate_matches,
        "significant_terms": _sigterms().significant_terms,
        "complete_prefix": _expand().complete_prefix,
        "ir_eval": _ireval().ir_eval,
        "facet_counts": _searchx().facet_counts,
        "mlt_topk": _searchx().mlt_topk,
        "filtered_topk": _searchx().filtered_topk,
        "field_sorted_topk": _searchx().field_sorted_topk,
        "spell_suggest": _searchx().spell_suggest,
        "related_terms": _searchx().related_terms,
        "collapse_topk": _searchx().collapse_topk,
        "range_facets": _searchx().range_facets,
        "explain_scores": _searchx().explain_scores,
        "index_stats": _searchx().index_stats,
        "term_vectors": _searchx().term_vectors,
        "phrase_suggest": _searchx().phrase_suggest,
        "link_hits": _webops().link_hits,
        "url_dedup": _webops().url_dedup,
        "docid_remap": _webops().docid_remap,
        "cdc_chunk_stats": _webops().cdc_chunk_stats,
        "unimax_mix": q.unimax_mix,
        "shard_layout": q.shard_layout,
        "domain_stats": _webops().domain_stats,
        "pii_scrub_stats": _webops().pii_scrub_stats,
        "decontaminate": _webops().decontaminate,
        "vocab_hll_sketch": _sketches().vocab_hll_sketch,
        "term_cms_sketch": _sketches().term_cms_sketch,
        "line_dedup_stats": _webops().line_dedup_stats,
        "bloom_snapshot_dedup": _sketches().bloom_snapshot_dedup,
        "lm_surprisal": _lm_surprisal,
        "ccnet_buckets": _ccnet_buckets,
        "dsir_weights": _dsir_weights,
        "exact_substring_stats": _webops().exact_substring_stats,
        "ngram_jaccard": q.ngram_jaccard,
        "minhash_dedup": q.minhash_dedup,
        "simhash_fps": q.simhash_fps,
        "langid_pred": q.langid_pred,
        "token_count_stats": q.token_count_stats,
        "doc_fingerprints": q.doc_fingerprints,
        "ann_lsh": q.ann_lsh,
        "media_features": q.media_features,
        "media_inventory": q.media_inventory,
        "ws_token_counts": q.ws_token_counts,
        "ann_ivf": q.ann_ivf,
        "embedding_dup_pairs": q.embedding_dup_pairs,
        "semantic_dedup": q.semantic_dedup,
        "embedding_dup_pairs_lsh": q.embedding_dup_pairs_lsh,
        "windowed_event_counts": _windowed_event_counts,
        "user_sessions": _user_sessions,
        "funnel_counts": _funnel_counts,
        "asof_join_events": _asof_join_events,
        "sliding_event_counts": _sliding_event_counts,
        "corpus_sample": q.corpus_sample,
        "top_docs_per_lang": q.top_docs_per_lang,
        "doc_length_quantiles": q.doc_length_quantiles,
        "pricing_summary": _pricing_summary,
        "orders_by_nation": _orders_by_nation,
        "region_part_revenue": _region_part_revenue,
        "revenue_rollup": _relational().revenue_rollup,
        "running_totals": _relational().customer_running_totals,
        "anti_join_customers": _relational().silent_customers,
        "weighted_sample": q.weighted_sample,
        "pmi_collocations": q.pmi_collocations,
        "daily_active_users": _events_mod().daily_active_users,
        "event_transitions": _events_mod().event_transitions,
        "group_quantiles": _relational().group_quantiles,
        "above_avg_orders": _relational().above_avg_histogram,
        "revenue_cube": _relational().revenue_cube,
        "order_value_histogram": _relational().order_value_histogram,
        "order_value_pct_ranks": _relational().order_value_pct_ranks,
        "value_matrix_stats": _relational().value_matrix_stats,
        "daily_event_deltas": _events_mod().daily_event_deltas,
        "geo_bounds": _geo().geo_bounds,
        "composite_page2": q.composite_page2,
        "rare_terms": q.rare_terms,
        "query_adjacency": _searchx().query_adjacency,
        "basket_pairs": _relational().basket_pairs,
        "chunk_dedup": q.chunk_dedup_docs,
        "source_overlap": q.source_overlap_report,
        # 13-gram GPT-3-style decontamination — distinct key from the
        # 8-gram webops "decontaminate" gate (a duplicate dict key here
        # silently shadowed that gate until round-5 session 5)
        "decontaminate_13g": q.decontaminate_report,
        "dedup_keep_best": q.dedup_keep_best,
        "gopher_quality": q.gopher_quality_flags,
        "stratified_sample": q.stratified_sample,
        "repetition_stats": q.repetition_stats,
        "bigram_counts": q.bigram_counts,
        "doc_chunks": q.doc_chunks,
        "tfidf_topk": q.tfidf_topk,
        "media_features_real": q.media_features_real,
        "media_features_meta": q.media_features_meta,
        "media_features_real_meta": q.media_features_real_meta,
        "event_props_stats": q.event_props_stats,
        "knn_label_accuracy": q.knn_label_accuracy,
        "source_mix": q.source_mix,
        "temperature_mix": q.temperature_mix,
        "sequence_pack": q.sequence_pack,
        "curated_chunks": q.curated_chunks,
        "link_pagerank": _webops().link_pagerank,
        "anchor_text_agg": _webops().anchor_text_agg,
        "crawl_frontier": _webops().crawl_frontier,
        "host_graph": _webops().host_graph,
        "link_components": _webops().link_components,
        "anchor_boosted_topk": _webops().anchor_boosted_topk,
        "link_indegree_hist": _webops().link_indegree_hist,
        "bpe_merges": _bpe().bpe_merges,
        "bpe_token_stats": _bpe().bpe_token_stats,
    }


def _pricing_summary(sf_dir: str):
    from pdfsearch_ray.pipelines.relational import pricing_summary

    return pricing_summary(sf_dir)


def _orders_by_nation(sf_dir: str):
    from pdfsearch_ray.pipelines.relational import orders_by_nation

    return orders_by_nation(sf_dir)


def _region_part_revenue(sf_dir: str):
    from pdfsearch_ray.pipelines.relational import region_part_revenue

    return region_part_revenue(sf_dir)


def oracle_sql() -> dict[str, str]:
    from pdfsearch_ray.pipelines import oracles as _oracles
    from pdfsearch_ray.pipelines import queries as q
    from pdfsearch_ray.pipelines import curate as _curate
    from pdfsearch_ray.stages.multimodal import MediaFeatures

    _N_MEDIA_FEATURES = MediaFeatures.N_FEATURES
    from pdfsearch_ray.pipelines.queries import (
        ANN_K,
        ANN_NUM_QUERIES,
        EMB_DUP_THRESHOLD,
        BM25_B,
        BM25_K,
        BM25_K1,
        BM25_QUERY_TERMS,
        JACCARD_THRESHOLD,
        QUALITY_STOPWORDS,
    )

    toks = (
        "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        "FROM documents"
    )
    stop_list = ", ".join(f"'{w}'" for w in QUALITY_STOPWORDS)
    qvals = ", ".join(f"('{t}')" for t in BM25_QUERY_TERMS)

    # The IVF oracle inlines centroids from the shared deterministic
    # k-means, which needs the sf0.01 embeddings at generation time (the
    # driver's correctness gate runs at sf0.01); degrade to a rows-only
    # check if that table is unavailable in this process.
    extra: dict[str, str] = {}
    try:
        extra["ann_ivf"] = _oracles.ann_ivf_sql(
            "/root/testdata/sf0.01", num_queries=ANN_NUM_QUERIES, k=ANN_K)
    except Exception:
        pass
    # en-chain oracle: inlines the vocabulary->term mapping produced by
    # the engine's own analyzer at generation time (ann_ivf precedent);
    # degrade to rows-only if the sf0.01 table is unavailable here
    try:
        extra["fulltext_topk"] = _oracles.fulltext_en_sql(
            "/root/testdata/sf0.01", q.FT_EN_QUERIES, k=q.FT_EN_K)
    except Exception:
        pass
    # bucketed 1-NN oracle shares the deterministic IVF centroids with
    # the pipeline (same precedent); rows-only if unavailable here
    try:
        extra["knn_label_accuracy"] = _oracles.knn_ivf_label_accuracy_sql(
            "/root/testdata/sf0.01", n_clusters=q.KNN_N_CLUSTERS,
            n_probe=q.KNN_N_PROBE)
    except Exception:
        pass
    # SemDeDup oracle shares the same deterministic centroids; DuckDB
    # recomputes assignment, in-cluster rank and the keep rule
    try:
        extra["semantic_dedup"] = _oracles.semantic_dedup_sql(
            "/root/testdata/sf0.01", eps=q.SEMDEDUP_EPS,
            n_clusters=q.SEMDEDUP_N_CLUSTERS)
    except Exception:
        pass

    return {
        **extra,
        "term_df": f"""
            WITH toks AS ({toks})
            SELECT term, count(DISTINCT doc_id) AS df
            FROM toks WHERE term <> '' GROUP BY term
        """,
        "top_terms": f"""
            WITH toks AS ({toks})
            SELECT term, count(*) AS tf
            FROM toks WHERE term <> '' GROUP BY term
            ORDER BY tf DESC, term ASC LIMIT 100
        """,
        "doc_token_stats": f"""
            WITH toks AS ({toks})
            SELECT doc_id, count(*) AS n_tokens, count(DISTINCT term) AS n_unique
            FROM toks WHERE term <> '' GROUP BY doc_id
        """,
        "exact_dedup": """
            SELECT md5(text) AS hash, min(doc_id) AS doc_id, count(*) AS n_dups
            FROM documents GROUP BY md5(text)
        """,
        "quality_scores": f"""
            WITH toks AS ({toks})
            SELECT doc_id, count(*) AS n_tokens,
                   count(*) FILTER (WHERE term IN ({stop_list})) AS n_stop,
                   max(length(term)) AS max_token_len
            FROM toks WHERE term <> '' GROUP BY doc_id
        """,
        "bm25_topk": f"""
            WITH toks AS ({toks}),
            tok AS (SELECT * FROM toks WHERE term <> ''),
            dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
            stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
            q(term) AS (VALUES {qvals}),
            tfs AS (
                SELECT t.doc_id, t.term, count(*) AS tf
                FROM tok t JOIN q USING (term) GROUP BY t.doc_id, t.term
            ),
            dfs AS (SELECT term, count(*) AS df FROM tfs GROUP BY term),
            scores AS (
                SELECT tfs.doc_id,
                       sum(ln(1 + (stats.n - dfs.df + 0.5) / (dfs.df + 0.5))
                           * tfs.tf / (tfs.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * dl.dl / stats.avgdl))
                       ) AS s
                FROM tfs
                CROSS JOIN stats
                JOIN dfs ON tfs.term = dfs.term
                JOIN dl ON tfs.doc_id = dl.doc_id
                GROUP BY tfs.doc_id
            )
            SELECT doc_id, round(s, 6) AS score,
                   row_number() OVER (ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM scores
            ORDER BY round(s, 6) DESC, doc_id ASC
            LIMIT {BM25_K}
        """,
        "lang_distribution": """
            SELECT lang, count(*) AS n FROM documents GROUP BY lang
        """,
        "ngram_jaccard": f"""
            WITH arr AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                   x -> x <> '') AS ts
                FROM documents
            ),
            toks AS (
                SELECT doc_id, generate_subscripts(ts, 1) AS i, unnest(ts) AS term
                FROM arr
            ),
            sh AS (
                SELECT DISTINCT a.doc_id,
                       a.term || ' ' || b.term || ' ' || c.term AS shingle
                FROM toks a
                JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                JOIN toks c ON a.doc_id = c.doc_id AND c.i = a.i + 2
            ),
            cnt AS (SELECT doc_id, count(*) AS n_sh FROM sh GROUP BY doc_id),
            inter AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT doc_a, doc_b,
                   round(i * 1.0 / (ca.n_sh + cb.n_sh - i), 6) AS jaccard
            FROM inter
            JOIN cnt ca ON doc_a = ca.doc_id
            JOIN cnt cb ON doc_b = cb.doc_id
            WHERE i * 1.0 / (ca.n_sh + cb.n_sh - i) >= {JACCARD_THRESHOLD}
            ORDER BY doc_a, doc_b
        """,
        "ann_cosine_topk": f"""
            WITH qe AS (
                SELECT vec_id AS query_id,
                       generate_subscripts(embedding, 1) AS i,
                       CAST(unnest(embedding) AS DOUBLE) AS v
                FROM embeddings WHERE vec_id < {ANN_NUM_QUERIES}
            ),
            be AS (
                SELECT vec_id,
                       generate_subscripts(embedding, 1) AS i,
                       CAST(unnest(embedding) AS DOUBLE) AS v
                FROM embeddings WHERE vec_id >= {ANN_NUM_QUERIES}
            ),
            qn AS (SELECT query_id, sqrt(sum(v * v)) AS nrm FROM qe GROUP BY query_id),
            bn AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id),
            dots AS (
                SELECT qe.query_id, be.vec_id, sum(qe.v * be.v) AS dot
                FROM qe JOIN be ON qe.i = be.i
                GROUP BY qe.query_id, be.vec_id
            ),
            sims AS (
                SELECT d.query_id, d.vec_id, d.dot / (qn.nrm * bn.nrm) AS s
                FROM dots d
                JOIN qn ON d.query_id = qn.query_id
                JOIN bn ON d.vec_id = bn.vec_id
            ),
            ranked AS (
                SELECT query_id, vec_id, round(s, 6) AS sim,
                       row_number() OVER (
                           PARTITION BY query_id
                           ORDER BY round(s, 6) DESC, vec_id ASC
                       ) AS rank
                FROM sims
            )
            SELECT query_id, vec_id, sim, rank
            FROM ranked WHERE rank <= {ANN_K}
            ORDER BY query_id, rank
        """,
        # the ENGINE path (build → codec → shuffle → decode → BM25)
        # under the hash gate: DuckDB recomputes BM25 from raw text
        "fulltext_topk_simple": _oracles.fulltext_simple_sql(
            _ft_simple_queries(), k=_ft_simple_k()),
        # N:1 unit-per-document engine path (round 5): doc→unit fan-out,
        # composite IDs and unit-granularity BM25 all recomputed by
        # DuckDB from raw text
        "unit_topk": _unit_topk_oracle(),
        # fuzzy / prefix query rewrite (round 5): DuckDB recomputes the
        # term dictionary, the levenshtein<=1 / LIKE rewrite and full
        # BM25 over the expanded disjunction from raw text
        "fuzzy_topk": _expand().fuzzy_topk_sql(),
        "prefix_topk": _expand().prefix_topk_sql(),
        "wildcard_topk": _expand().wildcard_topk_sql(),
        # whole-term regexp (shared RE2 dialect) and [lo,hi) term range
        "regexp_topk": _expand().regexp_topk_sql(),
        "term_range_topk": _expand().term_range_topk_sql(),
        # RM3 pseudo-relevance feedback: DuckDB replays BOTH passes
        # (top-F cut, feedback counts, top-E expansion, rescore)
        "rm3_topk": _expand().rm3_topk_sql(),
        # fused one-pass quality-signal export (Dolma attributes shape)
        "quality_signals": _quality_signals_sql(),
        # decompounding rewrite: dictionary self-join on concatenation
        "compound_split_topk": _expand().compound_split_sql(),
        # conjunctive BM25 (the reference's commented-out AND operator,
        # search_pdfs.go:176) and the positional phrase path: DuckDB
        # restates AND as HAVING-all-terms and re-derives token
        # ordinality from raw text
        "bm25_and_topk": _boolquery().bm25_and_sql(),
        "bm25_not_topk": _boolquery().bm25_not_sql(),
        "phrase_match_counts": _boolquery().phrase_match_sql(),
        # RANKED PhraseQuery: per-doc phrase tf from the positions
        # store scored with BM25 (idf from phrase df); DuckDB re-derives
        # ordinality, tf, df, stats and the scoring algebra from text
        "phrase_topk": _boolquery().phrase_topk_sql(),
        "near_match_counts": _boolquery().near_match_sql(),
        # proximity-RANKED phrase (Lucene sloppy PhraseQuery): the
        # within-window pair join, exact integer 1/d distance weights
        # and the BM25-over-sloppy-tf algebra all recomputed from text
        "sloppy_phrase_topk": _boolquery().sloppy_phrase_sql(),
        # champion-list static pruning: only each term's R highest-tf
        # postings score (unpruned df/N/avgdl for idf); DuckDB replays
        # the champion rank window + the BM25 algebra from raw text
        "champion_topk": _prune().champion_topk_sql(),
        # tiered index (IIR §7.2.1): DuckDB replays the tf-threshold
        # tiers, the cascade decision (first tier with >= K candidate
        # docs) and the BM25 chain over the stopped cascade's postings
        "tiered_topk": _tiering().tiered_sql(),
        # impact-ordered index (Anh & Moffat 2006): per-posting centi-
        # quantized idf*wdl impacts, exact INTEGER per-doc sums
        "impact_topk": _tiering().impact_sql(),
        # SMART lnc.ltc cosine (IIR §6.4): per-doc log-tf norm over the
        # WHOLE vocab, ln(N/df) query weights, cosine algebra replayed
        "vsm_lnc_ltc_topk": _vsm().vsm_sql(),
        # LM Dirichlet query likelihood (Zhai & Lafferty 2001): the
        # third scoring family; cf/T collection LM + the per-matched-
        # term Dirichlet score replayed from raw text
        "lm_dirichlet_topk": _vsm().lm_dirichlet_sql(),
        # DFR PL2 (Amati & van Rijsbergen 2002): the fourth scoring
        # family — Poisson + Laplace + length norm 2; log2 spelled
        # ln(x)*(1/ln 2) on both sides, cf/df/N/avgdl from raw text
        "dfr_pl2_topk": _dfr().dfr_pl2_sql(),
        # geo k-NN: splitmix64 coordinate synth in HUGEINT limbs,
        # integer wraparound squared distance, radius + ROW_NUMBER
        "geo_knn": _geo().geo_knn_sql(),
        # geo grid facet: floor-division cells over the same synth,
        # count per cell + deterministic top-k
        "geo_grid": _geo().geo_grid_sql(),
        # parent-child block join (ScoreMode.Max): chunk corpus, chunk
        # BM25 stats, parent max / arg-min-chunk reduction replayed
        "blockjoin_topk": _blockjoin().blockjoin_sql(),
        # graded nDCG@10 (Järvelin & Kekäläinen): distinct-term grades,
        # 2^g-1 gains, both discounted sums and the ratio replayed
        "ndcg_eval": _ireval().ndcg_eval_sql(),
        # highlighter best-window selection from the positions store:
        # DuckDB replays the window join, distinct-term counts, per-doc
        # argmax and global top-K from token ordinality
        "snippet_windows": _snippets().snippet_sql(),
        # query performance prediction (Cronen-Townsend 2002): BM25
        # retrieval, JM-smoothed LMs, relevance-model weights and the
        # full-vocab KL divergence all replayed by DuckDB
        "query_clarity": _qpp().clarity_sql(),
        # dense PRF (Rocchio): round-1 cosine ranking, feedback window,
        # normalized centroid blend and round-2 ranking replayed from
        # the raw embeddings table
        "rocchio_dense_topk": _densefb().rocchio_sql(),
        # linear learning-to-rank re-rank: BM25 + freshness decay +
        # coverage blended with fixed weights; feature extraction, the
        # mix64 age synth (HUGEINT limbs) and the blend all replayed
        "ltr_rerank_topk": _ltr().ltr_sql(),
        # ordered span-near (SpanNearQuery in_order=true): forward-pair
        # join b.i - a.i in [1, w]; both orders of one term pair in the
        # query set make the direction semantics load-bearing
        "ordered_span_topk": _boolquery().ordered_span_sql(),
        # SpanNot: forward spans with no exclude term strictly inside
        "span_not_topk": _boolquery().span_not_sql(),
        # hashed linear quality scorer: md5 buckets + integer logits
        "quality_classifier": __import__(
            "pdfsearch_ray.pipelines.textstats",
            fromlist=["quality_classifier_sql"]).quality_classifier_sql(),
        # nextword auxiliary phrase index (Bahle/Williams/Zobel 2002):
        # the artifact must reproduce the positional phrase evaluation
        # exactly — same pair-ordinality SQL chain as phrase_topk
        "nextword_phrase_topk": _nextword().nextword_sql(),
        # query-string surface: +must -not term^boost "phrase" parsed
        # once, executed as per-clause BM25 contributions + masks; the
        # SAME parse drives the generated SQL (parser pytest-pinned)
        "querystring_topk": _querystring().querystring_sql(),
        # pruned-tier safety certificate (Fagin/TA upper bound): theta,
        # tail bound, outside upper bounds and the safe bit recomputed
        "champion_safety": _prune().champion_safety_sql(),
        # BM25F multi-field: positional title/body split, per-field
        # soft length normalization, weight-before-saturate blend and
        # cross-field df all recomputed by DuckDB from raw text
        "bm25f_topk": _fields().bm25f_topk_sql(),
        # advanced disjunctive scoring controls: minimum_should_match
        # (HAVING >= m), DisjunctionMax (max + tie * rest), per-term
        # boosts (a (term, boost) VALUES join) — each oracle rebuilds
        # the per-(doc, term) BM25 contribution table from raw text
        "bm25_msm_topk": _scorequery().bm25_msm_sql(),
        "dismax_topk": _scorequery().dismax_sql(),
        "boosted_topk": _scorequery().boosted_sql(),
        # blended SynonymQuery: per synonym class tf is summed and df is
        # the class's distinct-doc count, so the class idf is under the
        # value hash (a plain-OR rewrite would hash-mismatch)
        "synonym_topk": _scorequery().synonym_sql(),
        # function_score recency decay: splitmix64 age synth replayed in
        # HUGEINT limbs + the unrounded-BM25 x decay blend at 6 dp
        "recency_boost_topk": _scorequery().recency_boost_sql(),
        # index merge (Lucene addIndexes analog): two independent
        # half-corpus builds, segment-adopted into one index; the
        # oracle is the FULL-corpus BM25 chain, so merged N / summed
        # df / union avgdl are all under the value hash
        "merged_index_topk": _merge().merged_index_sql(),
        # delete→compact lifecycle: tombstone doc_id % 7 == 3, compact
        # (physical purge + stats recompute); the oracle is the BM25
        # chain over ONLY the survivors, so a stale pre-delete N / df /
        # avgdl or a leaked tombstoned doc flips the hash
        "compacted_index_topk": _merge().compacted_index_sql(),
        # federated (no-merge) scatter-gather query across two
        # independent half-indexes with GLOBAL N / summed df / union
        # avgdl — the oracle is the full-corpus BM25 chain, so a wrong
        # distributed-stats correction flips the hash
        "federated_topk": _merge().federated_topk_sql(),
        # resource selection (CORI/Taily df belief): the broker ranks
        # the doc_id%4 shard indexes by summed query-term df, searches
        # only the top-2 with GLOBAL stats; DuckDB recomputes the shard
        # split, the selection window, the shard string and the pruned
        # global-stats BM25 ranking
        "shard_selected_topk": _merge().shard_selected_sql(),
        # partition routing: per-lang index with LOCAL stats — the
        # per-tenant semantics, contrasted with filtered (global-stats
        # filter) and federated (global-stats correction); the oracle
        # is one BM25 chain per language over only its documents
        "routed_lang_topk": _merge().routed_lang_sql(),
        # hybrid lexical+dense retrieval: BM25 list + cosine list fused
        # with RRF; DuckDB recomputes both retrievers' rankings AND the
        # 1/(k0+rank) fusion algebra from the raw tables
        "hybrid_rrf_topk": _hybrid().hybrid_rrf_sql(),
        # the convex-combination sibling: min-max normalization over
        # each depth-N list (degenerate list → 1.0) and the alpha blend
        # are recomputed by DuckDB window functions
        "hybrid_interp_topk": _hybrid().hybrid_interp_sql(),
        # CombMNZ (Fox & Shaw 1994): hit-count × normalized score sum;
        # consensus fusion completing the RRF / alpha-blend family
        "hybrid_combmnz_topk": _hybrid().hybrid_combmnz_sql(),
        # MMR diversification: DuckDB replays the dense candidate
        # window, all pairwise candidate cosines and every greedy
        # argmax round as chained pick1..pickK CTEs (bpe precedent)
        "mmr_diversify": _diversify().mmr_diversify_sql(),
        # percolator (stored-query matching over a doc stream): DuckDB
        # recomputes distinct-term sets and the AND cover per registered
        # query, so the broadcast registry + counting algebra are hashed
        "percolate_matches": _percolate().percolate_sql(),
        # significant terms (ES significant_terms analog): DuckDB
        # recomputes the OR match sets, fg/bg doc frequencies and the
        # lift = (fg·N)/(n_fg·bg) ranking from raw text
        "significant_terms": _sigterms().significant_terms_sql(),
        # autocomplete: top-K dictionary completions per prefix by df;
        # engine df comes from the index (Σ block n), oracle df from
        # raw text — the index_stats postings identity under the hash
        "complete_prefix": _expand().complete_prefix_sql(),
        # IR evaluation harness: conjunctive pseudo-qrels against the
        # full OR-of-terms BM25 ranking; DuckDB recomputes tokenization,
        # BM25, the full ranking and the qrel rule end-to-end
        "ir_eval": _ireval().ir_eval_sql(),
        # result-shaping features: facets, MLT rewrite, cursor paging —
        # each oracle replays tokenization + BM25 + the feature algebra
        "facet_counts": _searchx().facet_counts_sql(),
        "mlt_topk": _searchx().mlt_topk_sql(),
        "search_after": _searchx().search_after_sql(),
        "filtered_topk": _searchx().filtered_topk_sql(),
        "field_sorted_topk": _searchx().field_sorted_topk_sql(),
        # did-you-mean (DuckDB's levenshtein checks the banded distance
        # kernel) and PMI related-terms (co-document counts vs df)
        "spell_suggest": _searchx().spell_suggest_sql(),
        "related_terms": _searchx().related_terms_sql(),
        # field collapsing (one winner per source, two rank windows) and
        # numeric-range facets (half-open n_chars bands)
        "collapse_topk": _searchx().collapse_topk_sql(),
        "range_facets": _searchx().range_facets_sql(),
        # Explain (per-hit per-term tf/df/contribution breakdown) and
        # the index integrity counts recomputed from the postings files
        "explain_scores": _searchx().explain_scores_sql(),
        "index_stats": _searchx().index_stats_sql(),
        # term vectors (ES _termvectors): per selected doc the full
        # (term, tf, first position) vector via on-the-fly re-analysis
        "term_vectors": _searchx().term_vectors_sql(),
        # phrase suggester: edit-1 candidate pairs scored by exact
        # adjacency counts from the positions store; DuckDB recomputes
        # dictionary, levenshtein ball, adjacency and the rank window
        "phrase_suggest": _searchx().phrase_suggest_sql(),
        # HITS hubs/authorities: chained LEFT-JOIN rounds over the
        # shared mix64 edge CTEs
        "link_hits": _webops().link_hits_sql(),
        # web-corpus curation ops (round 5): DuckDB recomputes the
        # deterministic synth AND the string transforms independently
        "url_dedup": _webops().url_dedup_sql(),
        # docID reassignment by URL order (Silvestri 2007 compression
        # move): a distributed sample sort + ordered prefix renumber;
        # the oracle is one rank window over the re-synthesized urls
        "docid_remap": _webops().docid_remap_sql(),
        # content-defined chunking: identical md5_number_lower boundary
        # rule; chunk identity = joined chunk string (engine polynomial
        # key is collision-equivalent)
        "cdc_chunk_stats": _webops().cdc_chunk_stats_sql(),
        # cross-snapshot crawl diff: DuckDB replays the three mix64
        # membership/revision chains and both rollups
        "snapshot_diff": _webops().snapshot_diff_sql(),
        # UniMax waterfall: recursive-CTE budget allocation + splitmix64
        # keep rule, all HUGEINT-exact
        "unimax_mix": _oracles.unimax_mix_sql(
            num=q.UNIMAX_NUM, den=q.UNIMAX_DEN),
        # balanced contiguous shard cuts: one window cumsum
        "shard_layout": q.shard_layout_sql(),
        "domain_stats": _webops().domain_stats_sql(),
        "pii_scrub_stats": _webops().pii_scrub_stats_sql(),
        "decontaminate": _webops().decontaminate_sql(),
        # distributed HLL: the full integer sketch state under the gate
        "vocab_hll_sketch": _sketches().vocab_hll_sketch_sql(),
        "term_cms_sketch": _sketches().term_cms_sketch_sql(),
        # CCNet-style line-level boilerplate removal
        "line_dedup_stats": _webops().line_dedup_stats_sql(),
        # cross-snapshot Bloom membership, bit positions SQL-reproduced
        "bloom_snapshot_dedup": _sketches().bloom_snapshot_dedup_sql(),
        # ExactSubstr (Lee et al. 2022): sliding L-token windows, dup
        # flagging and the per-doc interval union all recomputed by
        # DuckDB window frames
        "exact_substring_stats": _webops().exact_substring_stats_sql(),
        # integer-exact PageRank over the synthetic link graph: DuckDB
        # resynthesizes the edge list and replays every scatter/gather
        # round as chained CTEs in BIGINT arithmetic
        "link_pagerank": _webops().link_pagerank_sql(),
        # anchor-text aggregation over the same synthetic link graph:
        # DuckDB re-extracts the per-source anchor word and re-rolls
        # the (target, term) counts over the resynthesized edges
        "anchor_text_agg": _webops().anchor_text_agg_sql(),
        # politeness-scheduled crawl frontier: url_dedup oracle nested
        # as a CTE + row_number() per host in winner order
        "crawl_frontier": _webops().crawl_frontier_sql(),
        # host-level web-graph rollup over the shared edge CTEs
        "host_graph": _webops().host_graph_sql(),
        # hash-min connected components: chained min-over-neighbors
        # rounds in pure BIGINT, replayed by DuckDB
        "link_components": _webops().link_components_sql(),
        # anchor-boosted retrieval: text tf + anchor-in-link scoring,
        # integer-exact, QUALIFY-cut per query
        "anchor_boosted_topk": _webops().anchor_boosted_topk_sql(),
        # in-degree histogram over the shared edge CTEs (sinks at 0)
        "link_indegree_hist": _webops().link_indegree_hist_sql(),
        # BPE tokenizer training: DuckDB replays word counts, every
        # round's pair count/argmax and the literal paren-wrapped
        # replace (exact greedy merge semantics) as chained CTEs
        "bpe_merges": _bpe().bpe_merges_sql(),
        # tokenizer APPLICATION: top-K subword tokens of the final
        # segmentations, rolled up from the same CTE chain
        "bpe_token_stats": _bpe().bpe_token_stats_sql(),
        # integer-exact unigram LM quality filter (CCNet analog)
        "lm_surprisal": __import__("pdfsearch_ray.pipelines.textstats",
                                   fromlist=["x"]).lm_surprisal_sql(),
        # CCNet head/middle/tail perplexity terciles: the oracle replays
        # the LM retrain, ppl_milli and the per-lang rank-tercile window
        "ccnet_buckets": __import__("pdfsearch_ray.pipelines.textstats",
                                    fromlist=["x"]).ccnet_buckets_sql(),
        "dsir_weights": __import__("pdfsearch_ray.pipelines.textstats",
                                   fromlist=["x"]).dsir_weights_sql(),
        # money sums are EXACT integer cents (and cent×percent units
        # for discounted revenue): the 2-decimal source data makes the
        # aggregation order-independent and rounding-mode-free, so the
        # value-hash cannot flake on float summation noise
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                       AS BIGINT) AS sum_base_price_cents,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round((1 - l_discount) * 100) AS BIGINT))
                       AS BIGINT) AS sum_disc_price_e4,
                   round(CAST(sum(CAST(round(l_quantity) AS BIGINT))
                              AS DOUBLE) / count(*), 6) AS avg_qty,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 23:59:59.999999'
            GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_nation": """
            SELECT n.n_name, count(*) AS n_orders,
                   CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT))
                       AS BIGINT) AS revenue_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "region_part_revenue": """
            SELECT r.r_name,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * CAST(round((1 - l.l_discount) * 100) AS BIGINT))
                       AS BIGINT) AS revenue_e4,
                   count(*) AS n_items
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            WHERE p.p_size < 20
            GROUP BY r.r_name
        """,
        # OLAP subtotals: GROUP BY ROLLUP(region, nation), 'ALL' labels,
        # integer cents (engine derives subtotals from the leaf agg)
        "revenue_rollup": _relational().rollup_sql(),
        # per-key window function: running revenue per customer —
        # SUM/ROW_NUMBER OVER (PARTITION BY custkey ORDER BY date, key)
        # vs the bucket-spill lexsort+cumsum
        "running_totals": _relational().running_totals_sql(),
        # distributed anti-join (NOT EXISTS): customers with no urgent
        # order, per-nation count + exact acctbal cents
        "anti_join_customers": _relational().silent_customers_sql(),
        # Efraimidis-Spirakis weighted sample: splitmix64 u in HUGEINT
        # limbs, ln(u)/n_chars keys, top-k
        "weighted_sample": q.weighted_sample_sql(),
        # PMI collocations (Church & Hanks): bigram/unigram counts and
        # the PMI algebra replayed from raw text
        "pmi_collocations": q.pmi_sql(),
        # exact COUNT(DISTINCT) per group via the user-hash bucket
        # spill (per-bucket dedup partials sum without double counting)
        "daily_active_users": _events_mod().dau_sql(),
        # the LAG() window shape: per-user adjacent event-type pairs
        "event_transitions": _events_mod().transitions_sql(),
        # per-group exact discrete quantiles via sparse histogram merge
        "group_quantiles": _relational().group_quantiles_sql(),
        # correlated-aggregate window: orders above the customer's own
        # mean, integer-exact (cents*n > total), bucket-spill grouped
        "above_avg_orders": _relational().above_avg_sql(),
        # market-basket: within-order self-join pair counts, vectorized
        # pair expansion per bucket, distributed >=min + local top-k
        "basket_pairs": _relational().basket_pairs_sql(),
        # GROUP BY CUBE: all four grouping sets derived from the leaf
        # combiner aggregate, 'ALL' labels, integer cents
        "revenue_cube": _relational().cube_sql(),
        # numeric histogram facet: integer floor bins over cents
        "order_value_histogram": _relational().histogram_sql(),
        # percentile_ranks: exact integer-bp inverse quantiles
        "order_value_pct_ranks": _relational().pct_ranks_sql(),
        # matrix_stats: exact HUGEINT moments -> identical float exprs
        "value_matrix_stats": _relational().matrix_stats_sql(),
        # geo_bounds/centroid per lang over the mix64 coordinate synth
        "geo_bounds": _geo().geo_bounds_sql(),
        # composite after-key paging vs an independent OFFSET oracle
        "composite_page2": q.composite_page2_sql(),
        # date_histogram + derivative: day buckets + one LAG window
        "daily_event_deltas": _events_mod().daily_event_deltas_sql(),
        # rare_terms: bounded hapax report (K first + total count)
        "rare_terms": q.rare_terms_sql(),
        # adjacency_matrix: pairwise OR-candidate-set intersections
        "query_adjacency": _searchx().query_adjacency_sql(),
        # match_phrase_prefix: ordinality chain + arr[i+n] LIKE 'p%',
        # summed expansion tf, phrase BM25 replayed from raw text
        "phrase_prefix_topk": _boolquery().phrase_prefix_sql(),
        # filtered vector search: the ann_cosine chain + the same-label
        # pre-filter (metadata-filtered kNN)
        "ann_filtered": q.ann_filtered_sql(),
        "doc_length_quantiles": """
            SELECT CAST(0.5 AS DOUBLE) AS p,
                   CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS n_chars
            FROM documents
            UNION ALL SELECT 0.9, CAST(quantile_disc(n_chars, 0.9) AS BIGINT)
            FROM documents
            UNION ALL SELECT 0.99,
                   CAST(quantile_disc(n_chars, 0.99) AS BIGINT)
            FROM documents
            UNION ALL SELECT 0.999,
                   CAST(quantile_disc(n_chars, 0.999) AS BIGINT)
            FROM documents
        """,
        "corpus_sample": _oracles.sample_sql(rate=_sample_rate()),
        "top_docs_per_lang": f"""
            SELECT lang, doc_id, n_chars, rank FROM (
                SELECT lang, doc_id, n_chars,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY n_chars DESC, doc_id ASC) AS rank
                FROM documents
            ) WHERE rank <= {_top_per_lang_k()}
        """,
        "minhash_dedup": _oracles.minhash_sql(threshold=JACCARD_THRESHOLD),
        # quality-aware representative per MinHash cluster
        "dedup_keep_best": _oracles.keep_best_sql(
            threshold=JACCARD_THRESHOLD),
        "embedding_dup_pairs_lsh": _oracles.embedding_dup_lsh_sql(
            threshold=EMB_DUP_THRESHOLD, n_bands=q.EMB_LSH_BANDS,
            nbits=q.EMB_LSH_NBITS, seed=q.EMB_LSH_SEED,
            max_bucket=q.EMB_LSH_MAX_BUCKET),
        "ann_lsh": _oracles.ann_lsh_sql(num_queries=ANN_NUM_QUERIES, k=ANN_K,
                                        nbits=4),
        "embedding_dup_pairs": _oracles.embedding_dup_sql(
            threshold=EMB_DUP_THRESHOLD),
        "token_count_stats": _oracles.token_count_sql(),
        "langid_pred": _oracles.langid_sql(),
        "doc_fingerprints": _oracles.fingerprints_sql(),
        "simhash_fps": _oracles.simhash_sql(),
        # media_inventory mirrors stages/multimodal.py exactly: kind
        # cycles image/audio/video by doc_id % 3; docs with empty text
        # synthesize an empty payload and are dropped; videos carry
        # n_frames=12 and FrameSampler picks j*12//4 = 0,3,6,9 (emitted
        # as kind 'image'); image/audio emit one row at frame_idx 0.
        "media_inventory": """
            WITH m AS (
                SELECT doc_id,
                       CASE CAST(doc_id % 3 AS INTEGER)
                            WHEN 0 THEN 'image'
                            WHEN 1 THEN 'audio'
                            ELSE 'video' END AS kind
                FROM documents
                WHERE text IS NOT NULL AND length(text) > 0
            ),
            frames AS (
                SELECT doc_id, kind, 0 AS frame_idx FROM m WHERE kind <> 'video'
                UNION ALL
                SELECT m.doc_id, 'image' AS kind, f.frame_idx
                FROM m, (SELECT unnest([0, 3, 6, 9]) AS frame_idx) f
                WHERE m.kind = 'video'
            )
            SELECT doc_id AS media_id, doc_id, kind,
                   CAST(frame_idx AS BIGINT) AS frame_idx
            FROM frames
        """,
        "ws_token_counts": r"""
            SELECT doc_id,
                   CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                   END AS n_ws_tokens
            FROM documents
        """,
        "windowed_event_counts": """
            SELECT date_trunc('hour', ts) AS window_start,
                   event_type,
                   count(*) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_value_cents
            FROM events
            GROUP BY 1, 2
        """,
        # reference rows pre-deduped to one per (user, ts) by max
        # event_id — the same tie rule asof_block applies — so DuckDB's
        # native ASOF JOIN resolves ties identically
        # ordered funnel (greedy first-match, step-1 horizon): chained
        # per-user min-after-previous CTEs, integer microsecond lags
        "funnel_counts": _events_mod().funnel_sql(),
        "asof_join_events": """
            WITH r AS (
                SELECT user_id, ts, max(event_id) AS ref_event_id
                FROM events WHERE event_type = 'purchase'
                GROUP BY user_id, ts
            ),
            r2 AS (
                SELECT r.user_id, r.ts, r.ref_event_id,
                       e.value AS ref_value
                FROM r JOIN events e ON e.event_id = r.ref_event_id
            )
            SELECT a.event_id, a.user_id, a.ts,
                   COALESCE(b.ref_event_id, -1) AS ref_event_id,
                   round(COALESCE(b.ref_value, -1.0), 6) AS ref_value
            FROM events a
            ASOF LEFT JOIN r2 b
                ON a.user_id = b.user_id AND a.ts >= b.ts
        """,
        # every event fans out to size/hop = 4 overlapping windows;
        # window starts are epoch-floor multiples of the 15-min hop
        "sliding_event_counts": """
            WITH e AS (
                SELECT ts, event_type, value,
                       ts - (epoch_us(ts) % 900000000)
                            * INTERVAL '1 microsecond' AS b
                FROM events
            ),
            w AS (
                SELECT e.event_type, e.value,
                       e.b - i.i * INTERVAL '15 minutes' AS window_start
                FROM e, (SELECT unnest(range(0, 4)) AS i) i
            )
            SELECT window_start, event_type,
                   count(*) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_value_cents
            FROM w GROUP BY 1, 2
        """,
        "user_sessions": """
            WITH o AS (
                SELECT user_id, event_id, ts, value,
                       CASE WHEN ts - lag(ts) OVER (
                                PARTITION BY user_id ORDER BY ts, event_id
                            ) > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
            ),
            s AS (
                SELECT *, sum(new_s) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
                FROM o
            )
            SELECT user_id,
                   min(ts) AS session_start,
                   max(ts) AS session_end,
                   count(*) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_value_cents
            FROM s GROUP BY user_id, sid
        """,
        "chunk_dedup": _oracles.chunk_dedup_sql(
            words_per_chunk=_chunk_words()),
        # cross-source segment-overlap provenance (same chunk CTEs)
        "source_overlap": _oracles.source_overlap_sql(
            words_per_chunk=_chunk_words()),
        # GPT-3-style 13-gram eval decontamination (mix64 bench split)
        "decontaminate_13g": _oracles.decontaminate_sql(
            n=_dedup().DECON_NGRAM, rate=_dedup().DECON_BENCH_RATE),
        "curated_chunks": _oracles.curate_chunks_sql(
            rates=q.STRATA_RATES, default_rate=q.STRATA_DEFAULT_RATE,
            chunk_size=_curate.CURATE_CHUNK_SIZE,
            chunk_stride=_curate.CURATE_CHUNK_STRIDE),
        "gopher_quality": _gopher_oracle(),
        "stratified_sample": _strata_oracle(),
        "repetition_stats": _oracles.repetition_sql(),
        "bigram_counts": f"""
            WITH tl AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text),
                                                       '[^a-z0-9]+'),
                                 x -> x <> '') AS toklist
              FROM documents
            ), t AS (
              SELECT doc_id, unnest(list_zip(
                         list_slice(toklist, 1, len(toklist) - 1),
                         list_slice(toklist, 2, len(toklist)))) AS pr
              FROM tl WHERE len(toklist) >= 2
            )
            SELECT pr[1] || ' ' || pr[2] AS bigram,
                   count(*) AS n
            FROM t
            GROUP BY 1 HAVING count(*) >= {q.BIGRAM_MIN_COUNT}
            ORDER BY n DESC, bigram LIMIT {q.BIGRAM_TOPK}
        """,
        "doc_chunks": f"""
            WITH d AS (
              -- k = 1 + ceil((len-size)/stride) for len > size, else 1:
              -- no trailing window fully contained in its predecessor
              SELECT doc_id, text,
                     (CASE WHEN length(text) <= {q.CHUNK_SIZE} THEN 1
                           ELSE 1 + (length(text) - {q.CHUNK_SIZE}
                                     + {q.CHUNK_STRIDE} - 1)
                                    // {q.CHUNK_STRIDE} END) AS k
              FROM documents WHERE length(text) > 0
            ), ks AS (
              SELECT unnest(range(0, (SELECT max(k) FROM d))) AS c
            )
            SELECT d.doc_id, ks.c AS chunk_id,
                   ks.c * {q.CHUNK_STRIDE} AS chunk_start,
                   substr(d.text, ks.c * {q.CHUNK_STRIDE} + 1,
                          {q.CHUNK_SIZE}) AS chunk_text
            FROM d JOIN ks ON ks.c < d.k
        """,
        # media metadata margins: DuckDB recomputes the pipelines'
        # documented contracts (kind cycle doc_id % 3, FrameSampler's
        # 1->4 video fan-out over non-empty payloads, utf-8 payload
        # byte sums, MediaFeatures' fixed feature length) — only the
        # tensor VALUES stay rows-only
        "media_features_meta": f"""
            WITH m AS (
              SELECT doc_id,
                     CASE doc_id % 3 WHEN 0 THEN 'image'
                          WHEN 1 THEN 'audio' ELSE 'video' END AS kind,
                     octet_length(encode(text)) AS nb
              FROM documents
            )
            SELECT kind,
                   CAST(count(*) FILTER (WHERE nb > 0) AS BIGINT)
                       AS n_media,
                   CAST(sum(CASE WHEN nb > 0 THEN
                            CASE WHEN kind = 'video' THEN 4 ELSE 1 END
                            ELSE 0 END) AS BIGINT) AS n_rows,
                   CAST(sum(nb) AS BIGINT) AS payload_bytes,
                   CAST(0 AS BIGINT) AS n_null_feat,
                   CAST({_N_MEDIA_FEATURES} AS BIGINT) AS min_feat_len,
                   CAST({_N_MEDIA_FEATURES} AS BIGINT) AS max_feat_len
            FROM m GROUP BY kind
        """,
        "media_features_real_meta": f"""
            SELECT CASE doc_id % 3 WHEN 0 THEN 'image'
                        WHEN 1 THEN 'audio' ELSE 'video' END AS kind,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST({_N_MEDIA_FEATURES} AS BIGINT) AS min_feat_len,
                   CAST({_N_MEDIA_FEATURES} AS BIGINT) AS max_feat_len
            FROM documents GROUP BY kind
        """,
        "source_mix": """
            SELECT source, lang,
                   count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   (10000 * count(*))
                       // (SELECT count(*) FROM documents) AS share_bp
            FROM documents GROUP BY source, lang
        """,
        # temperature-based source rebalancing (alpha=0.5): weights,
        # targets, per-source thresholds and the splitmix64 keep rule
        # all recomputed in integer-exact HUGEINT arithmetic
        "temperature_mix": _oracles.temperature_mix_sql(
            denom=q.TEMP_MIX_DENOM),
        # packed-layout oracle: one SQL window cumsum reproduces the
        # distributed two-phase prefix scan bit-for-bit
        "sequence_pack": q.sequence_pack_sql(),
        "event_props_stats": f"""
            SELECT event_type, count(*) AS n_events,
                   CAST(sum(CAST(regexp_extract(props, '{q.PROPS_KEY_RE}',
                                                1) AS BIGINT))
                        AS BIGINT) AS sum_k,
                   max(CAST(regexp_extract(props, '{q.PROPS_KEY_RE}', 1)
                            AS BIGINT)) AS max_k
            FROM events
            WHERE regexp_extract(props, '{q.PROPS_KEY_RE}', 1) <> ''
            GROUP BY event_type
        """,
        "tfidf_topk": f"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(text),
                                                  '[^a-z0-9]+')) AS term
              FROM documents
            ), tf AS (
              SELECT doc_id, term, count(*) AS tf
              FROM toks WHERE term <> '' GROUP BY 1, 2
            ), dft AS (
              SELECT term, count(DISTINCT doc_id) AS df
              FROM toks WHERE term <> '' GROUP BY 1
            ), nn AS (
              SELECT count(DISTINCT doc_id) AS n
              FROM toks WHERE term <> ''
            ), sc AS (
              SELECT tf.doc_id, tf.term,
                     round(tf.tf * ln(nn.n / dft.df), 6) AS score
              FROM tf JOIN dft USING (term) CROSS JOIN nn
            )
            SELECT doc_id, term, score,
                   row_number() OVER (
                       PARTITION BY doc_id
                       ORDER BY score DESC, term) AS rank
            FROM sc QUALIFY rank <= {q.TFIDF_TOPK}
        """,
    }


def _strata_oracle() -> str:
    from pdfsearch_ray.pipelines import oracles as _oracles
    from pdfsearch_ray.pipelines import queries as q

    return _oracles.stratified_sample_sql(
        rates=q.STRATA_RATES, default_rate=q.STRATA_DEFAULT_RATE)


def _chunk_words() -> int:
    from pdfsearch_ray.pipelines.dedup import CHUNK_WORDS

    return CHUNK_WORDS


def _dedup():
    from pdfsearch_ray.pipelines import dedup

    return dedup


def _gopher_oracle() -> str:
    from pdfsearch_ray.pipelines import oracles as _oracles
    from pdfsearch_ray.pipelines import textstats as ts

    return _oracles.gopher_sql(
        min_words=ts.GOPHER_MIN_WORDS, max_words=ts.GOPHER_MAX_WORDS,
        min_mean_wl=ts.GOPHER_MIN_MEAN_WL, max_mean_wl=ts.GOPHER_MAX_MEAN_WL,
        max_word_len=ts.GOPHER_MAX_WORD_LEN)
