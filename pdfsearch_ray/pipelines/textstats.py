"""Text-analysis operators for training-data pipelines (addenda):
language-ID (n-gram heuristic), quality scoring, BPE-ish token counting,
rolling-hash document fingerprinting.  All vectorized-per-batch
map_batches stages; stateful tables (profiles, regexes) built once per
actor."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray.data as rd

# character-trigram profiles for a tiny deterministic language-ID:
# the most frequent trigrams per language (public linguistic knowledge).
_LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": (" th", "the", "he ", " an", "and", "nd ", " of", "of ", "ing",
           "ng ", " to", "to ", "ed ", " in", "ion", "ent", " is", "is ",
           "at ", " be"),
    "de": ("er ", " de", "der", "ie ", " di", "die", "sch", "ein", "ung",
           "ch ", "nde", " un", "und", "en ", " ge", "ich", " da", "das",
           "ten", " ei"),
    "fr": (" de", "de ", " le", "le ", "es ", "ent", " la", "la ", "ion",
           "nt ", "que", " qu", "ue ", " et", "et ", "les", " les", "re ",
           " pa", "ais"),
}


class LanguageId:
    """Actor: per-doc language guess by trigram-profile overlap score.
    Returns 'und' when no profile clears the margin."""

    def __init__(self, min_score: float = 0.02):
        self.profiles = {
            lang: {t: len(tris) - i for i, t in enumerate(tris)}
            for lang, tris in _LANG_PROFILES.items()
        }
        self.min_score = min_score

    def classify(self, text: str) -> str:
        t = " " + re.sub(r"\s+", " ", text.lower()) + " "
        n = len(t) - 2
        if n <= 0:
            return "und"
        best_lang, best = "und", 0.0
        for lang, prof in self.profiles.items():
            score = 0
            for tri, w in prof.items():
                score += t.count(tri) * w
            norm = score / (n * len(prof))
            if norm > best:
                best, best_lang = norm, lang
        return best_lang if best >= self.min_score else "und"

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = [self.classify(x or "") for x in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "lang_pred": pa.array(langs, type=pa.string()),
        })


def language_id(docs: rd.Dataset) -> rd.Dataset:
    return docs.map_batches(LanguageId, batch_format="pyarrow", concurrency=(1, 8))


# BPE-ish pre-tokenizer: the GPT-2-style regex (public) with the
# trailing-whitespace lookahead branch dropped so the pattern is
# RE2-compatible and the piece COUNT is SQL-checkable via DuckDB's
# regexp_extract_all.  The lookahead only re-splits a whitespace run
# before a word into (run-1)+(1 attached) — the piece count is identical
# either way (verified against Python re on adversarial strings), only
# token identity differs, and this operator reports counts.
_BPE_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
)
# the exact pattern string the SQL oracle uses (keep in sync with _BPE_RE)
BPE_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"


class TokenCounter:
    """Actor: whitespace tokens + BPE-ish piece counts per doc."""

    def __init__(self):
        self.bpe = _BPE_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        ws, bpe = [], []
        for text in batch["text"].to_pylist():
            t = text or ""
            ws.append(len(t.split()))
            bpe.append(len(self.bpe.findall(t)))
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_ws_tokens": pa.array(ws, type=pa.int64()),
            "n_bpe_pieces": pa.array(bpe, type=pa.int64()),
        })


def token_counts(docs: rd.Dataset) -> rd.Dataset:
    return docs.map_batches(TokenCounter, batch_format="pyarrow", concurrency=(1, 8))


_FP_BASE = np.uint64(1099511628211)
_FP_WINDOW = 64


class Fingerprinter:
    """Actor: rolling-hash (Rabin-Karp style) document fingerprint — the
    minimum of window hashes over the byte stream (winnowing-lite), plus
    a full-content hash.  Deterministic; used for container-level
    near-dup prefiltering.

    The content hash is md5-low64 (digest bytes 8..16 little-endian =
    DuckDB ``md5_number_lower``) and the window hash is a polynomial
    rolling hash mod 2^64 with public powers — both replicated by the
    SQL oracle in __ray_entry__.oracle_sql."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps, full = [], []
        for text in batch["text"].to_pylist():
            data = (text or "").encode("utf-8")
            if len(data) == 0:
                fps.append(0)
                full.append(0)
                continue
            import hashlib

            arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
            full.append(
                int.from_bytes(hashlib.md5(data).digest()[8:16], "little")
                - (1 << 63)
            )
            if len(arr) < _FP_WINDOW:
                win = arr[None, :]
            else:
                win = np.lib.stride_tricks.sliding_window_view(arr, _FP_WINDOW)
            # polynomial hash per window, vectorized across windows
            powers = _FP_BASE ** np.arange(win.shape[1], dtype=np.uint64)
            wh = (win * powers[None, :]).sum(axis=1, dtype=np.uint64)
            fps.append(int(wh.min()) - (1 << 63))
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "fingerprint": pa.array(fps, type=pa.int64()),
            "content_hash": pa.array(full, type=pa.int64()),
        })


def fingerprints(docs: rd.Dataset) -> rd.Dataset:
    return docs.map_batches(Fingerprinter, batch_format="pyarrow", concurrency=(1, 8))


# ------------------------------------------------- Gopher-style quality gate

# Integer thresholds (Gopher / MassiveText rules, Rae et al. 2021,
# public): word-count bounds, mean-word-length band expressed as two
# exact integer inequalities, and a max-word-length cap.  All outputs
# are int64 so the DuckDB oracle hash-matches bit-for-bit.
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MEAN_WL = 3   # keep iff 3*n_words <= n_word_chars
GOPHER_MAX_MEAN_WL = 10  # keep iff n_word_chars <= 10*n_words
GOPHER_MAX_WORD_LEN = 30


def _gopher_batch(batch: pa.Table) -> pa.Table:
    n_words, n_chars, max_wl, n_hash = [], [], [], []
    for text in batch["text"].to_pylist():
        t = text or ""
        words = t.split(" ")  # parity: DuckDB string_split(text, ' ')
        n_words.append(len(words))
        n_chars.append(len(t.replace(" ", "")))
        max_wl.append(max(len(w) for w in words))
        n_hash.append(t.count("#"))
    nw = np.asarray(n_words, dtype=np.int64)
    nc = np.asarray(n_chars, dtype=np.int64)
    mw = np.asarray(max_wl, dtype=np.int64)
    keep = ((nw >= GOPHER_MIN_WORDS) & (nw <= GOPHER_MAX_WORDS)
            & (GOPHER_MIN_MEAN_WL * nw <= nc)
            & (nc <= GOPHER_MAX_MEAN_WL * nw)
            & (mw <= GOPHER_MAX_WORD_LEN))
    return pa.table({
        "doc_id": batch["doc_id"].cast(pa.int64()),
        "n_words": pa.array(nw, type=pa.int64()),
        "n_word_chars": pa.array(nc, type=pa.int64()),
        "max_word_len": pa.array(mw, type=pa.int64()),
        "n_hash_chars": pa.array(n_hash, type=pa.int64()),
        "keep": pa.array(keep.astype(np.int64), type=pa.int64()),
    })


def gopher_quality(docs: rd.Dataset) -> rd.Dataset:
    """Per-doc Gopher-rule quality stats + keep decision (1/0)."""
    return docs.map_batches(_gopher_batch, batch_format="pyarrow")


def gopher_filter(docs: rd.Dataset) -> rd.Dataset:
    """The actual corpus filter: docs that pass the Gopher gate.

    Streams: the flag computation and the filter fuse into the read —
    no shuffle, no materialization."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        flags = _gopher_batch(batch)
        return batch.filter(pc.equal(flags["keep"], 1))

    return docs.map_batches(f, batch_format="pyarrow")


# ------------------------------------------------ unigram LM surprisal

# CCNet-style LM quality filter (Wenzek et al. 2020 score docs with a
# KenLM perplexity; low-perplexity ~ fluent text).  The stand-in that
# stays exact under the driver's value-hash gate: a self-trained
# UNIGRAM model with integer Zipf surprisal — per-token cost =
# bit_length(N // tf) for the top-V vocabulary, a fixed OOV penalty of
# bit_length(N)+1 otherwise (N = corpus token count).  Pure integer
# arithmetic, so DuckDB (length(bin(x)) == bit_length, the HLL
# precedent) reproduces every value bit-for-bit — no float log drift.

LM_VOCAB_TOP = 20   # top-V terms by (tf desc, term asc); small V makes
                    # OOV real on the sf word-salad corpora — at web
                    # scale this is the usual 10^5-word LM vocabulary


def unigram_lm_train(docs: rd.Dataset, top_v: int | None = None):
    """Train the unigram table distributed: per-batch value_counts
    partials → one narrow (term, tf) groupby → total N as a scalar
    aggregate → top-V by (tf desc, term asc) via sort+limit on the
    AGGREGATED table (vocabulary-sized, never the token stream).
    Returns (vocab_bits: dict[str, int], oov_bits: int, n_total: int).
    The driver holds O(V) state; at 10^12 docs the vocab table is
    still the only thing sorted."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    if top_v is None:
        top_v = LM_VOCAB_TOP

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vc = toks.flatten().value_counts()
        terms = vc.field("values")
        counts = vc.field("counts").cast(pa.int64())
        keep = pc.not_equal(terms, "")
        return pa.table({"term": pc.filter(terms, keep),
                         "tf": pc.filter(counts, keep)})

    tf = docs.map_batches(partial, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("tf", alias_name="tf"))
    n_total = int(tf.sum("tf") or 0)   # None on a zero-row corpus
    if n_total == 0:
        return {}, 1, 0
    top = tf.sort(["tf", "term"], descending=[True, False]) \
        .limit(top_v).to_pandas()
    vocab_bits = {
        t: (n_total // int(f)).bit_length()
        for t, f in zip(top["term"], top["tf"])
    }
    return vocab_bits, n_total.bit_length() + 1, n_total


def make_lm_scorer(ref, passthrough: tuple = ()):
    """Batch map scoring one batch with the broadcast (vocab_bits,
    oov_bits) model: (doc_id[, passthrough cols], n_tokens, n_oov,
    bits_total).  Shared by lm_surprisal and ccnet_buckets."""
    import pandas as pd
    import pyarrow.compute as pc

    import ray

    def score(t: pa.Table) -> pa.Table:
        vb, ob = ray.get(ref)
        n_docs = t.num_rows
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        # flatten once; segment-sum back by the list parent index —
        # no per-document python loop
        parent = toks.value_parent_indices().to_numpy() \
            .astype(np.int64)
        flat = toks.flatten()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        parent = parent[keep]
        words = pd.Series(
            np.asarray(flat)[keep], dtype=object).map(vb)
        oov = words.isna().to_numpy()
        b = words.fillna(ob).to_numpy().astype(np.int64)
        nt = np.zeros(n_docs, dtype=np.int64)
        nov = np.zeros(n_docs, dtype=np.int64)
        bits = np.zeros(n_docs, dtype=np.int64)
        np.add.at(nt, parent, 1)
        np.add.at(nov, parent, oov.astype(np.int64))
        np.add.at(bits, parent, b)
        cols = {"doc_id": t["doc_id"]}
        for c in passthrough:
            cols[c] = t[c]
        cols.update({
            "n_tokens": pa.array(nt, type=pa.int64()),
            "n_oov": pa.array(nov, type=pa.int64()),
            "bits_total": pa.array(bits, type=pa.int64()),
        })
        return pa.table(cols)

    return score


_LM_MODEL_CACHE: dict = {}


def unigram_lm_cached(sf_dir: str, top_v: int | None = None):
    """Per-process memo for the trained unigram table (the
    _TERM_STATS_CACHE precedent): lm_surprisal and ccnet_buckets share
    one model per corpus, so back-to-back driver calls pay the train
    pass (a full tokenize + vocabulary groupby) once, not twice.  The
    model depends only on the text column, which both callers read
    identically."""
    from ..functions.tables import read_parquet_nometa

    key = (sf_dir, top_v)
    if key not in _LM_MODEL_CACHE:
        docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        _LM_MODEL_CACHE[key] = unigram_lm_train(docs, top_v)
    return _LM_MODEL_CACHE[key]


def lm_surprisal(sf_dir: str) -> rd.Dataset:
    """Gate query: per-doc unigram-LM surprisal
    (doc_id, n_tokens, n_oov, bits_total) — the integer analog of a
    perplexity filter; sort/filter on bits_total/n_tokens to keep
    fluent documents.  Scale shape: train pass = narrow (term, tf)
    shuffle; score pass = one streaming map with the O(V) model
    broadcast via ``ray.put``."""
    import ray

    from ..functions.tables import read_parquet_nometa

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    vocab_bits, oov_bits, _ = unigram_lm_cached(sf_dir)
    ref = ray.put((vocab_bits, oov_bits))
    return docs.map_batches(make_lm_scorer(ref), batch_format="pyarrow")


def lm_surprisal_sql() -> str:
    """Oracle: DuckDB retrains the unigram table (same tokenizer,
    same top-V tie-break) and rescans with length(bin(x)) ==
    bit_length — integer-exact parity."""
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text),
                                                '[^a-z0-9]+')) AS term
            FROM documents
        ),
        tk AS (SELECT doc_id, term FROM toks WHERE term <> ''),
        tf AS (SELECT term, count(*) AS tf FROM tk GROUP BY term),
        n AS (SELECT sum(tf) AS n FROM tf),
        top AS (
            SELECT term,
                   length(bin(CAST((SELECT n FROM n) // tf AS BIGINT)))
                       AS bits
            FROM tf ORDER BY tf DESC, term LIMIT {LM_VOCAB_TOP}
        ),
        scored AS (
            SELECT tk.doc_id,
                   CASE WHEN top.term IS NULL THEN 1 ELSE 0 END AS oov,
                   coalesce(top.bits,
                            length(bin(CAST((SELECT n FROM n)
                                            AS BIGINT))) + 1) AS bits
            FROM tk LEFT JOIN top ON tk.term = top.term
        )
        ,
        g AS (
            SELECT doc_id, count(*) AS n_tokens,
                   sum(oov) AS n_oov, sum(bits) AS bits_total
            FROM scored GROUP BY doc_id
        )
        SELECT d.doc_id, coalesce(g.n_tokens, 0) AS n_tokens,
               CAST(coalesce(g.n_oov, 0) AS BIGINT) AS n_oov,
               CAST(coalesce(g.bits_total, 0) AS BIGINT) AS bits_total
        FROM documents d LEFT JOIN g ON d.doc_id = g.doc_id
        ORDER BY d.doc_id
    """


DSIR_BUCKETS = 512     # hashed-feature space (DSIR uses 10^4 at web
                       # scale; the model is O(B) either way)
DSIR_TARGET_LANG = "en"  # the in-corpus "target distribution" proxy


def _dsir_features(t: pa.Table, text_col: str = "text"):
    """Flatten one batch to (parent_row, feature_string) for hashed
    unigram+bigram features — the DSIR feature map.  Tokens are the
    shared ``[^a-z0-9]+`` split; bigrams join consecutive same-doc
    tokens with one space (the SQL oracle rebuilds both from
    row_number windows).  Returns (parent: int64[], feats: object[])."""
    import pyarrow.compute as pc

    toks = pc.split_pattern_regex(
        pc.utf8_lower(t[text_col]), pattern="[^a-z0-9]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parent = toks.value_parent_indices().to_numpy().astype(np.int64)
    flat = np.asarray(toks.flatten(), dtype=object)
    keep = flat != ""
    parent, flat = parent[keep], flat[keep]
    # bigrams: consecutive positions with the same parent row
    if len(flat) > 1:
        adj = parent[:-1] == parent[1:]
        big = flat[:-1][adj] + " " + flat[1:][adj]
        bparent = parent[:-1][adj]
        return (np.concatenate([parent, bparent]),
                np.concatenate([flat, big]))
    return parent, flat


def _bucket_of(feats: np.ndarray, n_buckets: int) -> np.ndarray:
    """md5-low64 % B per UNIQUE feature (the md5_number_lower
    convention shared with webops/sketches), mapped back to instances."""
    import hashlib

    uniq, inv = np.unique(feats.astype(str), return_inverse=True)
    md5 = hashlib.md5
    hb = np.array(
        [int.from_bytes(md5(u.encode()).digest()[8:16], "little")
         % n_buckets for u in uniq],
        dtype=np.int64)
    return hb[inv]


def dsir_train(docs: rd.Dataset, *, text_col: str = "text",
               lang_col: str = "lang") -> np.ndarray:
    """Train both DSIR hashed-feature models over ``docs`` and return
    the dense per-bucket weight array ``bits_raw - bits_tgt``
    (length DSIR_BUCKETS, int64) — one streaming pass into an O(B)
    groupby; the driver holds O(B) ints."""
    from ray.data.aggregate import Sum

    B = DSIR_BUCKETS

    def partial(t: pa.Table) -> pa.Table:
        parent, feats = _dsir_features(t, text_col)
        if len(feats) == 0:
            return pa.table({
                "bucket": pa.array([], type=pa.int64()),
                "c_raw": pa.array([], type=pa.int64()),
                "c_tgt": pa.array([], type=pa.int64()),
            })
        b = _bucket_of(feats, B)
        is_tgt = (t[lang_col].to_numpy(zero_copy_only=False)
                  == DSIR_TARGET_LANG)[parent]
        c_raw = np.bincount(b, minlength=B)
        c_tgt = np.bincount(b[is_tgt], minlength=B)
        nz = (c_raw > 0).nonzero()[0]
        return pa.table({
            "bucket": pa.array(nz, type=pa.int64()),
            "c_raw": pa.array(c_raw[nz], type=pa.int64()),
            "c_tgt": pa.array(c_tgt[nz], type=pa.int64()),
        })

    agg = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Sum("c_raw", alias_name="c_raw"),
                      Sum("c_tgt", alias_name="c_tgt"))
           .to_pandas())
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {
        "bucket": "int64", "c_raw": "int64", "c_tgt": "int64"})
    c_raw = np.zeros(B, dtype=np.int64)
    c_tgt = np.zeros(B, dtype=np.int64)
    c_raw[agg["bucket"].to_numpy()] = agg["c_raw"].to_numpy()
    c_tgt[agg["bucket"].to_numpy()] = agg["c_tgt"].to_numpy()
    n_raw = max(int(c_raw.sum()), 1)
    n_tgt = max(int(c_tgt.sum()), 1)
    bits_raw = np.array(
        [(n_raw // int(c)).bit_length() if c else n_raw.bit_length() + 1
         for c in c_raw], dtype=np.int64)
    bits_tgt = np.array(
        [(n_tgt // int(c)).bit_length() if c else n_tgt.bit_length() + 1
         for c in c_tgt], dtype=np.int64)
    return bits_raw - bits_tgt


def dsir_filter(ds: rd.Dataset, min_bits: int, *,
                text_col: str = "text",
                lang_col: str = "lang") -> rd.Dataset:
    """Composable DSIR selection stage: train the hashed-feature
    models on ``ds`` itself (one extra pass over the upstream
    pipeline — the gate-scale trade; a 100 TB run trains once on a
    sample or checkpoints the upstream projection first, the
    curate_chunks/dedup_exact precedent), then keep only rows whose
    ``dsir_bits >= min_bits``.  All columns pass through."""
    import ray

    B = DSIR_BUCKETS
    ref = ray.put(dsir_train(ds, text_col=text_col, lang_col=lang_col))

    def keep(t: pa.Table) -> pa.Table:
        w = ray.get(ref)
        parent, feats = _dsir_features(t, text_col)
        bits = np.zeros(t.num_rows, dtype=np.int64)
        if len(feats):
            np.add.at(bits, parent, w[_bucket_of(feats, B)])
        return t.filter(pa.array(bits >= min_bits))

    return ds.map_batches(keep, batch_format="pyarrow")


def dsir_weights(sf_dir: str) -> rd.Dataset:
    """DSIR importance weights (Xie et al. 2023, arXiv:2302.03169):
    score every document by how target-like its hashed n-gram profile
    is — ``log p_target(x) - log p_raw(x)`` under bag-of-hashed-ngram
    models — so a curation pipeline can resample raw web data toward a
    quality/domain target.  Target here is the corpus's own
    ``lang = 'en'`` slice (self-contained; swap in any doc predicate).

    Integer-exact analog (the lm_surprisal convention, so the value
    hash cannot flake): per hashed bucket b and model m,
    ``bits_m(b) = bit_length(N_m // c_m(b))`` (zero count → the fixed
    OOV penalty ``bit_length(N_m) + 1``); per document,
    ``dsir_bits = Σ_features (bits_raw(b) - bits_tgt(b))`` — HIGHER
    means more target-like.  Emits (doc_id, n_feats, dsir_bits).

    Scale shape: train pass streams once into per-batch (bucket,
    c_raw, c_tgt) partials → an O(B) groupby (B = DSIR_BUCKETS);
    both bit tables broadcast as dense arrays via ``ray.put``; score
    pass is one streaming map — no shuffle ever touches text.  This is
    DSIR's own architecture (they use B = 10^4 for the full
    Pile-scale run)."""
    import ray

    from ..functions.tables import read_parquet_nometa

    B = DSIR_BUCKETS
    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])
    ref = ray.put(dsir_train(docs))

    def score(t: pa.Table) -> pa.Table:
        w = ray.get(ref)
        n_docs = t.num_rows
        parent, feats = _dsir_features(t)
        nf = np.zeros(n_docs, dtype=np.int64)
        bits = np.zeros(n_docs, dtype=np.int64)
        if len(feats):
            b = _bucket_of(feats, B)
            np.add.at(nf, parent, 1)
            np.add.at(bits, parent, w[b])
        return pa.table({
            "doc_id": t["doc_id"],
            "n_feats": pa.array(nf, type=pa.int64()),
            "dsir_bits": pa.array(bits, type=pa.int64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def dsir_weights_sql() -> str:
    """Oracle: DuckDB retrains BOTH hashed-feature models (same
    tokenizer, same md5_number_lower % B bucketing, same bigram
    windows via row_number) and rescans with length(bin(x)) ==
    bit_length — integer-exact parity with dsir_weights."""
    B = DSIR_BUCKETS
    return f"""
        WITH base AS (
            SELECT doc_id, lang,
                   regexp_split_to_array(lower(text),
                                         '[^a-z0-9]+') AS arr
            FROM documents
        ),
        tok0 AS (
            SELECT doc_id, lang, generate_subscripts(arr, 1) AS j,
                   unnest(arr) AS term
            FROM base
        ),
        tok AS (
            SELECT doc_id, lang, term,
                   row_number() OVER (
                       PARTITION BY doc_id ORDER BY j) AS rn
            FROM tok0 WHERE term <> ''
        ),
        feats AS (
            SELECT doc_id, lang, term AS feat FROM tok
            UNION ALL
            SELECT a.doc_id, a.lang, a.term || ' ' || b.term AS feat
            FROM tok a JOIN tok b
              ON b.doc_id = a.doc_id AND b.rn = a.rn + 1
        ),
        fb AS (
            SELECT doc_id, lang,
                   CAST(md5_number_lower(feat) % {B} AS BIGINT) AS b
            FROM feats
        ),
        cnt AS (
            SELECT b, count(*) AS c_raw,
                   sum(CASE WHEN lang = '{DSIR_TARGET_LANG}'
                       THEN 1 ELSE 0 END) AS c_tgt
            FROM fb GROUP BY b
        ),
        tot AS (SELECT sum(c_raw) AS n_raw, sum(c_tgt) AS n_tgt
                FROM cnt),
        bits AS (
            SELECT b,
                   length(bin(CAST((SELECT n_raw FROM tot) // c_raw
                                   AS BIGINT))) AS br,
                   CASE WHEN c_tgt = 0 THEN
                       length(bin(CAST((SELECT n_tgt FROM tot)
                                       AS BIGINT))) + 1
                   ELSE
                       length(bin(CAST((SELECT n_tgt FROM tot) // c_tgt
                                       AS BIGINT)))
                   END AS bt
            FROM cnt
        ),
        g AS (
            SELECT f.doc_id, count(*) AS n_feats,
                   sum(bits.br - bits.bt) AS dsir_bits
            FROM fb f JOIN bits ON bits.b = f.b
            GROUP BY f.doc_id
        )
        SELECT d.doc_id, coalesce(g.n_feats, 0) AS n_feats,
               CAST(coalesce(g.dsir_bits, 0) AS BIGINT) AS dsir_bits
        FROM documents d LEFT JOIN g ON g.doc_id = d.doc_id
        ORDER BY d.doc_id
    """


def quality_signals(sf_dir: str) -> rd.Dataset:
    """Fused one-pass quality-signal export — the Dolma/RedPajama
    "attributes file" shape: EVERY per-doc signal a curation pipeline
    gates on, computed in ONE streaming read, so at 100 TB the cost is
    one pass over the text column no matter how many signals ride along.
    The only exchange is the final sort of the narrow signal rows by
    ``doc_id``, which makes the row order deterministic.  All signals are
    integer-exact (scaled ratios in basis points / x100) so the value
    hash is float-free:

    * ``n_tokens`` / ``n_distinct`` — simple-analyzer token counts,
    * ``mean_wl_x100`` — mean token length x100 (floor),
    * ``dup_bp`` — repeated-token mass ``(n_tokens - n_distinct)`` in
      basis points (the cheap repetition proxy),
    * ``digit_bp`` — digit characters per text char in basis points.

    Fully vectorized: one arrow regex split per batch, flat token
    lengths + per-doc segment sums via ``np.add.at``, per-doc distinct
    counts via dictionary-encode + packed (doc, code) ``np.unique`` —
    no per-row Python (contrast: quality_scores keeps the bounded
    legacy per-doc loop).  Empty-token docs drop out (both sides)."""
    import pyarrow.compute as pc

    from ..functions.tables import read_parquet_nometa

    def sig(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        parent = toks.value_parent_indices().to_numpy().astype(np.int64)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        n = t.num_rows
        n_tok = np.zeros(n, dtype=np.int64)
        np.add.at(n_tok, parent[ok], 1)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sum_len = np.zeros(n, dtype=np.int64)
        np.add.at(sum_len, parent[ok], lens[ok])
        # distinct per doc: dictionary-encode once, unique packed keys
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        key = parent[ok] * (np.int64(1) << np.int64(32)) + codes[ok]
        uk = np.unique(key)
        n_dis = np.zeros(n, dtype=np.int64)
        np.add.at(n_dis, (uk >> np.int64(32)).astype(np.int64), 1)
        digits = pc.coalesce(
            pc.count_substring_regex(t["text"], r"[0-9]"),
            pa.scalar(0, pa.int32())).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        chars = pc.utf8_length(t["text"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = n_tok > 0
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        nt, nd = n_tok[keep], n_dis[keep]
        sl, dg, ch = sum_len[keep], digits[keep], chars[keep]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(nt, type=pa.int64()),
            "n_distinct": pa.array(nd, type=pa.int64()),
            "mean_wl_x100": pa.array(sl * 100 // nt, type=pa.int64()),
            "dup_bp": pa.array((nt - nd) * 10000 // nt, type=pa.int64()),
            "digit_bp": pa.array(
                dg * 10000 // np.maximum(ch, 1), type=pa.int64()),
        })

    return read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"]) \
        .map_batches(sig, batch_format="pyarrow").sort("doc_id")


def quality_signals_sql() -> str:
    """Oracle: DuckDB recomputes every signal from raw text with list
    kernels — same floor-division scaling."""
    return """
        WITH arrs AS (
            SELECT doc_id, text,
                   list_filter(regexp_split_to_array(lower(text),
                       '[^a-z0-9]+'), x -> x <> '') AS arr
            FROM documents
        ),
        sig AS (
            SELECT doc_id,
                   len(arr) AS n_tokens,
                   len(list_distinct(arr)) AS n_distinct,
                   CAST(list_aggregate(list_transform(arr, x -> length(x)),
                                       'sum') AS BIGINT) AS sum_len,
                   length(text) - length(regexp_replace(
                       text, '[0-9]', '', 'g')) AS digits,
                   length(text) AS chars
            FROM arrs WHERE len(arr) > 0
        )
        SELECT doc_id, n_tokens, n_distinct,
               sum_len * 100 // n_tokens AS mean_wl_x100,
               (n_tokens - n_distinct) * 10000 // n_tokens AS dup_bp,
               digits * 10000 // greatest(chars, 1) AS digit_bp
        FROM sig ORDER BY doc_id
    """


# --------------------------------------------- CCNet perplexity buckets

# CCNet (Wenzek et al. 2020) splits every language's documents into
# head / middle / tail TERCILES of LM perplexity and trains on the
# head (fluent) slice.  Integer-exact analog: per-token surprisal
# ``ppl_milli = bits_total * 1000 // n_tokens`` over the shared unigram
# model, per-lang rank ``r`` under (ppl_milli asc, doc_id asc), bucket
# = ``(r-1)*3 // n`` — the NTILE(3) layout pinned to a deterministic
# tie order.  Empty-token docs are excluded (CCNet drops them).
#
# Scale shape (no per-lang sort of the corpus): pass 1 aggregates the
# tiny (lang, ppl_milli) histogram (distinct per-token surprisal
# values are bounded by the model's bit range — O(langs × values)
# driver state).  Cumulative counts give every histogram cell its rank
# span [start+1, start+cnt]; a cell whose span sits inside ONE bucket
# labels all its docs at once, and only the ≤ 2 boundary-straddling
# cells per lang boundary need their member doc_ids (collected with a
# broadcast-filter pass, O(ties) rows to the driver).  Pass 2 assigns
# buckets streaming with the O(cells + ties) map broadcast once.

CCNET_BUCKET_NAMES = ("head", "middle", "tail")


def ccnet_buckets(sf_dir: str) -> pa.Table:
    """(doc_id, lang, ppl_milli, bucket) per non-empty doc."""
    import ray

    from ..functions.tables import read_parquet_nometa

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
    vocab_bits, oov_bits, _ = unigram_lm_cached(sf_dir)
    ref = ray.put((vocab_bits, oov_bits))
    scored = docs.map_batches(make_lm_scorer(ref, passthrough=("lang",)),
                              batch_format="pyarrow")

    def to_ppl(t: pa.Table) -> pa.Table:
        nt = t["n_tokens"].to_numpy()
        keep = nt > 0
        bits = t["bits_total"].to_numpy()[keep]
        return pa.table({
            "doc_id": t["doc_id"].to_numpy()[keep],
            "lang": t["lang"].to_numpy(zero_copy_only=False)[keep],
            "ppl_milli": pa.array(bits * 1000 // nt[keep],
                                  type=pa.int64()),
        })

    ppl = scored.map_batches(to_ppl, batch_format="pyarrow")

    # pass 1: per-batch (lang, ppl) partials -> tiny global histogram
    def hist_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({"lang": t["lang"].to_numpy(zero_copy_only=False),
                           "ppl_milli": t["ppl_milli"].to_numpy()})
        g = df.groupby(["lang", "ppl_milli"], sort=False).size()
        g = g.reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    from ..functions.tables import typed_pandas
    hist = typed_pandas(
        ppl.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["lang", "ppl_milli"])
        .aggregate(Sum("n", alias_name="n")),  # tiny table: ok multi-key
        {"lang": "object", "ppl_milli": "int64", "n": "int64"},
    ).sort_values(["lang", "ppl_milli"])

    # rank spans per histogram cell; find boundary-straddling cells
    cell_bucket: dict[tuple, int] = {}      # fully-inside cells
    straddle: dict[str, set] = {}            # lang -> ppl values needing ties
    n_of: dict[str, int] = {}
    for lang, grp in hist.groupby("lang"):
        n = int(grp["n"].sum())
        n_of[lang] = n
        start = 0
        for _, row in grp.iterrows():
            cnt = int(row["n"])
            b_first = (start * 3) // n            # bucket of rank start+1
            b_last = ((start + cnt - 1) * 3) // n
            if b_first == b_last:
                cell_bucket[(lang, int(row["ppl_milli"]))] = b_first
            else:
                straddle.setdefault(lang, set()).add(int(row["ppl_milli"]))
            start += cnt

    # collect ONLY straddling cells' doc_ids (O(ties) to the driver)
    tie_bucket: dict[tuple, int] = {}
    if straddle:
        sref = ray.put(straddle)

        def tie_rows(t: pa.Table) -> pa.Table:
            sd = ray.get(sref)
            langs = t["lang"].to_numpy(zero_copy_only=False)
            pl = t["ppl_milli"].to_numpy()
            keep = np.array([l in sd and int(p) in sd[l]
                             for l, p in zip(langs, pl)])
            if not keep.any():
                return t.slice(0, 0)
            return t.filter(pa.array(keep))

        ties = ppl.map_batches(tie_rows, batch_format="pyarrow").to_pandas()
        # per straddling cell: rank members by doc_id over the cell's span
        hist_idx = hist.set_index(["lang", "ppl_milli"])["n"]
        for (lang, pv), grp in ties.groupby(["lang", "ppl_milli"]):
            cells = hist[hist["lang"] == lang]
            start = int(cells[cells["ppl_milli"] < pv]["n"].sum())
            n = n_of[lang]
            for j, d in enumerate(sorted(grp["doc_id"].tolist())):
                tie_bucket[(lang, int(d))] = ((start + j) * 3) // n
        del hist_idx

    # pass 2: streaming bucket assignment
    bref = ray.put((cell_bucket, tie_bucket))

    def assign(t: pa.Table) -> pa.Table:
        cb, tb = ray.get(bref)
        langs = t["lang"].to_numpy(zero_copy_only=False)
        pl = t["ppl_milli"].to_numpy()
        ids = t["doc_id"].to_numpy()
        names = CCNET_BUCKET_NAMES
        out = [names[cb[(l, int(p))]] if (l, int(p)) in cb
               else names[tb[(l, int(d))]]
               for l, p, d in zip(langs, pl, ids)]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "lang": t["lang"],
            "ppl_milli": t["ppl_milli"],
            "bucket": pa.array(out, type=pa.string()),
        })

    return ppl.map_batches(assign, batch_format="pyarrow")


def ccnet_buckets_sql() -> str:
    """Oracle: retrain the unigram model, recompute ppl_milli, and
    replay the per-lang rank terciles with one window."""
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text),
                                                '[^a-z0-9]+')) AS term
            FROM documents
        ),
        tk AS (SELECT doc_id, term FROM toks WHERE term <> ''),
        tf AS (SELECT term, count(*) AS tf FROM tk GROUP BY term),
        n AS (SELECT sum(tf) AS n FROM tf),
        top AS (
            SELECT term,
                   length(bin(CAST((SELECT n FROM n) // tf AS BIGINT)))
                       AS bits
            FROM tf ORDER BY tf DESC, term LIMIT {LM_VOCAB_TOP}
        ),
        scored AS (
            SELECT tk.doc_id,
                   coalesce(top.bits,
                            length(bin(CAST((SELECT n FROM n)
                                            AS BIGINT))) + 1) AS bits
            FROM tk LEFT JOIN top ON tk.term = top.term
        ),
        g AS (
            SELECT doc_id, count(*) AS n_tokens, sum(bits) AS bits_total
            FROM scored GROUP BY doc_id
        ),
        s AS (
            SELECT d.doc_id, d.lang,
                   CAST(g.bits_total * 1000 // g.n_tokens AS BIGINT)
                       AS ppl_milli
            FROM documents d JOIN g ON d.doc_id = g.doc_id
            WHERE g.n_tokens > 0
        ),
        r AS (
            SELECT *,
                   row_number() OVER (PARTITION BY lang
                       ORDER BY ppl_milli, doc_id) AS rk,
                   count(*) OVER (PARTITION BY lang) AS nl
            FROM s
        )
        SELECT doc_id, lang, ppl_milli,
               CASE (rk - 1) * 3 // nl
                   WHEN 0 THEN 'head' WHEN 1 THEN 'middle'
                   ELSE 'tail' END AS bucket
        FROM r ORDER BY doc_id
    """


# ------------------------------------------- hashed linear quality scorer

QC_BUCKETS = 64
QC_WEIGHT_MOD = 997          # weight(b) = (b * 2654435761) % 997 - 498
QC_WEIGHT_MUL = 2654435761   # Knuth multiplicative constant (public)


def _qc_weights() -> np.ndarray:
    b = np.arange(QC_BUCKETS, dtype=np.int64)
    return (b * QC_WEIGHT_MUL) % QC_WEIGHT_MOD - (QC_WEIGHT_MOD - 1) // 2


def quality_classifier(sf_dir: str) -> rd.Dataset:
    """Hashed linear quality classifier — the fastText-style scorer
    every big pretraining corpus is filtered with (GPT-3's LR
    classifier, LLaMA's "looks like a reference" filter): tokens hash
    into ``QC_BUCKETS`` feature buckets (md5-low64 mod B, the sketches
    convention), a broadcast weight vector scores each doc as an
    INTEGER logit (tf-weighted bucket counts · weights), and
    ``keep = logit > 0``.  The weights here are a deterministic public
    function of the bucket index — the SHAPE under test is hashed
    featurization + broadcast-weights batched inference, exactly how a
    real trained classifier deploys (weights would come from training;
    swap the vector, nothing else changes).  Integer logits make the
    gate hash-exact.

    Scale: one streaming map_batches; per batch the distinct-token
    vocabulary is hashed once and counts fold via bincount — no
    shuffle, O(B) broadcast state."""
    import hashlib

    import pyarrow.compute as pc

    from ..functions.tables import read_parquet_nometa

    w = _qc_weights()

    def score(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        parent = toks.value_parent_indices().to_numpy().astype(np.int64)
        flat = toks.flatten()
        keep_tok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        # batch-vocabulary hashing: distinct terms once, not per token
        import pandas as pd

        codes, uniq = pd.factorize(
            np.asarray(flat.to_pylist(), dtype=object)[keep_tok])
        md5 = hashlib.md5
        buck = np.array(
            [int.from_bytes(md5(u.encode()).digest()[8:16], "little")
             % QC_BUCKETS for u in uniq], dtype=np.int64)
        tok_w = w[buck[codes]]
        logit = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(logit, parent[keep_tok], tok_w)
        n_tok = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(n_tok, parent[keep_tok], 1)
        # parity with the oracle's GROUP BY: a doc with zero non-empty
        # tokens yields no row
        nz = n_tok > 0
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()).filter(pa.array(nz)),
            "n_tokens": pa.array(n_tok[nz], type=pa.int64()),
            "logit": pa.array(logit[nz], type=pa.int64()),
            "keep": pa.array((logit[nz] > 0).astype(np.int64),
                             type=pa.int64()),
        })

    return read_parquet_nometa(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(score, batch_format="pyarrow")


def quality_classifier_sql() -> str:
    """Oracle: md5_number_lower bucket, the same affine weight, one
    integer sum per doc."""
    half = (QC_WEIGHT_MOD - 1) // 2
    return f"""
        WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array(
                          lower(text), '[^a-z0-9]+')) AS term
                      FROM documents),
        tok AS (SELECT * FROM toks WHERE term <> ''),
        f AS (SELECT doc_id,
                     CAST(CAST(md5_number_lower(term) AS HUGEINT)
                          % {QC_BUCKETS} AS BIGINT) AS b
              FROM tok),
        s AS (SELECT doc_id, count(*) AS n_tokens,
                     sum((b * {QC_WEIGHT_MUL}) % {QC_WEIGHT_MOD}
                         - {half}) AS logit
              FROM f GROUP BY doc_id)
        SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST(logit AS BIGINT) AS logit,
               CAST(CASE WHEN logit > 0 THEN 1 ELSE 0 END AS BIGINT)
                   AS keep
        FROM s
    """
