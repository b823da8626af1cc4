"""Web-corpus curation operators (training-data addenda, round 5).

Two operators every web-scale text pipeline runs before training and
the reference (a filesystem corpus engine) never needed:

* **URL canonicalization dedup** — crawl corpora carry the same page
  under scheme/case/www/tracking-param variants; dedup must key on a
  CANONICAL url.  ``canonicalize_urls`` is the reusable kernel
  (vectorized pyarrow regex passes, fixpoint-bounded); ``url_dedup``
  is the gate query: synthesize raw urls deterministically from doc_id
  (the media_inventory precedent — the sf tables have no url column),
  canonicalize, groupby canonical, keep ``min(doc_id)`` — the exact
  winner rule of the content dedups.
* **PII scrubbing** — redact emails/phones before training.
  ``scrub_pii`` is the reusable kernel (count + replace via one
  compiled-in-arrow regex per kind, zero Python per row);
  ``pii_scrub_stats`` is the gate query over deterministically injected
  PII (variable per-doc counts so the hash actually checks the
  counting, not a constant).

Scale shape: both are stateless per-batch transforms (no shuffle for
scrub; one narrow groupby on the canonical-url key for the dedup —
urls, never documents, move).  Both SQL oracles recompute the synth
AND the string transforms independently in DuckDB.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.tables import block_tables, read_parquet_nometa

# --------------------------------------------------------------- urls

# tracking params dropped by canonicalization (the common subset of the
# public tracking-param lists; extend per deployment)
_TRACKING_RE = r"utm_[^&]*"


def canonicalize_urls(urls: pa.Array | pa.ChunkedArray):
    """Vectorized URL canonicalization: lowercase → strip scheme →
    strip leading ``www.`` → drop tracking query params (fixpoint over
    whole-column regex passes — at most max-params-per-url passes, each
    vectorized) → drop empty ``?``/dangling ``&`` → strip one trailing
    slash."""
    u = pc.utf8_lower(urls)
    u = pc.replace_substring_regex(u, r"^https?://", "")
    u = pc.replace_substring_regex(u, r"^www\.", "")
    # drop "utm_...&" (param followed by another) until fixpoint, then
    # the trailing "utm_..." form
    while True:
        nxt = pc.replace_substring_regex(
            u, r"([?&])" + _TRACKING_RE + r"&", "\\1")
        if nxt.equals(u):
            break
        u = nxt
    u = pc.replace_substring_regex(u, r"[?&]" + _TRACKING_RE + r"$", "")
    u = pc.replace_substring_regex(u, r"\?$", "")
    u = pc.replace_substring_regex(u, r"/$", "")
    return u


def _synth_urls(t: pa.Table) -> pa.Table:
    """Deterministic raw-url synthesis from doc_id: ids {3k, 3k+1, 3k+2}
    share host+path and differ only in case/scheme/www/tracking noise,
    so canonicalization collapses them 3:1."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    k = ids // 3
    host = k % 50
    variant = ids % 3
    s = lambda a: pc.cast(pa.array(a), pa.string())  # noqa: E731
    scheme = pa.array(np.where(variant == 0, "HTTPS://WWW.",
                               np.where(variant == 1, "https://",
                                        "http://www.")).tolist(),
                      type=pa.string())
    tail = pa.array(np.where(variant == 0, "/?utm_source=a&utm_medium=b",
                             np.where(variant == 1, "?utm_campaign=c",
                                      "/")).tolist(), type=pa.string())
    url = pc.binary_join_element_wise(
        scheme, "Ex", s(host), ".com/P/", s(k), tail, "")
    return pa.table({"doc_id": t["doc_id"], "url": url})


def url_dedup(sf_dir: str) -> pa.Table:
    """Gate query: synth urls → canonicalize → groupby canonical →
    (canonical_url, n_docs, winner_doc_id), sorted by url."""
    from ray.data.aggregate import Count, Min

    def prep(t: pa.Table) -> pa.Table:
        st = _synth_urls(t)
        return pa.table({
            "doc_id": st["doc_id"],
            "canonical_url": canonicalize_urls(st["url"]),
        })

    out = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id"])
        .map_batches(prep, batch_format="pyarrow")
        .groupby("canonical_url")
        .aggregate(Count(alias_name="n_docs"),
                   Min("doc_id", alias_name="winner_doc_id"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    out = typed_pandas(out, {
        "canonical_url": "object", "n_docs": "int64",
        "winner_doc_id": "int64"}).sort_values("canonical_url")
    return pa.table({
        "canonical_url": pa.array(out["canonical_url"].tolist(),
                                  type=pa.string()),
        "n_docs": pa.array(out["n_docs"].astype("int64").tolist(),
                           type=pa.int64()),
        "winner_doc_id": pa.array(
            out["winner_doc_id"].astype("int64").tolist(),
            type=pa.int64()),
    })


def url_dedup_sql() -> str:
    """Oracle: DuckDB recomputes the synth AND the canonicalization
    (lower / scheme / www / tracking-param / trailing-slash regex
    passes) independently."""
    return r"""
        WITH synth AS (
            SELECT doc_id,
                   (CASE doc_id % 3 WHEN 0 THEN 'HTTPS://WWW.'
                        WHEN 1 THEN 'https://' ELSE 'http://www.' END)
                   || 'Ex' || ((doc_id // 3) % 50) || '.com/P/'
                   || (doc_id // 3)
                   || (CASE doc_id % 3
                        WHEN 0 THEN '/?utm_source=a&utm_medium=b'
                        WHEN 1 THEN '?utm_campaign=c' ELSE '/' END)
                   AS url
            FROM documents
        ),
        canon AS (
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(
                       regexp_replace(regexp_replace(regexp_replace(
                           regexp_replace(lower(url),
                               '^https?://', ''),
                           '^www\.', ''),
                           '([?&])utm_[^&]*&', '\1', 'g'),
                           '([?&])utm_[^&]*&', '\1', 'g'),
                           '[?&]utm_[^&]*$', ''),
                           '\?$', ''),
                           '/$', '') AS canonical_url
            FROM synth
        )
        SELECT canonical_url, count(*) AS n_docs,
               min(doc_id) AS winner_doc_id
        FROM canon GROUP BY canonical_url ORDER BY canonical_url
    """


# ---------------------------------------------------------------- pii

PII_PATTERNS = {
    "email": r"[a-z0-9._%+\-]+@[a-z0-9.\-]+\.[a-z]{2,}",
    "phone": r"\+1-\d{3}-\d{4}",
}
PII_TOKENS = {"email": "<EMAIL>", "phone": "<PHONE>"}


def scrub_pii(texts: pa.Array | pa.ChunkedArray):
    """Vectorized PII scrub: returns ``(scrubbed, counts)`` where
    counts maps kind → int64 numpy array of per-row redactions.  One
    arrow regex pass per kind — no Python per row."""
    counts = {}
    out = texts
    for kind, pat in PII_PATTERNS.items():
        counts[kind] = pc.count_substring_regex(out, pat) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        out = pc.replace_substring_regex(out, pat, PII_TOKENS[kind])
    return out, counts


def _inject_pii(t: pa.Table) -> pa.Table:
    """Deterministic PII injection (variable per-doc counts): email
    unless doc_id%3==0, a second email when doc_id%5==0, phone unless
    doc_id%4==0."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    s = lambda a: pc.cast(pa.array(a), pa.string())  # noqa: E731
    email1 = pa.array(np.where(ids % 3 != 0, " contact ", "").tolist(),
                      type=pa.string())
    e1body = pc.binary_join_element_wise(
        "user", s(ids), "@ex", s(ids % 7), ".com", "")
    e1 = pc.if_else(pa.array(ids % 3 != 0),
                    pc.binary_join_element_wise(email1, e1body, ""),
                    pa.scalar("", type=pa.string()))
    e2 = pc.if_else(pa.array(ids % 5 == 0),
                    pc.binary_join_element_wise(
                        pa.scalar(" cc admin", type=pa.string()),
                        s(ids % 9), "@corp.org", ""),
                    pa.scalar("", type=pa.string()))
    ph = pc.if_else(pa.array(ids % 4 != 0),
                    pc.binary_join_element_wise(
                        pa.scalar(" call +1-555-", type=pa.string()),
                        pc.utf8_lpad(s((ids * 7) % 10000), 4, "0"), ""),
                    pa.scalar("", type=pa.string()))
    txt = pc.binary_join_element_wise(t["text"], e1, e2, ph, "")
    return pa.table({"doc_id": t["doc_id"], "text": txt})


def pii_scrub_stats(sf_dir: str) -> rd.Dataset:
    """Gate query: inject → scrub → per-doc redaction stats
    (doc_id, n_emails, n_phones, scrubbed_chars)."""

    def run(t: pa.Table) -> pa.Table:
        it = _inject_pii(t)
        scrubbed, counts = scrub_pii(it["text"])
        lens = pc.utf8_length(scrubbed).cast(pa.int64())
        return pa.table({
            "doc_id": it["doc_id"],
            "n_emails": pa.array(counts["email"], type=pa.int64()),
            "n_phones": pa.array(counts["phone"], type=pa.int64()),
            "scrubbed_chars": lens,
        })

    return read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"]) \
        .map_batches(run, batch_format="pyarrow")


def pii_scrub_stats_sql() -> str:
    """Oracle: DuckDB reinjects and independently recounts/redacts with
    its own regex engine."""
    email = r"[a-z0-9._%+\-]+@[a-z0-9.\-]+\.[a-z]{2,}"
    phone = r"\+1-\d{3}-\d{4}"
    return f"""
        WITH synth AS (
            SELECT doc_id,
                   text
                   || (CASE WHEN doc_id % 3 <> 0
                        THEN ' contact user' || doc_id || '@ex'
                             || (doc_id % 7) || '.com' ELSE '' END)
                   || (CASE WHEN doc_id % 5 = 0
                        THEN ' cc admin' || (doc_id % 9) || '@corp.org'
                        ELSE '' END)
                   || (CASE WHEN doc_id % 4 <> 0
                        THEN ' call +1-555-'
                             || lpad(CAST((doc_id * 7) % 10000 AS VARCHAR),
                                     4, '0')
                        ELSE '' END) AS text
            FROM documents
        ),
        scrub AS (
            SELECT doc_id,
                   len(regexp_extract_all(text, '{email}')) AS n_emails,
                   regexp_replace(text, '{email}', '<EMAIL>', 'g') AS t1
            FROM synth
        )
        SELECT doc_id, n_emails,
               len(regexp_extract_all(t1, '{phone}')) AS n_phones,
               length(regexp_replace(t1, '{phone}', '<PHONE>', 'g'))
                   AS scrubbed_chars
        FROM scrub
    """


# ------------------------------------------------------- decontamination

DECON_NGRAM = 8
DECON_BENCH_MOD = 97   # benchmark set = doc_id % 97 == 0
DECON_INJECT_MOD = 13  # training docs with doc_id % 13 == 0 get planted
DECON_INJECT_WORDS = 12


def decontaminate(sf_dir: str) -> pa.Table:
    """Benchmark decontamination (the eval-leak gate every LLM training
    pipeline runs): flag training documents sharing any word 8-gram
    with the benchmark set.

    Scale shape — the canonical decontamination asymmetry: the
    benchmark side is SMALL (eval sets are thousands of docs), so its
    shingle set is collected once on the driver (O(benchmark)) and
    BROADCAST via ``ray.put``; the training corpus streams through one
    ``map_batches`` membership pass — no shuffle, no join.  Contrast
    with dedup (both sides huge → bucketed shuffles, pipelines/dedup).

    Gate determinism: benchmark = docs with ``doc_id % 97 == 0``;
    training docs with ``doc_id % 13 == 0`` get the first 12 words of a
    benchmark doc planted (so the hash checks real hits, not all
    zeros).  The oracle recomputes the plant, the 8-gram windows (via
    lead()) and the membership join independently in DuckDB."""
    import ray

    from ..functions.tables import typed_pandas
    bench = typed_pandas(
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
        .filter(lambda r: r["doc_id"] % DECON_BENCH_MOD == 0),
        {"doc_id": "int64", "text": "object"}).sort_values("doc_id")
    shingles: set[str] = set()
    prefixes: dict[int, str] = {}
    for bid, text in zip(bench["doc_id"], bench["text"]):
        words = (text or "").split(" ")
        prefixes[int(bid)] = " ".join(words[:DECON_INJECT_WORDS])
        for i in range(len(words) - DECON_NGRAM + 1):
            shingles.add(" ".join(words[i:i + DECON_NGRAM]))
    n_bench = len(prefixes)
    ref = ray.put((frozenset(shingles), prefixes, n_bench))

    def flag(t: pa.Table) -> pa.Table:
        sset, pref, nb = ray.get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % DECON_BENCH_MOD != 0
        out_id, out_n = [], []
        for did, text in zip(ids[keep],
                             pc.take(t["text"], pa.array(
                                 np.nonzero(keep)[0])).to_pylist()):
            did = int(did)
            if did % DECON_INJECT_MOD == 0 and nb:
                text = (text or "") + " " + \
                    pref[DECON_BENCH_MOD * (did % nb)]
            words = (text or "").split(" ")
            n = 0
            for i in range(len(words) - DECON_NGRAM + 1):
                if " ".join(words[i:i + DECON_NGRAM]) in sset:
                    n += 1
            out_id.append(did)
            out_n.append(n)
        return pa.table({
            "doc_id": pa.array(out_id, type=pa.int64()),
            "n_contaminated": pa.array(out_n, type=pa.int64()),
            "contaminated": pa.array([int(x > 0) for x in out_n],
                                     type=pa.int64()),
        })

    out = typed_pandas(
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
        .map_batches(flag, batch_format="pyarrow"),
        {"doc_id": "int64", "n_contaminated": "int64",
         "contaminated": "int64"}).sort_values("doc_id")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].astype("int64").tolist(),
                           type=pa.int64()),
        "n_contaminated": pa.array(
            out["n_contaminated"].astype("int64").tolist(),
            type=pa.int64()),
        "contaminated": pa.array(
            out["contaminated"].astype("int64").tolist(),
            type=pa.int64()),
    })


def decontaminate_sql() -> str:
    """Oracle: DuckDB rebuilds the benchmark shingle set (lead()
    windows), replants the injected prefixes and recounts membership."""
    g = DECON_NGRAM
    leads = " || ' ' || ".join(
        f"lead(w, {j}) OVER win" for j in range(1, g))
    return f"""
        WITH bench AS (
            SELECT doc_id, text FROM documents
            WHERE doc_id % {DECON_BENCH_MOD} = 0
        ),
        nb AS (SELECT count(*) AS n FROM bench),
        train AS (
            SELECT d.doc_id,
                   CASE WHEN d.doc_id % {DECON_INJECT_MOD} = 0
                             AND (SELECT n FROM nb) > 0
                        THEN d.text || ' ' || array_to_string(
                            list_slice(string_split(b.text, ' '),
                                       1, {DECON_INJECT_WORDS}), ' ')
                        ELSE d.text END AS text
            FROM documents d
            LEFT JOIN bench b ON b.doc_id =
                {DECON_BENCH_MOD} * (d.doc_id % (SELECT n FROM nb))
            WHERE d.doc_id % {DECON_BENCH_MOD} <> 0
        ),
        bw AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                   generate_subscripts(string_split(text, ' '), 1) AS i
            FROM bench
        ),
        bg AS (
            SELECT DISTINCT g FROM (
                SELECT w || ' ' || {leads} AS g
                FROM bw WINDOW win AS (PARTITION BY doc_id ORDER BY i)
            ) WHERE g IS NOT NULL
        ),
        tw AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                   generate_subscripts(string_split(text, ' '), 1) AS i
            FROM train
        ),
        tg AS (
            SELECT doc_id, w || ' ' || {leads} AS g
            FROM tw WINDOW win AS (PARTITION BY doc_id ORDER BY i)
        ),
        hits AS (
            SELECT tg.doc_id, count(bg.g) AS n
            FROM tg LEFT JOIN bg ON tg.g = bg.g
            GROUP BY tg.doc_id
        )
        SELECT tr.doc_id, coalesce(h.n, 0) AS n_contaminated,
               CAST(coalesce(h.n, 0) > 0 AS BIGINT) AS contaminated
        FROM train tr LEFT JOIN hits h ON tr.doc_id = h.doc_id
        ORDER BY tr.doc_id
    """


# ---------------------------------------------------- line-level dedup

# CCNet-style line-level boilerplate removal (Wenzek et al. 2020): a
# line that appears in many DOCUMENTS is boilerplate ("subscribe to our
# newsletter", cookie banners, copyright footers) and is stripped from
# every document before training.  The reference engine has no analog
# (filesystem PDFs carry no cross-document boilerplate); every web
# corpus pipeline runs this.

LINE_WORDS = 10          # synthetic "line" = 10-word window (sf docs
                         # are flat word streams with no newlines)
LINE_DF_MIN = 5          # line document-frequency >= this => boilerplate
# injected boilerplate lines are EXACTLY LINE_WORDS words so the window
# split yields them as whole lines (prepended => lines 0..)
_BOILER_1 = "subscribe to our newsletter for the latest updates every week"
_BOILER_2 = "all rights reserved contact support at example dot com today"


def _md5_low64(items: list[str]) -> np.ndarray:
    """md5 low-64 hash (digest bytes 8..16 LE) — the DuckDB
    ``md5_number_lower`` convention shared with pipelines/sketches."""
    import hashlib

    md5 = hashlib.md5
    return np.array(
        [int.from_bytes(md5(x.encode()).digest()[8:16], "little")
         for x in items],
        dtype=np.uint64)


def _sorted_member(sorted_arr: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``keys`` in a SORTED array (binary
    search) — the broadcast-set probe used by the pass-2 scans."""
    flag = np.zeros(keys.size, dtype=bool)
    if sorted_arr.size and keys.size:
        pos = np.searchsorted(sorted_arr, keys)
        inb = pos < sorted_arr.size
        flag[inb] = sorted_arr[pos[inb]] == keys[inb]
    return flag


def _inject_boiler(t: pa.Table) -> pa.Table:
    """Deterministic gate synth: docs with doc_id%3==0 get boilerplate
    line 1 prepended, doc_id%7==0 line 2 (both => both, in order)."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    p1 = pa.array(np.where(ids % 3 == 0, _BOILER_1 + " ", ""))
    p2 = pa.array(np.where(ids % 7 == 0, _BOILER_2 + " ", ""))
    txt = pc.binary_join_element_wise(p1, p2, t["text"], "")
    return pa.table({"doc_id": t["doc_id"], "text": txt})


def _doc_lines(text: str) -> list[str]:
    """Reference (scalar) line split — kept for the unit tests' naive
    cross-check; the pipeline uses `_line_hash_arrays`."""
    words = (text or "").split(" ")
    return [" ".join(words[i:i + LINE_WORDS])
            for i in range(0, len(words), LINE_WORDS)]


def _line_hash_arrays(texts, line_words: int = LINE_WORDS):
    """Vectorized per-batch line keys over the fixed ``line_words``-word
    line windows.  Line keys are md5-low64 per WORD combined with the
    wrapping polynomial (Horner over the line's words, see _ROLL_BASE)
    — line-STRING equality ⟺ word-sequence equality ⟺ key equality
    (w.h.p.), so the string-based oracles stay the authority and the
    md5 loop runs only over the batch's word vocabulary.

    Returns ``(line_h, line_doc, n_lines, line_chars, word_doc,
    word_line, flat_words, lens)``: uint64 key / owning doc / chars per
    line (as the joined string's len), lines per doc, plus the flat
    word axis (owning doc + GLOBAL line id per word, the word array,
    words per doc) for consumers that rebuild text."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lst = pc.split_pattern(texts.fill_null(""), " ")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    lens = pc.list_value_length(lst).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = lst.flatten()
    n = len(flat)
    ndocs = lens.size
    n_lines = (lens + line_words - 1) // line_words  # lens >= 1 always
    if n == 0:
        z64 = np.zeros(0, dtype=np.uint64)
        zi = np.zeros(0, dtype=np.int64)
        return z64, zi, n_lines, zi, zi, zi, flat, lens
    de = flat.dictionary_encode()
    vocab_h = _md5_low64(de.dictionary.to_pylist())
    wh = vocab_h[de.indices.to_numpy(zero_copy_only=False)]
    word_doc = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
    offs = np.concatenate([np.zeros(1, np.int64),
                           np.cumsum(lens, dtype=np.int64)])
    pos_in_doc = np.arange(n, dtype=np.int64) - offs[:-1][word_doc]
    line_in_doc = pos_in_doc // line_words
    pos_in_line = pos_in_doc - line_in_doc * line_words
    line_offs = np.concatenate([np.zeros(1, np.int64),
                                np.cumsum(n_lines, dtype=np.int64)])
    word_line = line_offs[:-1][word_doc] + line_in_doc
    # tail lines are shorter: this word's line length in words
    line_len_w = np.minimum(lens[word_doc] - line_in_doc * line_words,
                            line_words)
    pows = np.array([pow(_ROLL_BASE, e, 1 << 64)
                     for e in range(line_words)], dtype=np.uint64)
    contrib = wh * pows[line_len_w - 1 - pos_in_line]
    line_starts = np.flatnonzero(pos_in_line == 0)
    line_h = np.add.reduceat(contrib, line_starts)
    line_doc = word_doc[line_starts]
    wchars = pc.utf8_length(flat).to_numpy(
        zero_copy_only=False).astype(np.int64)
    line_chars = (np.add.reduceat(wchars, line_starts)
                  + line_len_w[line_starts] - 1)
    return (line_h, line_doc, n_lines, line_chars, word_doc, word_line,
            flat, lens)


def line_df(ds: rd.Dataset, df_min: int = LINE_DF_MIN) -> "rd.Dataset":
    """Distributed line document-frequency: one streaming pass emits
    per-batch (line_hash, partial_df) pairs — 8-byte hashes move, never
    line text — a narrow int64 groupby sums them, and the df >= df_min
    threshold is applied DISTRIBUTED (the detect_hot_terms shape:
    the driver receives O(boilerplate lines), not the line vocabulary).
    Input dataset must have columns (doc_id, text)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        line_h, line_doc, _, _, _, _, _, _ = \
            _line_hash_arrays(t["text"])
        # document frequency: count each (doc, line) pair ONCE — sort
        # by (doc, hash), drop adjacent repeats, then count per hash
        order = np.lexsort((line_h, line_doc))
        sd, sh = line_doc[order], line_h[order]
        first = np.ones(sh.size, dtype=bool)
        first[1:] = (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])
        u, c = np.unique(sh[first], return_counts=True)
        return pa.table({
            "h": pa.array(u.view(np.int64), type=pa.int64()),
            "df_part": pa.array(c.astype(np.int64), type=pa.int64()),
        })

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum("df_part", alias_name="df"))
    )
    return agg.filter(expr=f"df >= {int(df_min)}")


def line_dedup_stats(sf_dir: str) -> pa.Table:
    """Gate query: per-document line-dedup stats after stripping
    boilerplate lines (document frequency >= LINE_DF_MIN) —
    (doc_id, n_lines, n_removed, kept_chars).

    Scale shape: pass 1 is the narrow line-hash df above (text never
    shuffles; the boilerplate set is O(hot lines) and is broadcast via
    ``ray.put``); pass 2 streams the corpus once more and filters
    lines locally.  Both passes are the decontaminate/broadcast
    pattern — no all-to-all ever carries document text."""
    import ray

    src = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
        .map_batches(_inject_boiler, batch_format="pyarrow")
    )
    from ..functions.tables import typed_pandas
    hot_tbl = typed_pandas(line_df(src, LINE_DF_MIN), {"h": "int64"})
    hot_sorted = np.sort(
        hot_tbl["h"].to_numpy().astype(np.int64).view(np.uint64))
    ref = ray.put(hot_sorted)

    def stats(t: pa.Table) -> pa.Table:
        hot = ray.get(ref)
        line_h, line_doc, n_lines, line_chars, _, _, _, _ = \
            _line_hash_arrays(t["text"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        flag = _sorted_member(hot, line_h)
        nd = ids.size
        nr = np.zeros(nd, dtype=np.int64)
        np.add.at(nr, line_doc, flag.astype(np.int64))
        kept_sum = np.zeros(nd, dtype=np.int64)
        np.add.at(kept_sum, line_doc[~flag], line_chars[~flag])
        n_kept = n_lines - nr
        # len(" ".join(kept)) = Σ len(line) + (n_kept - 1) separators
        kc = kept_sum + np.maximum(n_kept - 1, 0)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_lines": pa.array(n_lines, type=pa.int64()),
            "n_removed": pa.array(nr, type=pa.int64()),
            "kept_chars": pa.array(kc, type=pa.int64()),
        })

    out = typed_pandas(
        src.map_batches(stats, batch_format="pyarrow"),
        {"doc_id": "int64", "n_lines": "int64", "n_removed": "int64",
         "kept_chars": "int64"}).sort_values("doc_id")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].astype("int64").tolist(),
                           type=pa.int64()),
        "n_lines": pa.array(out["n_lines"].astype("int64").tolist(),
                            type=pa.int64()),
        "n_removed": pa.array(out["n_removed"].astype("int64").tolist(),
                              type=pa.int64()),
        "kept_chars": pa.array(out["kept_chars"].astype("int64").tolist(),
                               type=pa.int64()),
    })


def line_dedup_stats_sql() -> str:
    """Oracle: DuckDB reinjects the boilerplate, rebuilds the 10-word
    line windows (string_agg over word subscripts), computes line
    document frequency and the per-doc removal stats independently —
    membership by LINE STRING (the engine's 64-bit md5 keying is
    collision-equivalent)."""
    return f"""
        WITH synth AS (
            SELECT doc_id,
                   (CASE WHEN doc_id % 3 = 0
                         THEN '{_BOILER_1} ' ELSE '' END)
                   || (CASE WHEN doc_id % 7 = 0
                            THEN '{_BOILER_2} ' ELSE '' END)
                   || text AS text
            FROM documents
        ),
        tw AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                   generate_subscripts(string_split(text, ' '), 1) AS i
            FROM synth
        ),
        lines AS (
            SELECT doc_id, (i - 1) // {LINE_WORDS} AS li,
                   string_agg(w, ' ' ORDER BY i) AS line
            FROM tw GROUP BY doc_id, (i - 1) // {LINE_WORDS}
        ),
        df AS (
            SELECT line, count(DISTINCT doc_id) AS df
            FROM lines GROUP BY line
        ),
        hot AS (SELECT line FROM df WHERE df >= {LINE_DF_MIN}),
        marked AS (
            SELECT l.doc_id, l.line,
                   (h.line IS NOT NULL) AS is_hot
            FROM lines l LEFT JOIN hot h ON l.line = h.line
        )
        SELECT doc_id,
               count(*) AS n_lines,
               CAST(coalesce(sum(CASE WHEN is_hot THEN 1 END), 0)
                    AS BIGINT) AS n_removed,
               CAST(CASE WHEN count(*) - coalesce(
                        sum(CASE WHEN is_hot THEN 1 END), 0) = 0 THEN 0
                    ELSE coalesce(sum(CASE WHEN NOT is_hot
                                      THEN length(line) END), 0)
                         + count(*) - coalesce(
                             sum(CASE WHEN is_hot THEN 1 END), 0) - 1
                    END AS BIGINT) AS kept_chars
        FROM marked GROUP BY doc_id ORDER BY doc_id
    """


def strip_boiler_lines(ds: rd.Dataset, df_min: int = LINE_DF_MIN,
                       text_col: str = "text") -> rd.Dataset:
    """Rewrite ``text_col`` with boilerplate lines (document frequency
    >= df_min) removed — the reusable kernel behind line_dedup_stats,
    composable into curation pipelines (CCNet order: strip lines FIRST,
    then content-hash dedup, so shared boilerplate can't mask real
    duplicates or split real clusters).  Same scale shape: narrow
    line-hash df pass + O(hot lines) broadcast; document text is
    rewritten in place per batch, never shuffled."""
    import ray

    hot_tbl = line_df(
        ds.select_columns([text_col]).map_batches(
            lambda t: pa.table({"text": t[text_col]}),
            batch_format="pyarrow"),
        df_min).to_pandas()
    hot_sorted = np.sort(
        hot_tbl["h"].to_numpy().astype(np.int64).view(np.uint64))
    ref = ray.put(hot_sorted)

    def rewrite(t: pa.Table) -> pa.Table:
        hot = ray.get(ref)
        line_h, _, _, _, word_doc, word_line, flat, lens = \
            _line_hash_arrays(t[text_col])
        # " ".join(kept lines) == the kept lines' WORDS joined by " "
        # (lines partition the word axis), so the rebuild is one arrow
        # filter + list-rebuild + binary_join — no Python strings
        hot_line = _sorted_member(hot, line_h)
        if not hot_line.any():
            return t
        keep_word = ~hot_line[word_line] if len(flat) else \
            np.zeros(0, dtype=bool)
        new_lens = np.zeros(lens.size, dtype=np.int64)
        np.add.at(new_lens, word_doc[keep_word], 1)
        offsets = np.concatenate([np.zeros(1, np.int64),
                                  np.cumsum(new_lens, dtype=np.int64)])
        kept = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            flat.filter(pa.array(keep_word)))
        texts = pc.binary_join(kept, " ")
        return t.set_column(t.schema.get_field_index(text_col),
                            text_col, pc.cast(texts, pa.string()))

    return ds.map_batches(rewrite, batch_format="pyarrow")


# ------------------------------------------- exact-substring dedup
# The ExactSubstr operator of Lee et al. 2022 ("Deduplicating Training
# Data Makes Language Models Better"): any span of >= L tokens that
# appears more than once in the corpus is duplicated text.  The paper
# builds one giant suffix array on a single large-memory box; the
# distributed reformulation used here is the standard map-reduce
# equivalent — a span of length M >= L repeats iff every one of its
# sliding L-token windows repeats, so flagging repeated L-windows and
# taking their per-document interval union recovers exactly the
# maximal repeated regions of length >= L.  No counterpart in the
# reference (a filesystem PDF engine has no cross-document duplication
# problem); every web-scale training corpus runs this before training.
#
# Scale shape: pass 1 ships 8-byte window hashes only (text never
# shuffles) through per-batch partial counts -> one narrow int64
# groupby -> a DISTRIBUTED cnt >= 2 filter; the duplicated-hash set is
# broadcast once via ray.put for the pass-2 membership scan (the
# decontaminate/line_dedup shape).  At 100 TB the dup-window set of a
# crawl corpus is O(duplicated tokens) and can exceed one node's heap:
# the scale path hash-partitions (h, doc_id, start) by h, joins
# co-partitioned, and regroups by doc — same two narrow exchanges, no
# broadcast; the gate-scale broadcast is the measured-small
# convenience, the same documented trade as dedup_exact's loser-id
# broadcast.  Window keys are md5-low64 per WORD combined with a
# wrapping polynomial (see _ROLL_BASE) — O(vocab) hashed bytes +
# vectorized numpy combine instead of O(tokens x L) per-window md5 —
# and the DuckDB oracle compares window STRINGS, to which the keying
# is collision-equivalent, so the oracle never needs to reproduce it.

SUBSTR_WINDOW = 12       # ExactSubstr window length L, in words
# injected shared spans (>= 2L words so interior windows flag; the
# boundary windows straddling into per-doc unique text do NOT flag,
# which is what makes the interval union land exactly on the span)
_SPAN_A = ("the quick brown fox jumps over the lazy dog while the band "
           "plays on and the crowd waves flags in the bright afternoon "
           "sun near the old harbor wall")
_SPAN_B = ("every large web crawl repeats navigation chrome footer text "
           "and license boilerplate across millions of pages which the "
           "filter must find and remove quickly")


def _inject_spans(t: pa.Table) -> pa.Table:
    """Deterministic gate synth: docs with doc_id%5==0 get span A
    prepended, doc_id%7==0 span B appended (both => both)."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    pre = pa.array(np.where(ids % 5 == 0, _SPAN_A + " ", ""))
    post = pa.array(np.where(ids % 7 == 0, " " + _SPAN_B, ""))
    txt = pc.binary_join_element_wise(pre, t["text"], post, "")
    return pa.table({"doc_id": t["doc_id"], "text": txt})


def _doc_windows(text: str, window: int) -> list[str]:
    """Reference (scalar) window enumeration — kept for the unit test's
    naive cross-check; the pipeline uses `_window_hash_arrays`."""
    words = (text or "").split(" ")
    return [" ".join(words[i:i + window])
            for i in range(len(words) - window + 1)]


# Polynomial rolling combine base (odd 64-bit constant).  Window keys
# are built as Σ_j md5_low64(word[s+j]) · BASE^(L-1-j) mod 2^64: words
# are space-free (the split token), so window-STRING equality ⟺
# word-sequence equality ⟺ key equality (w.h.p.) — i.e. the key is
# collision-equivalent to hashing the joined window string, which is
# what lets the string-based DuckDB oracle stay the authority.  The
# md5 loop shrinks to the batch's word VOCABULARY; the window combine
# is `window` wrapping uint64 multiply-adds over the flat word-hash
# array — the "swap in a rolling hash" production path the module
# comment names, without losing oracle reproducibility.
_ROLL_BASE = 0x9E3779B97F4A7C15


def _window_hash_arrays(texts, window: int):
    """Vectorized per-batch sliding-window keys.  Returns
    ``(win_h, win_doc, n_win, lens, starts, offs)``: uint64 key per
    valid (non-doc-crossing) window, owning doc row per window,
    windows-per-doc, words-per-doc, global flat-word start index per
    window, and per-doc flat-word offsets (len n_docs+1)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    # fill_null("") → [""] matches the scalar (text or "").split(" ")
    lst = pc.split_pattern(texts.fill_null(""), " ")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    lens = pc.list_value_length(lst).to_numpy(
        zero_copy_only=False).astype(np.int64)
    offs = np.concatenate([np.zeros(1, np.int64),
                           np.cumsum(lens, dtype=np.int64)])
    n_win = np.maximum(lens - window + 1, 0)
    total = int(n_win.sum())
    empty64 = np.zeros(0, dtype=np.uint64)
    emptyi = np.zeros(0, dtype=np.int64)
    if total == 0:
        return empty64, emptyi, n_win, lens, emptyi, offs
    flat = lst.flatten()
    de = flat.dictionary_encode()
    vocab_h = _md5_low64(de.dictionary.to_pylist())
    wh = vocab_h[de.indices.to_numpy(zero_copy_only=False)]
    n = wh.size
    pows = np.array([pow(_ROLL_BASE, window - 1 - j, 1 << 64)
                     for j in range(window)], dtype=np.uint64)
    m = n - window + 1
    H = np.zeros(m, dtype=np.uint64)
    for j in range(window):
        H += wh[j:j + m] * pows[j]
    win_doc = np.repeat(np.arange(lens.size, dtype=np.int64), n_win)
    grp0 = np.concatenate([np.zeros(1, np.int64),
                           np.cumsum(n_win, dtype=np.int64)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(grp0, n_win)
    starts = offs[:-1][win_doc] + within
    return H[starts], win_doc, n_win, lens, starts, offs


def dup_window_hashes(ds: rd.Dataset, window: int = SUBSTR_WINDOW,
                      min_count: int = 2) -> rd.Dataset:
    """Pass 1: distributed window-occurrence counts.  Emits per-batch
    (window_hash, partial_count) pairs — 8-byte hashes move, never
    text — sums them in one narrow int64 groupby and applies the
    cnt >= min_count threshold DISTRIBUTED, so the driver-visible
    result is O(duplicated windows).  Counts OCCURRENCES (a window
    repeated within one document flags too, per ExactSubstr).
    Input dataset must have a ``text`` column."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        win_h, _, _, _, _, _ = _window_hash_arrays(t["text"], window)
        u, c = np.unique(win_h, return_counts=True)
        return pa.table({
            "h": pa.array(u.view(np.int64), type=pa.int64()),
            "cnt_part": pa.array(c.astype(np.int64), type=pa.int64()),
        })

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum("cnt_part", alias_name="cnt"))
    )
    return agg.filter(expr=f"cnt >= {int(min_count)}")


def exact_substring_over(ds: rd.Dataset,
                         window: int = SUBSTR_WINDOW) -> pa.Table:
    """Two-pass ExactSubstr over a (doc_id, text) dataset: pass 1 above,
    then one more streaming pass that recomputes each doc's window
    hashes, flags members of the duplicated set, and takes the interval
    union of flagged windows ([s, s+L) per flagged start s) with one
    vectorized +1/-1 diff + prefix sum per doc.  Returns per-doc
    (doc_id, n_windows, n_dup_windows, dup_tokens) where dup_tokens is
    the number of token positions covered by at least one repeated
    window — i.e. exactly the tokens inside maximal >= L repeated
    spans."""
    import ray

    from ..functions.tables import typed_pandas
    dup_tbl = typed_pandas(dup_window_hashes(ds, window), {"h": "int64"})
    dup_sorted = np.sort(
        dup_tbl["h"].to_numpy().astype(np.int64).view(np.uint64))
    ref = ray.put(dup_sorted)

    def stats(t: pa.Table) -> pa.Table:
        dup = ray.get(ref)
        win_h, win_doc, n_win, lens, starts, offs = \
            _window_hash_arrays(t["text"], window)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = np.zeros(lens.size, dtype=np.int64)
        cov = np.zeros(lens.size, dtype=np.int64)
        if win_h.size and dup.size:
            # sorted-array membership (binary search) on the broadcast
            pos = np.searchsorted(dup, win_h)
            flag = np.zeros(win_h.size, dtype=bool)
            inb = pos < dup.size
            flag[inb] = dup[pos[inb]] == win_h[inb]
            np.add.at(nd, win_doc, flag.astype(np.int64))
            # interval union over the GLOBAL flat word axis: windows
            # never cross docs (valid starts satisfy s+L <= doc end),
            # so per-position coverage decomposes per doc exactly
            fs = starts[flag]
            diff = np.zeros(int(offs[-1]) + 1, dtype=np.int64)
            np.add.at(diff, fs, 1)
            np.add.at(diff, fs + window, -1)
            covered = np.cumsum(diff[:-1], dtype=np.int64) > 0
            word_doc = np.repeat(np.arange(lens.size, dtype=np.int64),
                                 lens)
            np.add.at(cov, word_doc, covered.astype(np.int64))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_windows": pa.array(n_win, type=pa.int64()),
            "n_dup_windows": pa.array(nd, type=pa.int64()),
            "dup_tokens": pa.array(cov, type=pa.int64()),
        })

    out = typed_pandas(
        ds.map_batches(stats, batch_format="pyarrow"),
        {c: "int64" for c in ("doc_id", "n_windows", "n_dup_windows",
                              "dup_tokens")}).sort_values("doc_id")
    return pa.table({
        c: pa.array(out[c].astype("int64").tolist(), type=pa.int64())
        for c in ("doc_id", "n_windows", "n_dup_windows", "dup_tokens")
    })


def exact_substring_stats(sf_dir: str) -> pa.Table:
    """Gate query: inject deterministic shared spans (A into doc_id%5,
    B onto doc_id%7) so the corpus contains cross-document repeated
    substrings with known extents, then run ExactSubstr at
    SUBSTR_WINDOW and report per-doc duplicate-span coverage."""
    src = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
        .map_batches(_inject_spans, batch_format="pyarrow")
    )
    return exact_substring_over(src, SUBSTR_WINDOW)


def exact_substring_stats_sql() -> str:
    """Oracle: DuckDB reinjects the spans, rebuilds every sliding
    L-token window with a window-frame string_agg, counts window
    occurrences, flags cnt >= 2, and recomputes the per-doc interval
    union by unnesting each flagged window's token range — membership
    by WINDOW STRING (the engine's 64-bit md5 keying is
    collision-equivalent)."""
    w = SUBSTR_WINDOW
    return f"""
        WITH synth AS (
            SELECT doc_id,
                   (CASE WHEN doc_id % 5 = 0
                         THEN '{_SPAN_A} ' ELSE '' END)
                   || text
                   || (CASE WHEN doc_id % 7 = 0
                            THEN ' {_SPAN_B}' ELSE '' END) AS text
            FROM documents
        ),
        tw AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                   generate_subscripts(string_split(text, ' '), 1) AS i
            FROM synth
        ),
        win AS (
            SELECT doc_id, i AS s,
                   string_agg(w, ' ') OVER (
                       PARTITION BY doc_id ORDER BY i
                       ROWS BETWEEN CURRENT ROW
                       AND {w - 1} FOLLOWING) AS wstr,
                   count(*) OVER (
                       PARTITION BY doc_id ORDER BY i
                       ROWS BETWEEN CURRENT ROW
                       AND {w - 1} FOLLOWING) AS wlen
            FROM tw
        ),
        valid AS (SELECT doc_id, s, wstr FROM win WHERE wlen = {w}),
        cnt AS (SELECT wstr, count(*) AS c FROM valid GROUP BY wstr),
        flag AS (
            SELECT v.doc_id, v.s
            FROM valid v JOIN cnt ON v.wstr = cnt.wstr
            WHERE cnt.c >= 2
        ),
        cover AS (
            SELECT DISTINCT doc_id, tok FROM (
                SELECT doc_id, s + unnest(range({w})) AS tok FROM flag)
        ),
        nw AS (SELECT doc_id, count(*) AS n_windows
               FROM valid GROUP BY doc_id),
        nd AS (SELECT doc_id, count(*) AS n_dup_windows
               FROM flag GROUP BY doc_id),
        cv AS (SELECT doc_id, count(*) AS dup_tokens
               FROM cover GROUP BY doc_id)
        SELECT d.doc_id,
               coalesce(nw.n_windows, 0) AS n_windows,
               coalesce(nd.n_dup_windows, 0) AS n_dup_windows,
               coalesce(cv.dup_tokens, 0) AS dup_tokens
        FROM documents d
        LEFT JOIN nw USING (doc_id)
        LEFT JOIN nd USING (doc_id)
        LEFT JOIN cv USING (doc_id)
        ORDER BY d.doc_id
    """


# ------------------------------------------------------------- domains

# host blocklist (the RefinedWeb/UT1 shape: a curated host set the
# filter drops; inlined here — production swaps in the list file and
# broadcasts it once)
DOMAIN_BLOCKLIST = ("ex13.com", "ex37.com")


def domain_stats(sf_dir: str) -> pa.Table:
    """Per-domain curation stats + blocklist gate (the RefinedWeb
    URL-filtering shape): synth urls → canonicalize → per-CANONICAL-url
    rollup → host extraction → per-HOST rollup of
    (n_canonical, n_docs, total_chars, n_en) plus the blocklist
    verdict.  A curation pipeline reads this to drop blocked or
    low-quality domains before any text-level work.

    Scale shape: two narrow groupbys — canonical urls first (the SAME
    key url_dedup shuffles, O(urls) rows of five ints), then hosts
    (O(hosts)); text never moves, documents are read once with three
    columns.  The blocklist is an O(|list|) broadcast membership test
    applied to the HOST aggregate, not per document."""
    from ray.data.aggregate import Count, Sum

    def prep(t: pa.Table) -> pa.Table:
        st = _synth_urls(t)
        return pa.table({
            "canonical_url": canonicalize_urls(st["url"]),
            "n_chars": t["n_chars"],
            "is_en": pc.cast(pc.equal(t["lang"], "en"), pa.int64()),
        })

    def hostify(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(t["canonical_url"], r"^(?P<h>[^/?]+)"), "h")
        return pa.table({
            "host": host,
            "n_docs": t["n_docs"],
            "total_chars": t["total_chars"],
            "n_en": t["n_en"],
        })

    out = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "lang", "n_chars"])
        .map_batches(prep, batch_format="pyarrow")
        .groupby("canonical_url")
        .aggregate(Count(alias_name="n_docs"),
                   Sum("n_chars", alias_name="total_chars"),
                   Sum("is_en", alias_name="n_en"))
        .map_batches(hostify, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Count(alias_name="n_canonical"),
                   Sum("n_docs", alias_name="n_docs"),
                   Sum("total_chars", alias_name="total_chars"),
                   Sum("n_en", alias_name="n_en"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    out = typed_pandas(out, {
        "host": "object", "n_canonical": "int64", "n_docs": "int64",
        "total_chars": "int64", "n_en": "int64"}).sort_values("host")
    blocked = out["host"].isin(DOMAIN_BLOCKLIST)
    return pa.table({
        "host": pa.array(out["host"].tolist(), type=pa.string()),
        "n_canonical": pa.array(out["n_canonical"].astype("int64")
                                .tolist(), type=pa.int64()),
        "n_docs": pa.array(out["n_docs"].astype("int64").tolist(),
                           type=pa.int64()),
        "total_chars": pa.array(out["total_chars"].astype("int64")
                                .tolist(), type=pa.int64()),
        "n_en": pa.array(out["n_en"].astype("int64").tolist(),
                         type=pa.int64()),
        "blocked": pa.array(blocked.tolist(), type=pa.bool_()),
    })


def domain_stats_sql() -> str:
    """Oracle: DuckDB recomputes the synth, the canonicalization, the
    host extraction and both rollups independently."""
    bl = ", ".join(f"'{h}'" for h in DOMAIN_BLOCKLIST)
    return r"""
        WITH synth AS (
            SELECT doc_id,
                   (CASE doc_id % 3 WHEN 0 THEN 'HTTPS://WWW.'
                        WHEN 1 THEN 'https://' ELSE 'http://www.' END)
                   || 'Ex' || ((doc_id // 3) % 50) || '.com/P/'
                   || (doc_id // 3)
                   || (CASE doc_id % 3
                        WHEN 0 THEN '/?utm_source=a&utm_medium=b'
                        WHEN 1 THEN '?utm_campaign=c' ELSE '/' END)
                   AS url
            FROM documents
        ),
        canon AS (
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(
                       regexp_replace(regexp_replace(regexp_replace(
                           regexp_replace(lower(url),
                               '^https?://', ''),
                           '^www\.', ''),
                           '([?&])utm_[^&]*&', '\1', 'g'),
                           '([?&])utm_[^&]*&', '\1', 'g'),
                           '[?&]utm_[^&]*$', ''),
                           '\?$', ''),
                           '/$', '') AS canonical_url
            FROM synth
        ),
        per_canon AS (
            SELECT c.canonical_url, count(*) AS n_docs,
                   sum(d.n_chars) AS total_chars,
                   sum(CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END) AS n_en
            FROM canon c JOIN documents d USING (doc_id)
            GROUP BY c.canonical_url
        )
        SELECT regexp_extract(canonical_url, '^([^/?]+)', 1) AS host,
               count(*) AS n_canonical,
               CAST(sum(n_docs) AS BIGINT) AS n_docs,
               CAST(sum(total_chars) AS BIGINT) AS total_chars,
               CAST(sum(n_en) AS BIGINT) AS n_en,
               host IN (""" + bl + r""") AS blocked
        FROM per_canon
        GROUP BY host
        ORDER BY host
    """


# ------------------------------------------------------------ pagerank

# Distributed PageRank over the crawl link graph — THE canonical
# web-scale iterative computation (Page et al. 1999; every crawl
# pipeline ranks pages for crawl ordering / quality weighting).  The
# sf tables carry no link column, so the graph is synthesized
# deterministically from doc_id (the url_dedup/_synth_urls precedent):
# page i has outdeg(i) = 1 + i % 3 out-links, target j of page i is
# mix64(4*i + j) % N — a fixed, hash-uniform directed graph (self-loops
# permitted and documented; mix64 keys are distinct because j < 4).
#
# Arithmetic is INTEGER-EXACT so the result is bitwise parallelism-
# independent and one SQL oracle can replay it: ranks are scaled by
# PAGERANK_SCALE, each edge carries floor(r_src * 85 / (100 * outdeg)),
# and the update is r' = floor(SCALE*15/100) + sum(in-contributions).
# Floor-division losses make this an approximation of float PageRank
# (bounded by E/SCALE per iteration — ~1e-9 relative), which is the
# price of a deterministic distributed gate.
#
# Scale shape: ranks are a Dataset of (doc_id, rank) int64 pairs; each
# iteration is one map_batches (synthesize this batch's out-edges from
# doc_id alone — no edge table is ever stored — and pre-combine
# contributions per dst WITHIN the batch via np.add.at) followed by one
# narrow groupby-sum shuffle of (dst, contrib) int pairs.  Text never
# moves, the driver holds only N and the loop counter, and per-
# iteration traffic is O(E) 16-byte rows — the standard Pregel/PowerGraph
# PageRank exchange.  mix64 in-degrees are hash-uniform, so there is no
# hot dst key; a real crawl graph's power-law in-degree would pre-
# combine across batches with a salted two-stage sum (the tfidf_topk
# bucket precedent).

PAGERANK_ITERS = 3
PAGERANK_SCALE = 10 ** 9
PAGERANK_DAMP_NUM = 85    # damping d = 0.85 as an exact ratio
PAGERANK_DAMP_DEN = 100
PAGERANK_MAX_DEG = 4      # outdeg < 4 keeps mix64 keys 4*i+j distinct


def _synth_out_edges(ids: np.ndarray, n_docs: int):
    """Deterministic out-edges of the synthetic link graph: returns
    (src_rep, dst, outdeg_rep) with one row per edge."""
    from ..functions.hashing import mix64

    outdeg = 1 + (ids % 3)
    src = np.repeat(ids, outdeg)
    odeg = np.repeat(outdeg, outdeg)
    starts = np.cumsum(outdeg, dtype=np.int64) - outdeg
    j = np.arange(src.size, dtype=np.int64) - np.repeat(starts, outdeg)
    key = (PAGERANK_MAX_DEG * src + j).astype(np.uint64)
    dst = (mix64(key) % np.uint64(n_docs)).astype(np.int64)
    return src, dst, odeg


def link_pagerank(sf_dir: str) -> pa.Table:
    """Gate query: PAGERANK_ITERS integer-exact PageRank iterations
    over the synthetic link graph; returns (doc_id, rank_scaled) for
    every page, sorted by doc_id."""
    from ray.data.aggregate import Sum

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    n_docs = docs.count()
    if n_docs == 0:
        # empty corpus: typed empty result, no "% 0" edge synthesis
        return pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "rank_scaled": pa.array([], type=pa.int64()),
        })
    base = (PAGERANK_SCALE * (PAGERANK_DAMP_DEN - PAGERANK_DAMP_NUM)
            ) // PAGERANK_DAMP_DEN

    def init(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "rank_scaled": pa.array(
                np.full(t.num_rows, PAGERANK_SCALE, dtype=np.int64)),
        })

    def scatter(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["rank_scaled"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src, dst, odeg = _synth_out_edges(ids, n_docs)
        contrib = (np.repeat(r, 1 + (ids % 3)) * PAGERANK_DAMP_NUM) \
            // (PAGERANK_DAMP_DEN * odeg)
        # pre-combine per dst within the batch, then append zero rows
        # for this batch's own ids so zero-in-degree nodes survive the
        # groupby (the distributed LEFT JOIN, without a join)
        udst, inv = np.unique(dst, return_inverse=True)
        sums = np.zeros(udst.size, dtype=np.int64)
        np.add.at(sums, inv, contrib)
        return pa.table({
            "doc_id": pa.array(np.concatenate([udst, ids]),
                               type=pa.int64()),
            "c": pa.array(np.concatenate(
                [sums, np.zeros(ids.size, dtype=np.int64)]),
                type=pa.int64()),
        })

    def gather(t: pa.Table) -> pa.Table:
        s = t["sum(c)"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "rank_scaled": pa.array(base + s, type=pa.int64()),
        })

    ranks = docs.map_batches(init, batch_format="pyarrow")
    for _ in range(PAGERANK_ITERS):
        ranks = (ranks
                 .map_batches(scatter, batch_format="pyarrow")
                 .groupby("doc_id")
                 .aggregate(Sum("c"))
                 .map_batches(gather, batch_format="pyarrow"))

    out = ranks.to_pandas().sort_values("doc_id")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].astype("int64").tolist(),
                           type=pa.int64()),
        "rank_scaled": pa.array(
            out["rank_scaled"].astype("int64").tolist(),
            type=pa.int64()),
    })


def _link_edges_ctes() -> str:
    """Shared DuckDB WITH-clauses resynthesizing the mix64 link graph:
    `nn` (doc count), `e0..e2` (the splitmix64 finalizer limbs, the
    oracles.sample_sql arithmetic), `edges(src, outdeg, dst)`.  Used by
    every link-graph oracle (pagerank, anchor-text)."""
    U32, U64 = 1 << 32, 1 << 64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    return f"""
        nn AS (SELECT count(*)::HUGEINT AS n FROM documents),
        e0 AS (
            SELECT d.doc_id AS src,
                   CAST(1 + d.doc_id % 3 AS BIGINT) AS outdeg,
                   CAST({PAGERANK_MAX_DEG} * d.doc_id + t.j
                        AS HUGEINT) AS x
            FROM documents d, range({PAGERANK_MAX_DEG - 1}) t(j)
            WHERE t.j < 1 + d.doc_id % 3
        ),
        e1 AS (SELECT src, outdeg,
                      {mulmod('xor(x, x >> 30)', C1)} AS x FROM e0),
        e2 AS (SELECT src, outdeg,
                      {mulmod('xor(x, x >> 27)', C2)} AS x FROM e1),
        edges AS (
            SELECT src, outdeg,
                   CAST(xor(x, x >> 31) % (SELECT n FROM nn) AS BIGINT)
                       AS dst
            FROM e2
        )"""


def link_pagerank_sql() -> str:
    """Oracle: DuckDB resynthesizes the edge list (range() expansion +
    the splitmix64 limb arithmetic of oracles.sample_sql) and replays
    all PAGERANK_ITERS scatter/gather rounds as chained CTEs in exact
    BIGINT arithmetic."""
    base = (PAGERANK_SCALE * (PAGERANK_DAMP_DEN - PAGERANK_DAMP_NUM)
            ) // PAGERANK_DAMP_DEN
    it = []
    for k in range(1, PAGERANK_ITERS + 1):
        it.append(f"""
        c{k} AS (
            SELECT e.dst AS doc_id,
                   sum((r.rank_scaled * {PAGERANK_DAMP_NUM})
                       // ({PAGERANK_DAMP_DEN} * e.outdeg)) AS s
            FROM edges e JOIN r{k - 1} r ON r.doc_id = e.src
            GROUP BY e.dst
        ),
        r{k} AS (
            SELECT d.doc_id,
                   CAST({base} + coalesce(c{k}.s, 0) AS BIGINT)
                       AS rank_scaled
            FROM documents d LEFT JOIN c{k} USING (doc_id)
        )""")
    return f"""
        WITH {_link_edges_ctes()},
        r0 AS (
            SELECT doc_id,
                   CAST({PAGERANK_SCALE} AS BIGINT) AS rank_scaled
            FROM documents
        ),{",".join(it)}
        SELECT doc_id, rank_scaled FROM r{PAGERANK_ITERS}
        ORDER BY doc_id
    """


# -------------------------------------------------------- anchor text

# Anchor-text aggregation — the other canonical link-graph operator in
# a web indexer (Brin & Page 1998 §2.2: anchor text is indexed WITH the
# page it points at, because it describes the target better than the
# target's own words).  For every link src→dst the source page
# contributes an anchor term; the indexer aggregates, per target page,
# how many in-links carry each term.  The edge list is the same
# deterministic mix64 graph as `link_pagerank` (synthesized per batch
# from doc_id, never stored); the anchor term is the source page's
# lowercased first word — a deterministic function of src text, so one
# SQL oracle can replay the whole thing.
#
# Scale shape: ONE scatter map_batches (extract the per-row anchor with
# a single vectorized extract_regex, expand to edges, pre-combine
# (dst, anchor) pairs within the batch via a packed-code np.unique) +
# ONE narrow groupby-sum over short (int64, token, int64) rows.  Source
# TEXT never moves — only the extracted anchor token crosses the wire,
# which is what makes anchor aggregation feasible at crawl scale.  A
# power-law in-degree (real graphs) would salt hot dst keys exactly as
# the pagerank comment describes.

_ANCHOR_RE = r"(?P<a>[A-Za-z]+)"


def anchor_text_agg(sf_dir: str) -> pa.Table:
    """Gate query: per (target page, anchor term) in-link counts over
    the synthetic link graph; sorted by (target_doc_id, anchor_term)."""
    from ray.data.aggregate import Sum

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    n_docs = docs.count()
    if n_docs == 0:
        # empty corpus: typed empty result, no "% 0" edge synthesis
        return pa.table({
            "target_doc_id": pa.array([], type=pa.int64()),
            "anchor_term": pa.array([], type=pa.string()),
            "n_links": pa.array([], type=pa.int64()),
        })

    def scatter(t: pa.Table) -> pa.Table:
        import pandas as pd

        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = pc.extract_regex(t["text"], _ANCHOR_RE)
        anchors = pc.ascii_lower(pc.struct_field(m, "a"))
        # factorize the per-ROW anchors once; edges inherit codes by
        # np.repeat — no per-edge string work
        codes, uniq = pd.factorize(
            anchors.to_numpy(zero_copy_only=False), use_na_sentinel=True)
        src, dst, _ = _synth_out_edges(ids, n_docs)
        outdeg = 1 + (ids % 3)
        ecode = np.repeat(codes, outdeg)
        keep = ecode >= 0  # drop edges whose src has no word
        packed = dst[keep] * np.int64(len(uniq) + 1) + ecode[keep]
        upk, cnt = np.unique(packed, return_counts=True)
        udst = upk // (len(uniq) + 1)
        ucode = upk % (len(uniq) + 1)
        return pa.table({
            "target_doc_id": pa.array(udst, type=pa.int64()),
            "anchor_term": pa.array(
                np.asarray(uniq, dtype=object)[ucode], type=pa.string()),
            "c": pa.array(cnt.astype(np.int64), type=pa.int64()),
        })

    out = (docs.map_batches(scatter, batch_format="pyarrow")
           .groupby(["target_doc_id", "anchor_term"])
           .aggregate(Sum("c", alias_name="n_links"))
           .to_pandas()
           .sort_values(["target_doc_id", "anchor_term"]))
    return pa.table({
        "target_doc_id": pa.array(
            out["target_doc_id"].astype("int64").tolist(), type=pa.int64()),
        "anchor_term": pa.array(out["anchor_term"].tolist(),
                                type=pa.string()),
        "n_links": pa.array(out["n_links"].astype("int64").tolist(),
                            type=pa.int64()),
    })


def anchor_text_agg_sql() -> str:
    """Oracle: the shared mix64 edge CTEs + DuckDB's own first-word
    extraction and the (dst, anchor) rollup."""
    return f"""
        WITH {_link_edges_ctes()},
        anchors AS (
            SELECT doc_id AS src,
                   lower(regexp_extract(text, '[A-Za-z]+')) AS anchor_term
            FROM documents
            WHERE regexp_matches(text, '[A-Za-z]')
        )
        SELECT e.dst AS target_doc_id, a.anchor_term,
               count(*) AS n_links
        FROM edges e JOIN anchors a ON a.src = e.src
        GROUP BY e.dst, a.anchor_term
        ORDER BY target_doc_id, anchor_term
    """


# ------------------------------------------------------ crawl frontier

# Politeness-scheduled crawl frontier — the scheduling operator every
# crawler runs between URL discovery and fetching (Heydon & Najork's
# Mercator frontier; one fetch per host per politeness round).  Takes
# the CANONICAL url set (the url_dedup winner rule), drops blocked
# hosts (the domain_stats blocklist), and assigns each url its
# ``fetch_round``: the 0-based rank of the url within its host in
# deterministic priority order (ascending winner_doc_id) — in round r,
# every host fetches its r-th url.
#
# Scale shape: one narrow groupby on canonical_url (the url_dedup
# shuffle — urls, never documents, move), then the user_sessions
# pattern: a map-side hash spill on fnv1a64(host) % B so every host's
# urls land wholly in one bucket file, then ONE vectorized
# lexsort+run-length rank pass per bucket.  No per-host Python, no
# all-to-all sort; ``num_buckets`` bounds per-task memory at
# O(urls/B) short rows.

FRONTIER_BUCKETS = 16


def crawl_frontier(sf_dir: str, *, num_buckets: int = FRONTIER_BUCKETS
                   ) -> pa.Table:
    """Gate query: (host, canonical_url, winner_doc_id, fetch_round)
    for every unblocked canonical url, sorted by (host, fetch_round)."""
    import pandas as pd
    from ray.data.aggregate import Min

    from ..functions.hashing import fnv1a64_str
    from ..functions.spill import BUCKET_COL, bucket_exchange

    def prep(t: pa.Table) -> pa.Table:
        st = _synth_urls(t)
        return pa.table({
            "doc_id": st["doc_id"],
            "canonical_url": canonicalize_urls(st["url"]),
        })

    def hostify(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(t["canonical_url"], r"^(?P<h>[^/?]+)"), "h")
        keep = pc.invert(pc.is_in(
            host, value_set=pa.array(DOMAIN_BLOCKLIST)))
        t = pa.table({
            "host": host,
            "canonical_url": t["canonical_url"],
            "winner_doc_id": t["winner_doc_id"],
        }).filter(keep)
        # bucket by host hash — O(unique hosts per batch) Python (the
        # tfidf_topk precedent), rows inherit codes via factorize
        codes, uniq = pd.factorize(
            t["host"].to_numpy(zero_copy_only=False))
        b_uniq = np.array(
            [fnv1a64_str(u) % num_buckets for u in uniq],
            dtype=np.int32) if len(uniq) else np.array([], np.int32)
        return t.append_column(BUCKET_COL, pa.array(
            b_uniq[codes] if len(uniq) else
            np.array([], np.int32)))

    def rank_bucket(_b: int, t: pa.Table) -> pa.Table:
        h = t["host"].to_numpy(zero_copy_only=False)
        wid = t["winner_doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        codes, _ = pd.factorize(h)
        order = np.lexsort((wid, codes))
        hc = codes[order]
        starts = np.r_[0, np.flatnonzero(hc[1:] != hc[:-1]) + 1] \
            if hc.size else np.array([], np.int64)
        counts = np.diff(np.r_[starts, hc.size]).astype(np.int64)
        rank = (np.arange(hc.size, dtype=np.int64)
                - np.repeat(starts, counts))
        return pa.table({
            "host": pa.array(h[order], type=pa.string()),
            "canonical_url": pa.array(
                t["canonical_url"].to_numpy(zero_copy_only=False)[order],
                type=pa.string()),
            "winner_doc_id": pa.array(wid[order], type=pa.int64()),
            "fetch_round": pa.array(rank, type=pa.int64()),
        })

    out = bucket_exchange(
        [read_parquet_nometa(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"])
         .map_batches(prep, batch_format="pyarrow")
         .groupby("canonical_url")
         .aggregate(Min("doc_id", alias_name="winner_doc_id"))
         .map_batches(hostify, batch_format="pyarrow")
         .repartition(num_buckets)],
        [None], num_buckets, rank_bucket).to_pandas()
    if out.empty:  # empty corpus: no buckets were written
        return pa.table({
            "host": pa.array([], type=pa.string()),
            "canonical_url": pa.array([], type=pa.string()),
            "winner_doc_id": pa.array([], type=pa.int64()),
            "fetch_round": pa.array([], type=pa.int64()),
        })
    out = out.sort_values(["host", "fetch_round"])
    return pa.table({
        "host": pa.array(out["host"].tolist(), type=pa.string()),
        "canonical_url": pa.array(out["canonical_url"].tolist(),
                                  type=pa.string()),
        "winner_doc_id": pa.array(
            out["winner_doc_id"].astype("int64").tolist(),
            type=pa.int64()),
        "fetch_round": pa.array(
            out["fetch_round"].astype("int64").tolist(),
            type=pa.int64()),
    })


def crawl_frontier_sql() -> str:
    """Oracle: the url_dedup oracle nested as a CTE, DuckDB's own host
    extraction + blocklist filter, and ``row_number() - 1`` per host in
    winner order."""
    bl = ", ".join(f"'{h}'" for h in DOMAIN_BLOCKLIST)
    return f"""
        WITH dedup AS ({url_dedup_sql()}),
        hosted AS (
            SELECT regexp_extract(canonical_url, '^[^/?]+') AS host,
                   canonical_url, winner_doc_id
            FROM dedup
            WHERE regexp_extract(canonical_url, '^[^/?]+')
                  NOT IN ({bl})
        )
        SELECT host, canonical_url, winner_doc_id,
               row_number() OVER (
                   PARTITION BY host ORDER BY winner_doc_id
               ) - 1 AS fetch_round
        FROM hosted
        ORDER BY host, fetch_round
    """


# ----------------------------------------------------------- host graph

# Host-graph rollup — the standard web-graph coarsening (Broder et al.
# 2000 "Graph structure in the web" analyzes exactly this host-level
# projection): collapse the page-level link graph to
# (src_host, dst_host, n_links).  Node count drops ~10^4x, which is
# what makes whole-graph analytics (components, centrality) tractable
# after the rollup.  Hosts here are the canonical hosts of the
# url_dedup synth ("ex{k}.com"), derivable arithmetically from doc_id —
# so the scatter stays pure integer work until the final formatting.
#
# Scale shape: one scatter map_batches (synthesize this batch's edges,
# project both endpoints to host codes, pre-combine packed
# (src_host, dst_host) pairs via np.unique) + one narrow groupby-sum
# over O(hosts²) short rows.  No strings on the wire until the
# O(hosts²) result formats.

_N_SYNTH_HOSTS = 50


def _host_code(ids: np.ndarray) -> np.ndarray:
    """Canonical host index of a page (the _synth_urls host rule)."""
    return (ids // 3) % _N_SYNTH_HOSTS


def host_graph(sf_dir: str) -> pa.Table:
    """Gate query: host-level link rollup (src_host, dst_host, n_links)
    over the synthetic page graph, sorted by (src_host, dst_host)."""
    from ray.data.aggregate import Sum

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    n_docs = docs.count()
    if n_docs == 0:
        # empty corpus: typed empty result, no "% 0" edge synthesis
        return pa.table({
            "src_host": pa.array([], type=pa.string()),
            "dst_host": pa.array([], type=pa.string()),
            "n_links": pa.array([], type=pa.int64()),
        })

    def scatter(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src, dst, _ = _synth_out_edges(ids, n_docs)
        packed = (_host_code(src) * np.int64(_N_SYNTH_HOSTS)
                  + _host_code(dst))
        upk, cnt = np.unique(packed, return_counts=True)
        return pa.table({
            "hh": pa.array(upk, type=pa.int64()),
            "c": pa.array(cnt.astype(np.int64), type=pa.int64()),
        })

    out = (docs.map_batches(scatter, batch_format="pyarrow")
           .groupby("hh")
           .aggregate(Sum("c", alias_name="n_links"))
           .to_pandas()
           .sort_values("hh"))
    hh = out["hh"].to_numpy()
    fmt = lambda a: [f"ex{int(x)}.com" for x in a]  # noqa: E731
    return pa.table({
        "src_host": pa.array(fmt(hh // _N_SYNTH_HOSTS), type=pa.string()),
        "dst_host": pa.array(fmt(hh % _N_SYNTH_HOSTS), type=pa.string()),
        "n_links": pa.array(out["n_links"].astype("int64").tolist(),
                            type=pa.int64()),
    })


def host_graph_sql() -> str:
    """Oracle: shared mix64 edge CTEs + DuckDB's own host projection
    and rollup (sorted on the PACKED code, matching the engine's
    integer sort order)."""
    return f"""
        WITH {_link_edges_ctes()}
        SELECT 'ex' || ((src // 3) % {_N_SYNTH_HOSTS}) || '.com'
                   AS src_host,
               'ex' || ((dst // 3) % {_N_SYNTH_HOSTS}) || '.com'
                   AS dst_host,
               count(*) AS n_links
        FROM edges
        GROUP BY (src // 3) % {_N_SYNTH_HOSTS},
                 (dst // 3) % {_N_SYNTH_HOSTS}
        ORDER BY (src // 3) % {_N_SYNTH_HOSTS},
                 (dst // 3) % {_N_SYNTH_HOSTS}
    """


# ---------------------------------------------------- connected comps

# Connected components over the (undirected) link graph — the web-graph
# analytics primitive behind Broder's bow-tie study and every
# host/site clustering job.  Implemented as HASH-MIN label propagation
# (the standard distributed CC kernel: each round every vertex takes
# the min label among itself and its neighbors), run for a FIXED
# LINKCC_ITERS synchronous rounds so the result is deterministic and a
# chained-CTE SQL oracle can replay it — production iterates the same
# round kernel to fixpoint (rounds ~ graph diameter; large-star/
# small-star shortcutting cuts that to O(log n), the documented
# evolution path).
#
# Round shape — ONE Ray job per round: the label state lives as a
# bucket-partitioned parquet layout co-partitioned with the static
# by-dst edge layout (same mix64 % B, laid out once), so a round is a
# single pipeline  read label buckets → per-bucket contributions
# (forward scatter synthesized from the bucket's own ids; REVERSE =
# the co-partitioned edge bucket's label(dst) looked up by
# searchsorted, no Acero, no separate join job) → one narrow
# groupby-min → bucketed write of the next round's labels AS THE SINK.
# The per-round label spill that hash_join used to run as its own job
# is thereby fused into the previous round's sink; everything on the
# wire is still a 16-byte int pair.  Round 0 is join-free entirely:
# label(dst) == dst and a node's out-edges are synthesizable from its
# id, so the first round streams the docs ids directly.

LINKCC_ITERS = 3
_LINKCC_BUCKETS = 16


def link_components(sf_dir: str) -> pa.Table:
    """Gate query: LINKCC_ITERS hash-min rounds over the undirected
    synthetic link graph; returns (doc_id, label) sorted by doc_id."""
    from ray.data.aggregate import Min

    from ..functions.spill import bucket_exchange, spill_bucketed, spill_dir

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    n_docs = docs.count()
    if n_docs == 0:
        # empty corpus: typed empty result, no "% 0" edge synthesis
        return pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "label": pa.array([], type=pa.int64()),
        })
    NB = _LINKCC_BUCKETS
    imax = np.iinfo(np.int64).max

    def edges_tbl(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src, dst, _ = _synth_out_edges(ids, n_docs)
        return pa.table({"src": pa.array(src, type=pa.int64()),
                         "dst": pa.array(dst, type=pa.int64())})

    def contrib0(t: pa.Table) -> pa.Table:
        # round 0, labels == ids: fwd scatter (src -> dst), rev pick-up
        # (min dst per src — label(dst) is dst itself), and self rows
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src, dst, odeg = _synth_out_edges(ids, n_docs)
        udst, inv = np.unique(dst, return_inverse=True)
        mins = np.full(udst.size, imax, dtype=np.int64)
        np.minimum.at(mins, inv, src)
        starts = np.cumsum(1 + (ids % 3), dtype=np.int64) - (1 + (ids % 3))
        rev_min = np.minimum.reduceat(dst, starts) if dst.size else \
            np.zeros(0, dtype=np.int64)
        return pa.table({
            "node": pa.array(np.concatenate([udst, ids]), type=pa.int64()),
            "cand": pa.array(np.concatenate(
                [mins, np.minimum(ids, rev_min)]), type=pa.int64()),
        })

    def contrib(_b: int, lt: pa.Table | None,
                et: pa.Table | None) -> pa.Table | None:
        if lt is None:
            return None
        ids = lt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab = lt["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        src, dst, _ = _synth_out_edges(ids, n_docs)
        cand = np.repeat(lab, 1 + (ids % 3))
        udst, inv = np.unique(dst, return_inverse=True)
        mins = np.full(udst.size, imax, dtype=np.int64)
        np.minimum.at(mins, inv, cand)
        nodes = [udst, ids]
        cands = [mins, lab]
        if et is not None:
            # co-partitioned: every dst in edge bucket b has its label
            # in THIS labels bucket — local searchsorted
            d = et["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            s = et["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(ids, kind="stable")
            sid, slab = ids[order], lab[order]
            pos = np.minimum(np.searchsorted(sid, d), max(sid.size - 1, 0))
            ok = sid[pos] == d if sid.size else \
                np.zeros(d.size, dtype=bool)
            usrc, sinv = np.unique(s[ok], return_inverse=True)
            smin = np.full(usrc.size, imax, dtype=np.int64)
            np.minimum.at(smin, sinv, slab[pos[ok]])
            nodes.append(usrc)
            cands.append(smin)
        return pa.table({
            "node": pa.array(np.concatenate(nodes), type=pa.int64()),
            "cand": pa.array(np.concatenate(cands), type=pa.int64()),
        })

    def relabel(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(t["node"], pa.int64()),
                         "label": pc.cast(t["min(cand)"], pa.int64())})

    with spill_dir("pdfsearch_cc_") as work:
        if LINKCC_ITERS > 1:
            edges_dir = spill_bucketed(
                docs.map_batches(edges_tbl, batch_format="pyarrow"),
                "dst", f"{work}/edges", num_buckets=NB)
        labels_dir = None
        for k in range(LINKCC_ITERS):
            if k == 0:
                contrib_ds = docs.map_batches(contrib0,
                                              batch_format="pyarrow")
            else:
                contrib_ds = bucket_exchange([labels_dir, edges_dir],
                                             [None, None], NB, contrib)
            labels = (contrib_ds.groupby("node")
                      .aggregate(Min("cand"))
                      .map_batches(relabel, batch_format="pyarrow"))
            if k < LINKCC_ITERS - 1:
                labels_dir = spill_bucketed(labels, "doc_id",
                                            f"{work}/labels_{k}",
                                            num_buckets=NB)
            else:
                out = labels.to_pandas().sort_values("doc_id")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].astype("int64").tolist(),
                           type=pa.int64()),
        "label": pa.array(out["label"].astype("int64").tolist(),
                          type=pa.int64()),
    })


def link_components_sql() -> str:
    """Oracle: shared edge CTEs + LINKCC_ITERS chained rounds, each one
    `min over (self UNION ALL fwd-neighbor UNION ALL rev-neighbor)` —
    pure BIGINT min, no float anywhere."""
    it = []
    for k in range(1, LINKCC_ITERS + 1):
        it.append(f"""
        l{k} AS (
            SELECT doc_id, min(label) AS label FROM (
                SELECT doc_id, label FROM l{k - 1}
                UNION ALL
                SELECT e.dst AS doc_id, l.label
                FROM edges e JOIN l{k - 1} l ON l.doc_id = e.src
                UNION ALL
                SELECT e.src AS doc_id, l.label
                FROM edges e JOIN l{k - 1} l ON l.doc_id = e.dst
            ) GROUP BY doc_id
        )""")
    return f"""
        WITH {_link_edges_ctes()},
        l0 AS (SELECT doc_id, doc_id AS label FROM documents),
        {",".join(it)}
        SELECT doc_id, label FROM l{LINKCC_ITERS}
        ORDER BY doc_id
    """


# ------------------------------------------------- anchor-boosted rank

# Anchor-boosted retrieval — what anchor aggregation is FOR (Brin &
# Page 1998 §2.2; web engines rank a page by its own text AND the text
# of links pointing at it).  Integer scoring keeps the gate exact:
#
#   score(q, d) = sum_t tf_simple(t, d.text)
#               + ANCHOR_BOOST_W * |in-links of d whose anchor is in q|
#
# over the simple-analyzer query tokens t.  Top-K per query by
# (score DESC, doc_id ASC) — a total order, so the cut is unique.
#
# Scale shape: ONE pass over text computes the tf partials for ALL
# queries (the _tok_codes dictionary-coded flat-token kernel — the
# token stream never becomes Python objects) and the anchor partials
# ride the pagerank edge scatter; both emit narrow
# (query, doc_id, partial) rows into one groupby-sum, then per-block
# partial top-K caps driver traffic at O(K · blocks · queries).

ANCHOR_BOOST_W = 3
ANCHOR_BOOST_K = 10
ANCHOR_BOOST_QUERIES = ("hash join filter",
                        "stream window merge",
                        "batch scan column")


def anchor_boosted_topk(sf_dir: str) -> pa.Table:
    """Gate query: (query, rank, doc_id, score) — top-K docs per query
    under text-tf + anchor-in-link scoring, sorted by (query, rank)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from .queries import _tok_codes

    qterms = {q: [t for t in q.split() if t] for q in ANCHOR_BOOST_QUERIES}
    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    n_docs = docs.count()
    if n_docs == 0:
        # empty corpus: typed empty result, no "% 0" edge synthesis
        return pa.table({
            "query": pa.array([], type=pa.string()),
            "rank": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
            "score": pa.array([], type=pa.int64()),
        })

    def scatter(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q: list[str] = []
        out_d: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        # text tf partials — one tokenize for all queries
        codes, doc_idx, vocab = _tok_codes(t)
        code_of = {v: i for i, v in enumerate(vocab)}
        for q, terms in qterms.items():
            tset = np.array([code_of[x] for x in terms if x in code_of],
                            dtype=np.int64)
            if not tset.size:
                continue
            cnt = np.bincount(doc_idx[np.isin(codes, tset)],
                              minlength=len(ids))
            nz = np.flatnonzero(cnt)
            out_q.extend([q] * nz.size)
            out_d.append(ids[nz])
            out_s.append(cnt[nz].astype(np.int64))
        # anchor partials — one edge synthesis for all queries
        m = pc.extract_regex(t["text"], _ANCHOR_RE)
        anchors = pc.ascii_lower(pc.struct_field(m, "a"))
        acodes, auniq = pd.factorize(
            anchors.to_numpy(zero_copy_only=False), use_na_sentinel=True)
        src, dst, _ = _synth_out_edges(ids, n_docs)
        ecode = np.repeat(acodes, 1 + (ids % 3))
        a_of = {v: i for i, v in enumerate(auniq)}
        for q, terms in qterms.items():
            aset = np.array([a_of[x] for x in terms if x in a_of],
                            dtype=np.int64)
            if not aset.size:
                continue
            hit = dst[np.isin(ecode, aset)]
            udst, cnt = np.unique(hit, return_counts=True)
            out_q.extend([q] * udst.size)
            out_d.append(udst)
            out_s.append(cnt.astype(np.int64) * ANCHOR_BOOST_W)
        return pa.table({
            "query": pa.array(out_q, type=pa.string()),
            "doc_id": pa.array(
                np.concatenate(out_d) if out_d else
                np.array([], np.int64), type=pa.int64()),
            "part": pa.array(
                np.concatenate(out_s) if out_s else
                np.array([], np.int64), type=pa.int64()),
        })

    def block_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = (df.sort_values(["query", "score", "doc_id"],
                             ascending=[True, False, True])
              .groupby("query", sort=False).head(ANCHOR_BOOST_K))
        return pa.Table.from_pandas(df, preserve_index=False)

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"query": t["query"], "doc_id": t["doc_id"],
                         "score": t["sum(part)"]})

    parts = (docs.map_batches(scatter, batch_format="pyarrow")
             .groupby(["query", "doc_id"])
             .aggregate(Sum("part"))
             .map_batches(rename, batch_format="pyarrow")
             .map_batches(block_topk, batch_format="pyarrow")
             .to_pandas())
    final = (parts.sort_values(["query", "score", "doc_id"],
                               ascending=[True, False, True])
             .groupby("query", sort=False).head(ANCHOR_BOOST_K)
             .reset_index(drop=True))
    final["rank"] = final.groupby("query").cumcount() + 1
    final = final.sort_values(["query", "rank"])
    return pa.table({
        "query": pa.array(final["query"].tolist(), type=pa.string()),
        "rank": pa.array(final["rank"].astype("int64").tolist(),
                         type=pa.int64()),
        "doc_id": pa.array(final["doc_id"].astype("int64").tolist(),
                           type=pa.int64()),
        "score": pa.array(final["score"].astype("int64").tolist(),
                          type=pa.int64()),
    })


def anchor_boosted_topk_sql() -> str:
    """Oracle: shared edge CTEs + DuckDB's own tokenize/anchor rollups
    and a QUALIFY row_number() cut per query."""
    per_q = []
    for q in ANCHOR_BOOST_QUERIES:
        terms = ", ".join(f"'{t}'" for t in q.split())
        per_q.append(f"""
        SELECT '{q}' AS query, rank, doc_id, score FROM (
            SELECT doc_id, sum(s)::BIGINT AS score,
                   row_number() OVER (ORDER BY sum(s) DESC, doc_id)
                       AS rank
            FROM (
                SELECT doc_id, count(*) AS s FROM toks
                WHERE term IN ({terms}) GROUP BY doc_id
                UNION ALL
                SELECT e.dst AS doc_id,
                       {ANCHOR_BOOST_W} * count(*) AS s
                FROM edges e JOIN anchors a ON a.src = e.src
                WHERE a.anchor_term IN ({terms}) GROUP BY e.dst
            ) GROUP BY doc_id
        ) WHERE rank <= {ANCHOR_BOOST_K}""")
    return f"""
        WITH {_link_edges_ctes()},
        toks AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text),
                                                '[^a-z0-9]+')) AS term
            FROM documents
        ),
        anchors AS (
            SELECT doc_id AS src,
                   lower(regexp_extract(text, '[A-Za-z]+')) AS anchor_term
            FROM documents
            WHERE regexp_matches(text, '[A-Za-z]')
        )
        {" UNION ALL ".join(per_q)}
        ORDER BY query, rank
    """


# ------------------------------------------------- in-degree histogram

# In-degree distribution — the first report every web-graph study
# prints (Broder et al. 2000 fig. 2: in-degree is power-law; the
# histogram is how you check your crawl sample isn't pathological).
# Two narrow exchanges: per-page in-degree (the pagerank scatter with
# count instead of rank mass, zero rows keeping sink pages visible),
# then the O(distinct degrees) histogram rollup.


def link_indegree_hist(sf_dir: str) -> pa.Table:
    """Gate query: (in_degree, n_pages) over the synthetic link graph,
    sorted by in_degree; sums to the corpus page count."""
    from ray.data.aggregate import Count, Sum

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    n_docs = docs.count()
    if n_docs == 0:
        return pa.table({
            "in_degree": pa.array([], type=pa.int64()),
            "n_pages": pa.array([], type=pa.int64()),
        })

    def scatter(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        _, dst, _ = _synth_out_edges(ids, n_docs)
        udst, cnt = np.unique(dst, return_counts=True)
        return pa.table({
            "doc_id": pa.array(np.concatenate([udst, ids]),
                               type=pa.int64()),
            "c": pa.array(np.concatenate(
                [cnt.astype(np.int64), np.zeros(ids.size, np.int64)]),
                type=pa.int64()),
        })

    def hist_key(t: pa.Table) -> pa.Table:
        return pa.table({"in_degree": pc.cast(t["sum(c)"], pa.int64())})

    out = (docs.map_batches(scatter, batch_format="pyarrow")
           .groupby("doc_id")
           .aggregate(Sum("c"))
           .map_batches(hist_key, batch_format="pyarrow")
           .groupby("in_degree")
           .aggregate(Count(alias_name="n_pages"))
           .to_pandas()
           .sort_values("in_degree"))
    return pa.table({
        "in_degree": pa.array(out["in_degree"].astype("int64").tolist(),
                              type=pa.int64()),
        "n_pages": pa.array(out["n_pages"].astype("int64").tolist(),
                            type=pa.int64()),
    })


def link_indegree_hist_sql() -> str:
    """Oracle: shared edge CTEs + a LEFT JOIN per-page count (sinks at
    0) + the histogram rollup."""
    return f"""
        WITH {_link_edges_ctes()},
        indeg AS (
            SELECT d.doc_id, count(e.dst) AS in_degree
            FROM documents d LEFT JOIN edges e ON e.dst = d.doc_id
            GROUP BY d.doc_id
        )
        SELECT in_degree, count(*) AS n_pages
        FROM indeg GROUP BY in_degree ORDER BY in_degree
    """


# ------------------------------------------------- cross-snapshot diff

# Snapshot membership / revision synth (mix64 keys 4*doc_id + j are
# distinct because j < 4 — the link-graph convention at :968):
#   in_A      = mix64(4d)   % SNAP_IN_MOD != 0      (80% of the catalog)
#   in_B      = mix64(4d+1) % SNAP_IN_MOD != 0      (independent 80%)
#   changed   = mix64(4d+2) % SNAP_CHANGE_MOD == 0  (25% of the overlap)
SNAP_IN_MOD = 5
SNAP_CHANGE_MOD = 4
SNAP_STATUSES = ("added", "changed", "removed", "unchanged")


def snapshot_diff(sf_dir: str) -> rd.Dataset:
    """Cross-snapshot crawl diff — the "what changed between crawl N-1
    and crawl N" report every recurring-crawl corpus (Common Crawl
    monthlies) is curated with: per (lang, status) the page count and
    char mass, where status ∈ added / removed / changed / unchanged.

    Two snapshots of the catalog are synthesized deterministically
    (mix64 membership + revision bits per doc_id — the sf tables carry
    one crawl, and the link-graph operators set the synth precedent);
    because both sides key on the same catalog id, the per-url join is
    the identity and the WHOLE diff fuses into ONE streaming pass:
    per-batch status codes (pure uint64 arithmetic) + a per-batch
    (lang, status) combiner, then a groupby-sum over O(langs × 4) rows.
    With two INDEPENDENT snapshot tables the same report is the
    url_dedup shape — canonical-url hash-bucket spill of both sides,
    one per-bucket merge pass — i.e. one narrow shuffle of (url, rev)
    pairs; text never moves either way.  The oracle replays the mix64
    limb arithmetic and both rollups in DuckDB."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import mix64

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        four = np.uint64(4) * ids
        in_a = mix64(four) % np.uint64(SNAP_IN_MOD) != 0
        in_b = mix64(four + np.uint64(1)) % np.uint64(SNAP_IN_MOD) != 0
        chg = mix64(four + np.uint64(2)) % np.uint64(SNAP_CHANGE_MOD) == 0
        # 0 added, 1 changed, 2 removed, 3 unchanged; -1 excluded
        code = np.full(ids.shape[0], -1, dtype=np.int64)
        code[in_b & ~in_a] = 0
        code[in_a & in_b & chg] = 1
        code[in_a & ~in_b] = 2
        code[in_a & in_b & ~chg] = 3
        keep = code >= 0
        sub = pa.table({
            "lang": t["lang"].filter(pa.array(keep)),
            "status": pa.array(
                np.array(SNAP_STATUSES, dtype=object)[code[keep]],
                type=pa.string()),
            "n_chars": t["n_chars"].filter(pa.array(keep)),
        })
        g = sub.group_by(["lang", "status"]).aggregate(
            [("n_chars", "count"), ("n_chars", "sum")])
        return pa.table({
            "lang": g["lang"],
            "status": g["status"],
            "n_docs": g["n_chars_count"].cast(pa.int64()),
            "n_chars": g["n_chars_sum"].cast(pa.int64()),
        })

    return (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "status"])
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("n_chars", alias_name="n_chars"))
    )


def snapshot_diff_sql() -> str:
    """Oracle: the three mix64 chains (32-bit-limb mulmod, the
    oracles.sample_sql arithmetic), the status CASE and the rollup."""
    U32, U64 = 1 << 32, 1 << 64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    def chain(col: str) -> list[str]:
        return [
            f"{mulmod(f'xor({col}, {col} >> 30)', C1)} AS {col}",
            f"{mulmod(f'xor({col}, {col} >> 27)', C2)} AS {col}",
            f"xor({col}, {col} >> 31) AS {col}",
        ]

    steps = []
    for i in range(3):
        cols = ", ".join(chain(c)[i] for c in ("xa", "xb", "xc"))
        steps.append(
            f"s{i + 1} AS (SELECT lang, n_chars, {cols} FROM s{i})")
    return f"""
        WITH s0 AS (
            SELECT lang, n_chars,
                   CAST(4 * doc_id AS HUGEINT) AS xa,
                   CAST(4 * doc_id + 1 AS HUGEINT) AS xb,
                   CAST(4 * doc_id + 2 AS HUGEINT) AS xc
            FROM documents
        ),
        {", ".join(steps)},
        st AS (
            SELECT lang, n_chars,
                   (xa % {SNAP_IN_MOD}) <> 0 AS in_a,
                   (xb % {SNAP_IN_MOD}) <> 0 AS in_b,
                   (xc % {SNAP_CHANGE_MOD}) = 0 AS chg
            FROM s3
        )
        SELECT lang,
               CASE WHEN in_a AND in_b AND chg THEN 'changed'
                    WHEN in_a AND in_b THEN 'unchanged'
                    WHEN in_a THEN 'removed'
                    ELSE 'added' END AS status,
               count(*) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS n_chars
        FROM st WHERE in_a OR in_b
        GROUP BY 1, 2
    """


# ----------------------------------------------------------------- HITS

HITS_ITERS = 2   # mutual-reinforcement rounds (hub -> auth -> hub)


def link_hits(sf_dir: str) -> pa.Table:
    """HITS hubs & authorities (Kleinberg 1999) over the synthetic link
    graph — the classic query-independent companion signal to PageRank:
    ``auth(d) = Σ_{s→d} hub(s)``, ``hub(s) = Σ_{s→d} auth(d)``, run for
    HITS_ITERS rounds from hub ≡ 1.  Scores stay RAW integers — the
    per-round L1/L2 normalization of the published algorithm is a
    positive scalar divide that never changes the ranking, so the
    integer-exact unnormalized iterate is the hash-stable equivalent
    (growth is bounded by (max_deg² )^ITERS, far inside int64 here;
    a production run normalizes by a power of two every few rounds).

    Distribution shape per round (the fused link_components machinery
    — ONE Ray job per auth-state write plus one final collect):
    * auth pass — pure FORWARD scatter: out-edges synthesize from
      doc_id inside each batch, per-batch np.add.at pre-combine, one
      narrow (dst, contrib) groupby-sum with zero rows for sinks; the
      auth state is written bucket-partitioned (mix64 % B, the same
      layout as the static by-dst edge spill) AS THE PIPELINE SINK.
    * hub pass — the REVERSE gather needs auth at each edge's dst:
      the co-partitioned edge bucket looks auth(dst) up locally by
      searchsorted (no Acero, no separate join job), then one (src)
      groupby-sum; intermediate rounds chain the NEXT auth scatter
      into the same pipeline, so a full hub→auth round is one job.
    The oracle replays every round as chained LEFT-JOIN CTEs over the
    shared mix64 edge list."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Sum

    from ..functions.spill import (bucket_exchange, layout_files,
                                   spill_bucketed, spill_dir)

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    n_docs = docs.count()
    if n_docs == 0:
        return pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "hub": pa.array([], type=pa.int64()),
            "auth": pa.array([], type=pa.int64()),
        })
    NB = _LINKCC_BUCKETS

    def edges_tbl(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src, dst, _ = _synth_out_edges(ids, n_docs)
        return pa.table({"src": pa.array(src, type=pa.int64()),
                         "dst": pa.array(dst, type=pa.int64())})

    def init(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "v": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })

    def scatter_fwd(t: pa.Table) -> pa.Table:
        # hub(src) -> dst contributions, pre-combined per dst; zero
        # rows keep sinks in the groupby
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        src, dst, _ = _synth_out_edges(ids, n_docs)
        contrib = np.repeat(h, 1 + (ids % 3))
        udst, inv = np.unique(dst, return_inverse=True)
        sums = np.zeros(udst.size, dtype=np.int64)
        np.add.at(sums, inv, contrib)
        return pa.table({
            "doc_id": pa.array(np.concatenate([udst, ids]),
                               type=pa.int64()),
            "c": pa.array(np.concatenate(
                [sums, np.zeros(ids.size, dtype=np.int64)]),
                type=pa.int64()),
        })

    def rename_sum(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "v": pc.cast(t["sum(c)"], pa.int64()),
        })

    def gather(_b: int, at: pa.Table | None,
               et: pa.Table | None) -> pa.Table | None:
        # per-bucket hub gather: auth(dst) looked up in the
        # co-partitioned auth bucket; zero rows (from the bucket's own
        # doc ids) keep sinks in the groupby
        if at is None:
            return None
        ids = at["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        av = at["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        docs_c = [ids]
        cs = [np.zeros(ids.size, dtype=np.int64)]
        if et is not None:
            d = et["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            s = et["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(ids, kind="stable")
            sid, sv = ids[order], av[order]
            pos = np.minimum(np.searchsorted(sid, d), max(sid.size - 1, 0))
            ok = sid[pos] == d if sid.size else \
                np.zeros(d.size, dtype=bool)
            usrc, sinv = np.unique(s[ok], return_inverse=True)
            sums = np.zeros(usrc.size, dtype=np.int64)
            np.add.at(sums, sinv, sv[pos[ok]])
            docs_c.append(usrc)
            cs.append(sums)
        return pa.table({
            "doc_id": pa.array(np.concatenate(docs_c), type=pa.int64()),
            "c": pa.array(np.concatenate(cs), type=pa.int64()),
        })

    # round-1 auth from hub ≡ 1 (init fuses into the scatter pipeline)
    auth_ds = (docs.map_batches(init, batch_format="pyarrow")
               .map_batches(scatter_fwd, batch_format="pyarrow")
               .groupby("doc_id").aggregate(Sum("c"))
               .map_batches(rename_sum, batch_format="pyarrow"))
    with spill_dir("pdfsearch_hits_") as work:
        edges_dir = spill_bucketed(
            docs.map_batches(edges_tbl, batch_format="pyarrow"),
            "dst", f"{work}/edges", num_buckets=NB)
        h = auth_dir = None
        for k in range(HITS_ITERS):
            auth_dir = spill_bucketed(auth_ds, "doc_id", f"{work}/auth_{k}",
                                      num_buckets=NB)
            hub_ds = (
                bucket_exchange([auth_dir, edges_dir], [None, None], NB,
                                gather)
                .groupby("doc_id").aggregate(Sum("c"))
                .map_batches(rename_sum, batch_format="pyarrow"))
            if k < HITS_ITERS - 1:
                # chain the next auth scatter into the same (lazy)
                # pipeline — written by the next loop turn's sink
                auth_ds = (hub_ds
                           .map_batches(scatter_fwd, batch_format="pyarrow")
                           .groupby("doc_id").aggregate(Sum("c"))
                           .map_batches(rename_sum, batch_format="pyarrow"))
            else:
                h = hub_ds.to_pandas().sort_values("doc_id") \
                    .reset_index(drop=True)
        # final auth: the last bucketed layout, read back on the driver
        # (O(n) rows — the gate's own return is per-doc anyway)
        a = pq.read_table(layout_files(auth_dir),
                          columns=["doc_id", "v"]).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    assert (h["doc_id"].values == a["doc_id"].values).all()
    return pa.table({
        "doc_id": pa.array(h["doc_id"].astype("int64").tolist(),
                           type=pa.int64()),
        "hub": pa.array(h["v"].astype("int64").tolist(), type=pa.int64()),
        "auth": pa.array(a["v"].astype("int64").tolist(),
                         type=pa.int64()),
    })


def link_hits_sql() -> str:
    """Oracle: shared mix64 edge CTEs + HITS_ITERS chained rounds of
    LEFT-JOIN sums (auth from hubs over in-edges, hubs from auths over
    out-edges), sinks coalesced to 0."""
    rounds = []
    prev_h = "h0"
    last_a = None
    for r in range(1, HITS_ITERS + 1):
        rounds.append(f"""
        a{r} AS (
            SELECT d.doc_id, CAST(coalesce(sum(h.v), 0) AS BIGINT) AS v
            FROM documents d
            LEFT JOIN edges e ON e.dst = d.doc_id
            LEFT JOIN {prev_h} h ON h.doc_id = e.src
            GROUP BY d.doc_id
        ),
        h{r} AS (
            SELECT d.doc_id, CAST(coalesce(sum(a.v), 0) AS BIGINT) AS v
            FROM documents d
            LEFT JOIN edges e ON e.src = d.doc_id
            LEFT JOIN a{r} a ON a.doc_id = e.dst
            GROUP BY d.doc_id
        )""")
        prev_h = f"h{r}"
        last_a = f"a{r}"
    return f"""
        WITH {_link_edges_ctes()},
        h0 AS (SELECT doc_id, 1::BIGINT AS v FROM documents),
        {", ".join(rounds)}
        SELECT h.doc_id, h.v AS hub, a.v AS auth
        FROM {prev_h} h JOIN {last_a} a USING (doc_id)
        ORDER BY h.doc_id
    """


# ------------------------------------------------- content-defined chunking

# Expected chunk length in words: a word ENDS its chunk when its
# md5-low64 is ≡ 0 (mod CDC_D) — the gear/Rabin anchor-word rule with
# window 1, the content-defined boundary that keeps chunk identity
# stable under insertions (a fixed-stride splitter re-keys every chunk
# after an edit; CDC re-keys only the edited chunk).
CDC_D = 16


def cdc_chunk_stats(sf_dir: str) -> pa.Table:
    """Per-lang CDC dedup stats: chunk count, DISTINCT chunk count and
    total words after content-defined chunking of every document — the
    storage/training dedup measurement (how much of the corpus is
    repeated chunk content).

    Shape: ONE map_batches pass tokenizes (per-doc regex — the
    tokenizer hot-loop convention), hashes the batch VOCABULARY once
    (md5-low64), derives boundary flags and per-doc chunk ids from one
    global cumsum, and keys each chunk with a positional polynomial
    over its word hashes (``Σ h_j · BASE^j`` wrapping uint64) via one
    ``add.reduceat`` — collision-equivalent to hashing the joined
    chunk string, which the string-based oracle recomputes as the
    authority.  Per-batch partials combine (key → count, words); ONE
    narrow single-key groupby sums them; a post-aggregate map reduces
    to per-lang (distinct, instances, words) partials so the driver
    holds O(langs · blocks), never the chunk table."""
    import pandas as pd

    from ray.data.aggregate import Sum

    base = np.uint64(0x9E3779B97F4A7C15)
    empty = pa.table({"k": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64()),
                      "w": pa.array([], type=pa.int64())})

    def partial(batch: pa.Table) -> pa.Table:
        from ..analysis.analyzer import analyze_simple

        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        raw: list[str] = []
        counts = np.zeros(len(texts), np.int64)
        for i, t in enumerate(texts):
            toks = analyze_simple(t or "")
            raw.extend(toks)
            counts[i] = len(toks)
        n = len(raw)
        if n == 0:
            return empty
        codes, uniq = pd.factorize(np.asarray(raw, dtype=object),
                                   sort=False)
        del raw
        wh = _md5_low64(list(uniq))[codes]
        isb = (wh % np.uint64(CDC_D) == 0).astype(np.int64)
        # boundaries strictly BEFORE each position, reset per doc
        cs = np.concatenate([np.zeros(1, np.int64),
                             np.cumsum(isb, dtype=np.int64)[:-1]])
        offs = np.concatenate([np.zeros(1, np.int64),
                               np.cumsum(counts, dtype=np.int64)])
        doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
        cs_ext = np.append(cs, 0)
        chunk = cs - cs_ext[offs[:-1]][doc_of]
        start = np.ones(n, dtype=bool)
        start[1:] = (doc_of[1:] != doc_of[:-1]) | (chunk[1:] != chunk[:-1])
        starts_idx = np.nonzero(start)[0]
        nw = np.diff(np.append(starts_idx, n))
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts_idx, nw)
        maxlen = int(pos.max()) + 1
        pows = np.ones(maxlen, dtype=np.uint64)
        if maxlen > 1:
            pows[1:] = base
            np.multiply.accumulate(pows, out=pows)
        keys = np.add.reduceat(wh * pows[pos], starts_idx)
        chunk_lang = [langs[d] for d in doc_of[starts_idx].tolist()]
        kstr = [f"{l}|{k:016x}" for l, k in zip(chunk_lang, keys.tolist())]
        g = (pd.DataFrame({"k": kstr, "w": nw})
             .groupby("k", as_index=False)
             .agg(n=("w", "size"), w=("w", "sum")))
        return pa.table({"k": pa.array(g["k"], type=pa.string()),
                         "n": pa.array(g["n"].astype("int64"),
                                       type=pa.int64()),
                         "w": pa.array(g["w"].astype("int64"),
                                       type=pa.int64())})

    def per_lang(batch: pa.Table) -> pa.Table:
        import pandas as pd  # noqa: F811

        langs = [k.split("|", 1)[0] for k in batch["k"].to_pylist()]
        df = pd.DataFrame({"lang": langs,
                           "inst": batch["n"].to_numpy(),
                           "words": batch["w"].to_numpy()})
        g = (df.groupby("lang", as_index=False)
             .agg(keys=("lang", "size"), inst=("inst", "sum"),
                  words=("words", "sum")))
        return pa.table({
            "lang": pa.array(g["lang"], type=pa.string()),
            "keys": pa.array(g["keys"].astype("int64"), type=pa.int64()),
            "inst": pa.array(g["inst"].astype("int64"), type=pa.int64()),
            "words": pa.array(g["words"].astype("int64"), type=pa.int64()),
        })

    parts = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["text", "lang"])
        .map_batches(partial, batch_format="pyarrow", batch_size=512)
        .groupby("k")
        .aggregate(Sum("n", alias_name="n"), Sum("w", alias_name="w"))
        .map_batches(per_lang, batch_format="pyarrow")
        .to_pandas())
    from ..functions.tables import typed_pandas
    parts = typed_pandas(parts, {
        "lang": "object", "keys": "int64", "inst": "int64",
        "words": "int64"})
    g = (parts.groupby("lang", as_index=False)
         .agg(distinct_chunks=("keys", "sum"), n_chunks=("inst", "sum"),
              total_words=("words", "sum"))
         .sort_values("lang"))
    return pa.table({
        "lang": pa.array(g["lang"], type=pa.string()),
        "n_chunks": pa.array(g["n_chunks"].astype("int64"),
                             type=pa.int64()),
        "distinct_chunks": pa.array(g["distinct_chunks"].astype("int64"),
                                    type=pa.int64()),
        "total_words": pa.array(g["total_words"].astype("int64"),
                                type=pa.int64()),
    })


def cdc_chunk_stats_sql(*, d: int = CDC_D) -> str:
    """Oracle rebuilds the chunking from raw text: DuckDB's own
    ``md5_number_lower`` gives the identical boundary rule, a window
    cumsum the chunk ids, and chunk identity is the JOINED CHUNK
    STRING — the string authority the engine's polynomial key is
    collision-equivalent to."""
    return f"""
    WITH arrs AS (
        SELECT doc_id, lang, list_filter(regexp_split_to_array(
            lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr
        FROM documents),
    pos AS (
        SELECT doc_id, lang, arr[i] AS term, i
        FROM arrs, unnest(generate_series(1, len(arr))) AS t(i)),
    cid AS (
        SELECT doc_id, lang, term, i,
               coalesce(sum(CASE WHEN md5_number_lower(term) % {d} = 0
                                 THEN 1 ELSE 0 END)
                   OVER (PARTITION BY doc_id ORDER BY i
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS chunk
        FROM pos),
    chunks AS (
        SELECT doc_id, lang, chunk,
               string_agg(term, ' ' ORDER BY i) AS ctext,
               count(*) AS nw
        FROM cid GROUP BY doc_id, lang, chunk)
    SELECT lang, count(*) AS n_chunks,
           count(DISTINCT ctext) AS distinct_chunks,
           CAST(sum(nw) AS BIGINT) AS total_words
    FROM chunks GROUP BY lang ORDER BY lang"""


# -------------------------------------------- docID reassignment (URL sort)

REMAP_BUCKETS = 16
REMAP_SAMPLE_MOD = 17   # every 17th doc's url seeds the range splitters


def docid_remap(sf_dir: str) -> pa.Table:
    """Global docID reassignment by URL order — the classic index-
    compression move (Silvestri, ECIR 2007: "Sorting out the document
    identifier assignment problem"): pages of the same host cluster
    under consecutive ids, shrinking posting-list docID gaps and so the
    delta+varint blocks.  Emits the (doc_id, new_id) renumber map;
    new_id = 0-based rank in (url ASC, doc_id ASC) order.

    Scale shape — a DISTRIBUTED SAMPLE SORT, no all-to-all of the wide
    rows: (0) one pass synthesizes urls and a deterministic stride
    sample (doc_id % {mod} == 0) seeds O(buckets) range splitters on
    the driver; (1) narrow (url, doc_id) pairs spill partitioned by
    splitter bucket — bucket k's urls all precede bucket k+1's, so
    bucket order IS global order; (2) per-bucket row counts (parquet
    metadata only) prefix-sum on the driver to O(buckets) offsets;
    (3) each bucket finalizes locally: in-bucket lexsort + its global
    offset.  The text column never moves; every exchange is O(docs)
    narrow rows through the spill dir (the sequence_pack scan shape).

    The oracle is one SQL window: row_number() OVER (ORDER BY url,
    doc_id) - 1 over the re-synthesized urls."""
    from ..functions.spill import BUCKET_COL, bucket_exchange

    def _stride_sample(t: pa.Table) -> pa.Table:
        keep = (t["doc_id"].to_numpy() % REMAP_SAMPLE_MOD) == 0
        return _synth_urls(t.filter(pa.array(keep)))

    # phase 0: deterministic splitters from a stride sample
    sample = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id"])
        .map_batches(_stride_sample, batch_format="pyarrow")
        .to_pandas())
    from ..functions.tables import typed_pandas
    sample = typed_pandas(sample, {"doc_id": "int64", "url": "object"})
    splits = np.sort(sample["url"].to_numpy(dtype=object))
    if splits.size >= REMAP_BUCKETS:
        cut = splits[np.linspace(0, splits.size - 1, REMAP_BUCKETS + 1,
                                 dtype=np.int64)[1:-1]]
    else:
        cut = splits
    cut = np.unique(cut)

    def spill(t: pa.Table) -> pa.Table:
        st = _synth_urls(t)
        urls = np.asarray(st["url"].to_pylist(), dtype=object)
        part = np.searchsorted(cut, urls, side="right").astype(np.int32)
        return pa.table({
            "doc_id": st["doc_id"],
            "url": st["url"],
            BUCKET_COL: pa.array(part),
        })

    def ordered(b: int, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        urls = np.asarray(t["url"].to_pylist(), dtype=object)
        o = np.lexsort((ids, urls))
        return pa.table({"part": pa.array(np.full(ids.size, b)),
                         "doc_id": pa.array(ids[o], type=pa.int64())})

    # range partitions are url-ordered and each is url-sorted, so the
    # concatenation in partition order is the global (url, doc_id)
    # order: new_id is the position in it
    parts = block_tables(bucket_exchange(
        [read_parquet_nometa(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"])
         .map_batches(spill, batch_format="pyarrow")],
        [None], cut.size + 1, ordered))
    parts.sort(key=lambda t: t["part"][0].as_py())
    ids = np.concatenate([t["doc_id"].to_numpy() for t in parts]
                         or [np.empty(0, dtype=np.int64)])
    o = np.argsort(ids, kind="stable")
    return pa.table({
        "doc_id": pa.array(ids[o], type=pa.int64()),
        "new_id": pa.array(o.astype(np.int64), type=pa.int64()),
    })



def docid_remap_sql() -> str:
    """Oracle: the url_dedup synth CTE + one rank window."""
    return """
        WITH synth AS (
            SELECT doc_id,
                   (CASE doc_id % 3 WHEN 0 THEN 'HTTPS://WWW.'
                        WHEN 1 THEN 'https://' ELSE 'http://www.' END)
                   || 'Ex' || ((doc_id // 3) % 50) || '.com/P/'
                   || (doc_id // 3)
                   || (CASE doc_id % 3
                        WHEN 0 THEN '/?utm_source=a&utm_medium=b'
                        WHEN 1 THEN '?utm_campaign=c' ELSE '/' END)
                   AS url
            FROM documents
        )
        SELECT doc_id,
               row_number() OVER (ORDER BY url, doc_id) - 1 AS new_id
        FROM synth
        ORDER BY doc_id
    """
