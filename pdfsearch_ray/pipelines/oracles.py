"""DuckDB oracle-SQL generators for the value-checked pipelines.

Each generator returns ANSI-ish SQL (DuckDB dialect) that recomputes a
pipeline's result from the SAME registered parquet views the driver
uses.  Parameters shared with the Ray pipelines (language profiles,
minhash permutation constants, LSH hyperplanes, the BPE pattern) are
imported from the pipeline modules and inlined as SQL literals — one
source of truth, two independent execution engines.

Hash parity notes:
* 64-bit token/content hashes are md5-low64: ``int.from_bytes(
  md5(x).digest()[8:16], 'little')`` == DuckDB ``md5_number_lower(x)``
  (verified empirically; DuckDB interprets the digest halves
  little-endian).
* Wrapping uint64 arithmetic (numpy) is replicated with HUGEINT math
  mod 2^64: ``(a*b) mod 2^64`` summed ``mod 2^64`` is congruent to
  numpy's element-wise wrap + wrapping sum.
* Scores compared against thresholds are exact-integer-valued doubles
  (counts < 2^53), so cross-engine float equality is exact.
"""

from __future__ import annotations

U64 = 1 << 64
I63 = 1 << 63

# the simple-analyzer tokenization, shared by several oracles
TOKS = (
    "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
    "FROM documents"
)


def _sq(s: str) -> str:
    """Escape a string for a single-quoted SQL literal."""
    return s.replace("'", "''")


def token_count_sql() -> str:
    from .textstats import BPE_PATTERN

    pat = _sq(BPE_PATTERN)
    return rf"""
        SELECT doc_id,
               CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\s+'))
               END AS n_ws_tokens,
               len(regexp_extract_all(coalesce(text, ''), '{pat}')) AS n_bpe_pieces
        FROM documents
    """


def langid_sql() -> str:
    """Trigram-profile language ID: per-language score = sum over profile
    trigrams of (non-overlapping substring count × rank weight),
    normalized by (text length × profile size); strict-> comparisons in
    en,de,fr order replicate the Python loop's first-wins tie behavior."""
    from .textstats import _LANG_PROFILES, LANG_MIN_SCORE

    score_exprs = {}
    for lang, tris in _LANG_PROFILES.items():
        terms = []
        for i, tri in enumerate(tris):
            w = len(tris) - i
            esc = _sq(tri)
            terms.append(
                f"(length(t) - length(replace(t, '{esc}', ''))) / {len(tri)} * {w}"
            )
        score_exprs[lang] = (
            "(" + " + ".join(terms) + f") / (CAST(greatest(n, 1) AS DOUBLE) * {len(tris)})"
        )
    return f"""
        WITH norm AS (
            SELECT doc_id,
                   ' ' || regexp_replace(lower(coalesce(text, '')), '\\s+', ' ', 'g') || ' ' AS t
            FROM documents
        ),
        base AS (SELECT doc_id, t, length(t) - 2 AS n FROM norm),
        scored AS (
            SELECT doc_id, n,
                   {score_exprs['en']} AS s_en,
                   {score_exprs['de']} AS s_de,
                   {score_exprs['fr']} AS s_fr
            FROM base
        )
        SELECT doc_id,
               CASE
                 WHEN n <= 0 THEN 'und'
                 WHEN s_en > 0 AND s_en >= s_de AND s_en >= s_fr
                   THEN (CASE WHEN s_en >= {LANG_MIN_SCORE} THEN 'en' ELSE 'und' END)
                 WHEN s_de > s_en AND s_de >= s_fr
                   THEN (CASE WHEN s_de >= {LANG_MIN_SCORE} THEN 'de' ELSE 'und' END)
                 WHEN s_fr > s_en AND s_fr > s_de
                   THEN (CASE WHEN s_fr >= {LANG_MIN_SCORE} THEN 'fr' ELSE 'und' END)
                 ELSE 'und'
               END AS lang_pred
        FROM scored
    """


def fingerprints_sql() -> str:
    """Byte-stream polynomial rolling hash (window 64, base FNV prime,
    wrapping uint64) minimized over windows, plus md5-low64 content hash.
    Assumes ASCII text (true for the synthetic tables): unicode(char) ==
    byte value."""
    from .textstats import _FP_BASE, _FP_WINDOW

    base = int(_FP_BASE)
    powers = []
    p = 1
    for j in range(_FP_WINDOW):
        powers.append((j, p))
        p = (p * base) % U64
    vals = ", ".join(f"({j}, CAST('{p}' AS HUGEINT))" for j, p in powers)
    return f"""
        WITH pw(j, p) AS (VALUES {vals}),
        d AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
        meta AS (
            SELECT doc_id, text, length(text) AS len,
                   least(length(text), {_FP_WINDOW}) AS wsize,
                   greatest(length(text) - {_FP_WINDOW} + 1, 1) AS nwin
            FROM d WHERE length(text) > 0
        ),
        pos AS (SELECT doc_id, text, unnest(range(1, len + 1)) AS i FROM meta),
        b AS (
            SELECT doc_id, i,
                   unicode(substr(text, CAST(i AS INTEGER), 1)) AS byte
            FROM pos
        ),
        starts AS (SELECT doc_id, wsize, unnest(range(1, nwin + 1)) AS s FROM meta),
        wh AS (
            SELECT st.doc_id, st.s,
                   CAST(sum((CAST(b.byte AS HUGEINT) * pw.p) % {U64}) % {U64} AS UBIGINT) AS h
            FROM starts st
            JOIN b ON b.doc_id = st.doc_id AND b.i >= st.s AND b.i < st.s + st.wsize
            JOIN pw ON pw.j = b.i - st.s
            GROUP BY st.doc_id, st.s
        ),
        fp AS (SELECT doc_id, min(h) AS mh FROM wh GROUP BY doc_id),
        ch AS (
            SELECT doc_id,
                   CAST(CAST(md5_number_lower(text) AS HUGEINT) - {I63} AS BIGINT) AS content_hash
            FROM d WHERE length(text) > 0
        )
        SELECT d.doc_id,
               CAST(coalesce(CAST(fp.mh AS HUGEINT) - {I63}, 0) AS BIGINT) AS fingerprint,
               coalesce(ch.content_hash, 0) AS content_hash
        FROM d
        LEFT JOIN fp ON d.doc_id = fp.doc_id
        LEFT JOIN ch ON d.doc_id = ch.doc_id
    """


def minhash_sql(
    *,
    num_perm: int = 128,
    bands: int = 16,
    shingle_n: int = 3,
    threshold: float = 0.5,
) -> str:
    """Full MinHash+LSH near-dup clustering in SQL: md5-low64 shingle
    hashes → exact (a·x+b) mod (2^61-1) minhashes (HUGEINT arithmetic ==
    numpy exact-object arithmetic) → banded bucket keys → candidate
    pairs → signature-agreement verify → connected components via a
    recursive CTE (min reachable label == the pipeline's min-label
    propagation).  Permutation constants come from the SAME seeded
    generator the pipeline uses."""
    from .dedup import _MERSENNE, _perm_params

    assert shingle_n == 3, "oracle writes the 3-token shingle join"
    a, b = _perm_params(num_perm)
    r = num_perm // bands
    perm_vals = ", ".join(
        f"({k}, CAST('{int(a[k])}' AS HUGEINT), CAST('{int(b[k])}' AS HUGEINT))"
        for k in range(num_perm)
    )
    return f"""
        WITH RECURSIVE arr AS (
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
        shh AS (SELECT doc_id, md5_number_lower(shingle) AS x FROM sh),
        perms(k, pa, pb) AS (VALUES {perm_vals}),
        sigs AS (
            SELECT doc_id, k,
                   min((CAST(x AS HUGEINT) * pa + pb) % {_MERSENNE}) AS mh
            FROM shh CROSS JOIN perms
            GROUP BY doc_id, k
        ),
        bands AS (
            SELECT doc_id, k // {r} AS band_id,
                   CAST(md5_number_lower(
                       string_agg(CAST(mh AS VARCHAR), ',' ORDER BY k)
                   ) // 2 AS BIGINT) AS band_hash
            FROM sigs GROUP BY doc_id, k // {r}
        ),
        cand AS (
            SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM bands a
            JOIN bands b ON a.band_id = b.band_id
                        AND a.band_hash = b.band_hash
                        AND a.doc_id < b.doc_id
        ),
        ver AS (
            SELECT c.doc_a, c.doc_b
            FROM cand c
            JOIN sigs sa ON sa.doc_id = c.doc_a
            JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.k = sa.k
            GROUP BY c.doc_a, c.doc_b
            HAVING avg(CASE WHEN sa.mh = sb.mh THEN 1.0 ELSE 0.0 END)
                   >= {threshold}
        ),
        edges AS (
            SELECT doc_a AS u, doc_b AS v FROM ver
            UNION ALL
            SELECT doc_b, doc_a FROM ver
        ),
        reach(node, lab) AS (
            SELECT u, u FROM edges
            UNION
            SELECT e.u, reach.lab FROM reach JOIN edges e ON e.v = reach.node
        )
        SELECT node AS doc_id, min(lab) AS keep_id
        FROM reach GROUP BY node
    """


def _cosine_rank_tail(k: int) -> str:
    """Shared tail: dot products per (query, candidate), double-precision
    cosine, round 6, (sim desc, vec_id asc) rank ≤ k."""
    return f"""
        dotsim AS (
            SELECT c.query_id, c.vec_id, sum(q.v * t.v) AS dot
            FROM cand c
            JOIN be q ON q.vec_id = c.query_id
            JOIN be t ON t.vec_id = c.vec_id AND t.j = q.j
            GROUP BY c.query_id, c.vec_id
        ),
        sims AS (
            SELECT d.query_id, d.vec_id,
                   round(d.dot / (nq.nrm * nb.nrm), 6) AS sim
            FROM dotsim d
            JOIN norms nq ON nq.vec_id = d.query_id
            JOIN norms nb ON nb.vec_id = d.vec_id
        ),
        ranked AS (
            SELECT query_id, vec_id, sim,
                   row_number() OVER (
                       PARTITION BY query_id ORDER BY sim DESC, vec_id ASC
                   ) AS rank
            FROM sims
        )
        SELECT query_id, vec_id, sim, rank
        FROM ranked WHERE rank <= {k}
        ORDER BY query_id, rank
    """


def ann_lsh_sql(*, num_queries: int = 5, k: int = 10, nbits: int = 4,
                seed: int = 42, dim: int = 64) -> str:
    """LSH ANN oracle: the seeded hyperplanes are inlined as literals;
    DuckDB independently recomputes every vector's bucket (sign bits),
    the multi-probe set (bucket XOR single-bit flips), and candidate
    cosine ranking."""
    from .similarity import _hyperplanes

    planes = _hyperplanes(dim, nbits, seed)
    plane_vals = ", ".join(
        "(" + ", ".join([str(j)] + [repr(float(planes[j, b]))
                                    for b in range(nbits)]) + ")"
        for j in range(dim)
    )
    pcols = ", ".join(f"p{b}" for b in range(nbits))
    dcols = ", ".join(f"sum(v * p{b}) AS d{b}" for b in range(nbits))
    bucket_expr = " + ".join(
        f"(CASE WHEN d{b} > 0 THEN {1 << b} ELSE 0 END)" for b in range(nbits)
    )
    flip_vals = ", ".join(["(0)"] + [f"({1 << b})" for b in range(nbits)])
    return f"""
        WITH planes(j, {pcols}) AS (VALUES {plane_vals}),
        be AS (
            SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS j,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings
        ),
        dots AS (
            SELECT vec_id, {dcols}
            FROM be JOIN planes USING (j) GROUP BY vec_id
        ),
        bk AS (SELECT vec_id, {bucket_expr} AS bucket FROM dots),
        flips(f) AS (VALUES {flip_vals}),
        qprobes AS (
            SELECT b.vec_id AS query_id, xor(b.bucket, f.f) AS pb
            FROM bk b CROSS JOIN flips f WHERE b.vec_id < {num_queries}
        ),
        norms AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id),
        cand AS (
            SELECT qp.query_id, b.vec_id
            FROM qprobes qp
            JOIN bk b ON b.bucket = qp.pb AND b.vec_id >= {num_queries}
        ),
        {_cosine_rank_tail(k)}
    """


def ann_ivf_sql(sf_dir: str, *, num_queries: int = 5, k: int = 10,
                n_clusters: int = 16, n_probe: int = 4) -> str:
    """IVF ANN oracle: centroids from the SAME deterministic k-means the
    pipeline runs (training shared by construction — it is a model, not
    data); cluster ASSIGNMENT (argmax dot, first-max tie), query probe
    ranking (dot desc, cluster asc) and candidate cosine ranking are all
    recomputed independently by DuckDB."""
    from .similarity import ivf_centroids

    cents = ivf_centroids(sf_dir, num_queries=num_queries,
                          n_clusters=n_clusters)
    dim = cents.shape[1]
    cent_vals = ", ".join(
        f"({c}, {j}, {repr(float(cents[c, j]))})"
        for c in range(n_clusters) for j in range(dim)
    )
    return f"""
        WITH cents(c, j, w) AS (VALUES {cent_vals}),
        be AS (
            SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS j,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings
        ),
        norms AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id),
        cdots AS (
            SELECT b.vec_id, c.c, sum(b.v * c.w) AS dot
            FROM be b JOIN cents c ON c.j = b.j
            GROUP BY b.vec_id, c.c
        ),
        assign AS (
            SELECT vec_id, c AS cluster FROM (
                SELECT vec_id, c,
                       row_number() OVER (
                           PARTITION BY vec_id ORDER BY dot DESC, c ASC
                       ) AS rn
                FROM cdots WHERE vec_id >= {num_queries}
            ) WHERE rn = 1
        ),
        qprobes AS (
            SELECT vec_id AS query_id, c AS cluster FROM (
                SELECT vec_id, c,
                       row_number() OVER (
                           PARTITION BY vec_id ORDER BY dot DESC, c ASC
                       ) AS rn
                FROM cdots WHERE vec_id < {num_queries}
            ) WHERE rn <= {n_probe}
        ),
        cand AS (
            SELECT qp.query_id, a.vec_id
            FROM qprobes qp JOIN assign a ON a.cluster = qp.cluster
        ),
        {_cosine_rank_tail(k)}
    """


def embedding_dup_lsh_sql(*, threshold: float = 0.4, n_bands: int = 4,
                          nbits: int = 6, seed: int = 9, dim: int = 64,
                          max_bucket: int = 4096) -> str:
    """Banded-LSH near-dup oracle: inlined hyperplanes; DuckDB
    independently recomputes every vector's per-band sign bucket, the
    hot-bucket cap, within-bucket candidate pairs (deduped across
    bands) and the 6-dp cosine verify — the same algorithm as
    similarity.embedding_dup_pairs_lsh."""
    from .similarity import _hyperplanes

    total_bits = n_bands * nbits
    planes = _hyperplanes(dim, total_bits, seed)
    pcols = ", ".join(f"p{b}" for b in range(total_bits))
    plane_vals = ", ".join(
        "(" + ", ".join([str(j)] + [repr(float(planes[j, b]))
                                    for b in range(total_bits)]) + ")"
        for j in range(dim)
    )
    dcols = ", ".join(f"sum(v * p{b}) AS d{b}" for b in range(total_bits))
    band_selects = []
    for band in range(n_bands):
        expr = " + ".join(
            f"(CASE WHEN d{band * nbits + bit} > 0 THEN {1 << bit} "
            f"ELSE 0 END)"
            for bit in range(nbits)
        )
        band_selects.append(
            f"SELECT vec_id, {band} AS band, {expr} AS bucket FROM dots")
    bk_union = " UNION ALL ".join(band_selects)
    return f"""
        WITH planes(j, {pcols}) AS (VALUES {plane_vals}),
        be AS (
            SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS j,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings
        ),
        dots AS (
            SELECT vec_id, {dcols}
            FROM be JOIN planes USING (j) GROUP BY vec_id
        ),
        bk AS ({bk_union}),
        sized AS (
            SELECT band, bucket, count(*) AS n
            FROM bk GROUP BY band, bucket
        ),
        ok AS (
            SELECT band, bucket FROM sized
            WHERE n BETWEEN 2 AND {max_bucket}
        ),
        cand AS (
            SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM bk a
            JOIN ok o ON o.band = a.band AND o.bucket = a.bucket
            JOIN bk b ON b.band = a.band AND b.bucket = a.bucket
                     AND a.vec_id < b.vec_id
        ),
        norms AS (
            SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id
        ),
        pdots AS (
            SELECT c.vec_a, c.vec_b, sum(x.v * y.v) AS dot
            FROM cand c
            JOIN be x ON x.vec_id = c.vec_a
            JOIN be y ON y.vec_id = c.vec_b AND y.j = x.j
            GROUP BY c.vec_a, c.vec_b
        ),
        sims AS (
            -- double-precision dot/norms (list_cosine_similarity runs
            -- at FLOAT precision and flakes the 6th decimal)
            SELECT p.vec_a, p.vec_b,
                   round(p.dot / (na.nrm * nb.nrm), 6) AS cos
            FROM pdots p
            JOIN norms na ON na.vec_id = p.vec_a
            JOIN norms nb ON nb.vec_id = p.vec_b
        )
        SELECT vec_a, vec_b, cos FROM sims WHERE cos >= {threshold}
    """


def knn_ivf_label_accuracy_sql(sf_dir: str, *, n_clusters: int = 16,
                               n_probe: int = 4) -> str:
    """IVF-bucketed leave-one-out 1-NN label accuracy oracle: centroids
    come from the SAME deterministic k-means the pipeline trains (shared
    model, the ann_ivf precedent); DuckDB independently recomputes every
    vector's cluster assignment (argmax dot, first-max tie), its n_probe
    probe set (dot desc, cluster asc), the candidate cosine sims (9 dp)
    and the (sim desc, vec_id asc) nearest-neighbour argmax."""
    from .similarity import ivf_centroids

    cents = ivf_centroids(sf_dir, num_queries=0, n_clusters=n_clusters)
    dim = cents.shape[1]
    cent_vals = ", ".join(
        f"({c}, {j}, {repr(float(cents[c, j]))})"
        for c in range(n_clusters) for j in range(dim)
    )
    return f"""
        WITH cents(c, j, w) AS (VALUES {cent_vals}),
        be AS (
            SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS j,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings
        ),
        cdots AS (
            SELECT b.vec_id, c.c, sum(b.v * c.w) AS dot
            FROM be b JOIN cents c ON c.j = b.j
            GROUP BY b.vec_id, c.c
        ),
        ranked AS (
            SELECT vec_id, c,
                   row_number() OVER (
                       PARTITION BY vec_id ORDER BY dot DESC, c ASC
                   ) AS rn
            FROM cdots
        ),
        assign AS (SELECT vec_id, c AS cluster FROM ranked WHERE rn = 1),
        probes AS (SELECT vec_id, c AS cluster FROM ranked
                   WHERE rn <= {n_probe}),
        cand AS (
            SELECT p.vec_id AS ida, a.vec_id AS idb
            FROM probes p
            JOIN assign a ON a.cluster = p.cluster
                         AND a.vec_id <> p.vec_id
        ),
        sims AS (
            SELECT c.ida, c.idb,
                   round(list_cosine_similarity(ea.embedding,
                                                eb.embedding), 9) AS sim
            FROM cand c
            JOIN embeddings ea ON ea.vec_id = c.ida
            JOIN embeddings eb ON eb.vec_id = c.idb
        ),
        nn AS (
            SELECT ida, idb,
                   row_number() OVER (
                       PARTITION BY ida ORDER BY sim DESC, idb ASC
                   ) AS rn
            FROM sims
        )
        SELECT CAST(ea.label AS BIGINT) AS label, count(*) AS n,
               CAST(sum(CASE WHEN eb.label = ea.label THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_correct
        FROM nn
        JOIN embeddings ea ON ea.vec_id = nn.ida
        JOIN embeddings eb ON eb.vec_id = nn.idb
        WHERE nn.rn = 1
        GROUP BY ea.label
    """


def embedding_dup_sql(*, threshold: float = 0.4) -> str:
    """Exact embedding-cosine near-dup pairs: double-precision cosine
    over every (a < b) pair, rounded to 6 dp, thresholded — DuckDB
    recomputes the full similarity matrix independently."""
    return f"""
        WITH be AS (
            SELECT vec_id, generate_subscripts(embedding, 1) AS j,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings
        ),
        norms AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id),
        dots AS (
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b, sum(a.v * b.v) AS dot
            FROM be a JOIN be b ON a.j = b.j AND a.vec_id < b.vec_id
            GROUP BY 1, 2
        ),
        sims AS (
            SELECT d.vec_a, d.vec_b,
                   round(d.dot / (na.nrm * nb.nrm), 6) AS cos
            FROM dots d
            JOIN norms na ON na.vec_id = d.vec_a
            JOIN norms nb ON nb.vec_id = d.vec_b
        )
        SELECT vec_a, vec_b, cos FROM sims
        WHERE cos >= {threshold}
        ORDER BY vec_a, vec_b
    """


def simhash_sql() -> str:
    """64-bit simhash: per-token md5-low64 hash, per-bit majority vote
    over tokens WITH multiplicity, bit set iff ones*2 > n, shifted into
    int64 by subtracting 2^63 (docs with no tokens → fp 0 → -2^63)."""
    bitvals = ", ".join(f"({i}, CAST('{1 << i}' AS HUGEINT))" for i in range(64))
    return f"""
        WITH pw2(bit, p) AS (VALUES {bitvals}),
        toks AS ({TOKS}),
        tok AS (
            SELECT doc_id, md5_number_lower(term) AS h
            FROM toks WHERE term <> ''
        ),
        cnt AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
        bits AS (
            SELECT doc_id, p.bit,
                   sum(CAST((CAST(h AS HUGEINT) // p.p) % 2 AS BIGINT)) AS ones
            FROM tok CROSS JOIN pw2 p
            GROUP BY doc_id, p.bit
        ),
        fp AS (
            SELECT bits.doc_id,
                   sum(CASE WHEN 2 * bits.ones > cnt.n THEN p.p ELSE CAST(0 AS HUGEINT) END) AS f
            FROM bits
            JOIN cnt USING (doc_id)
            JOIN pw2 p ON p.bit = bits.bit
            GROUP BY bits.doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(fp.f, CAST(0 AS HUGEINT)) - {I63} AS BIGINT) AS simhash
        FROM documents d
        LEFT JOIN fp ON d.doc_id = fp.doc_id
    """


def fulltext_simple_sql(queries, *, k: int = 10,
                        k1: float = 1.2, b: float = 0.75,
                        where: str | None = None) -> str:
    """End-to-end BM25 oracle for the ``simple``-analyzer ENGINE path
    (pipelines/queries.py:fulltext_topk_simple): DuckDB recomputes
    tokenization, corpus stats, idf and the tf normalization from raw
    text — independently of the index codec — per query in the fixed
    set.  Shared stats CTEs; one scores CTE per query (query terms are
    inlined as the engine's own simple-analysis of the query string).
    ``where`` restricts the corpus (the compacted-index gate's
    survivor predicate) — N/df/avgdl are then recomputed over the
    filtered rows, exactly like a from-scratch build over them."""
    from ..analysis.analyzer import analyze_simple

    src = (f"(SELECT * FROM documents WHERE {where})" if where
           else "documents")
    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        f"lower(text), '[^a-z0-9]+')) AS term FROM {src}),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, q in enumerate(queries):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.doc_id, t.term, count(*) AS tf
            FROM tok t JOIN q{qi} USING (term) GROUP BY t.doc_id, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
            GROUP BY tfs{qi}.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


def unit_topk_sql(queries, *, size: int, stride: int, k: int = 10,
                  k1: float = 1.2, b: float = 0.75) -> str:
    """End-to-end oracle for the N:1 unit gate
    (pipelines/queries.py:unit_topk): DuckDB recomputes the doc→unit
    chunking (same no-redundant-tail window rule as doc_chunks), the
    composite ID arithmetic ``doc_id * 2^32 + unit_idx``, and the full
    simple-analyzer BM25 over UNITS — stats (N, avgdl), idf and tf
    normalization all at unit granularity, independently of the index
    codec."""
    from ..analysis.analyzer import analyze_simple

    U = 1 << 32
    parts = [f"""WITH src AS (
        SELECT doc_id, text,
               (CASE WHEN length(text) <= {size} THEN 1
                     ELSE 1 + (length(text) - {size} + {stride} - 1)
                              // {stride} END) AS kk
        FROM documents WHERE length(text) > 0
    ),
    ks AS (SELECT unnest(range(0, (SELECT max(kk) FROM src))) AS c),
    units AS (
        SELECT src.doc_id * {U} + ks.c AS unit_id,
               substr(src.text, ks.c * {stride} + 1, {size}) AS text
        FROM src JOIN ks ON ks.c < src.kk
    ),
    toks AS (SELECT unit_id, unnest(regexp_split_to_array(
        lower(text), '[^a-z0-9]+')) AS term FROM units),
    tok AS (SELECT * FROM toks WHERE term <> ''),
    dl AS (SELECT unit_id, count(*) AS dl FROM tok GROUP BY unit_id),
    stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)"""]
    selects = []
    for qi, q in enumerate(queries):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.unit_id, t.term, count(*) AS tf
            FROM tok t JOIN q{qi} USING (term) GROUP BY t.unit_id, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.unit_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.unit_id = dl.unit_id
            GROUP BY tfs{qi}.unit_id
        )""")
        selects.append(f"""
        SELECT query, unit_id // {U} AS doc_id, unit_id % {U} AS unit_idx,
               score, rank
        FROM (
            SELECT '{_sq(q)}' AS query, unit_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, unit_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


def sample_sql(*, rate: float, mod: int = 1 << 16) -> str:
    """Deterministic corpus sampling oracle: DuckDB reproduces the
    engine's splitmix64 finalizer (functions/hashing.py:mix64) bit-for-
    bit via 32-bit-limb multiplication mod 2^64 (a full INT128 product
    of two 64-bit values overflows HUGEINT), then applies the identical
    ``mix64(doc_id) % mod < rate*mod`` keep rule (build.py:_sample_mask).
    """
    U32 = 1 << 32
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    thresh = int(rate * mod)
    return f"""
        WITH m0 AS (
            SELECT doc_id, lang, n_chars,
                   CAST(doc_id AS HUGEINT) AS x
            FROM documents
        ),
        m1 AS (SELECT doc_id, lang, n_chars,
                      {mulmod('xor(x, x >> 30)', C1)} AS x FROM m0),
        m2 AS (SELECT doc_id, lang, n_chars,
                      {mulmod('xor(x, x >> 27)', C2)} AS x FROM m1),
        m3 AS (SELECT doc_id, lang, n_chars,
                      xor(x, x >> 31) AS x FROM m2)
        SELECT doc_id, lang, n_chars
        FROM m3 WHERE x % {mod} < {thresh}
    """


def chunk_dedup_sql(*, words_per_chunk: int = 8) -> str:
    """Oracle for pipelines/dedup.py:chunk_dedup.  PARTITION BY md5(chunk)
    builds exactly the equivalence classes the Ray side keys by (the full
    128-bit digest as two int64s); winner = min (doc_id, chunk_idx);
    short final segments never participate."""
    w = int(words_per_chunk)
    return f"""
WITH words AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         generate_subscripts(string_split(text, ' '), 1) - 1 AS i
  FROM documents
), chunks AS (
  SELECT doc_id, i // {w} AS chunk_idx,
         string_agg(w, ' ' ORDER BY i) AS chunk,
         count(*) AS n_words
  FROM words GROUP BY doc_id, i // {w}
), keep AS (
  SELECT doc_id, chunk_idx, chunk,
    (n_words < {w}
     OR row_number() OVER (PARTITION BY md5(chunk)
                           ORDER BY doc_id, chunk_idx) = 1) AS kept
  FROM chunks
)
SELECT doc_id,
  coalesce(string_agg(chunk, ' ' ORDER BY chunk_idx) FILTER (WHERE kept),
           '') AS text_dedup,
  count(*) FILTER (WHERE kept) AS n_kept,
  count(*) FILTER (WHERE NOT kept) AS n_dropped
FROM keep GROUP BY doc_id
"""


def gopher_sql(*, min_words: int, max_words: int, min_mean_wl: int,
               max_mean_wl: int, max_word_len: int) -> str:
    """Oracle for pipelines/textstats.py:gopher_quality — all-integer
    Gopher-rule stats; thresholds inlined from the pipeline constants."""
    return f"""
SELECT doc_id,
  len(string_split(text, ' '))::BIGINT AS n_words,
  length(replace(text, ' ', ''))::BIGINT AS n_word_chars,
  list_max(list_transform(string_split(text, ' '),
                          x -> length(x)))::BIGINT AS max_word_len,
  (length(text) - length(replace(text, '#', '')))::BIGINT AS n_hash_chars,
  (CASE WHEN len(string_split(text, ' '))
             BETWEEN {min_words} AND {max_words}
         AND {min_mean_wl} * len(string_split(text, ' '))
             <= length(replace(text, ' ', ''))
         AND length(replace(text, ' ', ''))
             <= {max_mean_wl} * len(string_split(text, ' '))
         AND list_max(list_transform(string_split(text, ' '),
                                     x -> length(x))) <= {max_word_len}
        THEN 1 ELSE 0 END)::BIGINT AS keep
FROM documents
"""


def stratified_sample_sql(*, rates: dict, default_rate: float,
                          mod: int = 1 << 16) -> str:
    """Oracle for queries.py:stratified_sample — same splitmix64 limb
    arithmetic as sample_sql, with a per-language threshold."""
    U32 = 1 << 32
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    cases = " ".join(
        f"WHEN lang = '{_sq(lang)}' THEN {int(rate * mod)}"
        for lang, rate in sorted(rates.items())
    )
    thresh = f"(CASE {cases} ELSE {int(default_rate * mod)} END)"
    return f"""
        WITH m0 AS (
            SELECT doc_id, lang, n_chars,
                   CAST(doc_id AS HUGEINT) AS x
            FROM documents
        ),
        m1 AS (SELECT doc_id, lang, n_chars,
                      {mulmod('xor(x, x >> 30)', C1)} AS x FROM m0),
        m2 AS (SELECT doc_id, lang, n_chars,
                      {mulmod('xor(x, x >> 27)', C2)} AS x FROM m1),
        m3 AS (SELECT doc_id, lang, n_chars,
                      xor(x, x >> 31) AS x FROM m2)
        SELECT doc_id, lang, n_chars
        FROM m3 WHERE x % {mod} < {thresh}
    """


def curate_chunks_sql(*, rates: dict, default_rate: float,
                      chunk_size: int, chunk_stride: int,
                      mod: int = 1 << 16) -> str:
    """Oracle for the COMPOSITE curation pipeline
    (pipelines/curate.py:curate_chunks): exact dedup (min doc_id per
    md5(text)) → Gopher keep rules → per-lang splitmix64 sampling →
    fixed-window chunking — DuckDB recomputes the full composition, so
    the gate checks stage INTERACTIONS, not just the pieces."""
    from .textstats import (
        GOPHER_MAX_MEAN_WL,
        GOPHER_MAX_WORD_LEN,
        GOPHER_MAX_WORDS,
        GOPHER_MIN_MEAN_WL,
        GOPHER_MIN_WORDS,
    )

    U32 = 1 << 32
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    cases = " ".join(
        f"WHEN lang = '{_sq(lang)}' THEN {int(rate * mod)}"
        for lang, rate in sorted(rates.items())
    )
    thresh = f"(CASE {cases} ELSE {int(default_rate * mod)} END)"
    return f"""
        WITH dedup AS (
            SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
        ),
        base AS (
            SELECT d.doc_id, d.text, d.lang
            FROM documents d JOIN dedup USING (doc_id)
        ),
        gop AS (
            SELECT doc_id, text, lang FROM base
            WHERE len(string_split(text, ' '))
                      BETWEEN {GOPHER_MIN_WORDS} AND {GOPHER_MAX_WORDS}
              AND {GOPHER_MIN_MEAN_WL} * len(string_split(text, ' '))
                      <= length(replace(text, ' ', ''))
              AND length(replace(text, ' ', ''))
                      <= {GOPHER_MAX_MEAN_WL} * len(string_split(text, ' '))
              AND list_max(list_transform(string_split(text, ' '),
                                          x -> length(x)))
                      <= {GOPHER_MAX_WORD_LEN}
        ),
        m0 AS (SELECT doc_id, text, lang,
                      CAST(doc_id AS HUGEINT) AS x FROM gop),
        m1 AS (SELECT doc_id, text, lang,
                      {mulmod('xor(x, x >> 30)', C1)} AS x FROM m0),
        m2 AS (SELECT doc_id, text, lang,
                      {mulmod('xor(x, x >> 27)', C2)} AS x FROM m1),
        m3 AS (SELECT doc_id, text, lang,
                      xor(x, x >> 31) AS x FROM m2),
        samp AS (
            SELECT doc_id, text, lang FROM m3 WHERE x % {mod} < {thresh}
        ),
        d AS (
            -- k = 1 + ceil((len-size)/stride) for len > size, else 1:
            -- no trailing window fully contained in its predecessor
            -- (matches curate.py:_chunk_batch)
            SELECT doc_id, lang, text,
                   (CASE WHEN length(text) <= {chunk_size} THEN 1
                         ELSE 1 + (length(text) - {chunk_size}
                                   + {chunk_stride} - 1)
                                  // {chunk_stride} END) AS k
            FROM samp WHERE length(text) > 0
        ),
        ks AS (
            SELECT unnest(range(0, (SELECT coalesce(max(k), 0) FROM d)))
                   AS c
        )
        SELECT d.doc_id, d.lang, ks.c AS chunk_id,
               substr(d.text, ks.c * {chunk_stride} + 1,
                      {chunk_size}) AS chunk_text
        FROM d JOIN ks ON ks.c < d.k
    """


def repetition_sql() -> str:
    """Oracle for queries.py:repetition_stats — word bigram/trigram
    totals + max occurrence per doc via lead() windows; the repetitive
    flag uses exact integer cross-multiplication (max>=2 AND >20%
    bigram, or max>=2 AND >10% trigram)."""
    return """
WITH words AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
), grams AS (
  SELECT doc_id,
         w || ' ' || lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) AS bg,
         w || ' ' || lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i)
           || ' ' || lead(w, 2) OVER (PARTITION BY doc_id ORDER BY i) AS tg
  FROM words
), bc AS (
  SELECT doc_id, sum(c)::BIGINT AS n, max(c)::BIGINT AS m
  FROM (SELECT doc_id, bg, count(*) AS c FROM grams
        WHERE bg IS NOT NULL GROUP BY doc_id, bg)
  GROUP BY doc_id
), tc AS (
  SELECT doc_id, sum(c)::BIGINT AS n, max(c)::BIGINT AS m
  FROM (SELECT doc_id, tg, count(*) AS c FROM grams
        WHERE tg IS NOT NULL GROUP BY doc_id, tg)
  GROUP BY doc_id
)
SELECT d.doc_id,
  coalesce(bc.n, 0) AS n_bigrams,
  coalesce(bc.m, 0) AS max_bigram_count,
  coalesce(tc.n, 0) AS n_trigrams,
  coalesce(tc.m, 0) AS max_trigram_count,
  (CASE WHEN (coalesce(bc.m, 0) >= 2
              AND coalesce(bc.m, 0) * 5 > coalesce(bc.n, 0))
          OR (coalesce(tc.m, 0) >= 2
              AND coalesce(tc.m, 0) * 10 > coalesce(tc.n, 0))
        THEN 1 ELSE 0 END)::BIGINT AS repetitive
FROM documents d
LEFT JOIN bc ON d.doc_id = bc.doc_id
LEFT JOIN tc ON d.doc_id = tc.doc_id
"""


def fulltext_en_sql(sf_dir: str, queries, *, k: int = 10,
                    k1: float = 1.2, b: float = 0.75) -> str:
    """End-to-end BM25 oracle for the FULL ``en``-chain engine path
    (pipelines/queries.py:fulltext_topk) — the row that was rows-only
    in rounds 1-2 because DuckDB has no Porter stemmer.

    The trick (same as ann_ivf's centroid inlining): the corpus raw
    VOCABULARY is tokenized at oracle-GENERATION time and the
    possessive→lower→stopword→Porter chain is applied once per unique
    raw token by the engine's own analyzer; the (rawtok → term) pairs
    are inlined as a VALUES list (stopwords simply absent).  DuckDB
    then independently re-tokenizes every document with the same RE2
    token pattern, maps tokens through the literal table, and
    recomputes dl/N/avgdl/df/idf/BM25 from scratch — so the ENGINE
    (build → salt/shuffle → codec → decode → stats → scoring) is fully
    hash-checked; only Porter itself is taken on faith from the inlined
    mapping (it stays pinned by the golden analyzer tests).  A
    tokenization divergence (Python re vs RE2) would shift dl and flip
    the hash rather than pass silently."""
    import pyarrow.parquet as pq

    from ..analysis.analyzer import _TOKEN_RE, _final_term, analyze_en_terms

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    vocab: set[str] = set()
    for x in t["text"].to_pylist():
        vocab.update(_TOKEN_RE.findall(x or ""))
    pairs = [(raw, _final_term(raw)) for raw in sorted(vocab)]
    vals = ", ".join(f"('{_sq(r)}', '{_sq(s)}')"
                     for r, s in pairs if s is not None)
    if not vals:
        vals = "('', '')"
    pattern_sql = _sq(r"\d+(?:[.,]\d+)*|\w+(?:['’]\w+)*")
    parts = [
        f"""WITH raw AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(text, '{pattern_sql}'))
                       AS rawtok
            FROM documents),
        tmap(rawtok, term) AS (VALUES {vals}),
        tok AS (SELECT r.doc_id, m.term
                FROM raw r JOIN tmap m USING (rawtok)),
        dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
        stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)""",
    ]
    selects = []
    for qi, q in enumerate(queries):
        terms = sorted(set(analyze_en_terms(q)))
        qvals = ", ".join(f"('{_sq(t_)}')" for t_ in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.doc_id, t.term, count(*) AS tf
            FROM tok t JOIN q{qi} USING (term) GROUP BY t.doc_id, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
            GROUP BY tfs{qi}.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


def temperature_mix_sql(*, denom: int = 2) -> str:
    """Oracle for queries.py:temperature_mix.  DuckDB recomputes the
    per-source totals, the alpha=0.5 integer weights (floor(sqrt(x)) ==
    isqrt for < 2^50 radicands — IEEE sqrt is correctly rounded and
    cannot cross an integer), the integer targets/thresholds in HUGEINT
    (2^64 parses as a HUGEINT literal), and the engine's splitmix64
    finalizer bit-for-bit via the same 32-bit-limb multiplication as
    sample_sql."""
    U32 = 1 << 32
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    return f"""
        WITH agg AS (
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS tc
            FROM documents GROUP BY source
        ),
        w AS (
            SELECT source, n_docs,
                   CAST(floor(sqrt(CAST(tc AS DOUBLE))) AS BIGINT) AS w
            FROM agg
        ),
        tot AS (SELECT sum(w) AS sw, sum(n_docs) AS nt FROM w),
        lim AS (
            SELECT source,
                   CAST(least(n_docs,
                              (w * (nt // {denom})) // sw) AS HUGEINT)
                   * {U64} // n_docs AS thresh
            FROM w CROSS JOIN tot
        ),
        m0 AS (
            SELECT d.doc_id, d.source, l.thresh,
                   CAST(d.doc_id AS HUGEINT) AS x
            FROM documents d JOIN lim l USING (source)
        ),
        m1 AS (SELECT doc_id, source, thresh,
                      {mulmod('xor(x, x >> 30)', C1)} AS x FROM m0),
        m2 AS (SELECT doc_id, source, thresh,
                      {mulmod('xor(x, x >> 27)', C2)} AS x FROM m1),
        m3 AS (SELECT doc_id, source, thresh,
                      xor(x, x >> 31) AS x FROM m2)
        SELECT doc_id, source FROM m3 WHERE x < thresh
    """


def semantic_dedup_sql(sf_dir: str, *, eps: float = 0.35,
                       n_clusters: int = 16) -> str:
    """Oracle for similarity.semantic_dedup (SemDeDup).  Centroids come
    from the SAME deterministic k-means the pipeline trains (shared
    model, the ann_ivf/knn precedent); DuckDB independently recomputes
    every vector's cluster assignment (argmax dot, first-max tie), its
    centroid cosine (6 dp), the in-cluster (cent_sim DESC, vec_id ASC)
    rank, all earlier-rank pairwise cosines (6 dp) and the keep rule
    ``max earlier cos < eps``."""
    from .similarity import ivf_centroids

    cents = ivf_centroids(sf_dir, num_queries=0, n_clusters=n_clusters)
    dim = cents.shape[1]
    cent_vals = ", ".join(
        f"({c}, {j}, {repr(float(cents[c, j]))})"
        for c in range(n_clusters) for j in range(dim)
    )
    return f"""
        WITH cents(c, j, w) AS (VALUES {cent_vals}),
        be AS (
            SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS j,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings
        ),
        norms AS (
            SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id
        ),
        cdots AS (
            SELECT b.vec_id, c.c, sum(b.v * c.w) AS dot
            FROM be b JOIN cents c ON c.j = b.j
            GROUP BY b.vec_id, c.c
        ),
        ranked AS (
            SELECT vec_id, c, dot,
                   row_number() OVER (
                       PARTITION BY vec_id ORDER BY dot DESC, c ASC
                   ) AS rn
            FROM cdots
        ),
        members AS (
            SELECT r.vec_id, r.c AS cluster,
                   round(r.dot / n.nrm, 6) AS cent_sim
            FROM ranked r JOIN norms n USING (vec_id)
            WHERE r.rn = 1
        ),
        mrank AS (
            SELECT vec_id, cluster, cent_sim,
                   row_number() OVER (
                       PARTITION BY cluster
                       ORDER BY cent_sim DESC, vec_id ASC
                   ) AS rk
            FROM members
        ),
        hits AS (
            SELECT a.vec_id
            FROM mrank a
            JOIN mrank b ON b.cluster = a.cluster AND b.rk < a.rk
            JOIN embeddings ea ON ea.vec_id = a.vec_id
            JOIN embeddings eb ON eb.vec_id = b.vec_id
            WHERE round(list_cosine_similarity(ea.embedding,
                                               eb.embedding), 6) >= {eps}
        )
        SELECT m.vec_id, m.cluster, m.cent_sim,
               m.vec_id NOT IN (SELECT vec_id FROM hits) AS keep
        FROM mrank m
        ORDER BY m.vec_id
    """


def source_overlap_sql(*, words_per_chunk: int = 8) -> str:
    """Oracle for pipelines/dedup.py:source_overlap — distinct
    full-length segment sets per source via the same chunking CTEs as
    chunk_dedup_sql; shared counts via a self-join on md5(chunk) (the
    identical equivalence classes as the engine's 128-bit md5 pair);
    integer-basis-point Jaccard so no float rounding flakes the hash."""
    w = int(words_per_chunk)
    return f"""
WITH words AS (
  SELECT doc_id, source,
         unnest(string_split(text, ' ')) AS w,
         generate_subscripts(string_split(text, ' '), 1) - 1 AS i
  FROM documents
), chunks AS (
  SELECT doc_id, source, i // {w} AS chunk_idx,
         string_agg(w, ' ' ORDER BY i) AS chunk,
         count(*) AS n_words
  FROM words GROUP BY doc_id, source, i // {w}
), full_chunks AS (
  SELECT DISTINCT source, md5(chunk) AS h
  FROM chunks WHERE n_words = {w}
), per_source AS (
  SELECT source, count(*) AS n FROM full_chunks GROUP BY source
), pairs AS (
  SELECT a.source AS source_a, b.source AS source_b,
         count(*)::BIGINT AS n_shared
  FROM full_chunks a JOIN full_chunks b
    ON a.h = b.h AND a.source < b.source
  GROUP BY a.source, b.source
)
SELECT p.source_a, p.source_b, p.n_shared,
       sa.n::BIGINT AS n_chunks_a, sb.n::BIGINT AS n_chunks_b,
       ((10000 * p.n_shared) // (sa.n + sb.n - p.n_shared))::BIGINT
           AS jaccard_bp
FROM pairs p
JOIN per_source sa ON sa.source = p.source_a
JOIN per_source sb ON sb.source = p.source_b
ORDER BY source_a, source_b
"""


def decontaminate_sql(*, n: int = 13, rate: float = 0.02,
                      mod: int = 1 << 16) -> str:
    """Oracle for pipelines/dedup.py:decontaminate — benchmark split via
    the same splitmix64 limb arithmetic as sample_sql; overlapping
    n-word spans via list slicing over a LATERAL generate_series; hits
    join on the exact gram STRING (the engine's 2×64-bit rolling key is
    an equivalence-preserving stand-in)."""
    U32 = 1 << 32
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    thresh = int(rate * mod)
    w = int(n)
    return f"""
WITH m0 AS (
    SELECT doc_id, text, CAST(doc_id AS HUGEINT) AS x FROM documents
),
m1 AS (SELECT doc_id, text, {mulmod('xor(x, x >> 30)', C1)} AS x FROM m0),
m2 AS (SELECT doc_id, text, {mulmod('xor(x, x >> 27)', C2)} AS x FROM m1),
m3 AS (SELECT doc_id, text, xor(x, x >> 31) AS x FROM m2),
flagged AS (
    SELECT doc_id, text, (x % {mod} < {thresh}) AS is_bench FROM m3
),
d AS (SELECT doc_id, is_bench, string_split(text, ' ') AS ws FROM flagged),
ng AS (
    SELECT doc_id, is_bench, array_to_string(ws[i:i+{w - 1}], ' ') AS g
    FROM d, LATERAL unnest(generate_series(1, len(ws) - {w - 1})) AS t(i)
),
bench AS (SELECT DISTINCT g FROM ng WHERE is_bench),
hits AS (
    SELECT DISTINCT nn.doc_id, nn.g
    FROM ng nn JOIN bench b USING (g)
    WHERE NOT nn.is_bench
)
SELECT doc_id, count(*)::BIGINT AS n_hit_grams
FROM hits GROUP BY doc_id
"""


def keep_best_sql(*, threshold: float = 0.5) -> str:
    """Oracle for pipelines/dedup.py:keep_best_dedup — the full
    minhash_sql cluster chain as a CTE, joined with simple-analyzer
    token counts; per cluster keep (n_tokens desc, doc_id asc) rank 1."""
    inner = minhash_sql(threshold=threshold)
    return f"""
WITH clusters AS ({inner}),
toks AS (
    SELECT doc_id,
           len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                           x -> x <> '')) AS n_tokens
    FROM documents
),
m AS (
    SELECT c.keep_id AS cluster_id, c.doc_id, t.n_tokens
    FROM clusters c JOIN toks t USING (doc_id)
),
best AS (
    SELECT cluster_id, doc_id AS best_id, n_tokens AS best_n_tokens,
           row_number() OVER (PARTITION BY cluster_id
                              ORDER BY n_tokens DESC, doc_id ASC) AS rn
    FROM m
)
SELECT b.cluster_id, b.best_id, n.n_members, b.best_n_tokens
FROM best b
JOIN (SELECT cluster_id, count(*) AS n_members FROM m GROUP BY cluster_id) n
  USING (cluster_id)
WHERE b.rn = 1
"""


def unimax_mix_sql(*, num: int = 4, den: int = 5) -> str:
    """UniMax waterfall oracle (pipelines/queries.py:unimax_mix):
    DuckDB recomputes the per-lang char sizes, replays the
    smallest-first budget waterfall as a RECURSIVE CTE in exact
    HUGEINT arithmetic (floor divisions, carry of the remaining
    budget), derives the 128-bit keep thresholds, and applies the
    splitmix64 keep rule (the sample_sql limb chain) per doc."""
    U32, U64 = 1 << 32, 1 << 64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    return f"""
        WITH RECURSIVE
        szs AS (
            SELECT lang, CAST(sum(n_chars) AS HUGEINT) AS sz
            FROM documents GROUP BY lang
        ),
        ordered AS (
            SELECT lang, sz,
                   row_number() OVER (ORDER BY sz, lang) AS rn
            FROM szs
        ),
        tot AS (
            SELECT CAST(sum(sz) AS HUGEINT) * {num} // {den} AS budget,
                   count(*)::BIGINT AS k
            FROM szs
        ),
        alloc AS (
            SELECT o.rn, o.lang, o.sz,
                   least(o.sz, (SELECT budget FROM tot)
                               // (SELECT k FROM tot)) AS quota,
                   (SELECT budget FROM tot)
                       - least(o.sz, (SELECT budget FROM tot)
                                     // (SELECT k FROM tot)) AS rem
            FROM ordered o WHERE o.rn = 1
            UNION ALL
            SELECT o.rn, o.lang, o.sz,
                   least(o.sz, a.rem // ((SELECT k FROM tot) - a.rn)),
                   a.rem - least(o.sz, a.rem // ((SELECT k FROM tot) - a.rn))
            FROM alloc a JOIN ordered o ON o.rn = a.rn + 1
        ),
        th AS (
            SELECT lang,
                   CASE WHEN quota >= sz THEN CAST('{U64}' AS HUGEINT)
                        ELSE (quota * CAST('{U64}' AS HUGEINT)) // sz
                   END AS th
            FROM alloc
        ),
        m0 AS (SELECT doc_id, lang, CAST(doc_id AS HUGEINT) AS x
               FROM documents),
        m1 AS (SELECT doc_id, lang,
                      {mulmod('xor(x, x >> 30)', C1)} AS x FROM m0),
        m2 AS (SELECT doc_id, lang,
                      {mulmod('xor(x, x >> 27)', C2)} AS x FROM m1),
        m3 AS (SELECT doc_id, lang, xor(x, x >> 31) AS x FROM m2)
        SELECT m3.doc_id, m3.lang
        FROM m3 JOIN th USING (lang)
        WHERE m3.x < th.th
    """
