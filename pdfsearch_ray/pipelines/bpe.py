"""Distributed BPE tokenizer training (byte-pair-encoding merge
learning, Sennrich et al. 2016 — the GPT-2/LLaMA tokenizer-training
workload).  The reference engine ships a fixed analyzer chain
(internal/doclib/bleve.go registers the `en` analyzer); a web-scale
training-data pipeline TRAINS its subword vocabulary from the corpus
instead, and that training is a canonical big-data job: one corpus-wide
word count, then an iterative merge loop over the (Heaps-law sublinear)
word-frequency table.

Algorithm (classic BPE over a word-frequency table):

1. Pre-tokenize the corpus into lowercase ``[a-z]+`` words (words
   longer than ``BPE_MAX_WORD_LEN`` are dropped — the standard junk-
   token guard, and it bounds the SQL oracle's pair expansion).
2. Count word frequencies — the ONLY corpus-wide exchange: per-batch
   ``value_counts`` pre-combine, then one narrow ``groupby(word)`` of
   (word, n) rows.  Text never moves.
3. Seed each word's segmentation with its characters, then repeat
   ``BPE_MERGES`` times: count adjacent symbol pairs weighted by word
   frequency (one ``map_batches`` of per-batch dictionary-encoded
   partials + one tiny groupby-sum), pick the most frequent pair
   (count DESC, pair ASC — deterministic, parallelism-independent),
   and merge every occurrence in every word.

The segmentation is stored as a paren-wrapped string ``(s1)(s2)(s3)``.
That representation makes the merge a LITERAL string replace: merging
(a, b) is ``replace(seg, '(a)(b)', '(ab)')``, and because a match
consumes both its delimiters, left-to-right non-overlapping replace —
the semantics of BOTH ``pyarrow.compute.replace_substring`` and
DuckDB/Python ``replace`` — is exactly BPE's greedy left-to-right
merge (e.g. ``(a)(a)(a)`` under (a,a) → ``(aa)(a)``).  Symbols are
``[a-z]+`` so parens can never occur inside a symbol.  This is what
lets one SQL oracle replay the whole training loop bit-for-bit:
chained CTEs re-count pairs (constant ``range`` + WHERE expansion, the
``_link_edges_ctes`` trick), pick the same argmax with the same
ORDER BY, and apply the same ``replace``.

Scale shape (100 TB corpus):

* The merge loop never touches the corpus again after the word count —
  it iterates over the word-frequency table, which grows sublinearly
  (Heaps' law) and is the standard working set of every production BPE
  trainer (Sennrich's learn_bpe, HuggingFace tokenizers, SentencePiece
  all reduce to word frequencies first).
* Per round: one vectorized pair-partial pass over vocab blocks + one
  groupby-sum over (pair, n) rows + a per-block top-1 so the driver
  sees O(blocks) rows, never the pair table; the merge itself is a
  broadcast of ONE (pattern, replacement) string pair.
* The vocab state is re-materialized per round (O(vocab) blocks) so
  round k does not replay rounds 1..k-1.
* Production vocabularies run ~30k merges with this same loop; the
  known optimization — batching mutually non-interacting merges per
  round (SentencePiece's queue) — drops rounds to O(hundreds) without
  changing per-round shape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.tables import read_parquet_nometa

BPE_MERGES = 6
BPE_MAX_WORD_LEN = 31   # symbols per word ≤ 31 → SQL range(30) bound
BPE_TOPK = 20
_WORD_SPLIT_RE = "[^a-z]+"


def _empty_result() -> pa.Table:
    return pa.table({
        "step": pa.array([], type=pa.int64()),
        "lhs": pa.array([], type=pa.string()),
        "rhs": pa.array([], type=pa.string()),
        "pair_count": pa.array([], type=pa.int64()),
    })


def _word_partial(t: pa.Table) -> pa.Table:
    """Per-batch word-count partial: lowercase [a-z]+ words (length ≤
    BPE_MAX_WORD_LEN), value_counts pre-combine.  Only (word, n) rows
    leave the batch."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(t["text"]), pattern=_WORD_SPLIT_RE)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    lens = pc.utf8_length(flat)
    flat = flat.filter(pc.and_(
        pc.greater(lens, 0), pc.less_equal(lens, BPE_MAX_WORD_LEN)))
    vc = pc.value_counts(flat)
    return pa.table({
        "word": vc.field("values"),
        "n": pc.cast(vc.field("counts"), pa.int64()),
    })


def _init_seg(t: pa.Table) -> pa.Table:
    """(word, sum(n)) → (word, freq, seg) with seg = '(c1)(c2)...'."""
    return pa.table({
        "word": t["word"],
        "freq": pc.cast(t["sum(n)"], pa.int64()),
        "seg": pc.replace_substring_regex(
            t["word"], pattern="(.)", replacement=r"(\1)"),
    })


def _pair_partial(t: pa.Table) -> pa.Table:
    """Per-batch adjacent-pair counts weighted by word freq.  The pair
    key IS the later replace pattern '(l)(r)'; dictionary-encode +
    np.add.at pre-combines within the batch."""
    empty = pa.table({"pair": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64())})
    if t.num_rows == 0:
        return empty
    segs = t["seg"]
    if isinstance(segs, pa.ChunkedArray):
        segs = segs.combine_chunks()
    lst = pc.split_pattern(pc.utf8_trim(segs, "()"), ")(")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    lens = pc.list_value_length(lst).to_numpy(zero_copy_only=False)
    flat = lst.flatten()
    if len(flat) < 2:
        return empty
    word_id = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    left = np.flatnonzero(word_id[:-1] == word_id[1:])
    if left.size == 0:
        return empty
    pair = pc.binary_join_element_wise(
        "(", flat.take(pa.array(left)), ")(",
        flat.take(pa.array(left + 1)), ")", "")
    freq = t["freq"].to_numpy(zero_copy_only=False).astype(np.int64)
    de = pair.dictionary_encode()
    sums = np.zeros(len(de.dictionary), dtype=np.int64)
    np.add.at(sums, de.indices.to_numpy(zero_copy_only=False),
              freq[word_id[left]])
    return pa.table({"pair": de.dictionary,
                     "n": pa.array(sums, type=pa.int64())})


def _block_top1(t: pa.Table) -> pa.Table:
    """Partial argmax per block: (count DESC, pair ASC) — the driver
    sees O(blocks) rows, never the pair table."""
    if t.num_rows == 0:
        return t
    order = pc.sort_indices(t, sort_keys=[
        ("sum(n)", "descending"), ("pair", "ascending")])
    return t.take(order[:1])


def word_freq_table(sf_dir: str) -> rd.Dataset:
    """Corpus word frequencies as a Dataset of (word, sum(n)) — the
    one corpus-wide exchange of BPE training."""
    from ray.data.aggregate import Sum

    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return (docs.map_batches(_word_partial, batch_format="pyarrow")
                .groupby("word").aggregate(Sum("n")))


def learn_bpe(vocab: rd.Dataset, n_merges: int = BPE_MERGES,
              checkpoint_every: int = 8) -> tuple[pa.Table, rd.Dataset]:
    """Run the merge loop over a (word, sum(n)) Dataset.  Returns the
    merge table (step, lhs, rhs, pair_count) and the final segmented
    vocab Dataset (word, freq, seg) — possibly with a short lazy tail
    of pending merge applies (callers that reuse it across passes
    should ``materialize()`` it once).

    Job-count shape: the merge APPLY is left LAZY so it fuses into the
    NEXT round's pair-count job (one Ray job per round instead of two
    — apply+count run in the same ``map_batches`` task chain), with a
    checkpoint ``materialize()`` every ``checkpoint_every`` rounds so
    round k replays at most ``checkpoint_every`` pending string
    replaces, never rounds 1..k (replays are vectorized
    ``replace_substring`` over the sublinear vocab table, so a short
    replay tail is far cheaper than a per-round materialize job at
    ~0.5 s fixed Ray-job latency)."""
    from ray.data.aggregate import Sum

    vf = vocab.map_batches(_init_seg, batch_format="pyarrow") \
              .materialize()
    steps: list[tuple[int, str, str, int]] = []
    pending = 0
    for k in range(1, n_merges + 1):
        tops = (vf.map_batches(_pair_partial, batch_format="pyarrow")
                  .groupby("pair").aggregate(Sum("n"))
                  .map_batches(_block_top1, batch_format="pyarrow")
                  .take_all())
        if not tops:
            break
        best = min(tops, key=lambda r: (-int(r["sum(n)"]), r["pair"]))
        pat = best["pair"]
        lhs, rhs = pat[1:-1].split(")(")
        steps.append((k, lhs, rhs, int(best["sum(n)"])))
        repl = f"({lhs}{rhs})"

        def apply_merge(t: pa.Table, pat=pat, repl=repl) -> pa.Table:
            return pa.table({
                "word": t["word"], "freq": t["freq"],
                "seg": pc.replace_substring(t["seg"], pattern=pat,
                                            replacement=repl),
            })

        vf = vf.map_batches(apply_merge, batch_format="pyarrow")
        pending += 1
        if pending >= checkpoint_every:
            vf = vf.materialize()
            pending = 0
    if not steps:
        return _empty_result(), vf
    ks, ls, rs, cs = zip(*steps)
    merges = pa.table({
        "step": pa.array(ks, type=pa.int64()),
        "lhs": pa.array(ls, type=pa.string()),
        "rhs": pa.array(rs, type=pa.string()),
        "pair_count": pa.array(cs, type=pa.int64()),
    })
    return merges, vf


# Training memo: (abspath, size, mtime_ns, n_merges) → (merge table,
# MATERIALIZED final vocab Dataset).  Training is deterministic in its
# input, so bpe_token_stats reuses bpe_merges' run instead of paying
# the whole merge loop again (the ivf_layout_cached precedent,
# similarity.py:440; in-process only — the vocab lives in the object
# store as a materialized Dataset, O(sublinear vocab), not driver heap).
_bpe_memo: dict[tuple, tuple[pa.Table, rd.Dataset]] = {}


def trained_bpe(sf_dir: str, n_merges: int = BPE_MERGES
                ) -> tuple[pa.Table, rd.Dataset]:
    """Train-at-most-once per (corpus fingerprint, n_merges): returns
    the merge table and the final segmented vocab (materialized)."""
    import os

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    key = (os.path.abspath(src), st.st_size, st.st_mtime_ns,
           int(n_merges))
    hit = _bpe_memo.get(key)
    if hit is None:
        merges, vf = learn_bpe(word_freq_table(sf_dir), n_merges)
        hit = (merges, vf.materialize())
        _bpe_memo[key] = hit
    return hit


def bpe_merges(sf_dir: str) -> pa.Table:
    """Gate query: the first BPE_MERGES learned merges over the
    documents corpus — (step, lhs, rhs, pair_count) ordered by step."""
    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    if docs.count() == 0:
        return _empty_result()
    merges, _ = trained_bpe(sf_dir)
    return merges


def _bpe_ctes(n_merges: int = BPE_MERGES) -> str:
    """Shared DuckDB WITH-clauses replaying BPE training: `words`
    (capped pre-tokenization), `v0` (char-seeded segmentations), and
    per round k: `p{k}` (pair counts), `b{k}` (argmax) and `v{k}` (the
    literal replace).  Used by both bpe oracles."""
    rounds = []
    for k in range(1, n_merges + 1):
        rounds.append(f"""
        p{k} AS (
            SELECT '(' || t.lst[rr.i + 1] || ')(' || t.lst[rr.i + 2]
                       || ')' AS pat,
                   t.lst[rr.i + 1] AS l, t.lst[rr.i + 2] AS r,
                   sum(t.freq)::BIGINT AS cnt
            FROM (SELECT freq, str_split(trim(seg, '()'), ')(') AS lst
                  FROM v{k - 1}) t,
                 range({BPE_MAX_WORD_LEN - 1}) rr(i)
            WHERE rr.i < len(t.lst) - 1
            GROUP BY 1, 2, 3
        ),
        b{k} AS (SELECT pat, l, r, cnt FROM p{k}
                 ORDER BY cnt DESC, pat LIMIT 1),
        v{k} AS (
            SELECT word, freq,
                   replace(seg, (SELECT pat FROM b{k}),
                           '(' || (SELECT l || r FROM b{k}) || ')')
                       AS seg
            FROM v{k - 1}
        )""")
    return f"""words AS (
            SELECT w FROM (
                SELECT unnest(regexp_extract_all(lower(text),
                                                 '[a-z]+')) AS w
                FROM documents
            ) WHERE length(w) <= {BPE_MAX_WORD_LEN}
        ),
        v0 AS (
            SELECT w AS word, count(*)::BIGINT AS freq,
                   regexp_replace(w, '(.)', '(\\1)', 'g') AS seg
            FROM words GROUP BY w
        ),{",".join(rounds)}"""


def _token_partial(t: pa.Table) -> pa.Table:
    """Per-batch subword-token counts over final segmentations,
    weighted by word freq (dictionary-encode + np.add.at)."""
    empty = pa.table({"token": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64())})
    if t.num_rows == 0:
        return empty
    segs = t["seg"]
    if isinstance(segs, pa.ChunkedArray):
        segs = segs.combine_chunks()
    lst = pc.split_pattern(pc.utf8_trim(segs, "()"), ")(")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    lens = pc.list_value_length(lst).to_numpy(zero_copy_only=False)
    flat = lst.flatten()
    if len(flat) == 0:
        return empty
    word_id = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    freq = t["freq"].to_numpy(zero_copy_only=False).astype(np.int64)
    de = flat.dictionary_encode()
    sums = np.zeros(len(de.dictionary), dtype=np.int64)
    np.add.at(sums, de.indices.to_numpy(zero_copy_only=False),
              freq[word_id])
    return pa.table({"token": de.dictionary,
                     "n": pa.array(sums, type=pa.int64())})


def bpe_token_stats(sf_dir: str, k: int = BPE_TOPK) -> pa.Table:
    """Gate query: APPLY the learned merges — the top-K subword tokens
    of the BPE-segmented corpus by weighted count (count DESC, token
    ASC).  One pass over the final vocab segmentations (per-block
    partial top-K → the driver merges O(K·blocks) rows)."""
    docs = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    if docs.count() == 0:
        return pa.table({"token": pa.array([], type=pa.string()),
                         "total_count": pa.array([], type=pa.int64())})
    from ray.data.aggregate import Sum

    _, vf = trained_bpe(sf_dir)

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        order = pc.sort_indices(t, sort_keys=[
            ("sum(n)", "descending"), ("token", "ascending")])
        return t.take(order[:k])

    tops = (vf.map_batches(_token_partial, batch_format="pyarrow")
              .groupby("token").aggregate(Sum("n"))
              .map_batches(block_topk, batch_format="pyarrow")
              .take_all())
    tops.sort(key=lambda r: (-int(r["sum(n)"]), r["token"]))
    tops = tops[:k]
    return pa.table({
        "token": pa.array([r["token"] for r in tops], type=pa.string()),
        "total_count": pa.array([int(r["sum(n)"]) for r in tops],
                                type=pa.int64()),
    })


def bpe_token_stats_sql(n_merges: int = BPE_MERGES,
                        k: int = BPE_TOPK) -> str:
    """Oracle: the shared training CTEs, then one unnest of the final
    segmentations rolled up to the top-K weighted token counts."""
    return f"""
        WITH {_bpe_ctes(n_merges)},
        toks AS (
            SELECT t.lst[rr.i + 1] AS token,
                   sum(t.freq)::BIGINT AS total_count
            FROM (SELECT freq, str_split(trim(seg, '()'), ')(') AS lst
                  FROM v{n_merges}) t,
                 range({BPE_MAX_WORD_LEN}) rr(i)
            WHERE rr.i < len(t.lst)
            GROUP BY 1
        )
        SELECT token, total_count FROM toks
        ORDER BY total_count DESC, token LIMIT {k}
    """


def bpe_merges_sql(n_merges: int = BPE_MERGES) -> str:
    """Oracle: DuckDB replays the whole training loop — word counts,
    char-seeded segmentations, and every round's pair count / argmax /
    literal replace — as chained CTEs.  ORDER BY cnt DESC, pat uses the
    same '(l)(r)' key string the engine sorts on (binary ASCII order,
    consistent with (lhs, rhs) tuple order because ')' < 'a'..'z')."""
    unions = "\n            UNION ALL ".join(
        f"SELECT {k} AS step, l AS lhs, r AS rhs, cnt AS pair_count "
        f"FROM b{k}" for k in range(1, n_merges + 1))
    return f"""
        WITH {_bpe_ctes(n_merges)}
        SELECT step, lhs, rhs, pair_count FROM ({unions})
        ORDER BY step
    """
