"""Seeded inputs for the benchmark workloads.

Everything a run feeds the engine is a function of ``(seed, Scale)``:
the pages corpus, the append delta, the delete set and the query
streams.  Documents reuse the fixture generator's text model
(``pdfsearch_ray.fixtures.gen``: a ~100-word vocabulary, planted
phrases, exact-duplicate and empty rows), but the page numbers start at
a seed-dependent offset, so each seed indexes different text and the
``page <n>`` tokens give every document a rare term of its own.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from pdfsearch_ray.fixtures.gen import PLANTED_PHRASES, WORDS, make_text, text_to_html
from pdfsearch_ray.functions.hashing import content_hash
from pdfsearch_ray.schemas import PAGES

DUP_STRIDE = 101          # every 101st row repeats the previous row's text
NON_EN_SHARE = 0.14       # rows the extract stage's language filter drops
DELTA_ID_BASE = 1 << 50  # append ids sit far above every (pid << 32 | row) id


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``run.py`` uses ``FULL``; the smoke test a tiny one."""

    n_pages: int
    doc_words: int
    rows_per_file: int
    row_group_size: int
    num_buckets: int
    n_delta: int           # append batch, per lifecycle cycle
    head_queries: int      # distinct head queries in the stream
    tail_pool: int         # distinct tail queries the Zipf draw picks from
    tail_stream: int       # tail stream length (with repeats)
    warm_queries: int      # warm-up queries, disjoint from the stream
    setup_reps: int        # how often set-up (or the ingest build) is repeated


FULL = Scale(n_pages=6_000, doc_words=150, rows_per_file=4_000,
             row_group_size=1_000, num_buckets=16, n_delta=1_000,
             head_queries=8_000, tail_pool=4_096, tail_stream=12_000,
             warm_queries=32, setup_reps=2)


def page_offset(seed: int, scale: Scale) -> int:
    return 1_000_000 + (seed % 100_000) * scale.n_pages


def pages_table(seed: int, scale: Scale) -> pa.Table:
    """The PAGES corpus for ``seed`` (url, warc_ts, html, text, lang)."""
    rng = random.Random(seed)
    off = page_offset(seed, scale)
    urls, tss, htmls, texts, langs = [], [], [], [], []
    prev = ""
    for j in range(scale.n_pages):
        i = off + j
        if j % DUP_STRIDE == DUP_STRIDE - 1 and prev:
            text = prev
        else:
            body = make_text(i, scale.doc_words)
            text = f"page {i}\n{body}" if body else ""
        lang = (rng.choice(["de", "fr", ""]) if rng.random() < NON_EN_SHARE
                else "en")
        urls.append(f"https://site{i % 997:03d}.example/page/{i}")
        tss.append(1_500_000_000_000_000 + i * 1_000_003)
        htmls.append(text_to_html(text))
        texts.append(text)
        langs.append(lang)
        prev = text
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(np.array(tss, dtype="int64"), pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    }).cast(PAGES)


def write_pages(table: pa.Table, path: str, scale: Scale) -> None:
    os.makedirs(path, exist_ok=True)
    for start in range(0, table.num_rows, scale.rows_per_file):
        part = table.slice(start, scale.rows_per_file)
        pq.write_table(part, f"{path}/pages-{start:08d}.parquet",
                       row_group_size=scale.row_group_size)


def expected_docs(table: pa.Table) -> int:
    """Docs a deduplicating build must index: English rows with text,
    one per distinct content."""
    return len({t for t, lang in zip(table["text"].to_pylist(),
                                     table["lang"].to_pylist())
                if lang == "en" and t})


def delta_table(seed: int, scale: Scale, cycle: int = 0) -> pa.Table:
    """Append batch ``cycle``: new pages above the corpus's page range
    (each cycle its own range), ids shifted out of the base id space (as
    ``bench.py`` shifts its delta).  The ``hash`` column uses the extract
    stage's identity (hash of the page html), so the append runs its
    known-content skip against the base."""
    rng = random.Random(f"{seed}/delta/{cycle}")
    first = page_offset(seed, scale) + scale.n_pages + cycle * 10 * scale.n_delta
    pages = rng.sample(range(first, first + 10 * scale.n_delta), scale.n_delta)
    texts = [f"page {p}\n{make_text(p, scale.doc_words)}" for p in pages]
    first_id = DELTA_ID_BASE + cycle * scale.n_delta
    return pa.table({
        "doc_id": pa.array([first_id + k for k in range(scale.n_delta)],
                           pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * scale.n_delta, pa.string()),
        "hash": pa.array([content_hash(text_to_html(t)) for t in texts], pa.string()),
    })


def delete_ids(seed: int, doc_ids: np.ndarray, cycle: int = 0,
               share: float = 0.01) -> list[int]:
    """A seeded ``share`` of the committed doc ids, drawn anew per cycle."""
    rng = np.random.default_rng((seed, 2, cycle))
    ids = np.sort(doc_ids)
    n = max(1, int(ids.size * share))
    return sorted(int(i) for i in rng.choice(ids, size=n, replace=False))


_VOCAB = sorted(set(WORDS))


def _head_query(rng: random.Random) -> str:
    if rng.random() < 0.2:  # planted phrase plus one vocabulary word
        return f"{rng.choice(PLANTED_PHRASES)} {rng.choice(_VOCAB)}"
    return " ".join(rng.sample(_VOCAB, rng.randint(2, 4)))


def head_queries(seed: int, n: int, exclude: frozenset = frozenset()) -> list[str]:
    """``n`` distinct 2-4 word queries over the corpus vocabulary, in a
    seeded order (every term has document frequency close to N)."""
    rng = random.Random(seed * 7 + 3)
    seen: set[str] = set(exclude)
    out: list[str] = []
    while len(out) < n:
        q = _head_query(rng)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def tail_pool(seed: int, scale: Scale, n: int) -> list[str]:
    """``n`` distinct queries of 1-3 page-number tokens.  Numbers are drawn
    from slightly beyond the corpus's page range, so document frequency
    is 0 (outside the range, or a dropped row) to 2."""
    rng = random.Random(seed * 7 + 4)
    lo = page_offset(seed, scale) - scale.n_pages // 10
    hi = page_offset(seed, scale) + scale.n_pages + scale.n_pages // 10
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        q = " ".join(str(rng.randrange(lo, hi))
                     for _ in range(rng.randint(1, 3)))
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def zipf_stream(seed: int, pool: list[str], n: int, s: float = 1.0) -> list[str]:
    """``n`` draws from ``pool`` with P(rank r) ∝ 1/r**s."""
    rng = np.random.default_rng(seed * 7 + 5)
    w = 1.0 / np.arange(1, len(pool) + 1) ** s
    picks = rng.choice(len(pool), size=n, p=w / w.sum())
    return [pool[i] for i in picks]


def stream_properties(stream: list[str]) -> dict:
    """Distinct and repeat shares of a served stream, and the number of
    distinct terms it names."""
    n = len(stream)
    distinct = len(set(stream))
    terms = {t for q in stream for t in q.split()}
    return {"served": n,
            "distinct_share": distinct / n if n else 0.0,
            "repeat_share": (n - distinct) / n if n else 0.0,
            "distinct_terms": len(terms)}
