"""BM25 query engine over the posting-block index.

The query-time counterpart of the reference's search path
(internal/doclib/search_pdfs.go:110-277): analyze the query with the same
chain as indexing (search_pdfs.go:160-174), probe the inverted index as
an analyzed OR-of-terms scored top-k (search_pdfs.go:176-194), then
hydrate the top-k with doc metadata, phrase spans and line numbers
(hitToPdfMatch, search_pdfs.go:330-366).

Posting access: postings are keyed ``bucket = fnv1a64(term) % P``; a
query computes each term's bucket and reads only matching row groups,
found from the files' footer statistics — the rebuild's version of the
reference's term-dictionary probe (J3).  Reads are cached per term on
the handle (unlike the reference, which reopens per-doc files on every
hit and documents that as inefficient at bleve_pdf.go:482-484).  The
scoring read leaves the position blobs out; they are read per term on
the first ``PostingList.position_keys`` call.

The term cache is columnar: ``_term_cache[term]`` is the term's runs,
and each run is one set of arrays — per block its first id, posting
count, bound and source row, one contiguous buffer per blob kind with
block byte offsets, and an (ids, scores) decode memo with a per-block
"decoded" mask.  A doc's length is stored once, in the docs catalog:
``doc_lengths`` reads the (doc_id, dl) columns of the catalog row groups
the ids fall in and keeps them as sorted arrays.  Rows are matched,
sorted and gathered with numpy over the Arrow buffers
(``index/arrays.py``), so serving never imports ``pyarrow.compute``, and
every parquet read is single-threaded.

Scoring is BM25 (k1/b from the manifest, ``index/codec.py``), one design
on ``BM25Index``:

* ``_runs`` turns the query terms into (term, salt, segment) runs with
  their idf, blocks, block firsts and upper bound, in term-major order,
  keeping only the blocks that can hold a doc in the handle's
  ``doc_range``;
* two consumers read the runs: exhaustive TAAT (``_score``) and
  block-max MaxScore (``_maxscore``), which looks candidates up through
  the one probe helper (``_probe``);
* one live predicate (``live_mask``: not tombstoned and inside
  ``doc_range``) and one top-k selection (``select_topk``, also the
  ``ShardedEngine`` merge).

``topk`` is the unhydrated answer; ``search`` is ``topk`` plus
``hydrate``.  Determinism (rank-identity contract, SURVEY §7.1): every
doc's score is summed in term-major run order whichever scorer, shard
or range produced it, so scores are bitwise equal across all of them;
ties break (score desc, doc_id asc).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..analysis.analyzer import analyze_en, get_analyzer
from ..functions.hashing import fnv1a64_str
from ..index.arrays import (_bytes, _gather_bytes, _np, _np_or, _spans,
                            _str_codes, _take_table)
from ..index.codec import (aggregate_scores, bm25_idf, bm25_wdl,
                           decode_positions_flat, decode_posting_streams,
                           varint_decode)
from ..state.manifest import (CorruptIndexError, IndexManifest,
                              postings_files, read_checked)

DEFAULT_MAX_RESULTS = 10  # DefaultMaxResults (index_search.go:54-59)
# method="auto" crossover: below this many candidate postings the
# vectorized exhaustive pass beats pruning's bookkeeping (measured
# crossover ~10^5-10^6 at sf0.1; conservative toward exact counts)
AUTO_MAXSCORE_POSTINGS = 300_000
# MaxScore's GROW phase folds its pending postings into one exact
# aggregation once at least this many are pending (then on a doubling
# schedule), so a mass-tie corpus gets a true k-th-total bound to stop on
MAXSCORE_FOLD_POSTINGS = 1 << 19
# the blobs the scoring read keeps per block (positions are read apart)
BLOB_KINDS = ("doc", "tf")


# ---------------------------------------------------------------- phrase kernels


def best_phrases(
    query_terms: list[str],
    term_locations: dict[str, list[tuple[int, int, int]]],
) -> list[dict]:
    """Exact port of the reference's bestPhrases semantics
    (search_pdfs.go:382-484).

    ``query_terms``: analyzed query tokens IN ORDER (duplicates kept).
    ``term_locations``: matched term → [(pos, start, end)] in the doc.
    Returns phrases [{score:int, start:int, end:int}] keeping only the
    max-score set (ties kept, `>=` comparison).
    """
    term_positions: dict[str, set[int]] = {}
    start_set: set[int] = set()
    pos_loc: dict[int, tuple[int, int, int]] = {}

    for i, term in enumerate(query_terms):
        locs = term_locations.get(term)
        if not locs:
            continue
        tp = term_positions.setdefault(term, set())
        for loc in locs:
            pos = loc[0]
            pos_loc[pos] = loc  # later query-term overwrites, as in the Go map fill
            tp.add(pos)
            start_set.add(pos - i)

    phrases: list[dict] = []
    for pos0 in sorted(start_set):
        locations: list[tuple[int, int, int]] = []
        score = 0
        for k, term in enumerate(query_terms):
            pos = pos0 + k
            if term in term_positions and pos in term_positions[term]:
                locations.append(pos_loc[pos])
                score += 1
        if locations:
            phrases.append(
                {
                    "score": score,
                    "start": int(locations[0][1]),
                    "end": int(locations[-1][2]),
                }
            )

    best_score = 0
    for p in phrases:
        if p["score"] > best_score:
            best_score = p["score"]
    return [p for p in phrases if p["score"] >= best_score]


def line_starts(text: str) -> np.ndarray:
    """Start offset of every line, computed once per doc (the
    "precalculate this" the reference leaves as a TODO at
    search_pdfs.go:546 — it rescans the page text per span)."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    # offsets are in characters; for ascii-dominated corpora bytes==chars,
    # but to stay exact under unicode use a python scan only when needed
    if raw.size == len(text):
        nl = np.nonzero(raw == 0x0A)[0]
        return np.concatenate(([0], nl + 1))
    starts = [0]
    idx = text.find("\n")
    while idx != -1:
        starts.append(idx + 1)
        idx = text.find("\n", idx + 1)
    return np.asarray(starts, dtype=np.int64)


def line_number(text: str, offset: int, starts: np.ndarray | None = None
                ) -> tuple[int, str] | None:
    """1-offset line number + line text containing char ``offset``
    (lineNumber, search_pdfs.go:544-584)."""
    if offset < 0 or offset > len(text):
        return None
    if starts is None:
        starts = line_starts(text)
    ln = int(np.searchsorted(starts, offset, side="right")) - 1
    end = int(starts[ln + 1]) - 1 if ln + 1 < len(starts) else len(text)
    return ln + 1, text[int(starts[ln]) : end]


def _kth(scores: np.ndarray, k: int) -> float:
    """The k-th largest of ``scores``; -inf when there are fewer than k."""
    if scores.size < k:
        return -np.inf
    return float(np.partition(scores, scores.size - k)[scores.size - k])


def select_topk(ids: np.ndarray, scores: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The best ``k`` of (``ids``, ``scores``) ranked (score desc,
    doc_id asc) — the one top-k selection of every scorer and of the
    shard merge.  Every row tied with the k-th score survives the
    partition, so the lexsort breaks ties by doc_id whatever the input
    order."""
    k = min(k, ids.size)
    if k <= 0:
        return ids[:0], scores[:0]
    if ids.size > k * 8:
        keep = scores >= _kth(scores, k)
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def _matching_blocks(t: pa.Table, terms: list[str], src: int, seg: int,
                     bf: float) -> dict | None:
    """The posting blocks of ``t`` whose term is in ``terms``, as numpy
    columns in row order (None when there are none): ``code`` (the
    term's index in ``terms``), ``salt``, ``seg``, ``first``, ``n``,
    ``max_wdl`` (1.0 where null, times ``bf``, the segment's bound
    correction), ``src`` (where ``t`` was read), ``row`` (the block's
    row in ``t``, where its position blob can be read again), and per
    blob kind of ``BLOB_KINDS`` the blobs' lengths ``<kind>_len`` and
    bytes ``<kind>_data``."""
    code = _str_codes(t["term"], terms)
    rows = np.flatnonzero(code >= 0)
    if not rows.size:
        return None
    # a single-posting block stores no bound: 1.0, the most bm25_wdl
    # can be, corrected like any other
    bound = _np_or(t["max_wdl"], 1.0)[rows].astype(np.float64) * bf
    out = {"code": code[rows], "salt": _np(t["salt"])[rows],
           "seg": np.full(rows.size, seg, dtype=np.int32),
           "first": _np(t["first_doc"])[rows], "n": _np(t["n"])[rows],
           "max_wdl": bound,
           "src": np.full(rows.size, src, dtype=np.int64), "row": rows}
    for kind in BLOB_KINDS:
        off, out[f"{kind}_data"] = _gather_bytes(*_bytes(t[f"{kind}_blob"]),
                                                 rows)
        out[f"{kind}_len"] = np.diff(off)
    return out


@dataclass
class Match:
    doc_id: int
    url: str
    score: float
    spans: list[dict] = field(default_factory=list)  # {start,end,score}
    line_nums: list[int] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    fragment: str = ""


@dataclass
class MatchSet:
    """PdfMatchSet analog (search_pdfs.go:28-60)."""

    total_matches: int = 0
    search_duration: float = 0.0
    matches: list[Match] = field(default_factory=list)

    def best(self) -> "MatchSet":
        """Best() semantics exactly (search_pdfs.go:62-102): keep only
        spans (and their line info) at the global max span score."""
        best_score = 0.0
        for m in self.matches:
            for s in m.spans:
                if s["score"] >= best_score:
                    best_score = s["score"]
        out = MatchSet(search_duration=self.search_duration)
        for m in self.matches:
            spans, line_nums, lines = [], [], []
            for i, s in enumerate(m.spans):
                if s["score"] >= best_score:
                    spans.append(s)
                    if i < len(m.line_nums):
                        line_nums.append(m.line_nums[i])
                        lines.append(m.lines[i])
            if spans:
                out.matches.append(
                    Match(m.doc_id, m.url, m.score, spans, line_nums, lines, m.fragment)
                )
                out.total_matches += len(spans)
        return out

    def files(self) -> list[str]:
        """Distinct urls, first-seen order (Files(), search_pdfs.go:313-326)."""
        seen: set[str] = set()
        out: list[str] = []
        for m in self.matches:
            if m.url not in seen:
                seen.add(m.url)
                out.append(m.url)
        return out


# ---------------------------------------------------------------- engine


class PostingList:
    """One term's postings on a handle (``BM25Index.postings``) —
    read-only.

    ``df`` is the term's global posting count (tombstoned docs still
    counted) and ``idf`` its BM25 idf.  ``ids``/``tf``/``dl``/``scores``
    concatenate the term's runs in (salt, segment) order, each run's
    blocks in order (on a ``doc_range`` handle, the blocks that can hold
    an in-range doc), so ids are docID-sorted only within one run; they
    decode on first access, always at the term's own idf, so ``scores``
    are exactly the per-posting contributions the handle's own scorers
    sum.  ``ids`` and ``scores`` come from the handle's decode memo;
    ``tf`` and positions are decoded (positions first read) here, and
    ``dl`` is each posting doc's length from ``BM25Index.doc_lengths``;
    they are kept on this PostingList only, so a warm handle holds 16 B
    per decoded posting whatever its readers ask for."""

    _EMPTY = {"ids": np.uint64, "tf": np.uint64, "dl": np.uint64,
              "scores": np.float64}

    def __init__(self, index: "BM25Index", term: str):
        self._index = index
        self._runs = index._term_cache.get(term, [])
        self._cols: dict[str, np.ndarray] = {}
        # (block byte offsets, bytes) of the runs' position blobs
        self._positions: tuple[np.ndarray, np.ndarray] | None = None
        self.df = index._term_df(term)
        self.idf = index._idf(term)

    def _column(self, key: str) -> np.ndarray:
        col = self._cols.get(key)
        if col is None:
            if not self._runs:
                col = np.empty(0, dtype=self._EMPTY[key])
            elif key in ("ids", "scores"):
                for r in self._runs:
                    self._index._decode_blocks_bulk(r)
                col = np.concatenate([r[key] for r in self._runs])
            elif key == "dl":
                col = self._index.doc_lengths(self.ids)
            else:  # tf: one varint pass over the runs' buffers
                col = varint_decode(
                    np.concatenate([r["tf_blob"] for r in self._runs]),
                    count=sum(r["n"] for r in self._runs))
            self._cols[key] = col
        return col

    ids = property(lambda self: self._column("ids"))
    tf = property(lambda self: self._column("tf"))
    dl = property(lambda self: self._column("dl"))
    scores = property(lambda self: self._column("scores"))

    def dl_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """Doc length (float64) of each of ``doc_ids``
        (``BM25Index.doc_lengths``), so positional scorers never read doc
        text for it."""
        return self._index.doc_lengths(doc_ids).astype(np.float64)

    def position_keys(self, candidates: np.ndarray) -> np.ndarray:
        """All ``(doc_code << 32) | pos`` keys of the term's occurrences
        in ``candidates`` (sorted unique doc_ids); doc_code is the doc's
        index in ``candidates``, because raw doc_ids are
        partition-prefixed 64-bit and would overflow the packed key.
        The scoring read leaves positions out: the first call reads the
        term's position blobs from the row groups its blocks came from.
        Position blobs decode only for blocks holding a candidate, cut
        into postings by the term's decoded ``tf``."""
        if not self._runs:
            return np.empty(0, dtype=np.uint64)
        ids = self.ids
        if self._positions is None:
            self._positions = self._index._read_positions(self._runs)
        pos_off, pos_data = self._positions
        # one membership test per run (a doc is in a run at most once)
        sel_all = np.concatenate([
            np.isin(r["ids"], candidates, assume_unique=True)
            for r in self._runs])
        ns = np.concatenate([r["ns"] for r in self._runs])
        starts = np.cumsum(ns, dtype=np.int64) - ns
        # the blocks holding a candidate, decoded in one pass
        j = np.flatnonzero(np.logical_or.reduceat(sel_all, starts))
        if not j.size:
            return np.empty(0, dtype=np.uint64)
        # a posting holds tf positions: the stream carries no counts
        at = _spans(starts[j], ns[j])
        counts = self.tf[at].astype(np.int64)
        flat = decode_positions_flat(
            _gather_bytes(pos_off, pos_data, j)[1], counts)
        keep = np.repeat(sel_all[at], counts)
        codes = np.searchsorted(
            candidates, np.repeat(ids[at], counts)[keep]).astype(np.uint64)
        return (codes << np.uint64(32)) | flat[keep]


class BM25Index:
    """Query-side index handle (ST3 analog).  Construct once; reuse —
    ``ReuseIndex`` semantics (index_search.go:86-91)."""

    def __init__(self, index_dir: str | None, *,
                 verify_checksums: bool = False,
                 doc_range: tuple[int, int] | None = None):
        self._postings_mem: pa.Table | None = None
        self._docs_mem: pa.Table | None = None
        self._deleted: np.ndarray | None = None  # sorted tombstoned ids
        self.verify_checksums = verify_checksums
        # doc-range handle: every answer (search, topk, score_terms)
        # covers only doc_id ∈ [lo, hi).  Posting reads skip row groups
        # whose doc span (``_build_bucket_frag_index``) misses the range and
        # the scorers skip blocks outside it, so a shard's IO ∝ its
        # slice for long posting lists.  df/idf stay GLOBAL (a cheap
        # term+n metadata read covers the out-of-range row groups), so
        # scores are bitwise-identical to the full handle's.
        self.doc_range = doc_range
        self._df_global: dict[str, int] = {}  # term -> global df
        # open-handle / read accounting (F7 parity: the reference counts
        # open file handles, utils/fileio.go:131-193)
        self.io_stats: dict[str, int] = {
            "postings_files_opened": 0,
            "postings_row_groups_read": 0,
            # Arrow bytes of the row groups the scoring read returned
            "postings_bytes_read": 0,
            # on-demand position reads (PostingList.position_keys)
            "positions_row_groups_read": 0,
            "docs_files_opened": 0,
            # hydration reads (doc_id, url[, text])
            "docs_row_groups_read": 0,
            # narrow (doc_id, dl) reads for doc_lengths
            "dl_row_groups_read": 0,
            # narrow (term, n) metadata reads over doc-range-pruned row
            # groups (global-df upkeep on shard handles) — tracked
            # separately from blob reads
            "df_row_groups_read": 0,
        }
        self._doc_files: list[str] = []
        self._pf_cache: dict[str, pq.ParquetFile] = {}
        if index_dir is not None:
            self.index_dir = index_dir
            self.manifest = IndexManifest.load(index_dir)
            self.manifest.check_format(index_dir)
            # Segment-aware open (append_index, the forceCreate=false
            # analog): only manifest-COMMITTED segment dirs are read, so
            # a crashed append's half-written segment is invisible.
            # Per-dir avgdl_baked drives the block-max bound correction
            # in _build_bucket_frag_index.
            seg_dirs = [("base", index_dir, self.manifest.avgdl)]
            for s in self.manifest.segments:
                if s["name"] == "base":
                    seg_dirs[0] = ("base", index_dir,
                                   float(s["avgdl_baked"]))
                else:
                    seg_dirs.append((
                        s["name"], f"{index_dir}/segments/{s['name']}",
                        float(s["avgdl_baked"])))
            self._seg_dirs = seg_dirs
            import glob as _glob

            # postings file -> (segment, avgdl_baked, bucket)
            self._post_file_seg: dict[str, tuple[int, float, int]] = {}
            for si, (_, d, baked) in enumerate(seg_dirs):
                for p, bucket in postings_files(d):
                    self._post_file_seg[p] = (si, baked, bucket)
                self._doc_files.extend(
                    sorted(_glob.glob(f"{d}/docs/*.parquet")))
            # an empty index has no docs files and so no schema
            self._docs_schema = (
                self._parquet_file(self._doc_files[0], "docs").schema_arrow
                if self._doc_files else pa.schema([]))
            self.analyze = get_analyzer(self.manifest.analyzer)
            tomb = self.manifest.tombstone_ids(
                index_dir, verify=self.verify_checksums)
            if tomb.size:
                self._deleted = tomb.astype(np.uint64)
        self._term_cache: dict[str, list[dict]] = {}  # term -> its runs
        # where each cached block was read: None for the in-memory
        # table, else (path, row_group); a run's ``src`` indexes it
        self._sources: list[tuple[str, int] | None] = []
        self._doc_rg_index: list[tuple[str, int, int, int]] | None = None
        # doc_lengths: the (doc_id, dl) pairs read so far, sorted by id,
        # the _doc_rg_index positions not read yet and every row group's
        # (min, max) doc id
        self._dl_ids = np.empty(0, dtype=np.int64)
        self._dl = np.empty(0, dtype=np.uint32)
        self._dl_unread: np.ndarray | None = None
        self._dl_bounds: np.ndarray | None = None
        self._bucket_frags: dict[int, list] | None = None
        from collections import OrderedDict

        self._analysis_cache: OrderedDict[int, list] = OrderedDict()
        self._analysis_cache_max = 256

    @classmethod
    def from_tables(cls, manifest: IndexManifest, postings: pa.Table,
                    docs: pa.Table) -> "BM25Index":
        """In-memory index handle (S5 parity: the reference's mem index
        when persistDir=="", bleve_glue.go:35-38) — used for tests and
        small ephemeral corpora; same scoring code paths."""
        self = cls(None)
        self.index_dir = None
        self.manifest = manifest
        self._postings_mem = postings
        self._docs_mem = docs
        self.analyze = get_analyzer(manifest.analyzer)
        return self

    def _build_doc_rg_index(self) -> list[tuple[str, int, int, int]]:
        """(file, row_group, min_doc_id, max_doc_id) from parquet footers —
        read once, then every hit hydration touches only matching row
        groups instead of stat-scanning the whole docs dataset (the
        reference reopens per-doc files per hit and calls that slow,
        bleve_pdf.go:482-484; this is the indexed version)."""
        out = []
        for path in self._doc_files:
            md = self._parquet_file(path, "docs").metadata
            idx = md.schema.to_arrow_schema().names.index("doc_id")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None:
                    out.append((path, rg, -(1 << 62), 1 << 62))
                else:
                    out.append((path, rg, st.min, st.max))
        return out

    def _parquet_file(self, path: str, kind: str) -> pq.ParquetFile:
        """The handle's one open ``ParquetFile`` for ``path`` (footer
        parsed once; a verifying handle has pyarrow check the CRC of
        every page it reads); ``kind`` ("postings" / "docs") names the
        ``io_stats`` open counter."""
        pf = self._pf_cache.get(path)
        if pf is None:
            pf = self._pf_cache[path] = pq.ParquetFile(
                path, page_checksum_verification=self.verify_checksums)
            self.io_stats[f"{kind}_files_opened"] += 1
        return pf

    def _read_row_group(self, path: str, kind: str, rg: int,
                        columns: list[str]) -> pa.Table:
        """``columns`` of row group ``rg`` of ``path``, read in this
        thread (a cold search starts no Arrow thread pool); a page that
        fails its CRC raises ``CorruptIndexError``."""
        return read_checked(self._parquet_file(path, kind), path, columns,
                            rg)

    # -- posting access ------------------------------------------------

    def _load_terms(self, terms: list[str]) -> None:
        """Fetch posting-block rows for terms (bucket- and row-group-pruned
        parquet read, row groups read one after another in this thread).
        Blocks stay ENCODED until a scorer touches them — block-max
        pruning must be able to skip a block without paying its decode.
        The read leaves ``pos_blob`` out: each block keeps the row group
        and row it came from, and ``_read_positions`` reads its positions
        from there when asked.  A verifying handle checks the CRC of each
        page it reads, so it reads the same columns.

        Rows are matched, sorted and gathered with numpy over the Arrow
        buffers (``index/arrays.py``), a whole row group at a time; each
        term is cached as its runs (``_build_run``)."""
        missing = [t for t in terms if t not in self._term_cache]
        if not missing:
            return
        nb = self.manifest.num_buckets
        salt_spec = self.manifest.salt_spec or {}
        bucket_set: set[int] = set()
        for t in missing:
            n_salts = int(salt_spec.get(t, 0))
            if n_salts:
                # hot terms are sharded across buckets by salt (see
                # Tokenizer._bucket_salted) — probe every shard bucket
                bucket_set.update(
                    fnv1a64_str(f"{t}#{s}") % nb for s in range(n_salts)
                )
            else:
                bucket_set.add(fnv1a64_str(t) % nb)
        buckets = sorted(bucket_set)
        cols = ["term", "salt", "first_doc", "n", "doc_blob", "tf_blob",
                "max_wdl"]
        base = len(self._sources)
        parts = []
        if self._postings_mem is not None:
            self._sources.append(None)
            parts.append(_matching_blocks(self._postings_mem.select(cols),
                                          missing, base, 0, 1.0))
        else:
            if self._bucket_frags is None:
                self._bucket_frags = self._build_bucket_frag_index()
            bucket_arr = set(buckets)
            want_all = [
                (path, rg, seg, bf, dmin, dmax)
                for (path, rg, bucket, tmin, tmax, seg, bf, dmin, dmax)
                in self._bucket_frags
                if bucket in bucket_arr
                and (tmin is None or any(tmin <= t <= tmax for t in missing))
            ]
            if self.doc_range is not None:
                lo, hi = self.doc_range
                want = [(p, rg, seg, bf) for (p, rg, seg, bf, dmin, dmax)
                        in want_all if dmax >= lo and dmin < hi]
                skipped = [(p, rg) for (p, rg, seg, bf, dmin, dmax)
                           in want_all if not (dmax >= lo and dmin < hi)]
                # global df for idf: the skipped row groups' postings
                # still count — a narrow (term, n) metadata read, no
                # blob bytes leave storage
                if skipped:
                    self._accumulate_df(skipped, missing)
            else:
                want = [(p, rg, seg, bf)
                        for (p, rg, seg, bf, _d0, _d1) in want_all]
            self._sources.extend((path, rg) for path, rg, _seg, _bf in want)
            for src, (path, rg, seg, bf) in enumerate(want, base):
                t = self._read_row_group(path, "postings", rg, cols)
                self.io_stats["postings_bytes_read"] += t.nbytes
                # block-max bounds were encoded under that segment's
                # avgdl; scaling by bf = max(1, avgdl_now/avgdl_baked)
                # keeps them valid upper bounds (wdl ratio <=
                # avgdl'/avgdl)
                parts.append(_matching_blocks(t, missing, src, seg, bf))
            self.io_stats["postings_row_groups_read"] += len(want)
        for t in missing:
            self._term_cache[t] = []
        # no part: nothing matched — also covers an EMPTY index, which
        # has no posting files and hence no schema
        parts = [p for p in parts if p is not None]
        if not parts:
            return
        blk = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
        # (term, salt, segment, first doc) order: the runs, each in
        # order, as a run's blocks are cut from its doc-sorted postings
        order = np.lexsort((blk["first"], blk["seg"], blk["salt"],
                            blk["code"]))
        for kind in BLOB_KINDS:
            off = np.zeros(order.size + 1, dtype=np.int64)
            np.cumsum(blk[f"{kind}_len"], dtype=np.int64, out=off[1:])
            blk[f"{kind}_off"], blk[f"{kind}_blob"] = _gather_bytes(
                off, blk[f"{kind}_data"], order)
        for k in ("code", "salt", "seg", "first", "n", "max_wdl", "src",
                  "row"):
            blk[k] = blk[k][order]
        code = blk["code"]
        df = np.bincount(code, weights=blk["n"], minlength=len(missing))
        for i, t in enumerate(missing):
            self._df_global[t] = self._df_global.get(t, 0) + int(df[i])
        cut = np.flatnonzero((code[1:] != code[:-1])
                             | (blk["salt"][1:] != blk["salt"][:-1])
                             | (blk["seg"][1:] != blk["seg"][:-1])) + 1
        bounds = [0, *cut.tolist(), code.size]
        for a, b in zip(bounds[:-1], bounds[1:]):
            term = missing[int(code[a])]
            run = self._build_run(term, blk, a, b)
            if run is not None:
                self._term_cache[term].append(run)

    def _read_positions(self, runs: list[dict]) -> tuple[np.ndarray,
                                                         np.ndarray]:
        """(block byte offsets, bytes) of the ``pos_blob`` of every block
        of ``runs``, in block order, read from the row group (or
        in-memory table row) each block came from — one read per row
        group."""
        src = np.concatenate([r["src"] for r in runs])
        rows = np.concatenate([r["row"] for r in runs])
        blocks, lens, datas = [], [], []
        for s in np.unique(src).tolist():
            where = self._sources[s]
            if where is None:
                col = self._postings_mem["pos_blob"]
            else:
                path, rg = where
                col = self._read_row_group(path, "postings", rg,
                                           ["pos_blob"])["pos_blob"]
                self.io_stats["positions_row_groups_read"] += 1
            at = np.flatnonzero(src == s)
            off, data = _gather_bytes(*_bytes(col), rows[at])
            blocks.append(at)
            lens.append(np.diff(off))
            datas.append(data)
        off = np.zeros(src.size + 1, dtype=np.int64)
        np.cumsum(np.concatenate(lens), dtype=np.int64, out=off[1:])
        return _gather_bytes(off, np.concatenate(datas),
                             np.argsort(np.concatenate(blocks)))

    def _build_bucket_frag_index(self) -> list[tuple]:
        """(path, row_group, bucket, term_min, term_max, seg,
        bound_factor, doc_min, doc_max) per postings row group, from the
        file names and parquet footers — read once per index handle.
        The build writes one bucket per file (its name says which,
        ``manifest.postings_files``) with small row groups, so a query
        prunes to the row groups of its terms' buckets whose term
        ranges cover its terms, then reads them directly.  ``seg``
        identifies the append segment the file belongs to (MaxScore
        scores each (term, salt, seg) run independently — doc ids are
        only sorted WITHIN a segment); ``bound_factor`` is the max(1,
        avgdl_now/avgdl_baked) block-max correction.  ``doc_min`` is
        the first_doc minimum and ``doc_max`` the larger of the
        first_doc and last_doc maxima (last_doc is null on
        single-posting blocks); both are full-range for files without
        those statistics or without the last_doc column.  They drive the
        doc-range shard pruning."""
        avgdl_now = self.manifest.avgdl
        out: list[tuple] = []
        for path, (seg, baked, bucket) in self._post_file_seg.items():
            bf = max(1.0, avgdl_now / baked) if baked > 0 else 1.0
            md = self._parquet_file(path, "postings").metadata
            names = md.schema.to_arrow_schema().names
            t_idx = names.index("term")
            f_idx = names.index("first_doc")
            l_idx = names.index("last_doc") if "last_doc" in names else None
            for rg in range(md.num_row_groups):
                tst = md.row_group(rg).column(t_idx).statistics
                tmin, tmax = ((tst.min, tst.max)
                              if tst is not None and tst.min is not None
                              else (None, None))
                fst = md.row_group(rg).column(f_idx).statistics
                lst = (md.row_group(rg).column(l_idx).statistics
                       if l_idx is not None else None)
                has_first = fst is not None and fst.min is not None
                dmin = fst.min if has_first else -(1 << 62)
                if has_first and lst is not None:
                    # last_doc is null on single-posting blocks, whose
                    # last id is their first: a row group of only those
                    # has no last_doc max, and its span ends at first_doc
                    dmax = (fst.max if lst.max is None
                            else max(fst.max, lst.max))
                else:
                    dmax = 1 << 62
                out.append((path, rg, bucket, tmin, tmax, seg, bf,
                            dmin, dmax))
        return out

    def _accumulate_df(self, skipped: list[tuple], missing: list[str]) -> None:
        """Sum posting counts for ``missing`` terms over out-of-range row
        groups — (term, n) columns only, so global idf survives
        doc-range read pruning without touching blob bytes."""
        for t in missing:
            self._df_global.setdefault(t, 0)
        for path, rg in skipped:
            p = self._read_row_group(path, "postings", rg, ["term", "n"])
            code = _str_codes(p["term"], missing)
            hit = code >= 0
            df = np.bincount(code[hit], weights=_np(p["n"])[hit],
                             minlength=len(missing))
            for i, t in enumerate(missing):
                self._df_global[t] += int(df[i])
        self.io_stats["df_row_groups_read"] += len(skipped)

    def _decode_blocks_bulk(self, run: dict,
                            want: np.ndarray | None = None) -> None:
        """Decode the blocks of ``run`` that ``want`` selects (a block
        mask; all when None) into the run's memo, skipping decoded ones:
        ids and the per-posting BM25 contribution ``scores`` = idf ×
        wdl, in one bulk varint pass (``codec.decode_posting_streams``)
        and one ``doc_lengths`` lookup.  Only those two arrays (16 B per
        posting) stay on the handle; tf and dl are dropped once the
        scores are made (``PostingList`` reads them again when a reader
        asks).

        The memo is one (ids, scores) array pair per run plus the
        ``decoded`` block mask.  Until a block is decoded its ids read
        as the block's first id, so ``ids`` stays docID-sorted and one
        ``searchsorted`` over it finds any id in a decoded block.
        Scores are always made at the run's own ``idf``, so no reader
        can leave another's scores wrong."""
        todo = ~run["decoded"]
        if want is not None:
            todo &= want
        j = np.flatnonzero(todo)
        if not j.size:
            return
        if j.size == todo.size:  # the whole run: its buffers as they are
            streams = [run[f"{k}_blob"] for k in BLOB_KINDS]
        else:
            streams = [_gather_bytes(run[f"{k}_off"], run[f"{k}_blob"], j)[1]
                       for k in BLOB_KINDS]
        ns = run["ns"][j]
        ids, tf = decode_posting_streams(run["firsts"][j], ns, *streams)
        m = self.manifest
        scores = run["idf"] * bm25_wdl(tf, self.doc_lengths(ids), m.k1,
                                       m.b, m.avgdl)
        if j.size == todo.size:
            run["ids"], run["scores"] = ids, scores
        else:
            if "ids" not in run:
                run["ids"] = np.repeat(run["firsts"], run["ns"])
                run["scores"] = np.zeros(run["n"])
            at = _spans(run["starts"][j], ns)
            run["ids"][at] = ids
            run["scores"][at] = scores
        run["decoded"][j] = True

    def doc_lengths(self, ids) -> np.ndarray:
        """The length (uint64) of each doc of ``ids`` — its analyzed
        token count, the ``dl`` column of the docs catalog.

        Reads only ``(doc_id, dl)``, and only from the catalog row groups
        the ids fall in (the footer index hydration uses), counted in
        ``io_stats["dl_row_groups_read"]``; what is read stays on the
        handle as one pair of id-sorted arrays.  An in-memory handle
        looks them up in its docs table.  Raises ``CorruptIndexError``
        for an id the catalog does not hold."""
        ids = np.asarray(ids).astype(np.int64)
        if not ids.size:
            return np.empty(0, dtype=np.uint64)
        if self._docs_mem is not None:
            if not self._dl_ids.size:
                self._add_doc_lengths([self._docs_mem])
        else:
            if self._dl_unread is None:
                if self._doc_rg_index is None:
                    self._doc_rg_index = self._build_doc_rg_index()
                self._dl_unread = np.arange(len(self._doc_rg_index))
                self._dl_bounds = np.array(
                    [r[2:] for r in self._doc_rg_index],
                    dtype=np.int64).reshape(-1, 2)
            if self._dl_unread.size:
                want = np.unique(ids)
                lo, hi = self._dl_bounds[self._dl_unread].T
                hit = (np.searchsorted(want, hi, side="right")
                       > np.searchsorted(want, lo))
                parts = []
                for i in self._dl_unread[hit].tolist():
                    path, rg = self._doc_rg_index[i][:2]
                    parts.append(self._read_row_group(
                        path, "docs", rg, ["doc_id", "dl"]))
                self.io_stats["dl_row_groups_read"] += len(parts)
                self._add_doc_lengths(parts)
                self._dl_unread = self._dl_unread[~hit]
        pos = np.minimum(np.searchsorted(self._dl_ids, ids),
                         max(self._dl_ids.size - 1, 0))
        if not (self._dl_ids.size and np.array_equal(self._dl_ids[pos], ids)):
            missing = np.setdiff1d(ids, self._dl_ids)[:5].tolist()
            raise CorruptIndexError(
                f"the docs catalog holds no length for doc ids {missing}")
        return self._dl[pos].astype(np.uint64)

    def _add_doc_lengths(self, tables: list[pa.Table]) -> None:
        """Merge the (doc_id, dl) pairs of ``tables`` into the sorted
        arrays in one sort (a stable sort of id-sorted runs is a merge)."""
        if not tables:
            return
        ids = np.concatenate([self._dl_ids]
                             + [_np(t["doc_id"]) for t in tables])
        dl = np.concatenate([self._dl] + [_np(t["dl"]) for t in tables])
        order = np.argsort(ids, kind="stable")
        self._dl_ids, self._dl = ids[order], dl[order]

    def _term_df(self, term: str) -> int:
        # every loaded block plus the out-of-range row groups' metadata
        # counts — df is GLOBAL even on a doc-range-pruned shard handle
        return self._df_global.get(term, 0)

    def _idf(self, term: str) -> float:
        df = self._term_df(term)
        if df == 0:
            return 0.0
        return float(bm25_idf(self.manifest.n_docs, df))

    # -- scoring -------------------------------------------------------

    def _build_run(self, term: str, blk: dict, a: int,
                   b: int) -> dict | None:
        """The scoring unit made of loaded blocks ``[a, b)`` of ``blk``
        — one (salt, segment) run of ``term``, blocks in order.  A salted
        hot term's postings are independent docID-sorted runs
        (stages/tokenize.py), docID order only holds within one append
        segment, and a doc has at most one posting per run.

        A run is columnar: per block its first id ``firsts`` (block j
        covers [firsts[j], firsts[j+1])), posting count ``ns``, posting
        offsets ``starts``, bound-corrected ``max_wdl``, source read
        ``src`` and ``row``, and per blob kind one contiguous buffer
        ``<kind>_blob`` with block byte offsets ``<kind>_off``; then the
        term's ``idf``, the posting count ``n``, the upper bound ``ub``
        = idf × max block max_wdl and the decode memo
        (``_decode_blocks_bulk``).  On a ``doc_range`` handle only the
        blocks that can hold an in-range doc are kept — past the range
        from the first block starting at hi, before it while the next
        block starts at or below lo — so the rest are never decoded;
        None when none is left."""
        if self.doc_range is not None:
            lo, hi = (min(max(x, -(1 << 63)), (1 << 63) - 1)
                      for x in self.doc_range)
            f = blk["first"][a:b]
            a, b = (a + max(int(np.searchsorted(f, lo, side="right")) - 1, 0),
                    a + int(np.searchsorted(f, hi, side="left")))
            if a >= b:
                return None
        idf = self._idf(term)
        ns = blk["n"][a:b].astype(np.int64)
        starts = np.zeros(ns.size + 1, dtype=np.int64)
        np.cumsum(ns, dtype=np.int64, out=starts[1:])
        run = {"idf": idf, "n": int(starts[-1]),
               "ub": idf * float(blk["max_wdl"][a:b].max()),
               "firsts": blk["first"][a:b].astype(np.uint64), "ns": ns,
               "starts": starts, "max_wdl": blk["max_wdl"][a:b],
               "src": blk["src"][a:b], "row": blk["row"][a:b],
               "decoded": np.zeros(ns.size, dtype=bool)}
        for kind in BLOB_KINDS:
            off = blk[f"{kind}_off"]
            run[f"{kind}_off"] = off[a:b + 1] - off[a]
            run[f"{kind}_blob"] = blk[f"{kind}_blob"][off[a]:off[b]]
        return run

    def _runs(self, terms: list[str]) -> list[dict]:
        """The runs of ``terms`` (sorted unique) in term-major order —
        the order every scorer sums in — loading any term not cached."""
        self._load_terms(terms)
        return [r for t in terms for r in self._term_cache[t]]

    def _decoded(self, run: dict) -> tuple[np.ndarray, np.ndarray]:
        """A run's (ids, scores), docID-sorted, dead docs included — the
        memo arrays themselves, never to be written to."""
        self._decode_blocks_bulk(run)
        return run["ids"], run["scores"]

    def _live(self, ids: np.ndarray,
              scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``ids`` and their ``scores`` where ``live_mask`` holds."""
        if self._deleted is None and self.doc_range is None:
            return ids, scores
        keep = self.live_mask(ids)
        return ids[keep], scores[keep]

    def _probe(self, run: dict, ids: np.ndarray) -> np.ndarray:
        """The contribution of ``run`` to each of ``ids``: the posting's
        score where the doc has one in the run, else 0.0.

        Looking ids up costs more than decoding the whole run once they
        outnumber its postings twice over; then every block is decoded.
        Fewer ids decode only the blocks they fall in, found by
        ``firsts`` — a heavy low-idf run probed at a few candidates
        stays mostly encoded.  The memo's ids are docID-sorted whatever
        is decoded, so one ``searchsorted`` looks every id up."""
        want = None
        if ids.size <= 2 * run["n"]:
            bi = np.searchsorted(run["firsts"], ids, side="right") - 1
            want = np.zeros(run["firsts"].size, dtype=bool)
            want[bi[bi >= 0]] = True
            if not want.any():
                return np.zeros(ids.size)
        self._decode_blocks_bulk(run, want)
        rids, rsc = run["ids"], run["scores"]
        out = np.zeros(ids.size)
        pos = np.minimum(np.searchsorted(rids, ids), rids.size - 1)
        hit = rids[pos] == ids
        out[hit] = rsc[pos[hit]]
        return out

    def _score(self, runs: list[dict]) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive TAAT → (doc_ids, scores) of every live matching
        doc, unranked: every block of every run decoded, the runs
        concatenated in term-major order and group-summed."""
        if not runs:
            return np.empty(0, dtype=np.uint64), np.empty(0)
        decoded = [self._decoded(r) for r in runs]
        return self._live(*aggregate_scores(
            np.concatenate([ids for ids, _ in decoded]),
            np.concatenate([sc for _, sc in decoded])))

    def _maxscore(self, runs: list[dict],
                  k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized block-max MaxScore top-k (term-at-a-time pruning,
        Buckley & Lewit 1985 / Turtle & Flood MaxScore) over ``runs``.

        Each run is an independent disjunct with upper bound ``ub``.
        Runs are processed in DESCENDING bound order in two phases:

        * GROW — runs are bulk-decoded and aggregated fully vectorized
          (exactly TAAT) while an unseen doc could still enter the top
          k, i.e. while suffix_ub(i) >= θ (θ = k-th best partial so
          far; >= keeps boundary ties eligible, preserving the
          (score desc, doc_id asc) tie rule).
        * PROBE — once suffix_ub(i) < θ no unseen doc can reach the
          heap, so each remaining run is probed ONLY at the surviving
          candidates (``_probe``: only the blocks they fall in are
          decoded).  Candidates whose score + remaining bound < θ
          retire as runs advance.  The heavy low-idf runs (the largest
          postings) sort LAST and are never fully decoded — the point
          of the per-block max_wdl metadata.

        Produces the same top-k, scores and tie order as exhaustive
        TAAT (every emitted candidate carries its exact final score and
        the final pick is ``select_topk``); does NOT produce
        total-match counts.
        """
        if not runs:
            return np.empty(0, dtype=np.uint64), np.empty(0)
        by_bound = sorted(runs, key=lambda r: -r["ub"])
        ubs = np.array([r["ub"] for r in by_bound])
        suffix = np.concatenate([np.cumsum(ubs[::-1])[::-1], [0.0]])

        cand_ids = np.empty(0, dtype=np.uint64)
        cand_sc = np.empty(0)
        # GROW with a CHEAP θ lower bound so candidate parts are
        # aggregated exactly ONCE (per-run incremental merges over the
        # FULL candidate set made heavy queries O(runs × candidates) —
        # measured slower than TAAT).  The bound must be per-DOC: the
        # k-th largest single-run contribution is NOT a lower bound on
        # the true k-th best total when top contributions concentrate
        # in fewer than k distinct docs (each doc can supply one
        # contribution per query term).  So we keep a small id-deduped
        # scoreboard of per-doc PARTIAL SUMS (idf > 0 ⇒ every
        # contribution is ≥ 0 ⇒ any partial sum lower-bounds that
        # doc's total, even after a doc is evicted and re-enters with a
        # restarted sum), merge each run's top-k (id, score) into it,
        # and use its k-th best only once it holds ≥ k DISTINCT docs.
        pend_ids: list[np.ndarray] = []
        pend_sc: list[np.ndarray] = []
        board_ids = np.empty(0, dtype=np.uint64)
        board_sc = np.empty(0)
        board_cap = 4 * k + 16
        theta_lower = -np.inf
        # Amortized exact-θ folds: when contributions are spread evenly
        # across many docs (mass-tie corpora), the per-run top-k
        # scoreboard's restarted partial sums underestimate θ badly and
        # GROW decodes nearly everything.  Folding the pending parts
        # into one exact aggregation on a DOUBLING size schedule keeps
        # total fold cost O(final aggregation) while giving GROW a true
        # k-th-total bound to stop on.
        pend_total = 0
        fold_at = max(MAXSCORE_FOLD_POSTINGS, 8 * k)
        # degenerate-corpus guard: when GROW has decoded most of the
        # posting mass and the bound still hasn't closed (flat scores —
        # e.g. every term in every doc, idf ≈ ε), block-max pruning
        # cannot win; stop paying per-run scoreboard/fold overhead and
        # finish exhaustively (exactly TAAT from here on)
        total_postings = sum(r["n"] for r in runs)
        decoded_total = 0
        i = 0
        while i < len(by_bound) and suffix[i] >= theta_lower:
            if decoded_total > 0.6 * total_postings:
                for r in by_bound[i:]:
                    ids_r, sc_r = self._live(*self._decoded(r))
                    pend_ids.append(ids_r)
                    pend_sc.append(sc_r)
                i = len(by_bound)
                break
            # dead docs (tombstoned or out of range) must not inflate θ
            # (they would prune live docs): drop them before they
            # become candidates
            ids_new, sc_new = self._live(*self._decoded(by_bound[i]))
            i += 1
            pend_ids.append(ids_new)
            pend_sc.append(sc_new)
            pend_total += int(ids_new.size)
            decoded_total += int(ids_new.size)
            if sc_new.size:
                if sc_new.size > k:
                    sel = np.argpartition(sc_new, sc_new.size - k)[
                        sc_new.size - k:]
                else:
                    sel = slice(None)
                board_ids, board_sc = aggregate_scores(
                    np.concatenate([board_ids, ids_new[sel]]),
                    np.concatenate([board_sc, sc_new[sel]]))
                if board_ids.size > board_cap:
                    keep = np.argpartition(
                        board_sc, board_sc.size - board_cap)[
                        board_sc.size - board_cap:]
                    board_ids, board_sc = board_ids[keep], board_sc[keep]
                theta_lower = max(theta_lower, _kth(board_sc, k))
            if pend_total >= fold_at:
                cand_ids, cand_sc = aggregate_scores(
                    np.concatenate([cand_ids, *pend_ids]),
                    np.concatenate([cand_sc, *pend_sc]))
                pend_ids, pend_sc = [], []
                pend_total = 0
                fold_at = max(fold_at, 2 * int(cand_ids.size))
                theta_lower = max(theta_lower, _kth(cand_sc, k))
        if pend_ids:
            cand_ids, cand_sc = aggregate_scores(
                np.concatenate([cand_ids, *pend_ids]),
                np.concatenate([cand_sc, *pend_sc]))
        theta = _kth(cand_sc, k)

        for j in range(i, len(by_bound)):
            if np.isfinite(theta):
                # retire candidates that cannot reach θ even with every
                # remaining bound (>= keeps exact-θ ties alive)
                keep = cand_sc + suffix[j] >= theta
                cand_ids, cand_sc = cand_ids[keep], cand_sc[keep]
            if cand_ids.size == 0:
                break
            # docs of this run that are NOT candidates stay excluded: by
            # the probe-phase invariant any doc first seen now can total
            # at most suffix[j] < θ and can never enter the top k
            cand_sc = cand_sc + self._probe(by_bound[j], cand_ids)
            theta = max(theta, _kth(cand_sc, k))

        if cand_ids.size == 0:
            return cand_ids, cand_sc
        # Final pick: take a slack'd candidate head by the phased sums,
        # then RECOMPUTE those docs' scores by probing every run in
        # term-major order — the exact accumulation order TAAT uses — so
        # the returned floats are bitwise identical to _score's (the
        # phased sums add runs in descending-bound order, which can
        # differ by ulps and flip near-ties).  A doc is in at most one
        # run per term, and adding 0.0 for absent runs is exact, so the
        # per-doc addition sequence matches TAAT's bincount order.
        kk = min(k, cand_ids.size)
        sel_ids = cand_ids
        if cand_ids.size > kk * 4 + 16:
            sel_ids = cand_ids[cand_sc >= _kth(cand_sc, kk * 4 + 16)]
        exact = np.zeros(sel_ids.size)
        for r in runs:
            exact += self._probe(r, sel_ids)
        return select_topk(sel_ids, exact, kk)

    # -- public API ----------------------------------------------------

    def score_terms(self, terms) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive disjunctive BM25 over an EXPLICIT term set →
        (doc_ids, scores) for every matching document, unranked.

        This is the scoring half of a MultiTermQuery rewrite (fuzzy /
        prefix / wildcard expansion, pipelines/expand.py): the caller
        expands the pattern against the term dictionary, this scores
        the disjunction with each term's own idf — bypassing query
        analysis, which would re-stem or split the raw pattern."""
        return self._score(self._runs(sorted(set(terms))))

    def postings(self, terms) -> dict[str, PostingList]:
        """term -> PostingList for each of ``terms``, all loaded in one
        bucket- and row-group-pruned read.  The posting-access API for
        every scorer outside this module."""
        uniq = sorted(set(terms))
        self._load_terms(uniq)
        return {t: PostingList(self, t) for t in uniq}

    def idf(self, term: str) -> float:
        """The term's BM25 idf over its GLOBAL df (0.0 when absent)."""
        self._load_terms([term])
        return self._idf(term)

    def live_mask(self, ids: np.ndarray) -> np.ndarray:
        """True where a doc id is live on this handle: not tombstoned
        and inside its ``doc_range``."""
        ids = np.asarray(ids)
        keep = np.ones(ids.size, dtype=bool)
        if self.doc_range is not None:
            lo, hi = (ids.dtype.type(max(x, 0)) for x in self.doc_range)
            keep &= (ids >= lo) & (ids < hi)
        if self._deleted is not None:
            keep &= ~np.isin(ids, self._deleted)
        return keep

    def cached_terms(self) -> int:
        """Number of terms whose posting blocks the handle holds."""
        return len(self._term_cache)

    def query_terms(self, query: str) -> list[str]:
        """Analyzed query tokens in order (duplicates kept) — the same
        chain the index was built with."""
        if self.manifest.analyzer == "en":
            return [tok.term for tok in analyze_en(query)]
        return self.analyze(query)

    def topk(self, query: str, max_results: int,
             method: str = "taat") -> tuple[np.ndarray, np.ndarray, int]:
        """The analyzed query's top ``max_results`` inside the handle's
        ``doc_range``, without hydration: (doc_ids, scores,
        total_matches), ranked (score desc, doc_id asc).  ``method`` and
        ``total_matches`` are as in ``search``."""
        return self._topk(self.query_terms(query), max_results, method)

    def _topk(self, q_terms: list[str], max_results: int,
              method: str) -> tuple[np.ndarray, np.ndarray, int]:
        runs = self._runs(sorted(set(q_terms)))
        if method == "auto":
            method = ("maxscore" if sum(r["n"] for r in runs)
                      > AUTO_MAXSCORE_POSTINGS else "taat")
        if method == "maxscore":
            ids, scores = self._maxscore(runs, max(max_results, 1))
            n = max(max_results, 0)
            return ids[:n], scores[:n], -1 if ids.size else 0
        ids, scores = self._score(runs)
        return (*select_topk(ids, scores, max_results), int(ids.size))

    def search(
        self,
        query: str,
        max_results: int = DEFAULT_MAX_RESULTS,
        with_spans: bool = True,
        apply_best: bool = False,
        method: str = "taat",
    ) -> MatchSet:
        """Analyzed OR-of-terms BM25 top-k (SearchBleveIndex analog):
        ``topk`` plus ``hydrate``.

        ``method``: "taat" (exhaustive, exact total_matches — the oracle
        path), "maxscore" (block-max pruned top-k, same ranks/scores,
        total_matches reported as -1/unknown — the scale path), or
        "auto" (taat while the query's posting mass is small enough
        that exhaustive scoring is the faster path, maxscore beyond —
        total_matches is then exact only for the cheap queries)."""
        t0 = time.perf_counter()
        q_terms = self.query_terms(query)
        ids, scores, total = self._topk(q_terms, max_results, method)
        result = MatchSet(total_matches=total)
        if ids.size:
            result.matches = self.hydrate(q_terms, ids, scores, with_spans)
        result.search_duration = time.perf_counter() - t0
        if not apply_best:
            return result
        best = result.best()
        if not with_spans and total >= 0:
            best.total_matches = total
        return best

    def hydrate(
        self,
        q_terms: list[str],
        top_ids: np.ndarray,
        top_sc: np.ndarray,
        with_spans: bool,
    ) -> list[Match]:
        """Join hits against the docs table and build spans/lines — the
        hitToPdfMatch join (J1, search_pdfs.go:330-366).  Top-k is tiny,
        so this is a pushdown-filtered read, not a shuffle."""
        id_list = [int(i) for i in top_ids]
        dtbl, has_text = self.fetch_doc_meta(id_list, with_text=with_spans)
        return self._hydrate_from_table(q_terms, id_list, top_sc, with_spans,
                                        dtbl, has_text)

    def fetch_doc_meta(self, id_list: list[int],
                       with_text: bool = True) -> tuple[pa.Table, bool]:
        """Row-group-pruned (doc_id, url[, text]) fetch for a small id
        set — the hitToPdfMatch join's read half, public so renderers
        (pipelines/render.py) can pull evidence text for top-k docs.
        Returns (table, has_text)."""
        cols = ["doc_id", "url"]
        docs_schema = (self._docs_mem.schema if self._docs_mem is not None
                       else self._docs_schema)
        if not docs_schema.names:
            # empty index: no docs files and so no schema — no row group
            # matches below, and the answer has the standard catalog shape
            docs_schema = pa.schema([("doc_id", pa.int64()),
                                     ("url", pa.string()),
                                     ("text", pa.string())])
        has_text = "text" in docs_schema.names
        if has_text and with_text:
            cols.append("text")
        want = sorted(id_list)
        want_np = np.array(want, dtype=np.int64)

        def wanted(ids: np.ndarray) -> np.ndarray:
            """The rows of ``ids`` that are in ``want``."""
            if not want_np.size:
                return np.empty(0, dtype=np.int64)
            at = np.minimum(np.searchsorted(want_np, ids), want_np.size - 1)
            return np.flatnonzero(want_np[at] == ids)

        if self._docs_mem is not None:
            ids = _np(self._docs_mem["doc_id"])
            rows = wanted(ids)
            return _take_table(self._docs_mem.select(cols),
                               rows[np.argsort(ids[rows], kind="stable")]
                               ), has_text
        if self._doc_rg_index is None:
            self._doc_rg_index = self._build_doc_rg_index()
        parts = []
        for path, rg, lo, hi in self._doc_rg_index:
            if any(lo <= d <= hi for d in want):
                t = self._read_row_group(path, "docs", rg, cols)
                self.io_stats["docs_row_groups_read"] += 1
                parts.append(_take_table(t, wanted(_np(t["doc_id"]))))
        dtbl = pa.concat_tables(parts) if parts else pa.Table.from_batches(
            [], schema=pa.schema([docs_schema.field(c) for c in cols]))
        return dtbl, has_text

    def _hydrate_from_table(
        self,
        q_terms: list[str],
        id_list: list[int],
        top_sc: np.ndarray,
        with_spans: bool,
        dtbl: pa.Table,
        has_text: bool,
    ) -> list[Match]:
        meta: dict[int, tuple[str, str]] = {}
        texts = dtbl["text"].to_pylist() if (has_text and with_spans) else [""] * dtbl.num_rows
        for did, url, text in zip(dtbl["doc_id"].to_pylist(), dtbl["url"].to_pylist(), texts):
            meta[did] = (url, text)

        matches: list[Match] = []
        uniq_q = set(q_terms)
        for did, sc in zip(id_list, [float(s) for s in top_sc]):
            url, text = meta.get(did, ("", ""))
            m = Match(doc_id=did, url=url, score=sc)
            if with_spans and text:
                term_locs: dict[str, list[tuple[int, int, int]]] = {}
                for pos, term, start, end in self._doc_tokens(did, text):
                    if term in uniq_q:
                        term_locs.setdefault(term, []).append((pos, start, end))
                phrases = best_phrases(q_terms, term_locs)
                starts = line_starts(text) if phrases else None
                if phrases:
                    from ..functions.collections import truncate

                    first = phrases[0]
                    m.fragment = truncate(
                        text[first["start"] : first["end"] + 160], 200
                    )
                for p in phrases:
                    m.spans.append(
                        {"start": p["start"], "end": p["end"], "score": float(p["score"])}
                    )
                    ln = line_number(text, p["start"], starts)
                    if ln:
                        m.line_nums.append(ln[0])
                        m.lines.append(ln[1])
            matches.append(m)
        return matches

    def doc_count(self) -> int:
        """Global index cardinality (DocCount analog, index_pdfs.go:99)."""
        return self.manifest.n_docs

    def _doc_tokens(self, doc_id: int, text: str) -> list[tuple[int, str, int, int]]:
        """Analyzed (position, term, start, end) per doc, LRU-cached — the
        hydration-side token stream used for span assembly."""
        toks = self._analysis_cache.get(doc_id)
        if toks is None:
            if self.manifest.analyzer == "en":
                toks = [(t.position, t.term, t.start, t.end) for t in analyze_en(text)]
            else:
                # simple chain: offsets from finditer over the lowered text
                # (str.lower is length-preserving for this corpus domain)
                import re as _re

                toks = [
                    (i + 1, m.group(), m.start(), m.end())
                    for i, m in enumerate(
                        _re.finditer(r"[a-z0-9]+", text.lower())
                    )
                ]
            self._analysis_cache[doc_id] = toks
            if len(self._analysis_cache) > self._analysis_cache_max:
                self._analysis_cache.popitem(last=False)
        else:
            self._analysis_cache.move_to_end(doc_id)
        return toks

    def search_to_table(self, query: str, max_results: int = DEFAULT_MAX_RESULTS,
                        with_spans: bool = True) -> pa.Table:
        """Results as an Arrow table in schemas.QUERY_RESULTS shape."""
        ms = self.search(query, max_results, with_spans=with_spans)
        rows = {
            "query": [], "rank": [], "doc_id": [], "url": [], "score": [], "spans": [],
        }
        for rank, m in enumerate(ms.matches):
            rows["query"].append(query)
            rows["rank"].append(rank)
            rows["doc_id"].append(m.doc_id)
            rows["url"].append(m.url)
            rows["score"].append(m.score)
            rows["spans"].append(
                [
                    {"start": s["start"], "end": s["end"], "score": s["score"]}
                    for s in m.spans
                ]
            )
        from ..schemas import QUERY_RESULTS

        return pa.table(
            {
                "query": pa.array(rows["query"], type=pa.string()),
                "rank": pa.array(rows["rank"], type=pa.int32()),
                "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
                "url": pa.array(rows["url"], type=pa.string()),
                "score": pa.array(rows["score"], type=pa.float64()),
                "spans": pa.array(rows["spans"], type=QUERY_RESULTS.field("spans").type),
            }
        )
