"""Fixed, code-declared Arrow schemas (SURVEY §1.2: the reference declares
its one index mapping in code at internal/doclib/bleve_glue.go:42-61; no
schema inference anywhere).  Everything the engine reads or writes is one
of these."""

from __future__ import annotations

import pyarrow as pa

# Corpus input (BASELINE.json input_hint): one row per web page.
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# Extract-stage checkpoint: deterministic doc_id + extracted text.
# doc_id = (partition_id << 32) | row_in_partition — the generalization of
# the reference's "%04X.%d" composite docID (internal/doclib/bleve_pdf.go:57).
EXTRACTED = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("hash", pa.string()),  # sha256(html)[:10] (utils/file_utils.go:40-57)
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# Token tuples: the tokenizer's per-(doc, term) partial aggregate.
TOKENS = pa.schema(
    [
        ("term", pa.string()),
        ("salt", pa.int32()),
        ("bucket", pa.int32()),
        ("doc_id", pa.int64()),
        ("tf", pa.uint32()),
        ("dl", pa.uint32()),
        ("positions", pa.list_(pa.uint32())),
    ]
)

# Posting-block rows (index/codec.py): one row per ≤BLOCK_SIZE postings.
# The blobs are ``large_binary`` in memory (one encode task's blob array
# can pass 2 GiB); the index files carry no Arrow schema
# (``codec.INDEX_WRITE_OPTIONS``), so they read back as ``binary``.
POSTINGS = pa.schema(
    [
        ("bucket", pa.int32()),
        ("term", pa.string()),
        ("salt", pa.int32()),
        ("block_id", pa.int32()),
        ("first_doc", pa.int64()),
        # last docID in the block, null when the block holds one
        # posting (it would repeat first_doc): parquet row-group stats
        # over (first_doc.min, max(first_doc.max, last_doc.max)) give
        # each row group's exact docID span, so doc-range-sharded
        # serving prunes its READS to its own slice (round 4;
        # engine.ShardEngine).  No reader reads it as a column.
        ("last_doc", pa.int64()),
        ("n", pa.int32()),
        ("doc_blob", pa.large_binary()),
        ("tf_blob", pa.large_binary()),
        # each posting's positions, first absolute then gaps, with no
        # count: a posting holds tf positions (index format 3)
        ("pos_blob", pa.large_binary()),
        ("max_wdl", pa.float32()),
        # crc32 over doc|tf|pos blobs — explicit per-block integrity
        # framing (F2 parity: the reference CRC-frames its page blobs,
        # doc_positions.go:140-153); verified on read when the query
        # handle is opened with verify_checksums=True
        ("crc", pa.int64()),
    ]
)

# Docs dimension table (the BlevePdf catalog analog, bleve_pdf.go:136-146).
# ``dl`` is the doc's analyzed token count — its BM25 length norm, stored
# once per doc (0 for a doc with no tokens); the catalog also carries
# ``text`` when the build stores it.
DOCS = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("hash", pa.string()),
        ("lang", pa.string()),
        ("dl", pa.uint32()),
    ]
)

# Query results (PdfMatchSet analog, search_pdfs.go:28-60).
QUERY_RESULTS = pa.schema(
    [
        ("query", pa.string()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("score", pa.float64()),
        (
            "spans",
            pa.list_(
                pa.struct(
                    [
                        ("start", pa.uint32()),
                        ("end", pa.uint32()),
                        ("score", pa.float64()),
                    ]
                )
            ),
        ),
    ]
)
