"""Empty-corpus robustness net for the session-13 gates: an empty
Ray Dataset drops its schema through map_batches→to_pandas, which
turned several driver-side merges into KeyErrors (found by the
session-13 sweep).  Every gate must return its typed empty table."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("empty_sf"))
    pq.write_table(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string()),
        "lang": pa.array([], type=pa.string()),
        "n_chars": pa.array([], type=pa.int64()),
    }), f"{d}/documents.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.array([], type=pa.list_(pa.float32())),
        "label": pa.array([], type=pa.int32()),
    }), f"{d}/embeddings.parquet")
    return d


def test_session13_gates_survive_empty_corpus(ray_session, empty_sf):
    from pdfsearch_ray.pipelines import blockjoin as B
    from pdfsearch_ray.pipelines import dfr as D
    from pdfsearch_ray.pipelines import queries as Q

    gates = [
        Q.weighted_sample, Q.pmi_collocations,
        D.dfr_pl2_topk, B.blockjoin_topk,
    ]
    for fn in gates:
        r = fn(empty_sf)
        n = len(r) if hasattr(r, "__len__") else r.num_rows
        assert n == 0, fn


def test_flagship_build_query_on_empty_corpus(ray_session, empty_sf):
    """The PRODUCT path: build_index on an empty corpus must emit a
    valid empty index (manifest, no postings) that BM25Index opens and
    searches (0 matches), not a KeyError/FileNotFoundError — a filter
    stage that drops every row is a legitimate upstream."""
    import tempfile

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    idx_dir = tempfile.mkdtemp(prefix="empty_idx_")
    m = build_index(f"{empty_sf}/documents.parquet", idx_dir,
                    analyzer="simple", lang_col="lang")
    assert m.n_docs == 0
    idx = BM25Index(idx_dir)
    r = idx.search("data pipeline", max_results=5)
    assert r.total_matches == 0 and len(r.matches) == 0
    assert idx.search_to_table("data", max_results=5).num_rows == 0


def test_more_session13_gates_empty(ray_session, empty_sf):
    from pdfsearch_ray.pipelines.boolquery import phrase_prefix_topk
    from pdfsearch_ray.pipelines.queries import ann_filtered

    assert ann_filtered(empty_sf).num_rows == 0
    assert phrase_prefix_topk(empty_sf).num_rows == 0


@pytest.fixture(scope="module")
def empty_sf_full(tmp_path_factory):
    """Zero-row copies of the two tables the gates read (documents and
    embeddings), exact schemas included — the input shape a filter
    stage that drops every row hands to any downstream gate.  A gate
    that reads any other table fails here."""
    import os

    import pyarrow.parquet as pq

    src = "/root/testdata/sf0.001"
    if not os.path.isdir(src):
        pytest.skip("testdata not available")
    d = str(tmp_path_factory.mktemp("empty_sf_full"))
    for f in ("documents.parquet", "embeddings.parquet"):
        schema = pq.read_schema(os.path.join(src, f))
        pq.write_table(schema.empty_table(), os.path.join(d, f))
    return d


def _result_rows(r):
    for attempt in (lambda: r.num_rows, lambda: len(r),
                    lambda: r.count()):
        try:
            return attempt()
        except Exception:
            continue
    raise AssertionError(f"cannot count rows of {type(r)}")


def test_every_gate_survives_empty_corpus(ray_session, empty_sf_full):
    """The session-14 completion of the session-13 hardening: EVERY
    driver gate — not a hand-picked subset — must return its typed
    empty result on a zero-row corpus.  Ray drops the schema of an
    empty pipeline (map fns never run), so each driver-side merge
    needs the typed_pandas/typed_table reindex or an explicit
    empty-input guard; this net pins every gate."""
    import __ray_entry__ as RE

    # summary-shaped gates report one row per query/metric (value 0)
    # or one global stats row even over zero documents — that IS their
    # typed empty answer
    fixed_rows = {
        "champion_safety": 5, "index_stats": 1, "ir_eval": 5,
        "ndcg_eval": 5, "near_match_counts": 5,
        "phrase_match_counts": 6,
    }
    failures = []
    for name, fn in sorted(RE.queries().items()):
        try:
            n = _result_rows(fn(empty_sf_full))
        except Exception as e:  # noqa: BLE001 — collecting a report
            failures.append(f"{name}: {type(e).__name__}: {e}")
            continue
        want = fixed_rows.get(name, 0)
        if n != want:
            failures.append(f"{name}: expected {want} rows, got {n}")
    assert not failures, "\n".join(failures)
