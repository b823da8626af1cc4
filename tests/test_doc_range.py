"""A doc-range handle (``BM25Index(d, doc_range=(lo, hi))``) owns its
range: every answer it gives — ``search`` under each method,
``score_terms`` and ``topk`` — covers only doc_id ∈ [lo, hi), with the
full handle's (global-idf) scores, and the top-k of a tiling of range
handles merges to the full handle's top-k bit for bit."""

import random

import numpy as np
import pytest

VOCAB = [f"w{i}" for i in range(40)]


def _texts(rng: random.Random, n: int) -> list[str]:
    # Zipf-ish term draws: the head terms get long posting runs that
    # span many blocks and row groups, the tail terms a few postings
    weights = [1.0 / (r + 1) for r in range(len(VOCAB))]
    return [" ".join(rng.choices(VOCAB, weights, k=rng.randint(3, 14)))
            for _ in range(n)]


def _corpus_index(seed: int, path: str) -> tuple[str, list[int]]:
    """A base and an appended segment whose doc ids interleave, with
    tombstones, built with small blocks and row groups.  Returns the
    index dir and every doc id in it."""
    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               delete_docs)

    rng = random.Random(seed)
    n = rng.randint(500, 700)
    ids = sorted(rng.sample(range(1_000_000), n))
    delta = set(rng.sample(ids, n // 3))
    texts = _texts(rng, n)

    def table(rows):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([ids[i] for i in rows], pa.int64()),
            "text": pa.array([texts[i] for i in rows])}))

    build_index(table([i for i in range(n) if ids[i] not in delta]), path,
                analyzer="simple", num_buckets=4, block_size=8,
                row_group_size=8)
    append_index(table([i for i in range(n) if ids[i] in delta]), path)
    victims = rng.sample(ids, n // 30)
    assert delete_docs(path, doc_ids=victims)["n_new"] == len(victims)
    return path, ids


def _tilings(rng: random.Random, ids: list[int]) -> list[list[tuple]]:
    """Random tilings of the whole id space into contiguous ranges."""
    out = []
    for n_cuts in (1, rng.randint(2, 4), rng.randint(5, 8)):
        cuts = sorted(rng.sample(range(ids[0], ids[-1] + 1), n_cuts))
        edges = [-(1 << 62)] + cuts + [1 << 62]
        out.append(list(zip(edges, edges[1:])))
    return out


def _ranked(ids: np.ndarray, sc: np.ndarray, k: int) -> list[tuple]:
    order = np.lexsort((ids, -sc))[:k]
    return list(zip(ids[order].tolist(), sc[order].tolist()))


@pytest.mark.parametrize("seed", [3, 17, 101])
def test_doc_range_handles_answer_inside_their_range(ray_session, tmp_path,
                                                     seed):
    from pdfsearch_ray.pipelines.query import BM25Index

    d, ids = _corpus_index(seed, str(tmp_path / "idx"))
    rng = random.Random(seed + 1)
    queries = [" ".join(rng.sample(VOCAB, rng.randint(1, 4)))
               for _ in range(6)] + ["w0 w1", "zzz_absent"]
    full = BM25Index(d)
    truth = {q: full.score_terms(full.query_terms(q)) for q in queries}
    assert sum(t[0].size for t in truth.values()) > 0
    k = 10

    for tiling in _tilings(rng, ids):
        merged = {q: ([], []) for q in queries}
        for lo, hi in tiling:
            h = BM25Index(d, doc_range=(lo, hi))
            for q in queries:
                all_ids, all_sc = truth[q]
                inside = (all_ids >= max(lo, 0)) & (all_ids < max(hi, 0))
                want_ids, want_sc = all_ids[inside], all_sc[inside]
                want = _ranked(want_ids, want_sc, k)

                got_ids, got_sc = h.score_terms(h.query_terms(q))
                order = np.argsort(got_ids)
                assert got_ids[order].tolist() == want_ids.tolist(), (q, lo)
                assert got_sc[order].tobytes() == want_sc.tobytes(), (q, lo)

                t_ids, t_sc, total = h.topk(q, k)
                assert list(zip(t_ids.tolist(), t_sc.tolist())) == want
                assert total == want_ids.size, (q, lo, hi)
                merged[q][0].append(t_ids)
                merged[q][1].append(t_sc)

                for method in ("taat", "maxscore", "auto"):
                    ms = h.search(q, max_results=k, with_spans=False,
                                  method=method)
                    assert [(m.doc_id, m.score) for m in ms.matches] == \
                        want, (q, lo, hi, method)
                    if method == "taat":
                        assert ms.total_matches == want_ids.size
                    elif method == "maxscore":
                        assert ms.total_matches == (-1 if want else 0)
                    else:
                        assert ms.total_matches in (want_ids.size, -1)

        for q in queries:
            m_ids = np.concatenate(merged[q][0])
            m_sc = np.concatenate(merged[q][1])
            got = _ranked(m_ids, m_sc, k)
            for method in ("taat", "maxscore"):
                ms = full.search(q, max_results=k, with_spans=False,
                                 method=method)
                assert got == [(m.doc_id, m.score) for m in ms.matches], \
                    (q, method, tiling)
