"""Round-trip property tests for the posting codec (SURVEY §5 pattern 2:
compress→decompress == identity, mirroring internal/utils/data_test.go)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfsearch_ray.index.codec import (
    bm25_wdl,
    decode_positions,
    delta_decode,
    delta_encode,
    encode_positions,
    varint_decode,
    varint_encode,
)


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    out = varint_decode(varint_encode(arr), count=len(vals))
    assert np.array_equal(out, arr)


def test_varint_boundaries():
    vals = []
    for k in range(10):
        b = 1 << (7 * k)
        vals += [b - 1, b, b + 1]
    vals.append(2**64 - 1)
    arr = np.array([v for v in vals if v < 2**64], dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(arr)), arr)


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300, unique=True))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip(ids):
    arr = np.sort(np.array(ids, dtype=np.uint64))
    assert np.array_equal(delta_decode(delta_encode(arr), count=len(ids)), arr)


def test_delta_empty():
    assert delta_encode(np.empty(0, dtype=np.uint64)) == b""
    assert delta_decode(b"").size == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=100000), min_size=0, max_size=30, unique=True),
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_positions_roundtrip(lists):
    arrs = [np.sort(np.array(p, dtype=np.uint64)) for p in lists]
    blob = encode_positions(arrs)
    out = decode_positions(blob, len(arrs))
    assert len(out) == len(arrs)
    for a, b in zip(arrs, out):
        assert np.array_equal(a, b)


def test_bm25_wdl_monotone():
    tf = np.array([1, 2, 4, 8], dtype=np.uint64)
    dl = np.full(4, 100, dtype=np.uint64)
    w = bm25_wdl(tf, dl, k1=1.2, b=0.75, avgdl=100.0)
    assert np.all(np.diff(w) > 0)  # increasing in tf
    assert np.all(w < 1.0)
    # longer docs score lower at same tf
    w2 = bm25_wdl(tf, dl * 4, k1=1.2, b=0.75, avgdl=100.0)
    assert np.all(w2 < w)


# ---------------------------------------------------------------- property


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varint_roundtrip_property(vals):
    from pdfsearch_ray.index.codec import varint_decode, varint_encode

    arr = np.array(vals, dtype=np.uint64)
    blob = varint_encode(arr)
    out = varint_decode(blob, count=len(vals) if vals else None)
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                min_size=1, max_size=200, unique=True))
def test_delta_roundtrip_property(vals):
    from pdfsearch_ray.index.codec import delta_decode, delta_encode

    arr = np.sort(np.array(vals, dtype=np.uint64))
    blob = delta_encode(arr)
    np.testing.assert_array_equal(delta_decode(blob, count=len(arr)), arr)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=1, max_value=2**31 - 1),
             min_size=0, max_size=20, unique=True),
    max_size=30,
))
def test_positions_roundtrip_property(lists):
    from pdfsearch_ray.index.codec import (
        decode_positions,
        encode_positions,
        encode_positions_run,
    )

    pos_lists = [np.sort(np.array(x, dtype=np.uint64)) for x in lists]
    blob = encode_positions(pos_lists)
    out = decode_positions(blob, len(pos_lists))
    for a, b in zip(pos_lists, out):
        np.testing.assert_array_equal(a, b)
    # the vectorized whole-run encoder must be wire-compatible
    flat = (np.concatenate(pos_lists) if pos_lists else
            np.empty(0, dtype=np.uint64))
    lens = np.array([len(x) for x in pos_lists], dtype=np.int64)
    blob2, offsets = encode_positions_run(flat, lens)
    assert blob2 == blob
    assert offsets[-1] == len(blob)


def _positions_per_posting(blob: bytes, n_postings: int) -> list[np.ndarray]:
    """The per-posting reference decode: one Python step per posting."""
    flat = varint_decode(blob)
    out, i = [], 0
    for _ in range(n_postings):
        cnt = int(flat[i])
        out.append(np.cumsum(flat[i + 1:i + 1 + cnt], dtype=np.uint64))
        i += 1 + cnt
    assert i == flat.size
    return out


def test_decode_positions_flat_equals_per_posting_decode():
    """The one-pass decode over many blocks' joined position blobs is
    bitwise equal to the per-posting decode of each block, on random
    lists with zero-length lists, single-posting blocks, empty blocks
    and multi-byte values."""
    from pdfsearch_ray.index.codec import decode_positions_flat

    rng = np.random.default_rng(5)
    for trial in range(200):
        blocks = []
        for _ in range(int(rng.integers(0, 8))):
            n = int(rng.choice([0, 1, 1, 2, 7, 128]))
            blocks.append([
                np.unique(rng.integers(
                    1, 1 << int(rng.integers(1, 31)),
                    int(rng.choice([0, 0, 1, 2, 5, 40])))).astype(np.uint64)
                for _ in range(n)])
        blobs = [encode_positions(b) for b in blocks]
        want = [p for blob, blk in zip(blobs, blocks)
                for p in _positions_per_posting(blob, len(blk))]
        for blk, blob in zip(blocks, blobs):
            got = decode_positions(blob, len(blk))
            assert len(got) == len(blk)
            for g, e in zip(got, blk):
                assert g.dtype == np.uint64
                np.testing.assert_array_equal(g, e)
        n_total = sum(len(b) for b in blocks)
        flat, counts = decode_positions_flat(b"".join(blobs), n_total)
        assert flat.dtype == np.uint64 and counts.dtype == np.int64
        assert counts.tolist() == [p.size for p in want], trial
        ref = (np.concatenate(want) if want
               else np.empty(0, dtype=np.uint64))
        assert flat.tobytes() == ref.tobytes(), trial


def test_decode_positions_flat_rejects_a_short_stream():
    import pytest

    from pdfsearch_ray.index.codec import decode_positions_flat

    blob = encode_positions([np.array([3, 9], np.uint64),
                             np.array([4], np.uint64)])
    with pytest.raises(ValueError):
        decode_positions_flat(blob, 3)
    with pytest.raises(ValueError):
        decode_positions_flat(blob, 1)
    with pytest.raises(ValueError):
        decode_positions_flat(blob[:-1], 2)
