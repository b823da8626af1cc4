"""Property fuzz for the session-13 vectorized kernels — each checked
against a brute-force python reference (no Ray needed; the kernels are
pure functions over Arrow tables)."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4),          # user
                          st.integers(0, 6),          # ts bucket
                          st.sampled_from("abc")),    # type
                min_size=0, max_size=50))
def test_transitions_block_vs_reference(rows):
    from pdfsearch_ray.pipelines.events import transitions_block

    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] * 1000 for r in rows],
                       type=pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], type=pa.string()),
    })
    got = transitions_block(t).to_pandas()
    gmap = {(r.prev_type, r.event_type): r.n for r in got.itertuples()}
    ref: dict = {}
    by_user: dict = {}
    for eid, r in enumerate(rows):
        by_user.setdefault(r[0], []).append((r[1], eid, r[2]))
    for items in by_user.values():
        items.sort()
        for (_, _, a), (_, _, b) in zip(items, items[1:]):
            ref[(a, b)] = ref.get((a, b), 0) + 1
    assert gmap == ref


@settings(max_examples=100, deadline=None)
@given(st.integers(-180_000_000, 179_999_999),
       st.integers(-180_000_000, 179_999_999))
def test_geo_wrap_distance_symmetric_and_bounded(a, b):
    """Wraparound |dlon| is symmetric, <= 180e6, and equals the naive
    circle distance."""
    adl = abs(a - b)
    d = min(adl, 360_000_000 - adl)
    d2 = min(abs(b - a), 360_000_000 - abs(b - a))
    assert d == d2
    assert 0 <= d <= 180_000_000
    # circle reference: walk the shorter way
    assert d == min((a - b) % 360_000_000, (b - a) % 360_000_000)
