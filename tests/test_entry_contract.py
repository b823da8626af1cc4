"""Driver-contract hygiene: the queries()/oracle_sql() dict literals
must not carry duplicate keys (a duplicate silently shadows the earlier
gate — the round-5 session-4 `decontaminate` regression), and the two
must name the same gates."""

import ast
from pathlib import Path

ENTRY = Path(__file__).resolve().parents[1] / "__ray_entry__.py"


def test_no_duplicate_dict_keys_in_entry():
    tree = ast.parse(ENTRY.read_text())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)]
            dupes = {k for k in keys if keys.count(k) > 1}
            if dupes:
                offenders.append((node.lineno, sorted(dupes)))
    assert not offenders, f"duplicate dict keys: {offenders}"


def test_every_oracle_has_query(ray_session):
    import sys

    sys.path.insert(0, str(ENTRY.parent))
    import __ray_entry__ as e

    qs, sqls = e.queries(), e.oracle_sql()
    # every gate is value-checked: no rows-only gate, no orphan oracle
    assert set(sqls) == set(qs)


# index-lifecycle and serving gates a consumer that checks only the first
# 50 keys of queries() must still see
WINDOW_GATES = ["merged_index_topk", "compacted_index_topk", "federated_topk",
                "shard_selected_topk", "search_after", "snapshot_diff"]


def test_lifecycle_and_serving_gates_in_first_50_keys(ray_session):
    import sys

    sys.path.insert(0, str(ENTRY.parent))
    import __ray_entry__ as e

    first = list(e.queries())[:50]
    assert "bm25_topk" in first and "fulltext_topk" in first
    assert [g for g in WINDOW_GATES if g not in first] == []
