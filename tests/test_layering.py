"""Layering guards: ``pipelines/query.py`` is the only module that knows
the posting-block layout, the decode memo and the tombstone array, and
no code imports its underscore names; ``index/codec.py`` is the only
place that writes the BM25 formula; and the serving modules call none
of pyarrow's pandas-backed converters or ``pyarrow.compute``."""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "pdfsearch_ray"
QUERY = PKG / "pipelines" / "query.py"
QUERY_MODULE = "pdfsearch_ray.pipelines.query"
CODEC = PKG / "index" / "codec.py"


def _bm25index_private_names() -> set[str]:
    """Underscore methods of BM25Index plus the underscore attributes it
    sets on ``self``."""
    tree = ast.parse(QUERY.read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "BM25Index")
    names = {n.name for n in cls.body
             if isinstance(n, ast.FunctionDef) and n.name.startswith("_")}
    for n in ast.walk(cls):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "self" and n.attr.startswith("_")):
            names.add(n.attr)
    return {n for n in names if not n.startswith("__")}


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def test_no_module_outside_query_touches_bm25index_privates():
    private = _bm25index_private_names()
    assert {"_term_cache", "_decode_blocks_bulk", "_deleted",
            "_load_terms", "_idf"} <= private
    hits = []
    for path, tree in _modules():
        if path == QUERY:
            continue
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr in private
                    and not (isinstance(n.value, ast.Name)
                             and n.value.id == "self")):
                hits.append(f"{path.relative_to(PKG)}:{n.lineno} "
                            f"{ast.unparse(n)}")
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in ("getattr", "setattr", "hasattr")
                  and len(n.args) > 1
                  and isinstance(n.args[1], ast.Constant)
                  and n.args[1].value in private):
                hits.append(f"{path.relative_to(PKG)}:{n.lineno} "
                            f"{ast.unparse(n)}")
    assert not hits, "BM25Index internals used outside query.py:\n" + \
        "\n".join(hits)


def _imported_module(path: Path, node: ast.ImportFrom) -> str:
    """The dotted module an ``ImportFrom`` in ``path`` reads from."""
    if not node.level:
        return node.module or ""
    parts = list(path.relative_to(REPO).with_suffix("").parts)
    base = parts[:len(parts) - node.level]
    return ".".join(base + ([node.module] if node.module else []))


def test_no_code_imports_query_underscore_names():
    """Every import of ``pipelines/query.py`` names public things only —
    in the package, the tests and the tools alike — and so does every
    attribute read through a ``query`` module alias."""
    hits = []
    for path in sorted(REPO.rglob("*.py")):
        if path == QUERY or any(p.startswith(".") for p in
                                path.relative_to(REPO).parts):
            continue
        aliases = set()
        tree = ast.parse(path.read_text())
        for n in ast.walk(tree):
            if not isinstance(n, ast.ImportFrom):
                continue
            mod = _imported_module(path, n)
            for a in n.names:
                if mod == QUERY_MODULE and a.name.startswith("_"):
                    hits.append(f"{path.relative_to(REPO)}:{n.lineno} "
                                f"{a.name}")
                elif f"{mod}.{a.name}" == QUERY_MODULE:
                    aliases.add(a.asname or a.name)
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr.startswith("_")
                    and not n.attr.startswith("__")
                    and isinstance(n.value, ast.Name)
                    and n.value.id in aliases):
                hits.append(f"{path.relative_to(REPO)}:{n.lineno} "
                            f"{ast.unparse(n)}")
    assert not hits, "query.py underscore names used outside it:\n" + \
        "\n".join(hits)


_IDF = re.compile(r"^1(\.0)?\+\(.+-.+\+0\.5\)/\(.+\+0\.5\)$")
_IDF_LOG1P = re.compile(r"^\(.+-.+\+0\.5\)/\(.+\+0\.5\)$")
# k1 * (1 - b + b * ...): the length normalization inside the wdl term
_WDL_NORM = re.compile(r"^1(\.0)?-[\w.\[\]]+\+[\w.\[\]]+\*")


def _formula_sites() -> tuple[list[str], list[str]]:
    idf, wdl = [], []
    for path, tree in _modules():
        where = str(path.relative_to(PKG))
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and n.args:
                f = n.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", "")
                arg = re.sub(r"\s+", "", ast.unparse(n.args[0]))
                if ((name == "log" and _IDF.match(arg))
                        or (name == "log1p" and _IDF_LOG1P.match(arg))):
                    idf.append(f"{where}:{n.lineno}")
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult):
                rhs = re.sub(r"\s+", "", ast.unparse(n.right))
                if _WDL_NORM.match(rhs.strip("()")):
                    wdl.append(f"{where}:{n.lineno}")
    return idf, wdl


def test_bm25_formula_written_once_in_codec():
    idf, wdl = _formula_sites()
    assert len(idf) == 1 and idf[0].startswith("index/codec.py"), idf
    assert len(wdl) == 1 and wdl[0].startswith("index/codec.py"), wdl


# The serving path: what a QueryEngine / ShardEngine replica or a local
# BM25Index imports and runs.  pyarrow's converters (``to_numpy``,
# ``pa.array``, ``Schema.empty_table``) import pandas on first use, and
# ``Table.take`` / ``filter`` / ``sort_by`` and ``Array.cast`` import
# ``pyarrow.compute``, so serving converts, matches and gathers through
# buffers with the ``index/arrays.py`` helpers.
SERVING = [PKG / "pipelines" / "query.py", PKG / "pipelines" / "engine.py",
           PKG / "state" / "manifest.py", PKG / "index" / "codec.py",
           PKG / "index" / "arrays.py",
           *sorted((PKG / "analysis").glob("*.py"))]
# where such a call is allowed: the buffer helpers themselves and
# search_to_table, a batch output rather than the serving path
CONVERTER_ALLOWLIST = {"index/arrays.py:_np",
                       "pipelines/query.py:BM25Index.search_to_table"}


def _converter_sites(path: Path) -> list[str]:
    """``where:qualname:line what`` of every pandas or
    ``pyarrow.compute`` import and every ``.to_numpy(`` / ``pa.array(``
    / ``.empty_table(`` call and every ``.take(`` / ``.filter(`` /
    ``.sort_by(`` / ``.cast(`` call (each imports ``pyarrow.compute``)
    in ``path``."""
    where = str(path.relative_to(PKG))
    hits: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for n in ast.iter_child_nodes(node):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                visit(n, f"{scope}.{n.name}" if scope else n.name)
                continue
            what = None
            if isinstance(n, ast.Import) and any(
                    a.name.split(".")[0] == "pandas"
                    or a.name.startswith("pyarrow.compute")
                    for a in n.names):
                what = "import " + ", ".join(a.name for a in n.names)
            elif (isinstance(n, ast.ImportFrom) and n.module
                  and (n.module.split(".")[0] == "pandas"
                       or n.module.startswith("pyarrow.compute")
                       or (n.module == "pyarrow" and any(
                           a.name == "compute" for a in n.names)))):
                what = f"from {n.module} import"
            elif isinstance(n, ast.Call) and isinstance(n.func,
                                                        ast.Attribute):
                f = n.func
                if f.attr in ("to_numpy", "empty_table", "take", "filter",
                              "sort_by", "cast"):
                    what = f".{f.attr}("
                elif (f.attr == "array" and isinstance(f.value, ast.Name)
                      and f.value.id == "pa"):
                    what = "pa.array("
            if what and f"{where}:{scope}" not in CONVERTER_ALLOWLIST:
                hits.append(f"{where}:{scope}:{n.lineno} {what}")
            visit(n, scope)

    visit(ast.parse(path.read_text()), "")
    return hits


def test_serving_modules_use_no_pandas_backed_converter():
    assert all(p.exists() for p in SERVING)
    hits = [h for path in SERVING for h in _converter_sites(path)]
    assert not hits, ("pandas-backed conversion or pyarrow.compute on the "
                      "serving path:\n" + "\n".join(hits))
