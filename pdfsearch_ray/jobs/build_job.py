"""Index-build job entrypoint.

The ``ray job submit`` unit of the north rule — on a real cluster:

    ray job submit --working-dir . -- \
        python -m pdfsearch_ray.jobs.build_job \
        --input s3://corpus/pages/ --index-dir s3://index/v1 --resume

In this sandbox there is no job server (dashboard disabled), so the same
module runs directly (``python -m pdfsearch_ray.jobs.build_job ...``);
either way the script owns the Ray session (guarded init — the library
never calls ray.init, per the driver contract).

The mirror of the reference's `examples/index.go` CLI
(/root/reference/examples/index.go:21-72): glob → filter → build →
summary report, plus resume and the docs/sec report line.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Build the fulltext index")
    p.add_argument("--input", required=True,
                   help="pages parquet file/dir (url,warc_ts,html,text,lang)")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--analyzer", default="en", choices=["en", "simple"])
    p.add_argument("--lang", default="en",
                   help="comma-separated lang allowlist; empty = keep all")
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--resume", action="store_true",
                   help="skip extract partitions with completion markers")
    p.add_argument("--num-buckets", type=int, default=64)
    p.add_argument("--sample-rate", type=float, default=0.1,
                   help="doc sample rate of the hot-term (salting) "
                        "pass; corpus stats are always exact")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="only for standalone runs; ignored under a cluster")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)

    from pdfsearch_ray.pipelines.build import build_from_pages

    manifest = build_from_pages(
        args.input,
        args.index_dir,
        lang_allow=tuple(x for x in args.lang.split(",") if x) or None,
        dedup=not args.no_dedup,
        resume=args.resume,
        analyzer=args.analyzer,
        num_buckets=args.num_buckets,
        sample_rate=args.sample_rate,
        auto_salt=True,
        report=lambda msg: print(f"[build] {msg}", file=sys.stderr),
    )
    print(json.dumps({
        "n_docs": manifest.n_docs,
        "avgdl": manifest.avgdl,
        "analyzer": manifest.analyzer,
        "metrics": manifest.build_metrics,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
