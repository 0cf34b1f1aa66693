"""CLI entry points — the ``ray job submit`` surface.

On a real cluster (north_rule: fixed-size multi-node, N and 4N nodes):

    ray job submit --working-dir . -- python -m teleharvest_ray validate \
        --data /data/transcripts --out /data/validated

Locally the commands own their Ray session (guarded init; the library itself
never calls ray.init — driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    return ray


def main(argv=None):
    p = argparse.ArgumentParser(prog="teleharvest_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="run the full validation pipeline")
    v.add_argument("--data", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--no-resume", action="store_true")
    v.add_argument(
        "--skip-errors",
        action="store_true",
        help="isolate corrupt partitions (recorded + retried next run) instead of failing the run",
    )

    sc = sub.add_parser(
        "schema-check", help="footer-only schema drift report (contract or majority-consistency)"
    )
    sc.add_argument("--data", required=True)
    sc.add_argument(
        "--contract",
        action="store_true",
        help="diff every file against the transcript contract schema instead of the majority schema",
    )

    g = sub.add_parser("gen", help="generate synthetic transcript data")
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=100_000)
    g.add_argument("--files", type=int, default=16)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--clean", action="store_true", help="no planted violations")

    rs = sub.add_parser("refresh-similarity", help="EP2: recompute similarity vs a new profile")
    rs.add_argument("--out", required=True)
    rs.add_argument("--profile-from", required=True, help="parquet file to build the profile from")

    rm = sub.add_parser("refresh-metrics", help="EP3: bounded-window metrics re-scan")
    rm.add_argument("--data", required=True)
    rm.add_argument("--out", required=True)
    rm.add_argument("--window", type=int, default=1000)

    cp = sub.add_parser("compact", help="merge small parquet files into ~target-size outputs")
    cp.add_argument("--data", required=True, help="directory of *.parquet to compact")
    cp.add_argument("--out", required=True)
    cp.add_argument("--target-mb", type=int, default=256)
    cp.add_argument("--no-resume", action="store_true")
    cp.add_argument("--prefix", default="", help="only compact files starting with this prefix")

    pr = sub.add_parser(
        "prepare", help="training-data prep: quality -> decontam -> dedup -> pack -> split export"
    )
    pr.add_argument("--data", required=True, help="parquet of (doc_id, text) documents")
    pr.add_argument("--out", required=True)
    pr.add_argument("--token-budget", type=int, default=2048)
    pr.add_argument("--bench-mod", type=int, default=13, help="doc_id %% MOD == 0 is the held-out eval set")

    qr = sub.add_parser(
        "query", help="run a named analytics query from the queries() surface"
    )
    qr.add_argument("name", help="query name (e.g. q_pricing_summary); 'list' prints all")
    qr.add_argument("--sf", default="/root/testdata/sf0.01", help="sf table directory")
    qr.add_argument("--limit", type=int, default=20, help="rows to print (0 = all)")

    args = p.parse_args(argv)

    if args.cmd == "gen":
        from teleharvest_ray.sources.datagen import GenSpec, generate

        m = generate(args.out, GenSpec(rows_hint=args.rows, n_files=args.files, seed=args.seed, plant=not args.clean))
        print(json.dumps(m))
        return 0

    if args.cmd == "query" and args.name == "list":
        from teleharvest_ray.pipelines.queries import ORACLE_SQL, QUERIES

        for n in sorted(QUERIES):
            print(f"{n}\t{'oracle' if n in ORACLE_SQL else 'rows-only'}")
        return 0

    ray = _ensure_ray()
    try:
        from teleharvest_ray.config import ValidationConfig

        cfg = ValidationConfig.from_env()
        if args.cmd == "query":
            import pandas as _pd

            from teleharvest_ray.pipelines.queries import QUERIES

            if args.name not in QUERIES:
                print(f"unknown query {args.name!r}; try 'query list'", file=sys.stderr)
                return 2
            res = QUERIES[args.name](args.sf)
            if not isinstance(res, _pd.DataFrame):
                res = res.to_pandas()
            with _pd.option_context("display.max_rows", None, "display.width", 200):
                print(res if not args.limit else res.head(args.limit))
            print(f"[{len(res)} rows]", file=sys.stderr)
        elif args.cmd == "validate":
            from teleharvest_ray.pipelines.validate import run_validation

            s = run_validation(
                args.data,
                args.out,
                cfg,
                resume=not args.no_resume,
                on_error="skip" if args.skip_errors else "raise",
            )
            print(json.dumps(s, default=str))
        elif args.cmd == "schema-check":
            from teleharvest_ray.schema import TRANSCRIPT_FULL_SCHEMA
            from teleharvest_ray.stages.schema_check import schema_report

            rep = schema_report(
                args.data, TRANSCRIPT_FULL_SCHEMA if args.contract else None
            )
            print(rep.to_json(orient="records"))
        elif args.cmd == "refresh-similarity":
            import pyarrow.parquet as pq

            from teleharvest_ray.pipelines.refresh import refresh_similarity
            from teleharvest_ray.state.profile import build_profile

            prof = build_profile(pq.read_table(args.profile_from, columns=["text", "role", "tool"]), cfg)
            print(json.dumps(refresh_similarity(args.out, prof)))
        elif args.cmd == "refresh-metrics":
            from teleharvest_ray.pipelines.refresh import refresh_metrics

            print(json.dumps(refresh_metrics(args.data, args.out, cfg, window=args.window)))
        elif args.cmd == "prepare":
            import ray.data as rd

            from teleharvest_ray.pipelines.prepare import prepare_training_shards

            docs = rd.read_parquet(args.data, columns=["doc_id", "text"])
            print(
                json.dumps(
                    prepare_training_shards(
                        docs, args.out, token_budget=args.token_budget, bench_mod=args.bench_mod
                    )
                )
            )
        elif args.cmd == "compact":
            from teleharvest_ray.pipelines.compact import compact_parquet

            print(
                json.dumps(
                    compact_parquet(
                        args.data,
                        args.out,
                        target_mb=args.target_mb,
                        resume=not args.no_resume,
                        prefix=args.prefix,
                    )
                )
            )
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
