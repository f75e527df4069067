"""CLI job runner — the engine's analogue of the reference's scheduled job
entries (databricks/jobs/*.yml → spark_python_task main()s).

    python -m etl_framework_ray replay   --log DIR --table DIR [--partitions N] [--epoch-segments K]
    python -m etl_framework_ray snapshot --table DIR [--version V] [--out DIR]
    python -m etl_framework_ray publish  --table DIR --out DIR
    python -m etl_framework_ray changes  --table DIR --since LSN
    python -m etl_framework_ray metrics  --table DIR
    python -m etl_framework_ray compact  --table DIR
    python -m etl_framework_ray vacuum   --table DIR
    python -m etl_framework_ray lookup   --table DIR --key K1[,K2...]
    python -m etl_framework_ray ivm      --table DIR --view DIR [--rebuild]
    python -m etl_framework_ray assemble --table DIR --out DIR [--format parquet|jsonl]
    python -m etl_framework_ray export-changes --table DIR --out DIR [--seed-snapshot]
    python -m etl_framework_ray view-changes --table DIR --view DIR --since N --out DIR
    python -m etl_framework_ray replica-follow --sink DIR --replica DIR
    python -m etl_framework_ray fsck --table DIR

The CLI owns the Ray session (library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _view_kinds() -> dict:
    """kind name -> incremental view class (single definition for the
    ivm / tail / view-changes subcommands — one place to add a kind)."""
    from .pipelines.incremental import (
        IncrementalCorpus,
        IncrementalCuration,
        IncrementalDedup,
        IncrementalMinHash,
        IncrementalRoleStats,
        IncrementalRollup,
        IncrementalStats,
        IncrementalTextIndex,
        IncrementalTimeRollup,
        IncrementalToolUsage,
        IncrementalVectorIndex,
    )

    return {
        "rollup": IncrementalRollup,
        "corpus": IncrementalCorpus,
        "tool-usage": IncrementalToolUsage,
        "dedup": IncrementalDedup,
        "minhash": IncrementalMinHash,
        "curation": IncrementalCuration,
        "textindex": IncrementalTextIndex,
        "rolestats": IncrementalRoleStats,
        "stats": IncrementalStats,
        "vector": IncrementalVectorIndex,
        "windows": IncrementalTimeRollup,
    }


_VIEW_KIND_CHOICES = (
    "rollup", "corpus", "tool-usage", "dedup", "minhash", "curation",
    "textindex", "rolestats", "stats", "vector", "windows",
)


def _parse_aggs(exprs: list | None):
    """``NAME:FN:COL`` strings -> StatsKernel agg tuples (None = kernel
    defaults)."""
    if not exprs:
        return None
    out = []
    for e in exprs:
        parts = e.split(":")
        if len(parts) != 3:
            raise SystemExit(f"--agg expects NAME:FN:COL, got {e!r}")
        out.append(tuple(parts))
    return tuple(out)


def _parse_where(exprs: list | None) -> list | None:
    """``COL:OP:VALUE`` strings -> zone-map predicate conjuncts. VALUE is
    parsed as JSON when possible (numbers, quoted strings, lists for
    ``in``), else taken verbatim as a string; null-test ops take no
    value."""
    if not exprs:
        return None
    out = []
    for e in exprs:
        parts = e.split(":", 2)
        if len(parts) >= 2 and parts[1] in ("is_null", "not_null"):
            out.append((parts[0], parts[1]))
            continue
        if len(parts) != 3:
            raise SystemExit(f"--where expects COL:OP:VALUE, got {e!r}")
        col, op, raw = parts
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        out.append((col, op, val))
    return out


def _payload_schema_from_args(columns: list | None):
    """``NAME:TYPE`` strings -> payload schema for the binlog converter."""
    import pyarrow as pa

    types = {
        "string": pa.string(),
        "large_string": pa.large_string(),
        "int32": pa.int32(),
        "int64": pa.int64(),
        "float64": pa.float64(),
        "bool": pa.bool_(),
        "timestamp": pa.timestamp("us"),
        "date": pa.date32(),
    }
    fields = []
    for c in columns or []:
        name, _, ty = c.partition(":")
        if ty not in types:
            raise SystemExit(f"--column type {ty!r} not in {sorted(types)}")
        fields.append(pa.field(name, types[ty]))
    if not fields:
        raise SystemExit("at least one --column NAME:TYPE is required")
    return pa.schema(fields)


def _init_ray(num_cpus: int | None) -> bool:
    """Returns True if THIS call started Ray (the caller then owns the
    shutdown; an embedding process's session is left untouched)."""
    import ray

    started = False
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
        started = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="etl_framework_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("replay", help="apply a changelog into a lake table (exactly-once)")
    pr.add_argument("--log", required=True)
    pr.add_argument("--table", required=True)
    pr.add_argument("--partitions", type=int, default=32)
    pr.add_argument("--epoch-segments", type=int, default=4)
    pr.add_argument(
        "--dq-mode",
        choices=("quarantine", "error"),
        default=None,
        help="gate change rows on the spec's declared quality rules inside "
        "the map round: quarantine drops ERROR-failing rows pre-apply, "
        "error aborts the epoch pre-commit",
    )
    pr.add_argument(
        "--changefeed-retention-lsn", type=int, default=None,
        help="set + persist the changefeed retention horizon (omit to inherit "
        "the table's persisted setting)",
    )
    pr.add_argument(
        "--no-changefeed-retention", action="store_true",
        help="EXPLICITLY disable retention (drops the retained-deltas registry "
        "at the next fold; lagging consumers get the loud coverage error)",
    )

    pt = sub.add_parser(
        "tail", help="follow a changelog: poll + apply new segments (exactly-once)"
    )
    pt.add_argument("--log", required=True)
    pt.add_argument("--table", required=True)
    pt.add_argument("--partitions", type=int, default=32)
    pt.add_argument("--epoch-segments", type=int, default=4)
    pt.add_argument("--poll-s", type=float, default=2.0)
    pt.add_argument(
        "--dq-mode", choices=("quarantine", "error"), default=None,
        help="gate change rows on the spec's declared quality rules (see replay --dq-mode)",
    )
    pt.add_argument(
        "--binlog-src",
        default=None,
        help="follow a directory of Debezium-style JSONL envelopes: each poll "
        "converts newly arrived feed files into --log segments (marker-"
        "tracked, crash-idempotent) before applying; requires --column",
    )
    pt.add_argument(
        "--column",
        action="append",
        default=None,
        metavar="NAME:TYPE",
        help="payload column for --binlog-src (same syntax as ingest-binlog)",
    )
    pt.add_argument(
        "--merge-src",
        action="append",
        default=[],
        metavar="DIR",
        help="follow N source changelog shards (repeatable): each poll merges "
        "newly arrived source segments into --log under a dense global LSN "
        "(state-file-committed, crash-idempotent) before applying; "
        "--merge-lineage records src_id/src_lsn on every merged event",
    )
    pt.add_argument("--merge-lineage", action="store_true")
    pt.add_argument("--max-polls", type=int, default=None)
    pt.add_argument(
        "--idle-stop", type=int, default=None,
        help="exit after this many consecutive empty polls (drain-then-exit)",
    )
    pt.add_argument(
        "--view", action="append", default=[], metavar="KIND:DIR",
        help="maintained view(s) to advance after every applying poll, e.g. "
        "rollup:/lake/views/rollup (kinds as in the ivm subcommand; append "
        "+changes to also emit the view's changefeed: rollup+changes:DIR)",
    )
    pt.add_argument(
        "--min-turns", type=int, default=2,
        help="curation-kind views only: quality gate's minimum turn count "
        "(must match the view's kernel fingerprint)",
    )
    pt.add_argument(
        "--min-chars", type=int, default=20,
        help="curation-kind views only: quality gate's minimum redacted length",
    )

    ps = sub.add_parser("snapshot", help="row count / export of the committed state")
    ps.add_argument("--table", required=True)
    ps.add_argument("--version", type=int, default=None)
    ps.add_argument(
        "--as-of-ts",
        type=float,
        default=None,
        help="time travel: newest version committed at or before this unix time",
    )
    ps.add_argument("--out", default=None)
    ps.add_argument(
        "--where",
        action="append",
        default=None,
        metavar="COL:OP:VALUE",
        help="zone-map pushdown conjunct, repeatable (ops: == != < <= > >= "
        "in is_null not_null; VALUE parses as JSON, else a string; e.g. "
        "--where 'ts:>=:\"2025-01-03\"' --where conv_id:==:conv-000007)",
    )

    pp = sub.add_parser("publish", help="resumable partitioned export")
    pp.add_argument("--table", required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument(
        "--order-by", default=None,
        help="comma-separated columns: export as a GLOBAL distributed ORDER BY "
             "instead of the hash-partitioned layout (part files read in "
             "filename order replay the total order; prefix '-' for DESC, "
             "e.g. --order-by -ts,conv_id)",
    )

    pc = sub.add_parser("changes", help="net per-key changefeed since an LSN watermark")
    pc.add_argument("--table", required=True)
    pc.add_argument("--since", type=int, required=True)

    pm = sub.add_parser("metrics", help="per-epoch lineage summary")
    pm.add_argument("--table", required=True)

    pk = sub.add_parser("compact", help="fold all multi-file partitions (OPTIMIZE)")
    pk.add_argument("--table", required=True)
    pk.add_argument(
        "--sort-by",
        action="append",
        default=None,
        metavar="COL",
        help="cluster a PK-less (append) table by these columns, repeatable; "
        "rewrites each partition sorted + split into --target-file-rows files "
        "with tight zone-map ranges",
    )
    pk.add_argument("--target-file-rows", type=int, default=None)
    pk.add_argument(
        "--cluster", choices=("sort", "zorder"), default="sort",
        help="clustering layout for --sort-by: lexicographic (tight ranges "
        "on the first column) or Morton/Z-order (≥2 columns; predicates on "
        "ANY clustered column skip files)",
    )

    pb = sub.add_parser(
        "ingest-binlog",
        help="convert Debezium-style JSONL change envelopes into changelog segments",
    )
    pb.add_argument("--src", required=True, help="directory of .jsonl feed files")
    pb.add_argument("--out", required=True, help="changelog directory to write")
    pb.add_argument(
        "--column",
        action="append",
        required=True,
        metavar="NAME:TYPE",
        help="payload column, repeatable (types: string large_string int32 "
        "int64 float64 bool timestamp date)",
    )
    pb.add_argument("--ts-field", default="ts_ms")
    pb.add_argument(
        "--dense-lsn",
        action="store_true",
        help="assign LSNs by (file order, line order) instead of source.lsn",
    )
    pb.add_argument("--segment-rows", type=int, default=500_000)
    pb.add_argument(
        "--on-error",
        choices=("raise", "quarantine"),
        default="raise",
        help="quarantine: dead-letter parser-rejected lines under "
        "OUT/_dlq/ instead of failing the feed file",
    )

    pml = sub.add_parser(
        "merge-log",
        help="one-shot multi-source merge: fold N changelog shards' new "
        "segments into one canonical changelog (see tail --merge-src)",
    )
    pml.add_argument(
        "--src", action="append", required=True, help="source changelog dir (repeatable)"
    )
    pml.add_argument("--log", required=True, help="canonical output changelog dir")
    pml.add_argument(
        "--lineage", action="store_true",
        help="record src_id/src_lsn on every merged event",
    )

    ppl = sub.add_parser(
        "prune-log",
        help="truncate changelog segments every consumer has fully applied",
    )
    ppl.add_argument("--log", required=True, help="changelog directory")
    ppl.add_argument(
        "--table",
        action="append",
        default=[],
        help="consumer table dir, repeatable — the prune horizon is the "
        "MIN applied watermark across them (give EVERY consumer of the log)",
    )
    ppl.add_argument(
        "--upto-lsn",
        type=int,
        default=None,
        help="explicit horizon instead of --table watermarks",
    )

    pv = sub.add_parser("vacuum", help="delete files unreferenced by the current manifest")
    pv.add_argument("--table", required=True)
    pv.add_argument(
        "--grace-s",
        type=float,
        default=0.0,
        help="spare unreferenced files younger than this (concurrent-writer staging)",
    )

    prs = sub.add_parser(
        "reshard", help="change the table's hash-partition count (atomic migration commit)"
    )
    prs.add_argument("--table", required=True)
    prs.add_argument("--partitions", type=int, required=True)

    pro = sub.add_parser(
        "restore", help="roll the table back to an earlier manifest version (new commit)"
    )
    pro.add_argument("--table", required=True)
    pro.add_argument("--version", type=int, required=True)

    pcl = sub.add_parser(
        "clone", help="clone the table into a new directory (deep by default)"
    )
    pcl.add_argument("--table", required=True)
    pcl.add_argument("--dst", required=True)
    pcl.add_argument("--version", type=int, default=None, help="clone an earlier version")
    pcl.add_argument(
        "--shallow", action="store_true",
        help="reference the source's files in place (zero copy; breaks if the "
        "source later vacuums/compacts — dev branches only)",
    )

    pdf = sub.add_parser(
        "diff", help="row-level changes between two committed versions (I/U/D per key)"
    )
    pdf.add_argument("--table", required=True)
    pdf.add_argument("--from-version", type=int, required=True)
    pdf.add_argument("--to-version", type=int, default=None)
    pdf.add_argument("--out", default=None, help="write the diff rows to parquet here")

    pg = sub.add_parser(
        "mitigate-skew", help="detect hot keys from lineage metrics, salt + migrate them"
    )
    pg.add_argument("--table", required=True)
    pg.add_argument("--factor", type=float, default=4.0)
    pg.add_argument("--fanout", type=int, default=None)

    pl = sub.add_parser("lookup", help="point read by leading primary-key value(s)")
    pl.add_argument("--table", required=True)
    pl.add_argument("--key", required=True, help="comma-separated leading-PK values")

    ppu = sub.add_parser(
        "purge",
        help="right-to-be-forgotten HARD delete: physically remove every row "
        "of the given key(s) from all files, versions and the changefeed "
        "retention registry, then vacuum (ends time travel to older versions)",
    )
    ppu.add_argument("--table", required=True)
    ppu.add_argument("--key", required=True, help="comma-separated leading-PK values")
    ppu.add_argument(
        "--vacuum-grace-s",
        type=float,
        default=0.0,
        help="spare unreferenced files younger than this (concurrent-writer staging)",
    )

    pi = sub.add_parser(
        "ivm", help="advance (or rebuild) an incremental view: rollup aggregate, SFT corpus, tool-usage counts, exact-dedup or near-dup (minhash) index"
    )
    pi.add_argument("--table", required=True)
    pi.add_argument("--view", required=True)
    pi.add_argument("--rebuild", action="store_true")
    pi.add_argument(
        "--fsck", action="store_true",
        help="audit the view directory instead of advancing (see the fsck subcommand)",
    )
    pi.add_argument(
        "--emit-changes", action="store_true",
        help="also write the view's own changefeed per advance (see view-changes)",
    )
    pi.add_argument(
        "--kind",
        choices=_VIEW_KIND_CHOICES + ("join",),
        default="rollup",
    )
    pi.add_argument(
        "--min-turns", type=int, default=2,
        help="curation kind only: quality gate's minimum turn count "
        "(part of the view's kernel fingerprint)",
    )
    pi.add_argument(
        "--min-chars", type=int, default=20,
        help="curation kind only: quality gate's minimum redacted length",
    )
    pi.add_argument(
        "--window-s", type=int, default=3600,
        help="windows kind only: tumbling window width in seconds "
        "(kernel fingerprint)",
    )
    pi.add_argument(
        "--dim", type=int, default=64,
        help="vector kind only: embedding dimensions (kernel fingerprint)",
    )
    pi.add_argument(
        "--planes", type=int, default=12,
        help="vector kind only: hyperplane-LSH bucket bits (kernel fingerprint)",
    )
    pi.add_argument(
        "--vec-seed", type=int, default=7,
        help="vector kind only: embedding/hyperplane seed (kernel fingerprint)",
    )
    pi.add_argument(
        "--agg", action="append", default=None, metavar="NAME:FN:COL",
        help="stats kind only (repeatable): output column NAME = FN(COL), "
        "FN in count/sum/min/max/avg; COL '*' (count) or 'chars' "
        "(utf8 length of text); part of the view's kernel fingerprint",
    )
    pi.add_argument(
        "--right-table",
        help="join kind only: the dimension table's dir (--table is the "
        "fact side; both must share the leading PK column and partition count)",
    )
    pi.add_argument(
        "--right-cols",
        help="join kind only: comma-separated dimension columns to attach "
        "(default: every non-key right column that does not clash)",
    )
    pi.add_argument(
        "--how", choices=("left", "inner"), default="left",
        help="join kind only: join mode",
    )

    pa_ = sub.add_parser(
        "assemble",
        help="export the lake as an SFT corpus: one role-tagged document per "
        "conversation (parquet or jsonl, one file per block)",
    )
    pa_.add_argument("--table", required=True)
    pa_.add_argument("--out", required=True)
    pa_.add_argument("--format", choices=("parquet", "jsonl"), default="parquet")
    pa_.add_argument(
        "--overwrite", action="store_true",
        help="clear an existing non-empty --out first (part filenames are "
        "unique per run, so re-running WITHOUT this would accumulate stale "
        "files from the previous export)",
    )

    pe = sub.add_parser(
        "export-changes", help="poll one exactly-once changefeed window into a sink dir"
    )
    pe.add_argument("--table", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument(
        "--seed-snapshot", action="store_true",
        help="bootstrap/recover: export the full committed state as the seed window",
    )

    pv = sub.add_parser(
        "view-changes",
        help="export a maintained view's own changefeed (deltas committed by "
        "advances after --since, netted per conversation) as parquet",
    )
    pv.add_argument("--table", required=True)
    pv.add_argument("--view", required=True)
    pv.add_argument("--since", type=int, required=True, help="consumer's committed view version")
    pv.add_argument("--out", required=True)
    pv.add_argument("--raw", action="store_true", help="per-version stream instead of netted")
    pv.add_argument(
        "--kind",
        choices=_VIEW_KIND_CHOICES,
        default="rollup",
    )
    pv.add_argument(
        "--prune", action="store_true",
        help="after a successful export, GC deltas up to the view's current version",
    )

    pf = sub.add_parser(
        "fsck", help="consistency audit: manifest claims vs files on disk "
        "(existence, footers, partition routing, watermarks)"
    )
    pf.add_argument("--table", required=True)

    pds = sub.add_parser(
        "describe", help="operational summary from the manifest (rows, files, "
        "bytes, merge depth, retention, last commit); no data reads"
    )
    pds.add_argument("--table", required=True)

    pr = sub.add_parser(
        "replica-follow",
        help="drain a view-changefeed sink (view-changes / ViewDeltaConsumer "
        "windows) into a durable hash-partitioned replica table",
    )
    pr.add_argument("--sink", required=True, help="the consumer's window directory")
    pr.add_argument("--replica", required=True)
    pr.add_argument("--partitions", type=int, default=16)

    args = p.parse_args(argv)

    started_ray = False
    rc = 0  # audit subcommands set nonzero on findings

    from .pipelines.cdc import CDCEngine
    from .sources.changelog import ChangeLog

    def _existing_engine(table: str) -> CDCEngine:
        """Read-only subcommands must not create an empty table out of a
        mistyped ``--table`` path — require an existing manifest."""
        try:
            return CDCEngine(table, create_if_missing=False)
        except FileNotFoundError as e:
            print(json.dumps({"error": str(e)}), file=sys.stderr)
            raise SystemExit(2)

    if args.cmd == "replay":
        started_ray = _init_ray(args.num_cpus)
        from .pipelines.cdc import INHERIT

        if args.no_changefeed_retention and args.changefeed_retention_lsn is not None:
            p.error(
                "--changefeed-retention-lsn and --no-changefeed-retention "
                "are contradictory; pass one"
            )
        retention = INHERIT  # default: the manifest-persisted horizon
        if args.no_changefeed_retention:
            retention = None
        elif args.changefeed_retention_lsn is not None:
            retention = args.changefeed_retention_lsn
        eng = CDCEngine(
            args.table, num_partitions=args.partitions,
            changefeed_retention_lsn=retention, dq_mode=args.dq_mode,
        )
        stats = eng.replay(ChangeLog(args.log), segments_per_epoch=args.epoch_segments)
        print(
            json.dumps(
                {
                    "epochs_applied": stats.epochs_applied,
                    "epochs_skipped": stats.epochs_skipped,
                    "events": stats.events,
                    "seconds": round(stats.seconds, 3),
                    "events_per_sec": round(stats.events_per_sec, 1),
                    "schema_changes": stats.schema_changes,
                    "applied_lsn": eng.manifest.applied_lsn,
                }
            )
        )
    elif args.cmd == "tail":
        started_ray = _init_ray(args.num_cpus)
        eng = CDCEngine(args.table, num_partitions=args.partitions, dq_mode=args.dq_mode)
        views = []
        if args.view:
            kinds = _view_kinds()
            for spec in args.view:
                kind, _, vdir = spec.partition(":")
                kind, _, mod = kind.partition("+")
                if not vdir or kind not in kinds or mod not in ("", "changes"):
                    print(json.dumps({"error": f"bad --view spec {spec!r}"}), file=sys.stderr)
                    raise SystemExit(2)
                kw = {"emit_changes": mod == "changes"}
                if kind == "curation":
                    kw.update(min_turns=args.min_turns, min_chars=args.min_chars)
                views.append(kinds[kind](eng, vdir, **kw))
        if args.binlog_src and args.merge_src:
            print(
                json.dumps({"error": "--binlog-src and --merge-src are exclusive"}),
                file=sys.stderr,
            )
            raise SystemExit(2)
        if args.binlog_src:
            from .sources.binlog_json import JsonBinlogFeed

            src = JsonBinlogFeed(
                args.binlog_src, args.log, _payload_schema_from_args(args.column)
            )
        elif args.merge_src:
            from .sources.multisource import MultiSourceFeed

            src = MultiSourceFeed(
                args.merge_src, args.log, keep_lineage=args.merge_lineage
            )
        else:
            src = ChangeLog(args.log)
        stats = eng.tail(
            src,
            poll_s=args.poll_s,
            max_polls=args.max_polls,
            idle_stop_polls=args.idle_stop,
            segments_per_epoch=args.epoch_segments,
            views=views,
        )
        print(
            json.dumps(
                {
                    "epochs_applied": stats.epochs_applied,
                    "events": stats.events,
                    "seconds": round(stats.seconds, 3),
                    "applied_lsn": eng.manifest.applied_lsn,
                }
            )
        )
    elif args.cmd == "snapshot":
        eng = _existing_engine(args.table)
        t = eng.snapshot_arrow(
            version=args.version, as_of_ts=args.as_of_ts, predicate=_parse_where(args.where)
        )
        if args.out:
            import pyarrow.parquet as pq

            pq.write_table(t, args.out)
        print(json.dumps({"rows": t.num_rows, "columns": t.column_names, "version": args.version}))
    elif args.cmd == "publish":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        if args.order_by:
            from .stages.ranking import export_sorted

            cols = [c.strip() for c in args.order_by.split(",") if c.strip()]
            desc = [c.startswith("-") for c in cols]
            cols = [c.lstrip("-") for c in cols]
            r = export_sorted(eng.snapshot(), args.out, cols, descending=desc)
            print(json.dumps({**r, "out": args.out, "order_by": args.order_by}))
        else:
            from .pipelines.publish import publish_snapshot

            n = publish_snapshot(eng, args.out)
            print(json.dumps({"partitions_exported": n, "out": args.out}))
    elif args.cmd == "changes":
        eng = _existing_engine(args.table)
        t = eng.read_changes(since_lsn=args.since)
        print(json.dumps({"rows": t.num_rows, "since": args.since}))
    elif args.cmd == "metrics":
        from .pipelines.metrics import read_metrics

        _existing_engine(args.table)  # same mistyped-path guard
        t = read_metrics(args.table)
        epochs = sorted(set(t.column("epoch_id").to_pylist())) if t.num_rows else []
        print(json.dumps({"lineage_rows": t.num_rows, "epochs": epochs[-5:]}))
    elif args.cmd == "compact":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        n = eng.compact(
            sort_by=args.sort_by,
            target_file_rows=args.target_file_rows,
            cluster=args.cluster,
        )
        print(
            json.dumps(
                {"partitions_compacted": n, "sort_by": args.sort_by, "cluster": args.cluster}
            )
        )
    elif args.cmd == "ingest-binlog":
        started_ray = _init_ray(args.num_cpus)
        from .sources.binlog_json import convert_json_binlog

        clog = convert_json_binlog(
            args.src,
            args.out,
            _payload_schema_from_args(args.column),
            ts_field=args.ts_field,
            lsn_field=None if args.dense_lsn else "lsn",
            segment_rows=args.segment_rows,
            on_error=args.on_error,
        )
        segs = clog.segments()
        from .sources.binlog_json import dlq_stats

        print(
            json.dumps(
                {
                    "segments": len(segs),
                    "min_lsn": segs[0].min_lsn if segs else None,
                    "max_lsn": segs[-1].max_lsn if segs else None,
                    "quarantined": dlq_stats(args.out)["lines"],
                    "out": args.out,
                }
            )
        )
    elif args.cmd == "merge-log":
        started_ray = _init_ray(args.num_cpus)
        from .sources.multisource import MultiSourceFeed

        for d in args.src:
            if not os.path.isdir(d):
                print(
                    json.dumps({"error": f"no source changelog directory at {d!r}"}),
                    file=sys.stderr,
                )
                raise SystemExit(2)
        print(
            json.dumps(
                MultiSourceFeed(args.src, args.log, keep_lineage=args.lineage).merge_new()
            )
        )
    elif args.cmd == "prune-log":
        from .sources.changelog import ChangeLog

        if not os.path.isdir(args.log):
            print(json.dumps({"error": f"no changelog directory at {args.log!r}"}),
                  file=sys.stderr)
            raise SystemExit(2)
        if (args.upto_lsn is None) == (not args.table):
            print(json.dumps({"error": "pass --upto-lsn OR at least one --table"}),
                  file=sys.stderr)
            raise SystemExit(2)
        upto = (
            args.upto_lsn
            if args.upto_lsn is not None
            else min(_existing_engine(t).manifest.applied_lsn for t in args.table)
        )
        n = ChangeLog(args.log).prune(upto)
        print(json.dumps({"segments_removed": n, "upto_lsn": upto}))
    elif args.cmd == "vacuum":
        eng = _existing_engine(args.table)
        print(json.dumps({"files_removed": eng.vacuum(grace_s=args.grace_s)}))
    elif args.cmd == "reshard":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        print(json.dumps(eng.reshard(args.partitions)))
    elif args.cmd == "restore":
        eng = _existing_engine(args.table)
        print(json.dumps(eng.restore(args.version)))
    elif args.cmd == "describe":
        eng = _existing_engine(args.table)
        print(json.dumps(eng.describe()))
    elif args.cmd == "clone":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        print(json.dumps(eng.clone(args.dst, version=args.version, shallow=args.shallow)))
    elif args.cmd == "diff":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        ds = eng.diff(args.from_version, to_version=args.to_version)
        if args.out:
            ds = ds.materialize()
            ds.write_parquet(args.out)
        import pyarrow.compute as _pc

        counts: dict = {}
        for b in ds.iter_batches(batch_format="pyarrow"):  # streaming count
            for s in _pc.value_counts(b.column("diff_op")):
                op_ = s["values"].as_py()
                counts[op_] = counts.get(op_, 0) + int(s["counts"].as_py())
        print(json.dumps({"rows": sum(counts.values()), "by_op": counts,
                          "out": args.out}))
    elif args.cmd == "mitigate-skew":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        salted = eng.mitigate_skew(factor=args.factor, fanout=args.fanout)
        print(json.dumps({"salted_keys": salted, "salt_map": eng.salt_map}))
    elif args.cmd == "lookup":
        eng = _existing_engine(args.table)
        t = eng.lookup(args.key.split(","))
        print(json.dumps({"rows": t.num_rows, "result": t.to_pylist()}, default=str))
    elif args.cmd == "purge":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        print(
            json.dumps(
                eng.purge(args.key.split(","), vacuum_grace_s=args.vacuum_grace_s)
            )
        )
    elif args.cmd == "ivm":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        if args.kind == "join":
            from .pipelines.incremental import IncrementalJoin

            if not args.right_table:
                print(
                    json.dumps({"error": "--kind join requires --right-table"}),
                    file=sys.stderr,
                )
                raise SystemExit(2)
            view = IncrementalJoin(
                eng,
                _existing_engine(args.right_table),
                args.view,
                right_cols=args.right_cols.split(",") if args.right_cols else None,
                how=args.how,
            )
        else:
            cls = _view_kinds()[args.kind]
            kw = {"emit_changes": args.emit_changes}
            if args.kind == "curation":
                kw.update(min_turns=args.min_turns, min_chars=args.min_chars)
            if args.kind == "stats" and args.agg:
                kw["aggs"] = _parse_aggs(args.agg)
            if args.kind == "vector":
                kw.update(dim=args.dim, planes=args.planes, seed=args.vec_seed)
            if args.kind == "windows":
                kw.update(window_s=args.window_s)
            view = cls(eng, args.view, **kw)
        if args.fsck:
            r = view.fsck()
            print(json.dumps(r))
            rc = 0 if r["ok"] else 1
        else:
            print(json.dumps(view.rebuild() if args.rebuild else view.advance()))
    elif args.cmd == "assemble":
        started_ray = _init_ray(args.num_cpus)
        import os as _os
        import shutil as _shutil

        from .pipelines.publish import assemble_conversations

        eng = _existing_engine(args.table)
        if _os.path.isdir(args.out) and _os.listdir(args.out):
            if not args.overwrite:
                # part filenames are unique per run — writing into a
                # non-empty dir would accumulate the previous export's
                # files and readers would see duplicated conversations
                print(
                    json.dumps(
                        {"error": f"--out {args.out!r} is not empty; pass --overwrite"}
                    ),
                    file=sys.stderr,
                )
                raise SystemExit(2)
            _shutil.rmtree(args.out)
        corpus = assemble_conversations(eng.snapshot())
        if args.format == "jsonl":
            from .sources.jsonl import write_jsonl

            n = write_jsonl(corpus, args.out)
        else:
            _os.makedirs(args.out, exist_ok=True)
            corpus = corpus.materialize()
            corpus.write_parquet(args.out)
            n = corpus.count()
        print(json.dumps({"conversations": n, "out": args.out, "format": args.format}))
    elif args.cmd == "view-changes":
        started_ray = _init_ray(args.num_cpus)
        import os as _os

        eng = _existing_engine(args.table)
        view = _view_kinds()[args.kind](eng, args.view)
        # anchor export and prune to the SAME head (a concurrent advance
        # between the reads must not let --prune GC unexported versions)
        head = view.version
        ds = view.changes(args.since, net=not args.raw, up_to=head)
        # single execution: write, then count from the written footers
        # (an empty feed writes no files — Ray creates no directory)
        from .pipelines.consumer import _dir_rows

        if _os.path.isdir(args.out) and _os.listdir(args.out):
            # Ray part filenames are unique per run: exporting into a
            # non-empty dir would accumulate the previous export's files
            # and a consumer would apply its versions twice
            print(
                json.dumps({"error": f"output dir {args.out!r} is not empty"}),
                file=sys.stderr,
            )
            raise SystemExit(2)
        _os.makedirs(args.out, exist_ok=True)
        ds.write_parquet(args.out)
        n = _dir_rows(args.out)
        if args.prune:
            view.prune_changes(head)
        print(json.dumps({"rows": n, "since": args.since, "version": head}))
    elif args.cmd == "fsck":
        started_ray = _init_ray(args.num_cpus)
        eng = _existing_engine(args.table)
        r = eng.fsck()
        print(json.dumps(r))
        rc = 0 if r["ok"] else 1
    elif args.cmd == "replica-follow":
        started_ray = _init_ray(args.num_cpus)
        from .pipelines.replica import ReplicaTable

        from .pipelines.consumer import read_window_dir

        class _SinkOnly:
            """follow() needs only the sink path + read_window."""

            def __init__(self, out_dir):
                self.out_dir = out_dir

            def read_window(self, window):
                return read_window_dir(self.out_dir, window)

        rep = ReplicaTable(args.replica, num_partitions=args.partitions)
        print(json.dumps(rep.follow(_SinkOnly(args.sink))))
    elif args.cmd == "export-changes":
        started_ray = _init_ray(args.num_cpus)
        from .pipelines.consumer import ChangefeedConsumer

        eng = _existing_engine(args.table)
        con = ChangefeedConsumer(eng, args.out)
        print(json.dumps(con.seed_from_snapshot() if args.seed_snapshot else con.poll()))
    if started_ray:  # only shut down a session this CLI run created
        import ray as _ray

        _ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
