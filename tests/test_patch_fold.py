"""The patch fold (``cdc._fold_epoch_patches``) against a brute-force
per-key fold written from its docstring rules.

For each key with a patch, the key's prior lake row (if any) and its
epoch events are ordered by ``(ts, lsn, source)``, the prior row first
on a tie. The base is the last full image. Patches after a live base
apply column-wise (NULL = unchanged); every other patch is discarded.
The resolved row takes the last applied event's ``(ts, lsn)`` and is
written only when that event came from the epoch. Keys without a patch
take plain last-writer-wins. No Ray needed."""

import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etl_framework_ray.pipelines.cdc import _fold_epoch_patches

PAYLOAD = ("a", "b", "c")
TYPES = {"k": pa.string(), "t": pa.int32(), "a": pa.string(), "b": pa.int64(), "c": pa.string()}

_VALUE = {
    "a": st.sampled_from(["x", "y", "z"]),
    "b": st.integers(0, 3),
    "c": st.sampled_from(["p", "q"]),
}


def _lake_schema(key_cols, cols=PAYLOAD) -> pa.Schema:
    return pa.schema(
        [pa.field(k, TYPES[k]) for k in key_cols]
        + [pa.field(c, TYPES[c]) for c in cols]
        + [
            pa.field("ts", pa.timestamp("us")),
            pa.field("_lsn", pa.int64(), nullable=False),
            pa.field("_deleted", pa.bool_(), nullable=False),
        ]
    )


def _chg_schema(key_cols) -> pa.Schema:
    return pa.schema(
        [pa.field("lsn", pa.int64()), pa.field("op", pa.string()), pa.field("ts", pa.timestamp("us"))]
        + [pa.field(k, TYPES[k]) for k in key_cols]
        + [pa.field(c, TYPES[c]) for c in PAYLOAD]
    )


@st.composite
def _case(draw):
    key_cols = draw(st.sampled_from([("k",), ("k", "t")]))
    pool = [
        {"k": f"k{i}", **({"t": j} if len(key_cols) == 2 else {})}
        for i in range(3)
        for j in range(2 if len(key_cols) == 2 else 1)
    ]
    key = st.sampled_from(pool)

    def image(required: bool):
        vals = {}
        for c in PAYLOAD:
            v = draw(_VALUE[c]) if required else draw(st.none() | _VALUE[c])
            vals[c] = v
        return vals

    # prior lake state: up to 2 files, the older one written before
    # column "c" existed; lsn below every epoch event's
    files, lsn = [], 0
    for fi in range(draw(st.integers(0, 2))):
        rows = {}
        for _ in range(draw(st.integers(0, 4))):
            lsn += 1
            k = draw(key)
            rows[tuple(k.values())] = {
                **k,
                **image(required=False),
                "ts": draw(st.integers(0, 5)),
                "_lsn": lsn,
                "_deleted": draw(st.booleans()),
            }
        if fi == 0:
            for r in rows.values():
                r["c"] = None
        files.append((list(rows.values()), fi == 0))
    prior_rows = [r for rows, _old in files for r in rows]

    events, lsn = [], 100
    for _ in range(draw(st.integers(1, 10))):
        redeliver = prior_rows and draw(st.integers(0, 4)) == 0
        if redeliver:
            # a prior row re-delivered at its own (ts, lsn): as a full
            # image, or as the patch it was resolved from
            p = draw(st.sampled_from(prior_rows))
            op = draw(st.sampled_from(["U", "P"]))
            vals = {c: p[c] for c in PAYLOAD}
            if op == "P":
                vals = {c: v if draw(st.booleans()) else None for c, v in vals.items()}
            events.append(
                {**{k: p[k] for k in key_cols}, "op": op, "ts": p["ts"], "lsn": p["_lsn"], **vals}
            )
            continue
        lsn += 1
        op = draw(st.sampled_from(["I", "U", "D", "P", "P"]))
        events.append(
            {**draw(key), "op": op, "ts": draw(st.integers(0, 5)), "lsn": lsn, **image(op != "P")}
        )
    if not any(e["op"] == "P" for e in events):
        events[-1]["op"] = "P"  # the fold runs only on batches with a patch
    return key_cols, files, events


def _brute_fold(key_cols, prior_rows, events):
    """Per-key fold straight from the docstring rules."""
    prior = {}
    for r in prior_rows:
        kt = tuple(r[k] for k in key_cols)
        if kt not in prior or (r["ts"], r["_lsn"]) > (prior[kt]["ts"], prior[kt]["_lsn"]):
            prior[kt] = r
    by_key: dict = {}
    for e in events:
        by_key.setdefault(tuple(e[k] for k in key_cols), []).append(e)
    out, discarded = [], 0
    for kt, evs in by_key.items():
        keyvals = dict(zip(key_cols, kt))
        if not any(e["op"] == "P" for e in evs):
            w = max(evs, key=lambda e: (e["ts"], e["lsn"]))
            out.append({**keyvals, **{c: w[c] for c in PAYLOAD}, "ts": w["ts"],
                        "_lsn": w["lsn"], "_deleted": w["op"] == "D"})
            continue
        seq = []
        if kt in prior:
            p = prior[kt]
            seq.append(({"op": "D" if p["_deleted"] else "U", "ts": p["ts"], "lsn": p["_lsn"],
                         **{c: p[c] for c in PAYLOAD}}, 0))
        seq += [(e, 1) for e in evs]
        seq.sort(key=lambda es: (es[0]["ts"], es[0]["lsn"], es[1]))  # stable
        n_patches = sum(e["op"] == "P" for e, _ in seq)
        fulls = [i for i, (e, _) in enumerate(seq) if e["op"] != "P"]
        if not fulls:
            discarded += n_patches
            continue
        b = fulls[-1]
        base, src = seq[b]
        res = {c: base[c] for c in PAYLOAD}
        last, op = base, base["op"]
        applied = 0
        if op != "D":
            for e, s in seq[b + 1:]:
                for c in PAYLOAD:
                    if e[c] is not None:
                        res[c] = e[c]
                last, src, op = e, s, "U"
                applied += 1
        discarded += n_patches - applied
        if src == 1:
            out.append({**keyvals, **res, "ts": last["ts"], "_lsn": last["lsn"],
                        "_deleted": op == "D"})
    out.sort(key=lambda r: tuple(r[k] for k in key_cols))
    return out, discarded


def _us(rows):
    return [{**r, "ts": r["ts"] * 1_000_000} for r in rows]


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(case=_case())
def test_fold_matches_brute_force(case):
    key_cols, files, events = case
    lake_sch = _lake_schema(key_cols)
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for i, (rows, old) in enumerate(files):
            sch = _lake_schema(key_cols, ("a", "b") if old else PAYLOAD)
            t = pa.Table.from_pylist(_us(rows), schema=sch)
            paths.append(f"{d}/delta-00000-{i:012d}.parquet")
            pq.write_table(t.sort_by([(k, "ascending") for k in key_cols]), paths[-1])
        changes = pa.Table.from_pylist(_us(events), schema=_chg_schema(key_cols))
        got, discarded = _fold_epoch_patches(changes, key_cols, paths, lake_sch)
    want, want_discarded = _brute_fold(key_cols, [r for rows, _ in files for r in rows], events)
    assert got.schema == lake_sch
    assert got.to_pylist() == pa.Table.from_pylist(_us(want), schema=lake_sch).to_pylist()
    assert discarded == want_discarded
