"""One key→partition rule: every placement and every placement check goes
through ``functions/hashing``.

A salted leading key ``v`` with fanout ``f`` lives on ``(hash(v) + s) % P``
for ``s < f``, and the manifest stores ``salt_map`` keys as JSON strings.
The regression tests drive the three places that used to work the rule
out on their own — a join view over an int-keyed salted table, an
overwrite of a salted table, and the fsck routing audit — and the guard
keeps the rule from being copied into ``pipelines/`` again."""

import ast

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from test_partition_reader import PKG

from etl_framework_ray.functions.hashing import partition_ids, salted_partition_ids
from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.incremental import IncrementalJoin
from etl_framework_ray.pipelines.writer import LakeWriter
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.state.schema import ColumnSpec, TableSpec

P = 8
HOT = 5


def _spec(key_type: pa.DataType) -> TableSpec:
    return TableSpec(
        name="ledger",
        columns=(
            ColumnSpec("acct", key_type, nullable=False),
            ColumnSpec("seq", pa.int32(), nullable=False),
            ColumnSpec("amount", pa.int64()),
        ),
        primary_key=("acct", "seq"),
    )


DIM = TableSpec(
    name="accounts",
    columns=(ColumnSpec("acct", pa.int64(), nullable=False), ColumnSpec("tier", pa.string())),
    primary_key=("acct",),
)


def _key(v, key_type):
    return f"acct-{v:03d}" if pa.types.is_string(key_type) else v


def _skewed_log(key_type, n=4000, lsn0=1, seed=3) -> pa.Table:
    """``n`` upserts of distinct ``(acct, seq)`` keys, 70% of them on the
    hot account: the combiner cannot collapse the hot key, so it salts."""
    rng = np.random.default_rng(seed)
    acct = np.where(rng.random(n) < 0.7, HOT, rng.integers(0, 100, n))
    return pa.table(
        {
            "lsn": pa.array(np.arange(lsn0, lsn0 + n), pa.int64()),
            "op": pa.array(["U"] * n),
            "acct": pa.array([_key(int(a), key_type) for a in acct], key_type),
            "seq": pa.array(np.arange(n), pa.int32()),
            "amount": pa.array(rng.integers(0, 1000, n), pa.int64()),
        }
    )


def _salted_engine(tmp_path, key_type) -> tuple[CDCEngine, ChangeLog]:
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(_skewed_log(key_type), segment_rows=500)
    eng = CDCEngine(
        str(tmp_path / "ledger"), spec=_spec(key_type), num_partitions=P, compact_every=100
    )
    eng.replay(clog, segments_per_epoch=1, auto_mitigate_skew=True)
    assert eng.salt_map == {str(_key(HOT, key_type)): P}
    return eng, clog


def _brute_join(fact: CDCEngine, dim: CDCEngine) -> list[dict]:
    j = fact.snapshot_arrow().join(
        dim.snapshot_arrow(), keys="acct", join_type="left outer", use_threads=False
    )
    return j.sort_by([("acct", "ascending"), ("seq", "ascending")]).to_pylist()


def _view_rows(view) -> list[dict]:
    t = view.read_arrow().select(["acct", "seq", "amount", "tier"])
    return t.sort_by([("acct", "ascending"), ("seq", "ascending")]).to_pylist()


@pytest.mark.usefixtures("ray_session")
def test_join_view_over_int_keyed_salted_table_equals_brute_join(tmp_path):
    """The manifest stores the salted key 5 as ``"5"``: the view must find
    the int key's home and fanout partitions, not the string's."""
    fact, clog = _salted_engine(tmp_path, pa.int64())
    dlog = ChangeLog(str(tmp_path / "dlog"))
    dlog.write_segments(
        pa.table(
            {
                "lsn": pa.array(range(1, 101), pa.int64()),
                "op": pa.array(["U"] * 100),
                "acct": pa.array(range(100), pa.int64()),
                "tier": pa.array([f"t{a % 3}" for a in range(100)]),
            }
        ),
        segment_rows=100,
    )
    dim = CDCEngine(str(tmp_path / "accounts"), spec=DIM, num_partitions=P)
    dim.replay(dlog)
    view = IncrementalJoin(fact, dim, str(tmp_path / "view"), right_cols=["tier"])
    view.rebuild()
    want = _brute_join(fact, dim)
    assert len(want) == 4000
    assert _view_rows(view) == want

    # an advance whose hot-key changes land across its fanout partitions
    clog.write_segments(_skewed_log(pa.int64(), n=300, lsn0=5001, seed=4), segment_rows=300)
    fact.replay(clog, segments_per_epoch=1)
    view.advance()
    assert _view_rows(view) == _brute_join(fact, dim)
    assert view.fsck()["ok"]


@pytest.mark.usefixtures("ray_session")
def test_overwrite_of_salted_table_then_cdc_epoch_keeps_keys_unique(tmp_path):
    """An overwrite places rows where the next CDC epoch looks for them:
    the salted key's rows on their salted partitions, not at home."""
    eng, clog = _salted_engine(tmp_path, pa.string())
    rows = eng.snapshot_arrow()
    LakeWriter.from_engine(eng).overwrite(ray.data.from_arrow(rows))
    assert eng.fsck()["ok"]

    upd = rows.select(["acct", "seq"])
    n = upd.num_rows
    lsn0 = eng.manifest.applied_lsn + 1
    clog.write_segments(
        pa.table(
            {
                "lsn": pa.array(np.arange(lsn0, lsn0 + n), pa.int64()),
                "op": pa.array(["U"] * n),
                "acct": upd.column("acct"),
                "seq": upd.column("seq"),
                "amount": pa.array(np.full(n, -1), pa.int64()),
            }
        ),
        segment_rows=n,
    )
    eng.replay(clog, segments_per_epoch=1)
    snap = eng.snapshot_arrow()
    assert snap.num_rows == n
    assert snap.group_by(["acct", "seq"]).aggregate([]).num_rows == n
    assert pc.all(pc.equal(snap.column("amount"), -1)).as_py()
    r = eng.fsck()
    assert r["ok"], r["issues"]


@pytest.mark.usefixtures("ray_session")
def test_fsck_flags_salted_row_at_home_when_its_partition_is_another(tmp_path):
    """A salted key's row is checked against its exact partition: a row
    planted at the key's home, which is also one of its fanout partitions,
    is mis-routed when its second key column salts it elsewhere."""
    eng, _clog = _salted_engine(tmp_path, pa.string())
    hot = _key(HOT, pa.string())
    home = int(partition_ids(pa.array([hot]), P)[0])
    man = eng.manifest
    assert eng.fsck()["ok"]
    away, row = next(
        (pid, t.filter(pc.equal(t.column("acct"), hot)).slice(0, 1))
        for pid, ps in sorted(man.partitions.items())
        if pid != home
        for t in map(pq.read_table, ps.files)
        if pc.any(pc.equal(t.column("acct"), hot)).as_py()
    )
    assert salted_partition_ids(row, eng.key_cols, P, eng.salt_map)[0] == away

    target = man.partitions[home].files[0]
    pq.write_table(pa.concat_tables([pq.read_table(target), row]), target)
    r = eng.fsck()
    assert not r["ok"]
    assert any(f"pid {home}: row acct={hot!r} routed to wrong partition" == i for i in r["issues"])


def test_placement_rule_lives_in_hashing():
    """Under ``pipelines/`` no code reduces a hash modulo a partition count
    with a salt offset, or salts ``partition_ids``; only
    ``functions/hashing.py`` reads ``salt_map`` keys. The row router keeps
    its name and stays bound in ``cdc``, where tracing wraps it."""
    from etl_framework_ray.functions import hashing
    from etl_framework_ray.pipelines import cdc

    salted_mods = set()
    key_reads = set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if rel.startswith("pipelines/"):
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.BinOp)
                    and isinstance(node.left.op, ast.Add)
                ):
                    salted_mods.add((rel, node.lineno))
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "partition_ids"
                    and (len(node.args) > 2 or any(k.arg == "salt" for k in node.keywords))
                ):
                    salted_mods.add((rel, node.lineno))
            if _reads_salt_map_keys(node):
                key_reads.add(rel)
    assert salted_mods == set()
    assert key_reads == {"functions/hashing.py"}
    assert cdc.salted_partition_ids is hashing.salted_partition_ids


def _names_salt_map(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "salt_map") or (
        isinstance(node, ast.Attribute) and node.attr == "salt_map"
    )


def _reads_salt_map_keys(node: ast.AST) -> bool:
    """True for a lookup, membership test, key listing or iteration over an
    expression named ``salt_map`` (a name or an attribute)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("get", "pop", "keys", "items") and _names_salt_map(
            node.func.value
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "zip", "sorted", "set", "iter") and any(
            _names_salt_map(a) for a in node.args
        )
    if isinstance(node, ast.Subscript):
        return _names_salt_map(node.value)
    if isinstance(node, ast.Compare):
        return any(
            isinstance(op, (ast.In, ast.NotIn)) and _names_salt_map(c)
            for op, c in zip(node.ops, node.comparators)
        )
    if isinstance(node, (ast.For, ast.comprehension)):
        return _names_salt_map(node.iter)
    if isinstance(node, ast.Dict):
        return any(k is None and _names_salt_map(v) for k, v in zip(node.keys, node.values))
    return False


@pytest.mark.usefixtures("ray_session")
def test_append_raced_by_salting_fails_loud_then_lands(tmp_path):
    """An append staged before a concurrent ``mitigate_skew`` salted its
    key routed that key's rows to the home partition: its rebase must
    refuse, not commit them there. A fresh append then lands where the
    salt map says, and the table equals the oracle."""
    from etl_framework_ray.state.manifest import CommitConflict

    spec = _spec(pa.int64())
    log = _skewed_log(pa.int64())
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    table = str(tmp_path / "ledger")
    eng = CDCEngine(table, spec=spec, num_partitions=P, compact_every=100)
    eng.replay(clog, segments_per_epoch=1)
    assert eng.salt_map == {}

    n = 200
    extra = pa.table(
        {
            "acct": pa.array([HOT] * n, pa.int64()),
            "seq": pa.array(np.arange(10_000, 10_000 + n), pa.int32()),
            "amount": pa.array(np.arange(n), pa.int64()),
        }
    )
    w = LakeWriter.from_engine(eng)
    store = w.engine.store
    orig_commit = store.commit
    raced = {"done": False}

    def commit_with_salting(man, *a, **k):
        # between the append's staging and its commit, a second engine
        # salts the hot key the staged rows carry
        if not raced["done"]:
            raced["done"] = True
            other = CDCEngine(table, spec=spec, num_partitions=P)
            assert str(HOT) in other.mitigate_skew()
        return orig_commit(man, *a, **k)

    store.commit = commit_with_salting
    try:
        with pytest.raises(CommitConflict, match="salt"):
            w.append(ray.data.from_arrow(extra))
    finally:
        store.commit = orig_commit

    def oracle(*tables: pa.Table) -> list[dict]:
        t = pa.concat_tables([t.select(["acct", "seq", "amount"]) for t in tables])
        return t.sort_by([("acct", "ascending"), ("seq", "ascending")]).to_pylist()

    fresh = CDCEngine(table, spec=spec, num_partitions=P)
    assert fresh.salt_map == {str(HOT): P}
    assert fresh.snapshot_arrow().to_pylist() == oracle(log)
    LakeWriter.from_engine(fresh).append(ray.data.from_arrow(extra))
    r = fresh.fsck()
    assert r["ok"], r["issues"]
    assert fresh.snapshot_arrow().to_pylist() == oracle(log, extra)
