"""Identifier/naming helpers (S8), alert check (S9), large-large join."""

import duckdb
import pytest

from etl_framework_ray.functions.naming import constraint_name, validate_identifier

SF = "/root/testdata/sf0.001"


def test_validate_identifier():
    assert validate_identifier("conv_id") == "conv_id"
    for bad in ("", "1abc", "a-b", "a.b", "a b", "a/b", "x" * 200):
        with pytest.raises(ValueError):
            validate_identifier(bad)


def test_constraint_name_deterministic_and_bounded():
    a = constraint_name("pk", "transcripts", ("conv_id", "turn_idx"))
    b = constraint_name("pk", "transcripts", ("conv_id", "turn_idx"))
    assert a == b and len(a) <= 63
    c = constraint_name("pk", "t" * 100, ("c" * 100,))
    assert len(c) <= 63
    assert a != constraint_name("pk", "transcripts", ("turn_idx", "conv_id"))  # order matters


def test_check_failures_threshold(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_framework_ray.functions.quality import AUDIT_SCHEMA
    from etl_framework_ray.pipelines.slo import check_failures

    rows = [
        {"table_name": "t", "rule_name": f"r{i}", "column": "c", "criticality": "error",
         "failed_rows": 5, "checked_rows": 10, "job_id": "j", "run_id": "r",
         "date": "2026-08-17", "run_time": 0.1}
        for i in range(3)
    ]
    pq.write_table(pa.Table.from_pylist(rows, schema=AUDIT_SCHEMA), str(tmp_path / "checks-x.parquet"))
    assert check_failures(str(tmp_path), "2026-08-16") == 0  # other day: clean
    with pytest.raises(AssertionError, match="exceeds threshold"):
        check_failures(str(tmp_path), "2026-08-17")  # 3 > 1


@pytest.mark.usefixtures("ray_session")
def test_large_large_join_matches_sql():
    from etl_framework_ray.pipelines.medallion import revenue_by_mktsegment

    got = revenue_by_mktsegment(SF).to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    con = duckdb.connect()
    exp = con.sql(
        f"""SELECT c_mktsegment,
               CAST(ROUND(SUM(o_totalprice) * 100) AS BIGINT) / 100.0 AS revenue
            FROM read_parquet('{SF}/orders.parquet') o
            JOIN read_parquet('{SF}/customer.parquet') c ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment"""
    ).df()
    assert list(got.c_mktsegment) == list(exp.c_mktsegment)
    assert (got.revenue == exp.revenue).all()
