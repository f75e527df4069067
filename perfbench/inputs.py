"""Seeded benchmark inputs, built in a separate single-threaded process and
cached by a key of (kind, parameters, seed, generator source).

Every input is a directory of changelog segment files in the engine's
naming (``segment-<min_lsn>-<max_lsn>.parquet``); the engine never sees the
generator, only these files. Run as a module to build one input::

    python3 -m perfbench.inputs KIND '<params json>' OUT_DIR
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np

#: catch-up backlog: 24 segments -> 6 epochs of 4, so every partition
#: writes 4 deltas and compacts once (compact_every=4)
BACKLOG = {
    "events": 600_000,
    "segment_rows": 25_000,
    "conversations": 20_000,
    "max_turns": 16,
    "hot_key_frac": 0.05,
    "delete_frac": 0.05,
    "text_pad": 200,
}

#: serve table: 32 segments -> 8 epochs, leaving every partition with a
#: base file plus a stack of 3 deltas under the default compaction;
#: ~700k possible keys, of which ~560k end live
SERVE = {
    "events": 1_300_000,
    "segment_rows": 40_625,
    "conversations": 43_750,
    "max_turns": 16,
    "hot_key_frac": 0.0,
    "delete_frac": 0.05,
    "text_pad": 32,
}

#: trickle: small segments over a sliding window of active conversations
TRICKLE = {
    "segment_rows": 2_500,
    "active_conversations": 40,
    "window_step": 8,
    "patch_frac": 0.02,
    "delete_frac": 0.05,
    "text_pad": 200,
}

#: one small segment that set-up applies to a fresh table
BOOT = {
    "events": 5_000,
    "segment_rows": 5_000,
    "conversations": 200,
    "max_turns": 16,
    "hot_key_frac": 0.0,
    "delete_frac": 0.05,
    "text_pad": 200,
}

#: column added by the trickle log partway through (nullable, no backfill)
ADDED_COLUMN = "lang"

_HERE = os.path.dirname(os.path.abspath(__file__))


def scaled(params: dict, scale: float) -> dict:
    """``params`` with event counts multiplied by ``scale`` (segment count
    kept, so epoch and compaction structure do not change with scale)."""
    out = dict(params)
    for k in ("events", "segment_rows"):
        if k in out:
            out[k] = max(200, int(out[k] * scale))
    if "conversations" in out:
        out["conversations"] = max(40, int(out["conversations"] * scale))
    return out


def _seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _chunks(p: dict, seed: int):
    """Backlog-shaped log as one table per segment (bounded memory)."""
    from etl_framework_ray.sources.generator import GenConfig, generate_changelog

    n_seg = p["events"] // p["segment_rows"]
    for i in range(n_seg):
        yield generate_changelog(
            GenConfig(
                num_events=p["segment_rows"],
                num_conversations=p["conversations"],
                max_turns=p["max_turns"],
                seed=_seed(seed, i),
                delete_frac=p["delete_frac"],
                hot_key_frac=p["hot_key_frac"],
                out_of_order=True,
                text_pad=p["text_pad"],
                lsn_start=1 + i * p["segment_rows"],
            )
        )


def _trickle_segments(p: dict, seed: int, n_segments: int, evolve_at: int, lsn_start: int):
    """Trickle segment ``i`` covers conversations ``[i*step, i*step+active)``
    (the generator's ids remapped), ~2% of its updates are partial images,
    and from segment ``evolve_at`` on it carries the nullable ``lang``
    column."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_framework_ray.sources.generator import GenConfig, generate_changelog

    langs = np.array(["en", "de", "fr", "ja"], dtype=object)
    for i in range(n_segments):
        t = generate_changelog(
            GenConfig(
                num_events=p["segment_rows"],
                num_conversations=p["active_conversations"],
                seed=_seed(seed, 10_000 + i),
                delete_frac=p["delete_frac"],
                out_of_order=True,
                text_pad=p["text_pad"],
                lsn_start=lsn_start + i * p["segment_rows"],
                patch_frac=p["patch_frac"],
            )
        )
        local = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5), pa.int64())
        conv = np.asarray(local) + i * p["window_step"]
        conv_id = np.char.add("conv-", np.char.zfill(conv.astype("U8"), 6)).astype(object)
        t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", pa.array(conv_id, pa.string()))
        if i >= evolve_at:
            lsn = t.column("lsn").to_numpy()
            op = t.column("op").to_numpy(zero_copy_only=False)
            lang = np.where(np.isin(op, ["D", "P"]) | (lsn % 5 == 0), None, langs[lsn % 4])
            t = t.append_column(pa.field(ADDED_COLUMN, pa.string()), pa.array(lang, pa.string()))
        yield t


def build(kind: str, p: dict, out_dir: str) -> None:
    """Write input ``kind`` into ``out_dir`` (this process, one thread)."""
    import pyarrow as pa

    from etl_framework_ray.sources.changelog import ChangeLog

    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    log = ChangeLog(out_dir)
    if kind in ("backlog", "serve", "boot"):
        tables = _chunks(p, p["seed"])
    elif kind == "trickle":
        tables = _trickle_segments(
            p, p["seed"], p["n_segments"], p["evolve_at"], p["lsn_start"]
        )
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    for t in tables:
        log.write_segments(t, t.num_rows)


def _source_digest() -> str:
    """Inputs change when the generator changes: key the cache on its source."""
    import etl_framework_ray.sources.generator as gen

    h = hashlib.sha256()
    for path in (gen.__file__, os.path.join(_HERE, "inputs.py")):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cached(root: str, cache_dir: str, kind: str, params: dict) -> str:
    """Directory holding input ``kind`` for ``params`` (which include the
    seed), building it in a child process on a miss. A finished input is
    renamed into place, so an interrupted build never looks complete."""
    key = hashlib.sha256(
        json.dumps([kind, params, _source_digest()], sort_keys=True).encode()
    ).hexdigest()[:20]
    final = os.path.join(cache_dir, f"{kind}-{key}")
    if os.path.isdir(final):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=root, OMP_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-m", "perfbench.inputs", kind, json.dumps(params), tmp],
        cwd=root,
        env=env,
        check=True,
    )
    os.makedirs(cache_dir, exist_ok=True)
    try:
        os.rename(tmp, final)
    except OSError:  # another run finished the same input first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


if __name__ == "__main__":
    build(sys.argv[1], json.loads(sys.argv[2]), sys.argv[3])
