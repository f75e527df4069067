"""Open-loop segment lander: a separate single-threaded process that moves
pre-generated changelog segments into the log directory on a fixed
schedule, whatever the engine is doing, and records when each was due.

    python3 perfbench/lander.py SRC_DIR DST_DIR START_AT INTERVAL_S LEDGER NAME...

Segment ``k`` of the listed names is due at ``START_AT + k * INTERVAL_S``
(unix seconds) and lands by atomic rename, so the engine never lists a
partial file. The ledger (JSON, written once at exit) holds one
``{"name", "due", "landed"}`` row per segment.
"""

from __future__ import annotations

import json
import os
import sys
import time


def land(src: str, dst: str, start_at: float, interval: float, names: list[str]) -> list[dict]:
    rows = []
    for k, name in enumerate(names):
        due = start_at + k * interval
        wait = due - time.time()
        if wait > 0:
            time.sleep(wait)
        os.rename(os.path.join(src, name), os.path.join(dst, name))
        rows.append({"name": name, "due": due, "landed": time.time()})
    return rows


def main(argv: list[str]) -> None:
    src, dst, start_at, interval, ledger, *names = argv
    rows = land(src, dst, float(start_at), float(interval), names)
    tmp = f"{ledger}.tmp"
    with open(tmp, "w") as f:
        json.dump(rows, f)
    os.replace(tmp, ledger)


if __name__ == "__main__":
    main(sys.argv[1:])
