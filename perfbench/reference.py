"""A fixed stand-in for one CLI command, independent of dpgrid.

The benchmark runs it between commands to gauge how fast the machine is
at that moment (see ``run.Runner``).  Like a command, it starts an
interpreter and imports numpy, then computes: fresh random generators
and small Laplace draws as in a Monte-Carlo loop, a pure-Python loop,
and a CSV written and read back.  It prints how long that computation
took, ``compute_s``; its wall time minus ``compute_s`` is start-up and
exit.  It never changes with the program under test.

    python3 perfbench/reference.py    # writes reference.csv in the cwd, then removes it
"""

import csv
import io
import json
import os
import time

import numpy as np


def main() -> None:
    start = time.perf_counter()
    flags = 0
    for i in range(2000):
        draws = np.random.default_rng([i, 7]).laplace(0.0, 4.0, 240)
        flags += int((np.abs(draws) > 6.0).sum())
    total = 0.0
    for i in range(400000):
        total += (i * 0.5) % 7.0
    walks = np.random.default_rng(12345).laplace(0.0, 4.0, size=(2000, 24)).cumsum(axis=1)
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in walks[:1500]:
        writer.writerow([f"{v:.6f}" for v in row[:8]])
    path = os.path.join(os.getcwd(), "reference.csv")
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
    with open(path, newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh))
    os.remove(path)
    print(json.dumps({"rows": rows, "flags": flags, "sum": float(walks.sum()) + total,
                      "compute_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
