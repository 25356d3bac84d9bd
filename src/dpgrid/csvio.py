"""The one CSV writer behind every output file; stdlib only, so writing loads no numpy."""

from __future__ import annotations

import csv


def write_csv(path, header, rows, metadata: dict | None = None) -> None:
    """Write '# key=value' metadata lines, a header, then rows.

    csv.writer writes floats by repr, so they read back bit-exactly.
    """
    with open(path, "w", newline="") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
