"""The one CSV writer and the one JSON writer behind every output; stdlib only, loading no numpy."""

from __future__ import annotations

import json
import os
from typing import Iterator

_SPECIAL = frozenset(',"\r\n')


def quote(text: str) -> str:
    """Free text as csv.writer writes it: quoted, '"' doubled, only if it holds , " \\r or \\n."""
    return text if _SPECIAL.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def write_csv(path, header, columns, metadata: dict | None = None) -> None:
    """Write '# key=value' lines ending in '\\n', then header and rows ending in '\\r\\n'.

    columns are iterables of field text (floats by repr, free text through quote), read in lockstep.
    A column may carry adjacent fields already joined by ','.
    """
    write_lines(path, header, csv_lines(columns), metadata)


def csv_lines(columns) -> Iterator[str]:
    """write_csv's data lines for columns, each ending in '\\r\\n'."""
    return map("{}\r\n".format, map(",".join, zip(*columns)))


def write_lines(path, header, lines, metadata: dict | None = None) -> None:
    """write_csv with its data lines given as texts of whole lines, such as csv_lines' joined."""
    with open(path, "w", newline="") as fh:
        _write_head(fh, header, metadata)
        fh.writelines(lines)


def write_shares(path, header, units: int, lines, most: int, metadata: dict | None = None) -> None:
    """write_lines with the data lines lines(first, last) of the shares of range(units) that
    shares.run cuts, in at most `most` shares, and runs across the CPUs.

    This process writes the metadata and header, then its own share, straight into the file.  Each
    forked share writes its lines into its own unlinked temporary file in the output's directory,
    opened before the fork; when every share is done, their bytes are copied into the file in
    share order.  No process holds its share's text: each writes lines as lines() yields them.
    If any share fails, the file is removed and the lowest failing share's error raised.
    """
    import shutil
    import tempfile

    from . import shares

    bounds = shares._cut(units, most)[1]
    spills = []
    with open(path, "w", newline="") as out:
        try:
            _write_head(out, header, metadata)
            out.flush()  # a forked child inherits the buffer too: it must be empty
            for _ in bounds[2:]:
                spills.append(tempfile.TemporaryFile(
                    "w+", encoding=out.encoding, newline="",
                    dir=os.path.dirname(os.path.abspath(path))))
            spill_of = dict(zip(bounds[1:], spills))

            def share(first: int, last: int) -> None:
                fh = spill_of.get(first, out)
                fh.writelines(lines(first, last))
                fh.flush()

            shares.run(units, share, most)
            for spill in spills:
                spill.seek(0)
                shutil.copyfileobj(spill.buffer, out.buffer)
        except BaseException:
            os.unlink(path)
            raise
        finally:
            for spill in spills:
                spill.close()


def _write_head(fh, header, metadata: dict | None) -> None:
    """The '# key=value' metadata lines, then the header line."""
    for key, value in (metadata or {}).items():
        fh.write(f"# {key}={value}\n")
    fh.write(",".join(map(quote, header)) + "\r\n")


def json_text(payload: dict, metadata: dict | None = None) -> str:
    """payload as strict JSON (RFC 8259: a NaN or an infinity raises ValueError), indented by 2
    and ending in one newline; metadata, when given, nests under "metadata"."""
    if metadata:
        payload = {**payload, "metadata": dict(metadata)}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_json(path, payload: dict, metadata: dict | None = None) -> None:
    """Write json_text(payload, metadata); a refused document opens no file."""
    text = json_text(payload, metadata)
    with open(path, "w") as fh:
        fh.write(text)
