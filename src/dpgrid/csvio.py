"""The one CSV writer and the one JSON writer behind every output, each output staged until it is
whole (_staged); stdlib only, loading no numpy."""

from __future__ import annotations

import json
import os
from contextlib import ExitStack, contextmanager
from typing import Iterator

_SPECIAL = frozenset(',"\r\n')


def quote(text: str) -> str:
    """Free text as csv.writer writes it: quoted, '"' doubled, only if it holds , " \\r or \\n."""
    return text if _SPECIAL.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


@contextmanager
def _staged(path):
    """A text file (newline="") staged next to os.path.realpath(path), so a symlink is written
    through, in a new file's mode (0o666 & ~umask): it replaces path once the block succeeds and
    is removed on any error; errors name path.  A directory, device or pipe is opened in place."""
    import tempfile

    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", newline="") as fh:
            yield fh
        return
    try:
        fd, staged = tempfile.mkstemp(dir=os.path.dirname(target))
    except OSError as exc:  # named as open(path, "w") names it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", newline="") as fh:
            os.umask(umask := os.umask(0))
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        os.replace(staged, target)
    except BaseException:
        os.unlink(staged)
        raise


def write_csv(path, header, columns, metadata: dict | None = None) -> None:
    """Write '# key=value' lines ending in '\\n', then header and rows ending in '\\r\\n'.

    columns are iterables of field text (floats by repr, free text through quote), read in lockstep.
    A column may carry adjacent fields already joined by ','.
    """
    with _staged(path) as fh:
        _write_head(fh, header, metadata)
        fh.writelines(csv_lines(columns))


def csv_lines(columns) -> Iterator[str]:
    """write_csv's data lines for columns, each ending in '\\r\\n'."""
    return map("{}\r\n".format, map(",".join, zip(*columns)))


def write_shares(path, header, units: int, lines, most: int, metadata: dict | None = None) -> None:
    """write_csv with the data lines lines(first, last) of the shares of range(units) that
    shares.run cuts, in at most `most` shares, and runs across the CPUs.

    This process writes the metadata, the header and its own share into the staged file.  Each
    forked share writes its lines, as lines() yields them, into an unlinked temporary file in the
    output's directory, opened before the fork; their bytes are then copied in, in share order.
    """
    import shutil
    import tempfile

    from . import shares

    bounds = shares._cut(units, most)[1]
    with _staged(path) as out, ExitStack() as spills:
        _write_head(out, header, metadata)
        out.flush()  # a forked child inherits the buffer too: it must be empty
        spill_of = {first: spills.enter_context(tempfile.TemporaryFile(
            "w+", encoding=out.encoding, newline="", dir=os.path.dirname(os.path.realpath(path))))
            for first in bounds[1:-1]}

        def share(first: int, last: int) -> None:
            fh = spill_of.get(first, out)
            fh.writelines(lines(first, last))
            fh.flush()

        shares.run(units, share, most)
        for spill in spill_of.values():
            spill.seek(0)
            shutil.copyfileobj(spill.buffer, out.buffer)


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
    """Write json_text(payload, metadata); a refused document stages no file."""
    text = json_text(payload, metadata)
    with _staged(path) as fh:
        fh.write(text)
