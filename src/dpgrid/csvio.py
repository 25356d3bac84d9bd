"""The one CSV writer and the one JSON writer behind every output; stdlib only, loading no numpy."""

from __future__ import annotations

import json
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
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(map(quote, header)) + "\r\n")
        fh.writelines(lines)


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
