"""Exception types shared across the pipeline, and the one reader of the
JSON files it takes as input."""

import json
import re
from pathlib import Path


class T2SError(Exception):
    """Base class for all errors raised by this package."""


class IngestError(T2SError):
    """A database file could not be read or introspected."""


class SelectionError(T2SError):
    """A column selection references a table/column missing from the catalog."""


class EmbeddingError(T2SError):
    """An embedding provider call failed; callers may retry."""


class IndexBuildError(T2SError):
    """Value-index construction aborted; message carries partial progress."""


class GatewayError(T2SError):
    """LLM gateway failure after retries, or a missing scripted reply."""


class SqlSyntaxError(T2SError):
    """SQL text could not be parsed.

    Attributes:
        position: character offset of the offending token, or -1.
    """

    def __init__(self, message, position=-1):
        super().__init__(message)
        self.position = position


class CotParseError(T2SError):
    """A structured completion was missing its required #SQL section."""

    def __init__(self, message, raw_reply=""):
        super().__init__(message)
        self.raw_reply = raw_reply


class GenerationError(T2SError):
    """No candidate in a generation batch could be parsed."""


class VoteError(T2SError):
    """Vote called on an empty candidate pool."""


class BenchError(T2SError):
    """Dataset or report handling failure; message names the record."""


# Only a line holding a surrogate escape can decode to a lone surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _parse(text: str, error: type[T2SError], where: str):
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            # A lone surrogate decodes, but no encoder takes the string.
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:  # a UnicodeError is a ValueError
        raise error(f"cannot parse {where}: {exc}") from exc
    return value


def _read_text(path: str | Path, error: type[T2SError], what: str) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"cannot parse {what} {path} at line {line}: not UTF-8 ({exc})") from exc


def read_json(path: str | Path, error: type[T2SError], what: str):
    """The JSON value in the file at `path`; `error`, naming `what` the file
    is, for bytes that are not UTF-8, bad JSON, JSON nested deeper than the
    parser recurses or a lone surrogate escape."""
    return _parse(_read_text(path, error, what), error, f"{what} {path}")


def read_json_lines(
    path: str | Path, error: type[T2SError], what: str, header: tuple | None = None
) -> list[tuple[int, object]]:
    """(line number, JSON value) of each non-blank line, refused as by `read_json`.

    With `header=(format, version, command)` the first value must be an
    object of that format and version; it is checked before the rest are
    parsed, and `command` is what rebuilds a file of another version.
    """
    text = _read_text(path, error, what)
    values = ((lineno, _parse(line, error, f"{what} {path} at line {lineno}"))
              for lineno, line in enumerate(text.split("\n"), start=1) if line.strip())
    if header is None:
        return list(values)
    name, version, command = header
    first = next(values, (0, None))
    found = first[1] if isinstance(first[1], dict) else {}
    if found.get("format") != name:
        raise error(f"not a {what} file: {path}")
    if found.get("version") != version:
        raise error(f"unsupported {what} version {found.get('version')!r} in {path}; "
                    f"re-run `{command}` to rebuild it")
    return [first, *values]
