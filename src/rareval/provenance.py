"""Seeds, canonical and strict JSON, the record and file readers and writers, Markdown tables and config hashing.

Every randomized operation takes an explicit integer seed. A single run-level
seed fans out to per-module streams via ``derive_seed(seed, label)`` and to
per-replicate streams via ``replicate_rng(seed, i)``, so that replicate i's
stream depends only on (seed, i) and results are independent of scheduling.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import enum
import hashlib
import json
import math
import re
import sys
import types
from collections.abc import Mapping
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints, is_typeddict

from .errors import InputError

_MASK63 = (1 << 63) - 1
MOST_ARRAY_VALUES = sys.maxsize // 8  # the most 8-byte values one numpy array (indexed by intp) can address
SURROGATE = re.compile(r"[\ud800-\udfff]")  # a str holds one from a JSON escape or an argument byte that is not UTF-8


def _entropy(seed: int) -> int:
    """``seed`` as a run seed, which is an integer in [0, 2^63 - 1]: the one seed rule."""
    if not 0 <= int(seed) <= _MASK63:
        raise InputError(f"seed must be an integer in [0, {_MASK63}], got {seed}")
    return int(seed)


def derive_seed(seed: int, label: str) -> int:
    """Derive a module-level substream seed from a run seed and a stable tag; the result is a run seed too.

    The tag is a ``SeedSequence`` spawn key, not XORed in: nested derivations
    do not commute and distinct (seed, label) pairs do not collide.
    """
    import numpy as np  # imported where it runs, so importing the CLI loads no numpy
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=(tag,))
    return int(ss.generate_state(1, np.uint64)[0]) & _MASK63


def replicate_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for one replicate; the stream depends only on (seed, *path)."""
    import numpy as np
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def canonical_json(obj) -> str:
    """Stable, human-readable, strict JSON: sorted keys, fixed layout, trailing newline.

    NaN and infinities raise ``ValueError``: strict parsers reject them, so an
    undefined or unbounded value must be written as null by its owner.
    """
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _finite(text: str) -> float:
    value = float(text)  # a number, or one of the constants NaN, Infinity and -Infinity
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {text}")
    return value


def strict_json(text: str):
    """Parse JSON as strict parsers do: NaN, (-)Infinity, numbers beyond a float and deep nesting raise ValueError."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from None


def unicode_text(text: str, name: str) -> str:
    """``text`` if it holds no surrogate, which no UTF-8 file can hold; else an :class:`InputError` naming ``name``."""
    if SURROGATE.search(text):
        raise InputError(f"{name}: not Unicode text (unpaired surrogate)")
    return text


def show(value) -> str:
    """A JSON value as messages show it: a string quoted as ``repr`` quotes it, any other value as JSON text."""
    return repr(value) if isinstance(value, str) else json.dumps(value)


def read_record(cls, data, kind: str | None = None, derived: tuple[str, ...] = ()):
    """The dataclass ``cls`` built from its JSON form ``data``: the one reader of the records users hand back.

    Each field is read by its annotation. A key must name a field, and a field
    without a default must be present; a document's ``kind`` (checked when
    given) and keys ``derived`` from the fields are no fields. An integer is
    never a boolean or a fraction; a real may be written as an integer and is
    read as a float; an enum is read by its value. Arrays fill tuples and
    lists; objects fill mappings, dataclasses and ``TypedDict`` objects, which
    are open: keys they do not declare pass as they are. Any other value, and
    a failed check of a nested record, is an :class:`InputError` that names
    the field path and shows the value as JSON text.
    """
    if kind is not None and isinstance(data, dict):
        if data.get("kind") != kind:
            raise _error(("kind",), f"expected {show(kind)}, got {show(data['kind'])}" if "kind" in data else "missing")
        data = {key: value for key, value in data.items() if key not in ("kind", *derived)}
    return _read(cls, data, ())


def write_record(record, kind: str | None = None, derived: tuple[str, ...] = ()):
    """The JSON form of ``record``: the mirror of :func:`read_record`, and the one writer of the documents it reads.

    A dataclass is the object of its fields, nested records too; an enum is
    its value; tuples and lists are arrays and mappings are objects. The
    document's ``kind`` and the properties ``derived`` from its fields, which
    the reader drops, are added. Any other value passes unchanged, so a NaN
    still fails :func:`canonical_json`: the writer never turns a value into null.
    """
    if dataclasses.is_dataclass(record):
        names = [f.name for f in dataclasses.fields(record)] + list(derived)
        data = {name: write_record(getattr(record, name)) for name in names}
        return data if kind is None else {"kind": kind, **data}
    if isinstance(record, enum.Enum):
        return record.value
    if isinstance(record, (tuple, list)):
        return [write_record(value) for value in record]
    return {key: write_record(v) for key, v in record.items()} if isinstance(record, Mapping) else record


_SCALARS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean", type(None): "null"}


def _expected(tp) -> str:
    """The JSON values that type ``tp`` admits, in words."""
    origin, args = get_origin(tp) or tp, get_args(tp)
    if isinstance(tp, enum.EnumMeta):
        return "one of " + ", ".join(show(member.value) for member in tp)
    if origin is types.UnionType:
        return " or ".join(map(_expected, args))
    if origin is tuple and args[-1] is not ...:
        return f"an array of {len(args)} items"
    return _SCALARS.get(tp) or ("an array" if origin in (tuple, list) else "an object")


def _error(path: tuple, problem: str) -> InputError:
    """The reader's error: the field path (an array item by its number after the array's path), then the problem."""
    field, item = (path[:-1], f"item {path[-1]}: ") if path and type(path[-1]) is int else (path, "")
    name = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in field)[1:]
    return InputError(f"field {name!r}: {item}{problem}" if path else problem)


def _read(tp, value, path: tuple, expected: str | None = None):
    """``value`` read as ``tp`` by :func:`read_record`'s rule; ``path`` locates it, ``expected`` words a mismatch."""
    origin, args = get_origin(tp) or tp, get_args(tp)
    if origin is types.UnionType:  # X | None
        option = next(arg for arg in args if arg is not type(None))
        return None if value is None else _read(option, value, path, _expected(tp))
    if tp in _SCALARS or isinstance(tp, enum.EnumMeta):
        try:
            if isinstance(tp, enum.EnumMeta):
                return tp(value)
            if isinstance(value, (int, float) if tp is float else tp) and isinstance(value, bool) is (tp is bool):
                return float(value) if tp is float else value
        except (ValueError, OverflowError):  # not a member; an integer beyond the range of a float
            pass
    elif not isinstance(value, (list, tuple) if origin in (tuple, list) else dict):
        pass  # not the JSON type of the container
    elif origin in (tuple, list):
        items = args if origin is tuple and args[-1] is not ... else args[:1] * len(value)
        if len(items) == len(value):
            return origin(_read(t, v, (*path, i)) for i, (t, v) in enumerate(zip(items, value)))
    elif origin in (dict, Mapping):
        return {key: _read(args[1], v, (*path, key)) for key, v in value.items()} if args else value
    else:  # a TypedDict or a dataclass
        hints = get_type_hints(tp)
        if is_typeddict(tp):
            return {key: _read(hints[key], v, (*path, key)) if key in hints else v for key, v in value.items()}
        unknown = [key for key in value if key not in hints]
        missing = [f.name for f in dataclasses.fields(tp) if f.name not in value and f.default is f.default_factory
                   is dataclasses.MISSING]
        if unknown or missing:
            raise _error((*path, (unknown + missing)[0]), f"unknown; the fields are {', '.join(hints)}" if unknown
                         else "missing")
        fields = {key: _read(hints[key], v, (*path, key)) for key, v in value.items()}
        try:
            return tp(**fields)
        except InputError as exc:  # a check of the record's own, under its path
            raise _error(path, str(exc)) from None
    raise _error(path, f"expected {expected or _expected(tp)}, got {show(value)}")


def slot_fields(obj) -> dict:
    """Shallow ``{field: value}`` dump of a slotted dataclass, in field order.

    Values are neither copied nor converted (``dataclasses.asdict`` would
    deep-copy every nested list and dict); JSON writes tuples as arrays.
    Classes whose JSON form is exactly their fields bind it as
    ``to_json_dict = slot_fields``.
    """
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """Lines of a Markdown pipe table; cells are rendered with ``str``."""
    lines = ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return lines


def config_hash(obj) -> str:
    """sha256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


_run_reads: dict | None = None  # in a run: the real path, and (st_dev, st_ino), of each file it read -> the path given


@contextlib.contextmanager
def run_files():
    """One run's scope, in which :func:`write_file` refuses each file given to :func:`read_file`, by path or link."""
    global _run_reads
    _run_reads = {}
    try:
        yield
    finally:
        _run_reads = None


def _real(path: str | Path) -> str:
    import os.path  # loaded with pathlib; its realpath leaves a symbolic link loop as it is, Path.resolve raises
    return os.path.realpath(path)


def _identity(file: str | Path | int) -> tuple[int, int] | None:
    """The (st_dev, st_ino) of a path or an open descriptor, which every hard link to a file shares; None if no file."""
    import os
    with contextlib.suppress(OSError):
        stat = os.fstat(file) if isinstance(file, int) else os.stat(file)
        return stat.st_dev, stat.st_ino


@contextlib.contextmanager
def read_file(path: str | Path, newline: str | None = None):
    """Open user file ``path`` as UTF-8 text, a leading BOM skipped: the one reader of files.

    Only the reading and the parse of the text go inside the block, so a defect in code using what was read exits 4.
    An ``OSError``, ``ValueError`` (a byte that is not UTF-8, JSON :func:`strict_json` refuses) or ``csv.Error``
    raised there is an :class:`InputError`: ``no such file: <path>``, or else ``<path>: <Type>: <message>``.
    """
    try:
        if _run_reads is not None:
            _run_reads[_real(path)] = str(path)
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            if _run_reads is not None:
                _run_reads[_identity(fh.fileno())] = str(path)
            yield fh
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except (OSError, ValueError, csv.Error) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None


def write_file(path: str | Path, content: str | Iterable[str | bytes]) -> str:
    """Write a text, or chunks of text or bytes as they come, to ``path``: the one writer of files.

    Parents are made and text is UTF-8, untranslated; a whole text is encoded before the file is opened. An
    ``OSError``, a surrogate or a file read in :func:`run_files`, by any path or hard link (refused unopened), is an
    :class:`InputError` naming the file; a regular file whose write stopped, for any reason, is removed. Returns the
    sha256 of the bytes written.
    """
    path, digest, opened = Path(path), hashlib.sha256(), False
    if _run_reads and (read := _run_reads.get(_real(path)) or _run_reads.get(_identity(path))) is not None:
        raise InputError(f"{path} would overwrite {read}, which this run reads")
    try:
        chunks = [content.encode("utf-8")] if isinstance(content, str) else content
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            opened = True
            for chunk in chunks:
                digest.update(chunk := chunk if isinstance(chunk, bytes) else chunk.encode("utf-8"))
                fh.write(chunk)
    except BaseException as exc:
        if opened and path.is_file():  # a device or a pipe is not removed
            path.unlink(missing_ok=True)
        if isinstance(exc, (OSError, UnicodeEncodeError)):
            raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None
        raise
    return digest.hexdigest()
