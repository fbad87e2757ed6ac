"""Dictionary and query-file serialization.

Two dictionary formats:
  CSV   one row per grid point, decoded values at 6 decimals, for plotting.
  JSON  grid indices plus full-precision values and run metadata; the
        lossless format the evaluate/predict commands consume.

Entries are written in lexicographic gene order, so exports from equal runs
are byte-identical.
"""

from __future__ import annotations

import csv
import gc
import itertools
import json
import math
from dataclasses import MISSING, fields
from functools import cache
from operator import itemgetter
from types import GenericAlias
from typing import Any, get_type_hints

import numpy as np

from .ga import PowerDictionary
from .grid import Chromosome, ParameterRange, SearchSpace

SCHEMA_VERSION = 1

_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number"}
# The JSON types each kind accepts: an integer is also a float, a boolean is
# neither, and nothing else converts.
_ACCEPTS = {dict: {dict}, list: {list}, str: {str}, int: {int}, float: {float, int}}
_ECHO = 80  # characters of an input value that an error echoes


class FormatError(ValueError):
    """A JSON input (a run config or a dictionary export) or a query CSV does
    not match its schema; the message names the field path or line."""


def read_json(path) -> Any:
    """The JSON value in the UTF-8 file at path. Invalid JSON, bytes that are
    not UTF-8, an integer literal too long for Python to convert and nesting
    too deep to decode are each a FormatError naming the path.

    The cyclic garbage collector is paused while the text decodes: the
    objects json allocates hold no cycles, yet they set off collections
    that scan every one of them.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        enabled = gc.isenabled()
        gc.disable()
        try:
            return json.loads(text)
        finally:
            if enabled:
                gc.enable()
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    except ValueError as exc:  # bytes not UTF-8, or an integer over Python's digit limit
        raise FormatError(f"{path}: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply to decode") from None


def _accepted(values: list, kind) -> bool:
    """Whether every value is of kind: one pass over the set of their types
    (and of their items' types, for tuple[X, ...]: JSON lists of X)."""
    if type(kind) is GenericAlias:
        return set(map(type, values)) <= {list} and set(
            map(type, itertools.chain.from_iterable(values))
        ) <= _ACCEPTS[kind.__args__[0]]
    return set(map(type, values)) <= _ACCEPTS[kind]


def _cut(text: str) -> str:
    """text as an error echoes it: at most _ECHO characters, then its length."""
    return text if len(text) <= _ECHO else f"{text[:_ECHO]}... ({len(text)} characters)"


def expect(value: Any, where: str, kind) -> Any:
    """value, the JSON value at where, as kind: a JSON type, or tuple[X, ...]
    for a list of X.

    Nothing is cast: an integer is also accepted as a float (and becomes
    one), a boolean is neither, and a string is never a number. A value of
    another kind is echoed in the error, cut to _ECHO characters.
    """
    if not _accepted([value], kind):
        expected = (
            f"a list with each item {_KINDS[kind.__args__[0]]}"
            if type(kind) is GenericAlias else _KINDS[kind]
        )
        raise FormatError(f"{where}: expected {expected}, got {_cut(json.dumps(value))}")
    try:
        if type(kind) is GenericAlias:
            return tuple(map(kind.__args__[0], value))
        return float(value) if kind is float else value
    except OverflowError:
        raise FormatError(f"{where}: an integer too large for a float") from None


def field(data: dict, path: str, key: str, kind, default: Any = MISSING) -> Any:
    """expect(data[key], ...) at path.key, or default when the key is absent
    (required when there is no default)."""
    where = f"{path}.{key}" if path else key
    if key not in data:
        if default is MISSING:
            raise FormatError(f"{where}: required field is missing")
        return default
    return expect(data[key], where, kind)


@cache
def _hints(cls) -> dict[str, Any]:
    """get_type_hints(cls), evaluated once per class: it compiles each string
    annotation again on every call."""
    return get_type_hints(cls)


def read(cls, data: Any, path: str, **given):
    """An instance of the dataclass cls from the JSON object at path.

    Each field not given is the key of its name, checked against the
    field's type hint; an absent key takes the field's own default. The
    class's own checks name the path.
    """
    expect(data, path, dict)
    hints = _hints(cls)
    values = {
        f.name: field(data, path, f.name, hints[f.name], f.default)
        for f in fields(cls)
        if f.name not in given
    }
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def space_to_dict(space: SearchSpace) -> dict[str, Any]:
    def one(r: ParameterRange) -> dict[str, float]:
        return {"lower": r.lower, "upper": r.upper, "step": r.step}

    return {
        "coefficients": [one(r) for r in space.coefficient_ranges],
        "sample_size": one(space.sample_size_range),
    }


def space_from_dict(data: dict[str, Any]) -> SearchSpace:
    path = "search_space"
    coefficients = field(data, path, "coefficients", list)
    return read(
        SearchSpace,
        data,
        path,
        coefficient_ranges=tuple(
            read(ParameterRange, r, f"{path}.coefficients[{j}]") for j, r in enumerate(coefficients)
        ),
        sample_size_range=read(ParameterRange, field(data, path, "sample_size", dict), f"{path}.sample_size"),
    )


def dictionary_csv_header(space: SearchSpace) -> list[str]:
    return [f"theta_{j + 1}" for j in range(space.n_coefficients)] + ["n", "power"]


def _write_csv(path, header: list[str], rows, lasts) -> None:
    """A header row, then each row's numbers and its one last value, all at
    six decimals: the bytes csv.writer writes for them, formatted from one
    row template repeated over the table and written in one call."""
    table = np.column_stack([np.reshape(rows, (len(lasts), len(header) - 1)), lasts])
    template = ",".join(["%.6f"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + (template * len(table)) % tuple(table.ravel().tolist()))


def export_dictionary_csv(path, dictionary: PowerDictionary, space: SearchSpace) -> None:
    genes, powers = dictionary.arrays()
    _write_csv(path, dictionary_csv_header(space), space.decode_many(genes), powers)


def _entry_template(dimension: int) -> str:
    """One entry as json.dump(..., indent=1) lays it out in "entries": %d
    for each gene, and %r for each value and the power, since json's C
    encoder writes a float as float.__repr__ does."""

    def listed(name: str, spec: str) -> str:
        return f'   "{name}": [\n' + ",\n".join([f"    {spec}"] * dimension) + "\n   ],\n"

    return "  {\n" + listed("genes", "%d") + listed("values", "%r") + '   "power": %r\n  }'


def export_dictionary_json(
    path,
    dictionary: PowerDictionary,
    space: SearchSpace,
    metadata: dict[str, Any],
) -> None:
    """Writes the bytes of json.dump(payload, fh, indent=1) and a newline.

    An indent sends json to its pure-Python encoder, several times slower
    than the C one, so only the head goes through json. Each entry fills a
    fixed template with its gene integers and the Python floats of its
    values (from decode_many) and power, and is streamed to the file.
    """
    genes, powers = dictionary.arrays()
    head = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "search_space": space_to_dict(space),
            "metadata": metadata,
            "entries": [],
        },
        indent=1,
    )
    template = _entry_template(space.dimension)
    rows = zip(genes.tolist(), space.decode_many(genes).tolist(), powers.tolist())
    entries = (template % (*chromosome_genes, *values, power) for chromosome_genes, values, power in rows)
    first = next(entries, None)
    with open(path, "w") as fh:
        if first is None:
            fh.write(head + "\n")
            return
        fh.write(head[: -len("[]\n}")] + "[\n" + first)  # head ends in '"entries": []\n}'
        fh.writelines(",\n" + entry for entry in entries)
        fh.write("\n ]\n}\n")


def load_dictionary_arrays(path) -> tuple[SearchSpace, np.ndarray, np.ndarray, dict[str, Any]]:
    """Search space, genes, powers and metadata from a JSON export: genes an
    (m, d) integer array and powers an (m,) array, their rows in gene order
    whatever the order of the entries.

    The columns genes, power and values are read in that order, each in
    full (_column). Then every entry must name a grid point of the export's
    own search space, its values must be that point's decoded coordinates,
    its power must lie in [0, 1], and no two entries may name the same
    point. The error names the first entry at fault, in that order of
    columns and rules.
    """
    payload = read_json(path)
    try:
        expect(payload, "top level", dict)
        version = field(payload, "", "schema_version", int)
        if version != SCHEMA_VERSION:
            raise FormatError(f"schema_version: unsupported {version}, expected {SCHEMA_VERSION}")
        space = space_from_dict(field(payload, "", "search_space", dict))
        entries = field(payload, "", "entries", list)
        # As floats, so that a gene too large for an integer array is
        # reported as off the grid.
        grid = _column(entries, "genes", tuple[int, ...], space.dimension)
        powers = _column(entries, "power", float)
        coordinates = _column(entries, "values", tuple[float, ...], space.dimension)
        counts = space.grid_counts
        off_grid = np.any((grid < 0) | (grid >= counts), axis=1)
        if off_grid.any():
            first = int(np.argmax(off_grid))
            raise FormatError(
                f"entries[{first}]: genes {entries[first]['genes']} are off the "
                f"{' x '.join(map(str, counts))} grid"
            )
        decoded = space.decode_many(grid)
        # Not-within rather than beyond, so that a NaN value fails too.
        steps = np.array([r.step for r in space.ranges])
        misplaced = ~np.all(np.abs(coordinates - decoded) <= 1e-9 * steps, axis=1)
        if misplaced.any():
            first = int(np.argmax(misplaced))
            raise FormatError(
                f"entries[{first}]: values {coordinates[first].tolist()} are not "
                f"the decoded genes {decoded[first].tolist()}"
            )
        genes = grid.astype(np.intp)
        # A stable sort keeps the entries of one point in file order: each
        # after the first repeats it. lexsort, not a flat grid index, which
        # overflows on grids of more than 2**63 points.
        order = np.lexsort(genes.T[::-1])
        ordered = genes[order]
        repeated = np.zeros(len(genes), dtype=bool)
        repeated[order[1:][np.all(ordered[1:] == ordered[:-1], axis=1)]] = True
        outside = ~((powers >= 0.0) & (powers <= 1.0))  # NaN too
        if (repeated | outside).any():
            first = int(np.argmax(repeated | outside))
            raise FormatError(
                f"entries[{first}]: duplicate insert for {tuple(genes[first].tolist())}"
                if repeated[first]
                else f"entries[{first}]: power {float(powers[first])} outside [0, 1]"
            )
        return space, ordered, powers[order], field(payload, "", "metadata", dict, {})
    except ValueError as exc:  # a FormatError, or any check of the space
        raise FormatError(f"{path}: {exc}") from None


def load_dictionary_json(path) -> tuple[PowerDictionary, SearchSpace, dict[str, Any]]:
    """load_dictionary_arrays's entries as a PowerDictionary, with the search
    space and metadata."""
    space, genes, powers, metadata = load_dictionary_arrays(path)
    dictionary = PowerDictionary()
    for chromosome_genes, power in zip(genes.tolist(), powers.tolist()):
        dictionary.insert(Chromosome(tuple(chromosome_genes)), power)
    return dictionary, space, metadata


def _column(entries: list, key: str, kind, width: int = 0) -> np.ndarray:
    """Every entry's key, of kind, as floats: an (m,) array, or with a width,
    lists of width items each as an (m, width) array. One bulk pass checks
    the column; if it fails, a walk names the first entry at fault: not an
    object, key missing, not of kind, not width items, or an integer too
    large for a float."""
    try:
        column = list(map(itemgetter(key), entries))
        if _accepted(column, kind) and (not width or set(map(len, column)) <= {width}):
            flat = itertools.chain.from_iterable(column) if width else column
            array = np.fromiter(flat, dtype=float, count=len(column) * max(width, 1))
            return array.reshape(-1, width) if width else array
    except (KeyError, TypeError, OverflowError):  # checked entry by entry below
        pass
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        value = field(expect(entry, where, dict), where, key, kind)
        if width and len(value) != width:
            raise FormatError(f"{where}: expected {width} genes and values")
        expect(entry[key], f"{where}.{key}", tuple[float, ...] if width else float)
    raise AssertionError(f"entries.{key}: the bulk pass failed on entries that each pass")


def _query_point(path, line_no: int, row: list[str], width: int) -> tuple[float, ...]:
    """The first width values of the CSV row at line_no, checked."""
    if len(row) < width:
        raise FormatError(f"{path}: line {line_no}: expected {width} values, got {len(row)}")
    try:
        point = tuple(float(v) for v in row[:width])
    except ValueError as exc:
        raise FormatError(f"{path}: line {line_no}: {_cut(str(exc))}") from None
    if not all(math.isfinite(v) for v in point):
        raise FormatError(f"{path}: line {line_no}: values must be finite, got {point}")
    return point


def load_queries_csv(path, space: SearchSpace) -> tuple[list[str], list[tuple[float, ...]]]:
    """Query points from a UTF-8 CSV (a leading BOM, as spreadsheets write,
    is skipped) with the dictionary's coordinate columns.

    Returns (header, points). Malformed rows, non-finite values among them,
    are reported with their line number (header is line 1).
    """
    expected = dictionary_csv_header(space)[:-1]  # no power column
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty file, expected header {expected}") from None
            if [h.strip() for h in header[: len(expected)]] != expected:
                raise FormatError(
                    f"{path}: header {_cut(str(header))} does not start with expected columns {expected}"
                )
            rows, failure = [], None
            try:
                for row in reader:
                    rows.append(row)
            except (UnicodeDecodeError, csv.Error) as exc:  # raised after any bad row before it
                failure = exc
            width = len(expected)
            try:
                points = [tuple(map(float, row[:width])) for row in rows if row]
                valid = set(map(len, points)) <= {width} and all(
                    map(math.isfinite, itertools.chain.from_iterable(points))
                )
            except ValueError:
                valid = False
            if not valid:
                # Row by row, so that the first bad line names itself.
                points = [_query_point(path, i, row, width) for i, row in enumerate(rows, start=2) if row]
            if failure is not None:
                raise failure
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    return header, points


def write_predictions_csv(
    path,
    space: SearchSpace,
    points: list[tuple[float, ...]],
    predictions: list[float],
) -> None:
    """Echo the query points (input row order preserved) with a
    predicted_power column appended."""
    _write_csv(path, dictionary_csv_header(space)[:-1] + ["predicted_power"], points, predictions)
