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
import json
import math
from typing import Any

from .ga import PowerDictionary
from .grid import Chromosome, ParameterRange, SearchSpace

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """A file does not match the expected schema."""


def space_to_dict(space: SearchSpace) -> dict[str, Any]:
    def one(r: ParameterRange) -> dict[str, float]:
        return {"lower": r.lower, "upper": r.upper, "step": r.step}

    return {
        "coefficients": [one(r) for r in space.coefficient_ranges],
        "sample_size": one(space.sample_size_range),
    }


def space_from_dict(data: dict[str, Any]) -> SearchSpace:
    try:
        coeffs = tuple(
            ParameterRange(float(r["lower"]), float(r["upper"]), float(r["step"]))
            for r in data["coefficients"]
        )
        sample = data["sample_size"]
        sample_range = ParameterRange(
            float(sample["lower"]), float(sample["upper"]), float(sample["step"])
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed search_space section: {exc}") from None
    return SearchSpace(coefficient_ranges=coeffs, sample_size_range=sample_range)


def dictionary_csv_header(space: SearchSpace) -> list[str]:
    return [f"theta_{j + 1}" for j in range(space.n_coefficients)] + ["n", "power"]


def export_dictionary_csv(path, dictionary: PowerDictionary, space: SearchSpace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dictionary_csv_header(space))
        for chromosome, power in dictionary.sorted_items():
            values = space.decode(chromosome)
            writer.writerow([f"{v:.6f}" for v in values] + [f"{power:.6f}"])


def export_dictionary_json(
    path,
    dictionary: PowerDictionary,
    space: SearchSpace,
    metadata: dict[str, Any],
) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "search_space": space_to_dict(space),
        "metadata": metadata,
        "entries": [
            {
                "genes": list(chromosome.genes),
                "values": [float(v) for v in space.decode(chromosome)],
                "power": power,
            }
            for chromosome, power in dictionary.sorted_items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_dictionary_json(path) -> tuple[PowerDictionary, SearchSpace, dict[str, Any]]:
    """Dictionary, search space and metadata from a JSON export.

    Every entry must name a grid point of the export's own search space.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(
            f"unsupported schema_version {payload.get('schema_version')!r} in {path}"
        )
    for key, kind in (("search_space", dict), ("entries", list)):
        if not isinstance(payload.get(key), kind):
            raise FormatError(f"{path}: missing or malformed {key!r} section")
    space = space_from_dict(payload["search_space"])
    counts = space.grid_counts
    dictionary = PowerDictionary()
    for number, entry in enumerate(payload["entries"], start=1):
        try:
            genes = tuple(int(g) for g in entry["genes"])
            power = float(entry["power"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: entry {number} is malformed: {exc!r}") from None
        if len(genes) != len(counts) or not all(0 <= g < c for g, c in zip(genes, counts)):
            raise FormatError(
                f"{path}: entry {number} has genes {list(genes)}, "
                f"off the {' x '.join(map(str, counts))} grid"
            )
        try:
            dictionary.insert(Chromosome(genes), power)
        except ValueError as exc:
            raise FormatError(f"{path}: entry {number}: {exc}") from None
    return dictionary, space, payload.get("metadata", {})


def load_queries_csv(path, space: SearchSpace) -> tuple[list[str], list[tuple[float, ...]]]:
    """Query points from a CSV with the dictionary's coordinate columns.

    Returns (header, points). Malformed rows, non-finite values among them,
    are reported with their line number (header is line 1).
    """
    expected = dictionary_csv_header(space)[:-1]  # no power column
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected header {expected}") from None
        if [h.strip() for h in header[: len(expected)]] != expected:
            raise FormatError(
                f"{path}: header {header} does not start with expected columns {expected}"
            )
        points: list[tuple[float, ...]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(expected):
                raise FormatError(
                    f"{path}: line {line_no}: expected {len(expected)} values, got {len(row)}"
                )
            try:
                point = tuple(float(v) for v in row[: len(expected)])
            except ValueError as exc:
                raise FormatError(f"{path}: line {line_no}: {exc}") from None
            if not all(math.isfinite(v) for v in point):
                raise FormatError(f"{path}: line {line_no}: values must be finite, got {point}")
            points.append(point)
    return header, points


def write_predictions_csv(
    path,
    space: SearchSpace,
    points: list[tuple[float, ...]],
    predictions: list[float],
) -> None:
    """Echo the query points (input row order preserved) with a
    predicted_power column appended."""
    header = dictionary_csv_header(space)[:-1] + ["predicted_power"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point, pred in zip(points, predictions):
            writer.writerow([f"{v:.6f}" for v in point] + [f"{pred:.6f}"])
