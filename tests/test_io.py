import contextlib
import csv
import gc
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import powermap.io as io_mod
from powermap import Chromosome, ParameterRange, PowerDictionary, SearchSpace
from powermap.cli import main
from powermap.config import load_run_config
from powermap.io import (
    FormatError,
    export_dictionary_csv,
    export_dictionary_json,
    load_dictionary_arrays,
    load_dictionary_json,
    load_queries_csv,
    space_from_dict,
    space_to_dict,
    write_predictions_csv,
)


def sample_space():
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.10, 0.30, 0.05),
            ParameterRange(0.30, 0.90, 0.05),
        ),
        sample_size_range=ParameterRange(50, 200, 5),
    )


def sample_dictionary():
    d = PowerDictionary()
    d.insert(Chromosome((2, 5, 10)), 0.125)
    d.insert(Chromosome((0, 0, 0)), 0.05)
    d.insert(Chromosome((4, 12, 30)), 1.0)
    return d


class TestSpaceSerialization:
    def test_roundtrip(self):
        space = sample_space()
        assert space_from_dict(space_to_dict(space)) == space

    def test_malformed(self):
        with pytest.raises(FormatError):
            space_from_dict({"coefficients": [{"lower": 0.1}]})

    def test_integer_too_large_for_a_float_names_the_field(self):
        data = space_to_dict(sample_space())
        data["sample_size"]["upper"] = 10**400
        with pytest.raises(FormatError, match=re.escape("sample_size.upper: an integer too large for a float")):
            space_from_dict(data)


class TestJsonDictionary:
    def test_lossless_roundtrip(self, tmp_path):
        space = sample_space()
        d = sample_dictionary()
        path = tmp_path / "dict.json"
        export_dictionary_json(path, d, space, {"note": "test"})
        loaded, loaded_space, metadata = load_dictionary_json(path)
        assert loaded_space == space
        assert metadata == {"note": "test"}
        assert dict(loaded.items()) == dict(d.items())  # exact genes and powers

    def test_entries_sorted_by_genes(self, tmp_path):
        path = tmp_path / "dict.json"
        export_dictionary_json(path, sample_dictionary(), sample_space(), {})
        payload = json.loads(path.read_text())
        genes = [tuple(e["genes"]) for e in payload["entries"]]
        assert genes == sorted(genes)
        assert payload["schema_version"] == 1

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "dict.json"
        export_dictionary_json(path, sample_dictionary(), sample_space(), {})
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="schema_version"):
            load_dictionary_json(path)


    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"genes": [1.9, 5, 10]}, "entries[1].genes: expected a list with each item an integer"),
            ({"genes": [True, 5, 10]}, "entries[1].genes: expected a list with each item an integer"),
            ({"power": "0.5"}, "entries[1].power: expected a number"),
            ({"values": [0.2, 0.6, 100.0]}, "entries[1]: values [0.2, 0.6, 100.0] are not"),
            ({"values": [0.2, 0.55, float("nan")]}, "entries[1]: values"),
            ({"values": [0.2, 0.55]}, "entries[1]: expected 3 genes and values"),
            ({"values": [True, 0.55, 100.0]}, "entries[1].values: expected a list with each item a number"),
            ({"power": 1.5}, "entries[1]: power 1.5 outside [0, 1]"),
            ({"power": float("nan")}, "entries[1]: power nan outside [0, 1]"),
            # the later of two entries for a point is named, whichever sorts first
            ({"genes": [0, 0, 0], "values": [0.1, 0.3, 50.0]}, "entries[1]: duplicate insert for (0, 0, 0)"),
            ({"genes": [4, 12, 30], "values": [0.3, 0.9, 200.0]}, "entries[2]: duplicate insert for (4, 12, 30)"),
            ({"genes": [0, 0, 0], "values": [0.1, 0.3, 50.0], "power": 1.5}, "entries[1]: duplicate insert"),
            # JSON integers too large for a float
            ({"genes": [2, 10**400, 10]}, "entries[1].genes: an integer too large for a float"),
            ({"genes": [2, -(10**400), 10]}, "entries[1].genes: an integer too large for a float"),
            ({"power": 10**400}, "entries[1].power: an integer too large for a float"),
            ({"values": [0.2, 0.55, 10**400]}, "entries[1].values: an integer too large for a float"),
            # an entry's own faults: not an object, a key missing, a width or kind off
            (5, "entries[1]: expected an object, got 5"),
            ({"power": None}, "entries[1].power: required field is missing"),
            ({"genes": None}, "entries[1].genes: required field is missing"),
            ({"genes": [2, 5]}, "entries[1]: expected 3 genes and values"),
            ({"values": [0.2, 0.55, 100.0, 1.0]}, "entries[1]: expected 3 genes and values"),
            ({"genes": [-1, 5, 10]}, "entries[1]: genes [-1, 5, 10] are off the 5 x 13 x 31 grid"),
            ({"genes": "2,5,10"}, 'entries[1].genes: expected a list with each item an integer, got "2,5,10"'),
        ],
    )
    def test_malformed_entry_names_it(self, tmp_path, entry, named):
        """entry updates entries[1], genes (2, 5, 10) with values [0.2, 0.55,
        100.0]: a key given None is removed, and a non-object replaces it."""
        path = tmp_path / "dict.json"
        export_dictionary_json(path, sample_dictionary(), sample_space(), {})
        payload = json.loads(path.read_text())
        if isinstance(entry, dict):
            payload["entries"][1].update(entry)
            payload["entries"][1] = {k: v for k, v in payload["entries"][1].items() if v is not None}
        else:
            payload["entries"][1] = entry
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(named)):
            load_dictionary_json(path)

    def test_columns_are_read_in_turn(self, tmp_path):
        """Each entry column is checked in full, genes before power: a short
        genes list in entries[1] is named before a string power in
        entries[0]."""
        path = tmp_path / "dict.json"
        export_dictionary_json(path, sample_dictionary(), sample_space(), {})
        payload = json.loads(path.read_text())
        payload["entries"][0]["power"] = "x"
        payload["entries"][1]["genes"] = [2, 5]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape("entries[1]: expected 3 genes and values")):
            load_dictionary_arrays(path)


class TestArrayLoader:
    def test_shuffled_entries_load_like_sorted(self, tmp_path):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.1, 0.3, 0.05), ParameterRange(-1.0, 1.0, 0.25)),
            sample_size_range=ParameterRange(10, 100, 3),
        )
        rng = np.random.default_rng(5)
        d = PowerDictionary()
        for i in rng.choice(space.grid_size, size=200, replace=False):
            d.insert(Chromosome(tuple(map(int, np.unravel_index(i, space.grid_counts)))), float(rng.random()))
        path = tmp_path / "dict.json"
        export_dictionary_json(path, d, space, {"note": "sorted"})
        payload = json.loads(path.read_text())
        rng.shuffle(payload["entries"])
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(payload))
        got_space, genes, powers, metadata = load_dictionary_arrays(shuffled)
        want_genes, want_powers = d.arrays()
        assert got_space == space and metadata == {"note": "sorted"}
        assert np.array_equal(genes, want_genes) and np.array_equal(powers, want_powers)
        assert genes.dtype == np.intp and powers.dtype == float
        loaded, _, _ = load_dictionary_json(shuffled)
        want = sorted(d.items(), key=lambda kv: kv[0].genes)
        assert sorted(loaded.items(), key=lambda kv: kv[0].genes) == want

    def test_grid_beyond_int64_indices(self, tmp_path):
        """A grid of more than 2**63 points has no int64 flat index; its
        dictionaries still load, sorted and checked for repeats."""
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0, 1e7, 1),) * 3,
            sample_size_range=ParameterRange(3, 1e7, 1),
        )
        assert space.grid_size > 2**63
        d = PowerDictionary()
        for genes, power in (((9_999_999, 0, 5, 0), 0.5), ((0, 9_999_999, 0, 1), 0.25), ((0, 9_999_999, 0, 0), 1.0)):
            d.insert(Chromosome(genes), power)
        path = tmp_path / "dict.json"
        export_dictionary_json(path, d, space, {})
        _, genes, powers, _ = load_dictionary_arrays(path)
        assert genes.tolist() == [[0, 9_999_999, 0, 0], [0, 9_999_999, 0, 1], [9_999_999, 0, 5, 0]]
        assert powers.tolist() == [1.0, 0.25, 0.5]
        payload = json.loads(path.read_text())
        payload["entries"].append(payload["entries"][0])
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape("entries[3]: duplicate insert for (0, 9999999, 0, 0)")):
            load_dictionary_arrays(path)

    def test_no_entries(self, tmp_path):
        path = tmp_path / "dict.json"
        export_dictionary_json(path, PowerDictionary(), sample_space(), {})
        _, genes, powers, _ = load_dictionary_arrays(path)
        assert genes.shape == (0, 3) and powers.shape == (0,)


DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


def json_dump_bytes(dictionary, space, metadata) -> bytes:
    """What json.dump(payload, fh, indent=1) and a newline write."""
    items = sorted(dictionary.items(), key=lambda kv: kv[0].genes)
    decoded = space.decode_many([c.genes for c, _ in items]).tolist()
    payload = {
        "schema_version": 1,
        "search_space": space_to_dict(space),
        "metadata": metadata,
        "entries": [
            {"genes": list(c.genes), "values": values, "power": power}
            for (c, power), values in zip(items, decoded)
        ],
    }
    return (json.dumps(payload, indent=1) + "\n").encode()


class TestJsonExportBytes:
    """export_dictionary_json writes exactly the bytes of json.dump with
    indent=1, without running json's pure-Python encoder."""

    @pytest.mark.parametrize(
        "command",
        [["learn"], ["brute-force", "--nsim", "40", "--workers", "2"]],
        ids=["desk-learn", "brute-force-2-workers"],
    )
    def test_cli_exports(self, tmp_path, command):
        argv = [*command, "-c", str(DESK), "--out-dir", str(tmp_path), "--prefix", "x"]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        written = (tmp_path / "x_dictionary.json").read_bytes()
        dictionary, space, metadata = load_dictionary_json(tmp_path / "x_dictionary.json")
        assert len(dictionary) > 300
        assert written == json_dump_bytes(dictionary, space, metadata)

    @pytest.mark.parametrize(
        "powers, dimension",
        [
            ([], 3),
            ([1e-05], 3),
            ([0.30000000000000004, 0.1, 1.0, 0.0], 3),
            ([5e-324, 1 / 3, 0.9999999999999999], 3),
            ([-0.0, 0.7, 1e-300, 0.25, 0.1], 4),  # the interaction grid's dimension
        ],
        ids=["no-entries", "tiny", "rounding", "extremes", "4-d"],
    )
    def test_exact_tokens(self, tmp_path, powers, dimension):
        """A 4-D space adds a third coefficient, -0.5 to 0.5 by 0.25."""
        space = sample_space()
        if dimension == 4:
            space = SearchSpace(
                coefficient_ranges=(*space.coefficient_ranges, ParameterRange(-0.5, 0.5, 0.25)),
                sample_size_range=space.sample_size_range,
            )
        d = PowerDictionary()
        for i, power in enumerate(powers):
            d.insert(Chromosome((i % 5, i, *[i % 5] * (dimension - 3), 30 - i)), power)
        metadata = {"command": "t", "nested": {"list": [1, 2.5, None, "s"], "empty": {}}}
        path = tmp_path / "dict.json"
        export_dictionary_json(path, d, space, metadata)
        assert path.read_bytes() == json_dump_bytes(d, space, metadata)
        loaded, _, _ = load_dictionary_json(path)
        assert dict(loaded.items()) == dict(d.items())


class TestCsvDictionary:
    def test_header_and_formatting(self, tmp_path):
        path = tmp_path / "dict.csv"
        export_dictionary_csv(path, sample_dictionary(), sample_space())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta_1,theta_2,n,power"
        assert lines[1] == "0.100000,0.300000,50.000000,0.050000"
        # decoded values recoverable by snapping back to the grid
        space = sample_space()
        values = [float(v) for v in lines[2].split(",")[:-1]]
        assert space.snap(values) == Chromosome((2, 5, 10))


def csv_writer_bytes(header, rows, lasts) -> bytes:
    """What csv.writer writes for the header, then each row's numbers and
    its last value at six decimals."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for numbers, last in zip(rows, lasts):
        writer.writerow([f"{v:.6f}" for v in numbers] + [f"{last:.6f}"])
    return buffer.getvalue().encode()


class TestCsvRowBytes:
    """The CSV writers fill one template per row, and write the bytes that
    csv.writer writes."""

    EDGES = [-0.0, 1e-7, 0.9999995, 5e-7, -5e-7, 0.5, 123456.789, 1.0]

    @pytest.mark.parametrize("count", [0, 1, 500])
    def test_predictions(self, tmp_path, count):
        """The first row is (-0.0, 1e-7, 0.9999995) with prediction
        0.9999995; half the others are drawn from EDGES."""
        space = sample_space()
        rng = np.random.default_rng(count)
        points = [tuple(self.EDGES[:3])] + [
            tuple((rng.choice(self.EDGES, 3) if i % 2 else rng.uniform(-1e3, 1e3, 3)).tolist())
            for i in range(count - 1)
        ]
        predictions = np.where(rng.random(count) < 0.5, rng.choice(self.EDGES, count), rng.random(count))
        predictions[:1] = 0.9999995
        path = tmp_path / "pred.csv"
        write_predictions_csv(path, space, points[:count], predictions)
        header = ["theta_1", "theta_2", "n", "predicted_power"]
        assert path.read_bytes() == csv_writer_bytes(header, points[:count], predictions)

    @pytest.mark.parametrize("size", [0, 3, 500])
    def test_dictionary(self, tmp_path, size):
        space = sample_space()
        d = PowerDictionary()
        rng = np.random.default_rng(size)
        grid = list(space.enumerate_grid())
        for i in rng.choice(len(grid), size, replace=False):
            d.insert(grid[i], float(rng.choice(self.EDGES[:3] + [rng.random()])))
        path = tmp_path / "dict.csv"
        export_dictionary_csv(path, d, space)
        genes, powers = d.arrays()
        want = csv_writer_bytes(["theta_1", "theta_2", "n", "power"], space.decode_many(genes), powers)
        assert path.read_bytes() == want


class TestReadJsonGc:
    """read_json decodes with the cyclic garbage collector paused, and
    leaves it as the caller had it."""

    CASES = {
        "valid": (b'{"a": [1, 2.5, {"b": null}]}', None),
        "not JSON": (b'{"a": [1, 2', "not valid JSON"),
        "digit limit": (b"1" * 5000, "digits"),
        "too deep": (b"[" * 100_000, "nested too deeply"),
        "not UTF-8": (b'{"a": "\xff"}', "codec"),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_gc_state_restored(self, tmp_path, monkeypatch, case, enabled):
        text, error = self.CASES[case]
        path = tmp_path / "x.json"
        path.write_bytes(text)
        during = []
        real = io_mod.json.loads
        monkeypatch.setattr(io_mod.json, "loads", lambda s: during.append(gc.isenabled()) or real(s))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                assert io_mod.read_json(path) == real(text)
            else:
                with pytest.raises(FormatError, match=error):
                    io_mod.read_json(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == ([] if case == "not UTF-8" else [False])


class TestQueriesCsv:
    def test_roundtrip_with_predictions(self, tmp_path):
        space = sample_space()
        qpath = tmp_path / "queries.csv"
        qpath.write_text("theta_1,theta_2,n\n0.2,0.5,100\n0.3,0.9,195\n")
        header, points = load_queries_csv(qpath, space)
        assert points == [(0.2, 0.5, 100.0), (0.3, 0.9, 195.0)]
        out = tmp_path / "pred.csv"
        write_predictions_csv(out, space, points, [0.5, 0.75])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta_1,theta_2,n,predicted_power"
        assert lines[1] == "0.200000,0.500000,100.000000,0.500000"
        assert len(lines) == 3

    def test_malformed_row_names_line(self, tmp_path):
        qpath = tmp_path / "queries.csv"
        qpath.write_text("theta_1,theta_2,n\n0.2,0.5,100\n0.3,oops,195\n")
        with pytest.raises(FormatError, match="line 3"):
            load_queries_csv(qpath, sample_space())

    def test_short_row_names_line(self, tmp_path):
        qpath = tmp_path / "queries.csv"
        qpath.write_text("theta_1,theta_2,n\n0.2\n")
        with pytest.raises(FormatError, match="line 2"):
            load_queries_csv(qpath, sample_space())

    @pytest.mark.parametrize(
        "tail, match",
        [
            (b"0.2,0.5,100\n0.3,oops,195\n", "line 3: could not convert"),
            (b"0.2,0.5,100\n", "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["bad-row-first", "good-rows"],
    )
    def test_rows_before_undecodable_bytes_are_checked_first(self, tmp_path, tail, match):
        """Bytes that are not UTF-8, 24 KB into the file, are reported only
        when every row before them parses."""
        qpath = tmp_path / "queries.csv"
        qpath.write_bytes(b"theta_1,theta_2,n\n" + tail + b"0.2,0.5,100\n" * 2000 + b"\xff,1,1\n")
        with pytest.raises(FormatError, match=match):
            load_queries_csv(qpath, sample_space())

    @pytest.mark.parametrize(
        "first, match",
        [(b"0.3,nan,1\n", "line 2: values must be finite"), (b"", "line 2002: field larger than field limit")],
        ids=["bad-row-first", "good-rows"],
    )
    def test_rows_before_an_oversized_field_are_checked_first(self, tmp_path, first, match):
        qpath = tmp_path / "queries.csv"
        big = b"1," + b"9" * (csv.field_size_limit() + 1) + b",3\n"
        qpath.write_bytes(b"theta_1,theta_2,n\n" + first + b"0.2,0.5,100\n" * (2000 - len(first.splitlines())) + big)
        with pytest.raises(FormatError, match=match):
            load_queries_csv(qpath, sample_space())

    def test_wrong_header(self, tmp_path):
        qpath = tmp_path / "queries.csv"
        qpath.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError, match="header"):
            load_queries_csv(qpath, sample_space())

    def test_empty_file(self, tmp_path):
        qpath = tmp_path / "queries.csv"
        qpath.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_queries_csv(qpath, sample_space())


class TestTypeHints:
    def test_evaluated_once_per_class(self, monkeypatch):
        """io.read evaluates a dataclass's type hints once, however many
        objects of it are read: two config loads, each reading several
        ParameterRanges, evaluate each class's hints once."""
        calls = []
        real = io_mod.get_type_hints
        monkeypatch.setattr(io_mod, "get_type_hints", lambda cls: calls.append(cls.__name__) or real(cls))
        io_mod._hints.cache_clear()
        try:
            path = Path(__file__).resolve().parent.parent / "configs" / "interaction_study.json"
            assert load_run_config(path) == load_run_config(path)
        finally:
            io_mod._hints.cache_clear()
        assert sorted(calls) == [
            "GaConfig", "OracleConfig", "OutputConfig", "ParameterRange", "PredictorConfig", "SearchSpace", "TestSpec",
        ]
