"""Operator files read and written in blocks of whole rows.

The reader of the written layout takes its rows in blocks of at most
cli._BLOCK_NUMBERS numbers; every file it reads must give the nested JSON
reader's matrix bytes and meta, and every file it declines that reader's
error. These tests move the block edges onto the cases, and pin the memory
and the bytes of the streamed reader and writer.
"""

import tracemalloc

import pytest

import test_cli
from insep import cli
from insep.cli import load_operator, main, save_operator, serialize_operator
from insep.states import random_multiseparable
from test_cli import _load_result


def test_flat_reader_cases_with_one_row_a_block(tmp_path, monkeypatch):
    # The differential fuzz again, each file's rows now one block each.
    monkeypatch.setattr(cli, "_BLOCK_NUMBERS", 1)
    test_cli.test_flat_reader_matches_the_nested_reader(tmp_path, monkeypatch)


def _rows(raw):
    head, mark, rest = raw.partition(b'"entries": [\n')
    rows = rest[: -len(b"\n]\n}\n")].split(b",\n")
    return head + mark, rows


def _join(head, rows):
    return head + b",\n".join(rows) + b"\n]\n}\n"


def _boundary_cases(raw, step):
    """Edits at the block edges of a written file with `step` rows a block."""
    head, rows = _rows(raw)
    d = len(rows)
    cases = [raw[:-1], raw + b"\n", _join(head, rows[:-1]), _join(head, rows + rows[-1:])]
    for first in range(0, d, step):
        # A digit or a sign before the block's first "[", and after its last "]".
        for token in (b"7", b"-", b"7,"):
            cases.append(_join(head, rows[:first] + [token + rows[first]] + rows[first + 1 :]))
        last = min(first + step, d) - 1
        cases.append(_join(head, rows[:last] + [rows[last] + b"7"] + rows[last + 1 :]))
        if last + 1 < d:
            # A digit inside the ",\n" that ends the block, and the block cut
            # one line early or late.
            joined = b",\n".join(rows[: last + 1]) + b",7\n" + b",\n".join(rows[last + 1 :])
            cases.append(head + joined + b"\n]\n}\n")
            cases.append(_join(head, rows[:last] + [rows[last] + b"\n" + rows[last + 1]] + rows[last + 2 :]))
            cases.append(_join(head, rows[:last] + [rows[last] + b"," + rows[last + 1]] + rows[last + 2 :]))
    # The entries line inside meta, before the real one, and its rows with it.
    entries = b'"entries": [\n' + b",\n".join(rows) + b"\n]"
    cases.append(head.replace(b'"meta": {', b'"meta": {"x": {\n' + entries + b"},\n", 1) + raw[len(head) :])
    cases.append(head.replace(b'"meta": {', b'"meta": {\n"entries": [\n1],\n"y": 2,', 1) + raw[len(head) :])
    return cases


@pytest.mark.parametrize("block_numbers, step", [(1, 1), (32, 2), (48, 3), (1 << 16, 8)])
def test_block_edges_give_the_nested_readers_result(tmp_path, monkeypatch, block_numbers, step):
    monkeypatch.setattr(cli, "_BLOCK_NUMBERS", block_numbers)
    path = tmp_path / "case.json"
    originals = []
    for argv in (["random-msep", "n=3", "seed=3", "label=x"], ["ghz", "n=3"]):
        assert main(["gen", *argv, "--out", str(path)]) == 0
        originals.append(path.read_bytes())
    cases = [raw for original in originals for raw in _boundary_cases(original, step)]
    streamed = 0
    for raw in originals + cases:
        path.write_bytes(raw)
        streamed += cli._read_written_layout(path) is not None
        got = _load_result(path)
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_written_layout", lambda path: None)
            assert got == _load_result(path), raw
    # The written files are streamed; no edit at a block edge is.
    assert streamed == len(originals)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_save_and_load_at_nine_qubits_hold_no_whole_text(tmp_path):
    # The file is 12.5 MB of text; the whole-text writer peaked near twice
    # that, and the whole-text reader near 28 MB.
    op = random_multiseparable(9, 4, 0)
    path = tmp_path / "m9.json"
    assert _traced_peak(save_operator, path, op, {"generator": "random-msep"}) < 1e6
    assert path.stat().st_size > 12e6
    assert _traced_peak(load_operator, path) < 20e6
    loaded, meta = load_operator(path)
    assert loaded.matrix.tobytes() == op.matrix.tobytes()
    assert serialize_operator(loaded, meta).encode() == path.read_bytes()


def test_two_block_files_are_the_same_bytes_every_way(tmp_path, capsys):
    # At n = 8 a row holds 512 numbers, so the 256 rows make two blocks.
    assert 256 * 512 == 2 * cli._BLOCK_NUMBERS
    for family in (["ghz", "n=8"], ["random-msep", "n=8", "seed=3"]):
        out, applied = tmp_path / "out.json", tmp_path / "applied.json"
        capsys.readouterr()
        assert main(["gen", *family]) == 0
        stdout = capsys.readouterr().out
        assert main(["gen", *family, "--out", str(out)]) == 0
        assert out.read_text() == stdout
        assert main(["apply", str(out), "all:P", "--out", str(applied)]) == 0
        for path in (out, applied):
            op, meta = load_operator(path)
            assert serialize_operator(op, meta).encode() == path.read_bytes()
