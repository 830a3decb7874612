"""Property test: the CLI over mutated model, catalog and labels files.

Each example starts from a valid file and applies a structural mutation
(a type swap, a deleted key or cell, NaN or Infinity, a duplicated entry,
a huge integer, a list where a string belongs), a byte-level one (invalid
UTF-8, a BOM, NUL, U+2028), or both. Whatever the input, the command
exits 0, 1 or 2 without raising, and no output file holds a NaN.
"""

import contextlib
import copy
import csv
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apksift.catalog import builtin_catalog
from apksift.cli import main

from conftest import manifest_with, write_labels, write_sample

HUGE = "huge-integer"          # replaced by a 401-digit integer once serialized
HUGER = "huger-integer"        # 5000 digits, past the int-from-text limit
SWAPS = [0, -1, 2.5, True, None, "", "x", [], {}, ["x"], float("nan"), float("inf"), HUGE, HUGER]
CELLS = ["", " ", "NaN", "Infinity", "9" * 401, '["x"]', "benign", "suspicious", "x" * 140_000]
BYTES = [b"\xff", b"\xc3", b"\x00", "\u2028".encode(), b"bom"]
NAN = re.compile(rb"\bnan\b", re.IGNORECASE)

KINDS = ["catalog", "labels", "model"]


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> tuple[Path, dict[str, bytes]]:
    """A directory holding the corpus the commands run on, and the valid input files."""
    work = tmp_path_factory.mktemp("fuzz")
    root = work / "corpus"
    for i in range(3):
        write_sample(root, f"ben{i}", manifest=manifest_with("INTERNET"))
        write_sample(root, f"mal{i}", manifest=manifest_with("INTERNET", "READ_SMS"),
                     code={"A.smali": '    const-string v0, "chmod"\n'})
    labels = write_labels(work, [(f"ben{i}", "benign") for i in range(3)]
                          + [(f"mal{i}", "suspicious") for i in range(3)])
    model = work / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--corpus", str(root), "--labels", str(labels), "--top", "3",
                     "--out", str(model)]) == 0
    wanted = {"INTERNET", "READ_SMS", "chmod", "Runtime.exec", ".apk"}
    catalog = [e for e in json.loads(builtin_catalog()) if e["name"] in wanted]
    return work, {"model": model.read_bytes(), "labels": labels.read_bytes(),
                  "catalog": json.dumps(catalog, indent=1).encode()}


def _argv(kind: str, corpus: str, path: Path, out: Path) -> list[str]:
    return {
        "model": ["classify", "--corpus", corpus, "--model", str(path), "--out", str(out)],
        "catalog": ["extract", "--corpus", corpus, "--catalog", str(path), "--out", str(out)],
        "labels": ["rank", "--corpus", corpus, "--labels", str(path), "--out", str(out)],
    }[kind]


def _slots(value):
    """Every (container, key) slot in a JSON value, depth first."""
    for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _mutate_json(text: bytes, op: str, pick: int, swap) -> bytes:
    data = json.loads(text)
    slots = list(_slots(data))
    container, key = slots[pick % len(slots)]
    if op == "swap":
        container[key] = swap
    elif op == "delete":
        del container[key]
    elif op == "duplicate":
        if isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = [container[key], copy.deepcopy(container[key])]
    elif isinstance(container[key], str):  # a list where a string belongs
        container[key] = [container[key]]
    out = json.dumps(data, indent=1)
    return out.replace(f'"{HUGE}"', "1" + "0" * 400).replace(f'"{HUGER}"', "1" * 5000).encode()


def _mutate_csv(text: bytes, op: str, pick: int, cell: str) -> bytes:
    rows = list(csv.reader(io.StringIO(text.decode(), newline="")))
    r = pick % len(rows)
    c = pick // len(rows) % len(rows[r])
    if op == "swap":
        rows[r][c] = cell
    elif op == "delete":
        del rows[r][c]
    elif op == "duplicate":
        rows.insert(r, list(rows[r]))
    else:
        rows[r][c:c + 1] = [rows[r][c], cell]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


structural = st.tuples(st.sampled_from(["swap", "delete", "duplicate", "listify"]),
                       st.integers(0, 10_000), st.sampled_from(SWAPS), st.sampled_from(CELLS))
byte_level = st.tuples(st.sampled_from(BYTES), st.integers(0, 10_000))


# Picks into the model's slots: 2 is "alpha", 4 the benign class count.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(kind="model", change=("swap", 2, HUGE, ""), damage=None)
@example(kind="model", change=("swap", 4, HUGE, ""), damage=None)
@example(kind="model", change=("swap", 2, float("nan"), ""), damage=None)
@example(kind="catalog", change=("swap", 0, HUGER, ""), damage=None)
@example(kind="labels", change=("swap", 0, None, CELLS[-1]), damage=None)
@given(kind=st.sampled_from(KINDS), change=st.one_of(structural, st.none()),
       damage=st.one_of(byte_level, st.none()))
def test_cli_over_mutated_inputs(work, kind, change, damage):
    work, valid = work
    data = valid[kind]
    if change is not None:
        op, pick, swap, cell = change
        data = (_mutate_csv(data, op, pick, cell) if kind == "labels"
                else _mutate_json(data, op, pick, swap))
    if damage is not None:
        chunk, at = damage
        at %= len(data) + 1
        data = b"\xef\xbb\xbf" + data if chunk == b"bom" else data[:at] + chunk + data[at:]
    path, out = work / f"input-{kind}", work / "out"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(_argv(kind, str(work / "corpus"), path, out))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        assert not NAN.search(out.read_bytes())
