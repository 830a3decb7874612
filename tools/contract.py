"""Compare what two apksift trees write for the same corpora: the output contract.

    python3 tools/contract.py BASE_TREE HEAD_TREE [--corpora digest,bulk-code,wide-manifest]

Each tree is a checkout of this repository, for example the working tree
and a ``git archive`` of its parent revision unpacked into a scratch
directory. Stdlib only; no network.

Corpora, each built once at seed 7:

* ``digest``: the shape ``tests/test_output_contract.py`` pins (table6
  counts divided by 40, 25 + 25 apps), run in modes M, C and P;
* ``bulk-code`` and ``wide-manifest``: the perfbench workloads
  (``perfbench/workloads.py``), run in modes M, C, P and P, M.

Every corpus is generated by each tree in a subprocess, and the two trees
must give the same tree digest. Then each tree, in its own subprocess that
imports that tree's ``src``, runs on HEAD_TREE's copy of the corpus, per
mode: ``extract --stats``, ``rank``, ``train``, ``classify`` with that
model and ``evaluate --format all``, and once per corpus ``bench``. Every
output file, and each command's stdout, stderr and exit status, is
compared; timings (``duration_ms``, ``extraction_time_s`` and times in
stdout) are masked. For each difference the first differing line is
printed. Exit status: 0 identical, 1 any difference, 2 a tree that cannot
be run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CORPORA = {"digest": ("M", "C", "P"), "bulk-code": ("M", "C", "P"),
           "wide-manifest": ("P", "M")}
SEED, FOLDS = 7, 5
DIGEST_DIVISOR, DIGEST_PER_CLASS = 40, 25
TIMING_COLUMNS = {"duration_ms", "extraction_time_s"}
TIMING_TEXT = re.compile(r"\d+\.\d+ m?s\b")
WORKER_TIMEOUT_S = 900


# --- the worker: runs inside one tree ------------------------------------------

def _import_apksift(tree: Path):
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import apksift

    if Path(apksift.__file__).resolve().parent != (tree / "src" / "apksift").resolve():
        raise SystemExit(f"contract: imported apksift from {apksift.__file__}, not {tree}")


def _build(name: str, out: Path) -> dict:
    from apksift import corpusgen
    from apksift.catalog import data_table_path, load_catalog

    catalog = load_catalog("builtin", "M")
    if name != "digest":
        import workloads

        built, _ = workloads.build(workloads.WORKLOADS[name], SEED, out, catalog)
        return {"root": str(built.root), "labels": str(built.labels)}
    full = corpusgen.spec_from_table(data_table_path("table6"), catalog)
    entries = tuple(corpusgen.FrequencyEntry(e.feature, e.benign // DIGEST_DIVISOR,
                                             e.malware // DIGEST_DIVISOR) for e in full.entries)
    spec = corpusgen.FrequencySpec(entries, DIGEST_PER_CLASS, DIGEST_PER_CLASS, SEED)
    generated = corpusgen.generate(spec, out)
    return {"root": str(generated.root), "labels": str(generated.labels)}


def _commands(corpus: str, labels: str, modes) -> list[tuple[str, list[str]]]:
    """(run name, argv) of every command, outputs relative to the working directory."""
    common = ["--corpus", corpus]
    runs = []
    for mode in modes:
        both = [*common, "--labels", labels, "--mode", mode]
        runs += [
            (f"{mode}/extract", ["extract", *both, "--out", f"{mode}/matrix.csv",
                                 "--stats", f"{mode}/stats.csv"]),
            (f"{mode}/rank", ["rank", *both, "--out", f"{mode}/rank.csv"]),
            (f"{mode}/train", ["train", *both, "--out", f"{mode}/model.json"]),
            (f"{mode}/classify", ["classify", *common, "--mode", mode, "--model",
                                  f"{mode}/model.json", "--out", f"{mode}/predictions.csv"]),
            (f"{mode}/evaluate", ["evaluate", *both, "--folds", str(FOLDS), "--seed", str(SEED),
                                  "--format", "all", "--out", f"{mode}/report"]),
        ]
    return runs + [("bench", ["bench", *common, "--labels", labels, "--out", "bench.csv"])]


def _run(job: dict) -> None:
    from apksift import cli

    os.chdir(job["cwd"])
    for mode in job["modes"]:
        os.makedirs(mode, exist_ok=True)
    for name, argv in _commands(job["corpus"], job["labels"], job["modes"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # a usage error
                status = exc.code
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                             ("status", f"{status}\n")):
            with open(f"{name}.{stream}", "w", encoding="utf-8", newline="",
                      errors="surrogateescape") as fh:
                fh.write(text)


def worker(tree: str, job: dict) -> None:
    """Run one job with ``tree``'s apksift; its result is the last stdout line, as JSON."""
    _import_apksift(Path(tree))
    print(json.dumps(_build(job["build"], Path(job["out"])) if "build" in job else _run(job)))


# --- the driver --------------------------------------------------------------------

def _start(tree: Path, job: dict) -> subprocess.Popen:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), json.dumps(job)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _wait(proc: subprocess.Popen) -> tuple[int, str, str]:
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nno result within {WORKER_TIMEOUT_S} s"
    return proc.returncode, out, err


def _pair(base: Path, head: Path, jobs) -> tuple:
    """Run one job per tree, both at once, and wait for both. Their JSON results in
    (base, head) order; a job that fails ends the comparison (exit 2)."""
    runs = [(f"{label} ({tree})", _start(tree, job))
            for label, tree, job in (("base", base, jobs[0]), ("head", head, jobs[1]))]
    done = [(what, *_wait(proc)) for what, proc in runs]
    for what, status, _, err in done:
        if status != 0:
            tail = "\n".join(err.strip().splitlines()[-5:])
            sys.stderr.write(f"contract: {what} failed (exit {status}):\n{tail}\n")
            raise SystemExit(2)
    return tuple(json.loads(out.strip().splitlines()[-1]) for _, _, out, _ in done)


def tree_digest(root: Path) -> str:
    """sha256 over every file's path and bytes under ``root``, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8", "surrogateescape"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def masked_lines(path: Path) -> list[str]:
    """The file's lines, with timings replaced by ``<time>``. A CSV file with a
    timing column is compared cell by cell: its rows are rewritten by ``csv``."""
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    if path.suffix == ".csv" and TIMING_COLUMNS & set(text.partition("\n")[0].split(",")):
        rows = list(csv.reader(io.StringIO(text, newline="")))
        timed = {i for i, h in enumerate(rows[0]) if h in TIMING_COLUMNS}
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(["<time>" if i in timed else cell for i, cell in enumerate(row)]
                         for row in rows[1:])
        text = out.getvalue()
    elif path.suffix == ".stdout":
        text = TIMING_TEXT.sub("<time>", text)
    return text.splitlines(keepends=True)


def compare_dirs(base: Path, head: Path, label: str) -> tuple[int, list[str]]:
    """(files compared, one line per difference) between two output trees."""
    names = sorted({p.relative_to(d).as_posix() for d in (base, head)
                    for p in d.rglob("*") if p.is_file()})
    problems = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            problems.append(f"{label} {name}: only in {'base' if a.is_file() else 'head'}")
            continue
        left, right = masked_lines(a), masked_lines(b)
        if left == right:
            continue
        line = next((i for i, (x, y) in enumerate(zip(left, right)) if x != y),
                    min(len(left), len(right)))
        problems.append(
            f"{label} {name}: line {line + 1}: base "
            f"{left[line] if line < len(left) else '<end of file>'!r} head "
            f"{right[line] if line < len(right) else '<end of file>'!r}")
    return len(names), problems


def compare(base: Path, head: Path, corpora, work: Path) -> list[str]:
    problems = []
    for name in corpora:
        sides = [work / name / "base-corpus", work / name / "head-corpus"]
        built = _pair(base, head, [{"build": name, "out": str(d)} for d in sides])
        digests = [tree_digest(d) for d in sides]
        if digests[0] != digests[1]:
            problems.append(f"{name}: generated corpus differs "
                            f"(base {digests[0][:12]}, head {digests[1][:12]})")
        corpus = built[1]
        outs = [work / name / "base-out", work / name / "head-out"]
        for out in outs:
            out.mkdir(parents=True)
        _pair(base, head, [{"cwd": str(out), "modes": CORPORA[name],
                            "corpus": corpus["root"], "labels": corpus["labels"]}
                           for out in outs])
        count, found = compare_dirs(*outs, name)
        print(f"{name}: {count} files compared, {len(found)} differ")
        problems += found
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", type=Path, help="the tree compared against")
    parser.add_argument("head", nargs="?", type=Path, help="the tree under test")
    parser.add_argument("--corpora", default=",".join(CORPORA),
                        help=f"comma-separated subset of {', '.join(CORPORA)}")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker[0], json.loads(args.worker[1]))
        return 0
    corpora = args.corpora.split(",")
    if args.base is None or args.head is None:
        parser.error("BASE_TREE and HEAD_TREE are required")
    if unknown := [c for c in corpora if c not in CORPORA]:
        parser.error(f"unknown corpus {unknown[0]!r} (one of {', '.join(CORPORA)})")
    for tree in (args.base, args.head):
        if not (tree / "src" / "apksift" / "__init__.py").is_file():
            parser.error(f"{tree} is not an apksift tree (no src/apksift)")
    work = Path(tempfile.mkdtemp(prefix="apksift-contract-"))
    try:
        problems = compare(args.base.resolve(), args.head.resolve(), corpora, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"differs: {line}")
    print("identical" if not problems else f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
