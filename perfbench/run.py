"""apksift pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-code --seed 1 --seconds 60 --trace 0

One process, one thread. The workload's corpus is generated from the seed
(several times: ``setup_s`` is the median), then rounds of the user-facing
pipeline run until the time is used up: ``apksift.cli.main`` for extract,
rank, train, classify and evaluate, and a library-level cross-validation
sweep over the five selection presets. Every output of every round is
checked against the benchmark's own reference; a failed check counts as a
failed operation and makes the exit status 1. Each operation's timing (not
``setup_s``) is scaled to a reference host speed that a calibration loop
measures (see REF_CAL_S).

With ``--trace 0`` the end-to-end metrics are measured. With ``--trace 1``
rounds alternate between untraced and traced; traced rounds wrap every
public layer function (see tracing.py) and give the per-layer metrics and
the tracing overhead. The last stdout line is the JSON result; the lines
before it name every metric with its unit and sample count. A fuller
record, with provenance, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

SETUP_REPS = 4
MIN_ROUNDS = 3          # untraced rounds with --trace 0
MIN_TRACED_ROUNDS = 2   # traced (and as many untraced) rounds with --trace 1
PRESETS = {"5fT": 5, "5fL": 5, "10f": 10, "15f": 15, "20f": 20}   # preset -> features selected
FOLDS = 5
COMMANDS = ("extract", "rank", "train", "classify", "evaluate")
SCOPES = ("manifest", "code", "assets")
# The host's speed swings by up to 1.6x in phases of 10-20 s, and a pure
# interpreter loop slows with it (20-s window medians correlate 0.9 with
# the commands' own). A fixed loop runs before every operation and once more
# at the end of the round. Each timing is scaled by REF_CAL_S /
# (median of the loop times just before it, just after it and one before
# those), i.e. reported as seconds at the speed where the loop takes
# REF_CAL_S. REF_CAL_S is about the loop's median time on a 2-vCPU Intel
# Xeon VM at 2.1 GHz with CPython 3.11, so scaled times read close to wall
# times there; it is a fixed unit, not a tuning knob.
CAL_LOOPS = 300_000
REF_CAL_S = 0.030

END_TO_END = [(f"{c}_s", "s") for c in COMMANDS] + [
    ("cv_sweep_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]

# Per-layer metric -> (unit, wrapped functions it is measured from). A metric
# whose functions are all gone from the program is reported absent.
PER_LAYER = {
    "corpus.load_corpus_s": ("s", ["corpus.load_corpus"]),
    "corpus.walk_s": ("s", ["corpus.enumerate_code_units", "corpus.enumerate_payload_files"]),
    "corpus.walk_calls_per_app": (
        "count", ["corpus.enumerate_code_units", "corpus.enumerate_payload_files"]),
    "corpus.read_manifest_s": ("s", ["corpus.read_manifest"]),
    "corpus.self_s": ("s", []),
    "detectors.extract_features_self_s": ("s", ["detectors.extract_features"]),
    "detectors.declared_permissions_s": ("s", ["detectors.declared_permissions"]),
    "detectors.app_ms_p50": ("ms", ["detectors.extract_features"]),
    "detectors.app_ms_p98": ("ms", ["detectors.extract_features"]),
    **{f"detectors.files_scanned.{s}": ("count", ["detectors.extract_corpus"]) for s in SCOPES},
    "detectors.mb_scanned": ("MB", ["detectors.extract_corpus"]),
    "detectors.bits_per_file_scanned": ("bits/file", ["detectors.extract_corpus"]),
    "detectors.warnings": ("count", ["detectors.extract_corpus"]),
    "detectors.write_matrix_csv_s": ("s", ["detectors.write_matrix_csv"]),
    "detectors.self_s": ("s", []),
    "ranking.rank_s": ("s", ["ranking.build_contingency", "ranking.rank_features"]),
    "ranking.self_s": ("s", []),
    "classifier.train_s": ("s", ["classifier.train"]),
    "classifier.classify_s": ("s", ["classifier.classify"]),
    "classifier.classify_calls": ("count", ["classifier.classify"]),
    "classifier.posterior_matrix_s": ("s", ["classifier.posterior_matrix"]),
    "classifier.self_s": ("s", []),
    "evaluation.cross_validate_self_s": ("s", ["evaluation.cross_validate"]),
    "evaluation.emit_report_s": ("s", ["evaluation.emit_report"]),
    "evaluation.self_s": ("s", []),
    "catalog.load_catalog_s": ("s", ["catalog.load_catalog"]),
    "corpusgen.generate_s": ("s", ["corpusgen.generate"]),
    "corpusgen.files_written": ("count", []),
    "corpusgen.mb_written": ("MB", []),
    **{f"cli.{c}.self_s": ("s", []) for c in COMMANDS},
    "trace.overhead_ratio": ("ratio", []),
    "trace.coverage_min": ("ratio", []),
    "trace.absent_functions": ("count", []),
}
# Per-layer metrics that are the summed inclusive time of their functions' spans.
_SUMMED = (
    "corpus.load_corpus_s", "corpus.walk_s", "corpus.read_manifest_s",
    "detectors.declared_permissions_s", "detectors.write_matrix_csv_s", "ranking.rank_s",
    "classifier.train_s", "classifier.classify_s", "classifier.posterior_matrix_s",
    "evaluation.emit_report_s", "catalog.load_catalog_s",
)


class Failure(Exception):
    """An operation whose output did not pass its check."""


class Bench:
    def __init__(self, args, root: Path):
        import checks
        import tracing
        import workloads
        from apksift import catalog, classifier, cli, corpus, detectors, evaluation

        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.mods = dict(catalog=catalog, classifier=classifier, cli=cli, corpus=corpus,
                         detectors=detectors, evaluation=evaluation)
        self.checks, self.tracing, self.workloads = checks, tracing, workloads
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.out = self.work / "out"
        self.attempted = 0
        self.failed = 0
        # metric -> [(index in self.cals of the loop run just before, wall seconds)]
        self.times: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.cals: list[float] = []          # calibration loop times, in run order
        self.round_totals = {False: [], True: []}
        self.layer_rounds: list[dict[str, float]] = []
        self.app_ms: list[float] = []
        self.coverage: list[tuple[str, float, float, float]] = []
        self.digests: dict[str, str] = {}
        self.root_walls = {}   # root span -> wall seconds measured around it
        self.tracer = tracing.Tracer() if args.trace else None
        self.last_spans = []

    # -- operations -------------------------------------------------------

    def op(self, name: str, fn):
        """Run one operation; any exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure is counted, none may stop the run
            self.failed += 1
            detail = str(exc) if isinstance(exc, Failure) else traceback.format_exc(limit=4)
            print(f"FAILED {name}: {detail}", file=sys.stderr)
            return None

    def expect(self, problems: list[str]) -> None:
        if problems:
            raise Failure("; ".join(problems[:5]))

    def same_as_before(self, key: str, value: str) -> None:
        first = self.digests.setdefault(key, value)
        if first != value:
            raise Failure(f"{key}: output differs from the first repeat")

    # -- set-up -----------------------------------------------------------

    def build_once(self):
        """One timed set-up into a fresh directory; returns the built corpus."""
        rep = len(self.setup_times)
        target = self.work / f"corpus{rep}"

        def one():
            if self.tracer is None:
                return self.workloads.build(self.workload, self.args.seed, target, self.cat_m)
            self.tracer.install()
            try:
                with self.tracer.root("setup.build"):
                    result = self.workloads.build(
                        self.workload, self.args.seed, target, self.cat_m, count_written=True)
            finally:
                self.tracer.uninstall()
            self.generate_times += [
                s.seconds for s in self.tracer.spans if s.name == "corpusgen.generate"]
            self.tracer.clear()
            return result

        gc.collect()
        result = self.op("setup", one)
        if result is None:
            self.setup_times.append(None)
            return None
        built, seconds = result
        self.setup_times.append(seconds)
        self.op("setup-repeat", lambda: self.same_as_before(
            "corpus", self.checks.digest(built.root)))
        return built

    def setup(self):
        """Build the corpus the rounds run on (the first of the timed set-ups)."""
        self.cat_m = self.mods["catalog"].load_catalog("builtin", "M")
        self.setup_times: list[float | None] = []
        self.generate_times = []
        built = self.build_once()
        if built is None:
            raise SystemExit("perfbench: the workload corpus could not be built")
        self.built = built
        self.ref = self.checks.Reference(built.counts, self.workload.n_benign,
                                         self.workload.n_suspicious, built.truncated)
        self.scope_totals = self._scope_totals(built.root)
        self.n_features = len(self.mods["catalog"].load_catalog("builtin", self.workload.mode))
        self.out.mkdir(parents=True)
        self.matrix = self.op("library-extract", self._library_matrix)

    def _scope_totals(self, corpus_root: Path) -> dict[str, tuple[int, int]]:
        """Files and bytes per scope in the tree (for the computed MB scanned)."""
        scope_of = self.mods["corpus"].scope_of
        totals = defaultdict(lambda: [0, 0])
        for app in corpus_root.iterdir():
            if not app.is_dir():
                continue
            for dirpath, _, names in os.walk(app):
                for name in names:
                    full = os.path.join(dirpath, name)
                    rel = os.path.relpath(full, app).replace(os.sep, "/")
                    entry = totals[scope_of(rel).value]
                    entry[0] += 1
                    entry[1] += os.path.getsize(full)
        return {k: tuple(v) for k, v in totals.items()}

    def _library_matrix(self):
        """The matrix the cross-validation sweep runs on, checked like the CLI's."""
        cat = self.mods["catalog"].load_catalog("builtin", self.workload.mode)
        corpus = self.mods["corpus"].load_corpus(self.built.root, self.built.labels)
        matrix, _ = self.mods["detectors"].extract_corpus(corpus, cat)
        path = self.out / "library-matrix.csv"
        self.mods["detectors"].write_matrix_csv(matrix, path)
        self.expect(self.ref.check_matrix(path, self.n_features))
        return matrix

    # -- one round of the pipeline ------------------------------------------

    def argv(self, command: str) -> list[str]:
        corpus = ["--corpus", str(self.built.root)]
        labels = ["--labels", str(self.built.labels)]
        mode = ["--mode", self.workload.mode]
        o = self.out
        return {
            "extract": ["extract", *corpus, *labels, *mode, "--out", str(o / "matrix.csv")],
            "rank": ["rank", *corpus, *labels, *mode, "--out", str(o / "rank.csv")],
            "train": ["train", *corpus, *labels, *mode, "--out", str(o / "model.json")],
            "classify": ["classify", *corpus, *mode, "--model", str(o / "model.json"),
                         "--out", str(o / "predictions.csv")],
            "evaluate": ["evaluate", *corpus, *labels, *mode, "--features", "15f",
                         "--folds", str(FOLDS), "--seed", str(self.args.seed),
                         "--format", "all", "--out", str(o / "report")],
        }[command]

    def timed(self, root_name: str, traced: bool, fn):
        """(result, wall seconds) of ``fn``, inside a root span when traced."""
        gc.collect()
        if not traced:
            started = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - started
        started = time.perf_counter()
        with self.tracer.root(root_name) as span:
            result = fn()
        seconds = time.perf_counter() - started
        self.root_walls[span] = seconds
        return result, seconds

    def run_command(self, command: str, traced: bool) -> float:
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return self.mods["cli"].main(self.argv(command))

        status, seconds = self.timed(f"cli.{command}", traced, call)
        if status != 0:
            raise Failure(f"exit status {status}: {stderr.getvalue()[-500:]}")
        self.check_command(command, stderr.getvalue())
        if not traced:
            self.times[f"{command}_s"].append((len(self.cals) - 1, seconds))
        return seconds

    def check_command(self, command: str, stderr: str) -> None:
        o, ref = self.out, self.ref
        output = {"extract": o / "matrix.csv", "rank": o / "rank.csv", "train": o / "model.json",
                  "classify": o / "predictions.csv", "evaluate": o / "report"}[command]
        self.same_as_before(command, self.checks.digest(output))
        if command == "extract":
            self.expect(ref.check_matrix(output, self.n_features) + ref.check_warnings(stderr))
        elif command == "rank":
            problems, self.ranked = ref.check_ranking(output, self.n_features)
            self.expect(problems)
        elif command == "train":
            model = self.mods["classifier"].load_model(output)
            self.expect(ref.check_model(model, self.ranked))
        elif command == "classify":
            model = self.mods["classifier"].load_model(o / "model.json")
            self.expect(ref.check_predictions(output, model, o / "matrix.csv"))
        else:
            self.expect(ref.check_report_dir(output, FOLDS))

    def run_sweep(self, traced: bool) -> float:
        if self.matrix is None:
            raise Failure("no library matrix to cross-validate")
        cross_validate = self.mods["evaluation"].cross_validate

        def sweep():
            return [cross_validate(self.matrix, preset=p, k=FOLDS, seed=self.args.seed)
                    for p in PRESETS]

        reports, seconds = self.timed("lib.cv_sweep", traced, sweep)
        for preset, report in zip(PRESETS, reports):
            problems, outcome = self.ref.check_cv_report(report, FOLDS, PRESETS[preset])
            self.expect(problems)
            self.same_as_before(f"cv-{preset}", outcome)
        if not traced:
            self.times["cv_sweep_s"].append((len(self.cals) - 1, seconds))
        return seconds

    def run_round(self, traced: bool) -> float:
        """Each command, with one cross-validation sweep after each."""
        if traced:
            self.tracer.clear()
            self.root_walls.clear()
            self.tracer.keep_returns("detectors.extract_corpus")
            self.tracer.install()
        total = 0.0
        first_cal = len(self.cals)
        try:
            for command in COMMANDS:
                self.cals.append(calibration_loop())
                total += self.op(command, lambda: self.run_command(command, traced)) or 0.0
                self.cals.append(calibration_loop())
                total += self.op("cv-sweep", lambda: self.run_sweep(traced)) or 0.0
        finally:
            if traced:
                self.tracer.uninstall()
        self.cals.append(calibration_loop())
        # Scaled like the timings, so that traced and untraced rounds compare
        # at one host speed.
        self.round_totals[traced].append(
            total * REF_CAL_S / statistics.median(self.cals[first_cal:]))
        if traced:
            self.layer_rounds.append(self.layer_metrics())
            self.last_spans = list(self.tracer.spans)
        return total

    def rounds(self, deadline: float) -> int:
        """Rounds until the deadline, keeping time for the remaining set-ups,
        which run after the rounds so that their file-system work (and its
        write-back) does not land inside a timed command."""
        n, longest_round = 0, 0.0
        reserve = (SETUP_REPS - 1) * 1.5 * self.setup_times[0]
        while True:
            traced = self.tracer is not None and n % 2 == 1
            t0 = time.perf_counter()
            self.run_round(traced)
            n += 1
            longest_round = max(longest_round, time.perf_counter() - t0)
            enough = n >= (2 * MIN_TRACED_ROUNDS if self.tracer else MIN_ROUNDS)
            if enough and time.perf_counter() + longest_round + reserve > deadline:
                break
        while len(self.setup_times) < SETUP_REPS:
            self.build_once()
        return n

    # -- per-layer numbers from one traced round ----------------------------

    def layer_metrics(self) -> dict[str, float]:
        tr = self.tracing
        spans = self.tracer.spans
        selfs = tr.self_times(spans)
        incl, calls, layer_self = Counter(), Counter(), Counter()
        in_cv = [False] * len(spans)
        values: dict[str, float] = {}
        for i, (span, own) in enumerate(zip(spans, selfs)):
            if span.parent < 0:
                if span.name.startswith("cli."):
                    values[f"{span.name}.self_s"] = own
                self.coverage.append((span.name, span.seconds, self.root_walls[span], own))
                continue
            incl[span.name] += span.seconds
            calls[span.name] += 1
            layer_self[tr.layer_of(span.name)] += own
            in_cv[i] = span.name == "evaluation.cross_validate" or in_cv[span.parent]
            if span.name == "detectors.extract_features":
                self.app_ms.append(span.seconds * 1e3)
                values["detectors.extract_features_self_s"] = (
                    values.get("detectors.extract_features_self_s", 0.0) + own)
            if in_cv[i] and tr.layer_of(span.name) == "evaluation":
                values["evaluation.cross_validate_self_s"] = (
                    values.get("evaluation.cross_validate_self_s", 0.0) + own)
        for metric in _SUMMED:
            values[metric] = sum(incl[n] for n in PER_LAYER[metric][1])
        for layer in ("corpus", "detectors", "ranking", "classifier", "evaluation"):
            values[f"{layer}.self_s"] = layer_self[layer]
        walks = calls["corpus.enumerate_code_units"] + calls["corpus.enumerate_payload_files"]
        values["corpus.walk_calls_per_app"] = walks / max(calls["detectors.extract_features"], 1)
        values["classifier.classify_calls"] = calls["classifier.classify"]
        values.update(self.extraction_counts())
        return values

    def extraction_counts(self) -> dict[str, float]:
        """Counts per corpus extraction, from extract_corpus's own stats."""
        results = self.tracer.returns.get("detectors.extract_corpus", [])
        if not results:
            return {}
        scanned, warnings, bits = Counter(), 0, 0
        for matrix, stats in results:
            for sample in stats.per_sample:
                scanned.update(sample.files_scanned)
                warnings += len(sample.warnings)
            bits += int(matrix.bits.sum())
        n = len(results)
        values = {f"detectors.files_scanned.{s}": scanned[s] / n for s in SCOPES}
        mb = 0.0
        for scope, (files, size) in self.scope_totals.items():
            if files:
                mb += size * min(scanned[scope] / n / files, 1.0) / 1e6
        values["detectors.mb_scanned"] = mb
        values["detectors.bits_per_file_scanned"] = bits / max(sum(scanned.values()), 1)
        values["detectors.warnings"] = warnings / n
        return values


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    gc.collect()
    started = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i & 7
    return time.perf_counter() - started


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, root: Path) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((root / "src" / "apksift").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + path.read_bytes())
    return {
        "command": shlex.join([Path(sys.orig_argv[0]).name, *sys.orig_argv[1:]]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root) or "unavailable (not a git checkout)",
        "source_sha256": src.hexdigest(),
        "page_cache": "warm: the corpus is read right after it is written, and the "
                      "cache is never dropped (that needs privileges the benchmark does not use)",
        "timer": "time.perf_counter",
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def collect(bench: Bench) -> dict[str, dict]:
    """Every metric: value, unit, sample count and how it was reduced."""
    metrics = {}

    def put(name, unit, value, n, how, samples=None):
        metrics[name] = {"value": value, "unit": unit, "n": n, "how": how}
        if samples is not None:
            metrics[name]["samples"] = samples

    for name, unit in END_TO_END:
        if name == "setup_s":
            times = [t for t in bench.setup_times if t is not None]
            put(name, unit, median(times), len(times), "median of set-ups", times)
        elif name == "peak_rss_mb":
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            put(name, unit, rss, 1, "process peak (ru_maxrss)")
        else:
            timed = bench.times.get(name, [])
            raw = [s for _, s in timed]
            scaled = [s * REF_CAL_S / statistics.median(bench.cals[max(i - 1, 0):i + 2])
                      for i, s in timed]
            put(name, unit, median(scaled), len(scaled),
                f"median of untraced rounds, each scaled to the reference speed; "
                f"unscaled median {median(raw) or 0:.6g} s", scaled)
            metrics[name]["wall_samples"] = raw
    put("calibration_s", "s", median(bench.cals), len(bench.cals),
        f"median calibration loop time (REF_CAL_S = {REF_CAL_S})", bench.cals)
    put("failed_frac", "ratio", bench.failed / max(bench.attempted, 1), bench.attempted,
        "failed / attempted operations")
    if bench.tracer is None:
        return metrics

    wrapped = bench.tracer.wrapped
    rounds = bench.layer_rounds
    for name, (unit, sources) in PER_LAYER.items():
        if sources and not any(s in wrapped for s in sources):
            put(name, unit, None, 0, "absent: " + ", ".join(sources) + " not in the program")
            continue
        if name == "detectors.app_ms_p50":
            put(name, unit, percentile(bench.app_ms, 0.50), len(bench.app_ms), "p50 over apps")
        elif name == "detectors.app_ms_p98":
            put(name, unit, percentile(bench.app_ms, 0.98), len(bench.app_ms), "p98 over apps")
        elif name == "corpusgen.generate_s":
            put(name, unit, median(bench.generate_times), len(bench.generate_times),
                "median of set-ups")
        elif name == "corpusgen.files_written":
            put(name, unit, bench.built.files_written, 1, "count")
        elif name == "corpusgen.mb_written":
            put(name, unit, bench.built.bytes_written / 1e6, 1, "count")
        elif name == "trace.overhead_ratio":
            put(name, unit, median(bench.round_totals[True]) / median(bench.round_totals[False]),
                len(bench.round_totals[True]), "median traced round / median untraced round, both scaled")
        elif name == "trace.coverage_min":
            put(name, unit, min(spans / wall for _, spans, wall, _ in bench.coverage),
                len(bench.coverage), "min over commands of (layer self + cli self) / wall")
        elif name == "trace.absent_functions":
            absent = {s for _, srcs in PER_LAYER.values() for s in srcs} - wrapped
            put(name, unit, len(absent), 1, "count: " + (", ".join(sorted(absent)) or "none"))
        else:
            samples = [r[name] for r in rounds if name in r]
            how = "computed from the tree and scanned-file counts; median of traced rounds" \
                if name == "detectors.mb_scanned" else "median of traced rounds"
            put(name, unit, median(samples), len(samples), how)
    return metrics


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.run_id]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "apksift" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/apksift not found)", file=sys.stderr)
        return 2
    # One thread: keep numpy's BLAS from starting worker threads of its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import apksift

    if Path(apksift.__file__).resolve().parent != (src / "apksift").resolve():
        print(f"perfbench: imported apksift from {apksift.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    bench = Bench(args, root)
    started = time.perf_counter()
    try:
        bench.setup()
        n_rounds = bench.rounds(started + args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    metrics = collect(bench)

    record = {"provenance": provenance(args, root), "rounds": n_rounds,
              "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    if bench.tracer is not None:
        record["coverage"] = [
            {"command": c, "spans_s": s, "wall_s": w, "cli_self_s": own}
            for c, s, w, own in bench.coverage]
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if bench.tracer is not None:
        write_spans(results / f"{stem}-spans.jsonl.gz", bench.last_spans)

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric {name} = {value} {m['unit']} (n={m['n']}, {m['how']})")
    listed = [n for n, _ in END_TO_END] if not args.trace else list(PER_LAYER)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in listed if metrics[n]["value"] is not None},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
