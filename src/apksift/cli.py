"""Command-line entry point for the full pipeline.

Subcommands: gen (synthetic corpus), extract (vector matrix CSV), rank
(full-corpus ranking CSV), train (model JSON), classify (prediction CSV),
evaluate (cross-validated report), bench (extraction timing comparison).

Exit status: 0 success, 1 usage error, 2 data/component error. Note that
`rank` scores features on the whole labeled corpus (reproducing published
frequency tables), while `evaluate` re-ranks inside every training fold
to keep the evaluation leakage-free.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import catalog as catalog_mod
from . import classifier as classifier_mod
from . import corpusgen
from . import detectors
from . import evaluation
from . import files
from . import ranking
from .corpus import load_corpus
from .errors import ApkSiftError

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _probability(text: str) -> float:
    if not 0 <= (value := float(text)) <= 1:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"not a probability in [0, 1]: {text!r}")
    return value


def _add_corpus_args(p: argparse.ArgumentParser, labels_required: bool = False):
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.add_argument("--labels", required=labels_required, help="labels CSV (app_id,label)")


def _add_catalog_args(p: argparse.ArgumentParser):
    p.add_argument("--catalog", default="builtin", help="catalog JSON path or 'builtin'")
    p.add_argument("--mode", choices=catalog_mod.MODES, default="M",
                   help="feature regime: P permissions, C code properties, M mixed")


def _presets(text: str) -> list[str]:
    if not set(names := text.split(",")) <= ranking.PRESETS.keys() or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(
            f"not a comma list of distinct presets from {sorted(ranking.PRESETS)}: {text!r}")
    return names


def _add_selection_args(p: argparse.ArgumentParser, many: bool = False):
    group = p.add_mutually_exclusive_group()
    if many:
        group.add_argument("--features", type=_presets, metavar="PRESET[,PRESET...]",
                           help="named selection preset(s); two or more write OUT/PRESET/")
    else:
        group.add_argument("--features", choices=sorted(ranking.PRESETS),
                           help="named selection preset")
    group.add_argument("--top", type=int, metavar="N", help="select the top N ranked features")


def build_parser() -> _Parser:
    parser = _Parser(prog="apksift", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus with exact feature frequencies")
    p.add_argument("--table", required=True,
                   help="frequency CSV (feature,benign_count,malware_count) "
                        "or one of: table4, table5, table6")
    p.add_argument("--benign", type=int, default=1000, help="benign class size")
    p.add_argument("--malware", type=int, default=1000, help="suspicious class size")
    p.add_argument("--pad-lines", type=int, default=0,
                   help="inert filler lines per generated code file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output corpus directory (must be empty)")
    _add_catalog_args(p)

    p = sub.add_parser("extract", help="extract feature vectors to a matrix CSV")
    _add_corpus_args(p)
    _add_catalog_args(p)
    p.add_argument("--out", required=True, help="output matrix CSV path")
    p.add_argument("--stats", help="optional per-sample timing CSV path")

    p = sub.add_parser(
        "rank",
        help="rank features by information gain over the full corpus",
        description="Rank features by information gain computed over the whole "
                    "labeled corpus (reproduces published frequency tables). "
                    "'evaluate' instead re-ranks inside each training fold so "
                    "its test portions never leak into selection.",
    )
    _add_corpus_args(p, labels_required=True)
    _add_catalog_args(p)
    p.add_argument("--out", required=True, help="output ranking CSV path")

    p = sub.add_parser("train", help="train a classifier and save the model JSON")
    _add_corpus_args(p, labels_required=True)
    _add_catalog_args(p)
    _add_selection_args(p)
    p.add_argument("--alpha", type=_finite, default=1.0, help="additive smoothing")
    p.add_argument("--out", required=True, help="output model JSON path")

    p = sub.add_parser("classify", help="score a corpus with a saved model")
    _add_corpus_args(p)
    _add_catalog_args(p)
    p.add_argument("--model", required=True, help="model JSON from 'train'")
    p.add_argument("--threshold", type=_probability, default=0.5)
    p.add_argument("--out", required=True, help="output prediction CSV path")

    p = sub.add_parser(
        "evaluate",
        help="stratified cross-validation with full metrics and ROC",
        description="Stratified k-fold evaluation. Feature ranking and "
                    "selection run on the training portion of each fold only "
                    "(unlike 'rank', which scores the full corpus).",
    )
    _add_corpus_args(p, labels_required=True)
    _add_catalog_args(p)
    _add_selection_args(p, many=True)
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv", "all"), default="all",
                   help="which report files to write")
    p.add_argument("--out", required=True, help="output report directory")

    p = sub.add_parser("bench", help="compare extraction wall time across feature settings")
    _add_corpus_args(p, labels_required=True)
    p.add_argument("--catalog", default="builtin")
    p.add_argument("--out", required=True, help="output timing CSV path")

    return parser


# Controls and line and paragraph separators print as escapes, a backslash doubles, and
# a lone surrogate prints as \udcNN: no id or path from a tree can forge an output line.
_ESCAPES = {ord("\\"): "\\\\", **{c: f"\\x{c:02x}" if c < 0x100 else f"\\u{c:04x}"
                                  for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}}


def _warn(warnings) -> None:
    for warning in warnings:
        shown = warning.translate(_ESCAPES).encode("utf-8", "backslashreplace").decode()
        print(f"warning: {shown}", file=sys.stderr)


def _load_corpus(args):
    corpus = load_corpus(args.corpus, args.labels)
    _warn(corpus.warnings)
    return corpus


def _extract(args, mode=None, labeled_only=False, names=None):
    """Load the catalog and corpus and extract, printing every warning to stderr.
    Given a model's feature ``names``, extract only those."""
    cat = catalog_mod.load_catalog(args.catalog, mode or args.mode)
    if names is not None:
        classifier_mod.feature_columns(names, cat.names)  # the model's error, not the catalog's
        cat = catalog_mod.subset_catalog(cat, names)
    corpus = _load_corpus(args)
    unlabeled = corpus.label_counts["unlabeled"]
    if labeled_only and unlabeled:
        print(f"note: ignoring {unlabeled} unlabeled sample(s)", file=sys.stderr)
        corpus = _labeled_only(corpus)
    matrix, stats = detectors.extract_corpus(corpus, cat)
    _warn(stats.warnings)
    return matrix, stats


def _labeled_only(corpus):
    samples = tuple(s for s in corpus.samples if s.label is not None)
    counts = dict(corpus.label_counts, unlabeled=0)
    return dataclasses.replace(corpus, samples=samples, label_counts=counts)


def time_extraction_settings(corpus, catalog: str = "builtin") -> list[tuple[str, int, float]]:
    """(setting, feature count, seconds) rows timing extraction of a labeled corpus
    with the top 25 features of one untimed full ranking, permissions only, code
    properties only and the full mixed catalog, in that order. The untimed
    extraction's warnings are printed to stderr."""
    full = catalog_mod.load_catalog(catalog, "M")
    matrix, stats = detectors.extract_corpus(corpus, full)
    _warn(stats.warnings)
    top25 = ranking.select_top(ranking.rank_features(ranking.build_contingency(matrix)), n=25)
    settings = [
        ("25 top mixed attributes", catalog_mod.subset_catalog(full, top25.names)),
        ("permissions only", catalog_mod.load_catalog(catalog, "P")),
        ("code properties only", catalog_mod.load_catalog(catalog, "C")),
        ("all permissions and code properties", full),
    ]
    rows = []
    for label, cat in settings:
        start = time.perf_counter()
        detectors.extract_corpus(corpus, cat)
        rows.append((label, len(cat), time.perf_counter() - start))
    return rows


def _selection_args(args):
    if args.features is None and args.top is None:
        return {"preset": "15f", "top_n": None}
    return {"preset": args.features, "top_n": args.top}


def _cmd_gen(args) -> int:
    cat = catalog_mod.load_catalog(args.catalog, args.mode)
    table = args.table
    if table in ("table4", "table5", "table6"):
        table = catalog_mod.data_table_path(table)
    spec = corpusgen.spec_from_table(table, cat, args.benign, args.malware, args.seed)
    result = corpusgen.generate(spec, args.out, pad_lines=args.pad_lines)
    print(f"generated {spec.n_benign + spec.n_suspicious} samples under {result.root}")
    print(f"labels: {result.labels}")
    return 0


def _cmd_extract(args) -> int:
    matrix, stats = _extract(args)
    detectors.write_matrix_csv(matrix, args.out)
    if args.stats:
        detectors.write_stats_csv(stats, args.stats)
    print(f"extracted {len(matrix)} x {len(matrix.feature_names)} matrix -> {args.out} "
          f"({stats.wall_ms:.1f} ms)")
    return 0


def _cmd_rank(args) -> int:
    matrix, _ = _extract(args, labeled_only=True)
    ranked = ranking.rank_features(ranking.build_contingency(matrix))
    ranking.write_ranking_csv(ranked, args.out)
    print(f"ranked {len(ranked)} features -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    matrix, _ = _extract(args, labeled_only=True)
    tables = ranking.build_contingency(matrix)
    ranked = ranking.rank_features(tables)
    sel = _selection_args(args)
    selection = ranking.select_top(ranked, preset=sel["preset"], n=sel["top_n"])
    model = classifier_mod.train(tables, selection.names, alpha=args.alpha, catalog_mode=args.mode)
    classifier_mod.save_model(model, args.out)
    print(f"trained on {len(matrix)} samples, {len(selection.names)} features -> {args.out}")
    return 0


def _cmd_classify(args) -> int:
    model = classifier_mod.load_model(args.model)
    matrix, _ = _extract(args, model.catalog_mode, names=model.feature_names)
    rows = ([pred.sample_id, f"{pred.posterior:.6f}", f"{pred.score:.6f}", pred.decision.value]
            for pred in classifier_mod.classify(model, matrix, threshold=args.threshold))
    files.write_csv(args.out, ["app_id", "posterior", "score", "decision"], rows, ApkSiftError)
    print(f"classified {len(matrix)} samples -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    matrix, _ = _extract(args, labeled_only=True)
    selections = ([{"preset": p, "top_n": None} for p in args.features] if args.features
                  else [_selection_args(args)])
    reports = {s["preset"]: evaluation.cross_validate(matrix, **s, alpha=args.alpha, k=args.folds,
                                                      seed=args.seed)
               for s in selections}  # one shared fold plan; no file is written until all pass
    formats = {"json": ("json",), "csv": ("csv",), "all": ("json", "csv", "svg")}[args.format]
    many = len(reports) > 1
    for preset, report in reports.items():
        written = evaluation.emit_report(report, Path(args.out, preset) if many else args.out,
                                         formats=formats)
        avg = report.averaged.as_floats()
        print(f"{preset + ': ' if many else ''}averaged acc={avg['acc']:.5f} "
              f"err={avg['err']:.5f} auc={report.roc.auc:.5f}")
        for path in written:
            print(f"wrote {path}")
    return 0


def _cmd_bench(args) -> int:
    rows = time_extraction_settings(_labeled_only(_load_corpus(args)), args.catalog)
    files.write_csv(args.out, ["attributes_setting", "features", "extraction_time_s"],
                    [(label, n, f"{seconds:.3f}") for label, n, seconds in rows], ApkSiftError)
    for label, n_features, seconds in rows:
        print(f"{label:38s} {n_features:4d} features  {seconds:8.3f} s")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "extract": _cmd_extract,
    "rank": _cmd_rank,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ApkSiftError as exc:
        print(f"apksift: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
