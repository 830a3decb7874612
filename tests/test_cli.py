import contextlib
import csv
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift import classifier
from apksift.catalog import load_catalog, subset_catalog
from apksift.cli import _warn, build_parser, main
from apksift.corpus import load_corpus
from apksift.detectors import extract_corpus

from conftest import manifest_with, write_labels, write_sample


@pytest.fixture()
def small_corpus(tmp_path):
    """Hand-built separable corpus: chmod in every suspicious sample."""
    root = tmp_path / "corpus"
    for i in range(6):
        write_sample(root, f"ben{i}", manifest=manifest_with("INTERNET"))
    for i in range(6):
        write_sample(root, f"mal{i}", manifest=manifest_with("INTERNET"),
                     code={"A.smali": '    const-string v0, "chmod"\n'})
    labels = write_labels(tmp_path, [(f"ben{i}", "benign") for i in range(6)]
                          + [(f"mal{i}", "suspicious") for i in range(6)])
    return root, labels


def _systemexit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_unknown_flag_is_usage_error(capsys):
    assert _systemexit_code(["rank", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_usage_error():
    assert _systemexit_code(["transmogrify"]) == 1


def test_missing_required_flag_usage_error():
    assert _systemexit_code(["rank", "--mode", "M"]) == 1


@pytest.mark.parametrize("argv", [
    ["evaluate", "--features", "15f,bogus"],
    ["evaluate", "--features", "15f,15f"],
    ["evaluate", "--features", "15f,"],
    ["train", "--features", "5fT,5fL"],  # a model has one selection
])
def test_bad_preset_list_is_usage_error(tmp_path, argv):
    assert _systemexit_code([*argv, "--corpus", str(tmp_path), "--labels",
                             str(tmp_path / "labels.csv"), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_missing_corpus_is_data_error(tmp_path, capsys):
    labels = write_labels(tmp_path, [])
    code = main(["rank", "--corpus", str(tmp_path / "nope"), "--labels", str(labels),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_gen_extract_rank_roundtrip(tmp_path, capsys):
    table = tmp_path / "counts.csv"
    table.write_text(
        "feature,benign_count,malware_count\nREAD_SMS,2,9\nchmod,1,7\n", encoding="utf-8"
    )
    out = tmp_path / "corpus"
    assert main(["gen", "--table", str(table), "--benign", "10", "--malware", "10",
                 "--seed", "3", "--out", str(out)]) == 0

    matrix_csv = tmp_path / "matrix.csv"
    assert main(["extract", "--corpus", str(out), "--labels", str(out / "labels.csv"),
                 "--mode", "M", "--out", str(matrix_csv)]) == 0
    header = matrix_csv.read_text().splitlines()[0]
    assert header.startswith("app_id,label,")

    rank_csv = tmp_path / "rank.csv"
    assert main(["rank", "--corpus", str(out), "--labels", str(out / "labels.csv"),
                 "--mode", "M", "--out", str(rank_csv)]) == 0
    lines = rank_csv.read_text().splitlines()
    assert lines[0] == "rank,feature,benign_count,malware_count,total,infogain"
    top = lines[1].split(",")
    assert top[1] in {"READ_SMS", "chmod"}


def test_gen_nonempty_out_data_error(tmp_path):
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "junk").write_text("x")
    table = tmp_path / "counts.csv"
    table.write_text("feature,benign_count,malware_count\n")
    assert main(["gen", "--table", str(table), "--out", str(out)]) == 2


@pytest.mark.parametrize("below", ["", "sub"])
def test_gen_out_at_or_under_a_file_data_error(tmp_path, capsys, below):
    afile = tmp_path / "afile"
    afile.write_text("x")
    table = tmp_path / "counts.csv"
    table.write_text("feature,benign_count,malware_count\n")
    out = afile / below
    assert main(["gen", "--table", str(table), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("apksift: error: cannot ")


def test_train_and_classify(tmp_path, small_corpus):
    root, labels = small_corpus
    model_path = tmp_path / "model.json"
    assert main(["train", "--corpus", str(root), "--labels", str(labels),
                 "--mode", "M", "--top", "1", "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["features"][0]["name"] == "chmod"

    pred_csv = tmp_path / "preds.csv"
    assert main(["classify", "--corpus", str(root), "--labels", str(labels),
                 "--model", str(model_path), "--out", str(pred_csv)]) == 0
    lines = pred_csv.read_text().splitlines()
    assert lines[0] == "app_id,posterior,score,decision"
    decisions = {line.split(",")[0]: line.split(",")[3] for line in lines[1:]}
    assert decisions["mal0"] == "suspicious"
    assert decisions["ben0"] == "benign"


def test_classify_scores_corpus_in_one_call(tmp_path, small_corpus, monkeypatch):
    root, labels = small_corpus
    model_path = tmp_path / "model.json"
    assert main(["train", "--corpus", str(root), "--labels", str(labels),
                 "--top", "1", "--out", str(model_path)]) == 0
    calls = []
    real = classifier.classify
    monkeypatch.setattr(classifier, "classify",
                        lambda *a, **kw: calls.append(len(a[1])) or real(*a, **kw))
    assert main(["classify", "--corpus", str(root), "--model", str(model_path),
                 "--out", str(tmp_path / "preds.csv")]) == 0
    assert calls == [12]


def test_model_counts_equal_ranking_counts(tmp_path):
    table = tmp_path / "counts.csv"
    table.write_text("feature,benign_count,malware_count\n"
                     "READ_SMS,2,9\nchmod,1,7\nINTERNET,8,6\n", encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--table", str(table), "--benign", "10", "--malware", "12",
                 "--seed", "5", "--out", str(corpus)]) == 0
    common = ["--corpus", str(corpus), "--labels", str(corpus / "labels.csv"), "--mode", "M"]
    rank_csv, model_json = tmp_path / "rank.csv", tmp_path / "model.json"
    assert main(["rank", *common, "--out", str(rank_csv)]) == 0
    assert main(["train", *common, "--top", "5", "--out", str(model_json)]) == 0
    with open(rank_csv, encoding="utf-8", newline="") as fh:
        ranked = {r["feature"]: (int(r["benign_count"]), int(r["malware_count"]))
                  for r in csv.DictReader(fh)}
    model = json.loads(model_json.read_text())
    assert model["class_counts"] == {"benign": 10, "suspicious": 12}
    assert len(model["features"]) == 5
    for f in model["features"]:
        assert (f["count_pos_ben"], f["count_pos_sus"]) == ranked[f["name"]], f["name"]
    assert ranked["READ_SMS"] == (2, 9) and ranked["INTERNET"] == (8, 6)


def _edited_model(tmp_path, small_corpus, edit):
    root, labels = small_corpus
    path = tmp_path / "model.json"
    assert main(["train", "--corpus", str(root), "--labels", str(labels),
                 "--top", "2", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def _classify_error(tmp_path, small_corpus, model, capsys):
    capsys.readouterr()
    code = main(["classify", "--corpus", str(small_corpus[0]), "--model", str(model),
                 "--out", str(tmp_path / "preds.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert [line for line in err if not line.startswith("warning:")] == err[-1:]
    return err[-1]


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_classify_non_finite_model_alpha_data_error(tmp_path, small_corpus, capsys, alpha):
    model = _edited_model(tmp_path, small_corpus, lambda m: m.update(alpha=alpha))
    line = _classify_error(tmp_path, small_corpus, model, capsys)
    assert line.startswith("apksift: error:") and "alpha" in line


def test_classify_duplicated_model_feature_data_error(tmp_path, small_corpus, capsys):
    model = _edited_model(tmp_path, small_corpus,
                          lambda m: m["features"].append(m["features"][0]))
    line = _classify_error(tmp_path, small_corpus, model, capsys)
    assert line.startswith("apksift: error:") and "unique" in line


def test_classify_list_feature_name_data_error(tmp_path, small_corpus, capsys):
    model = _edited_model(tmp_path, small_corpus,
                          lambda m: m["features"][0].update(name=["chmod"]))
    line = _classify_error(tmp_path, small_corpus, model, capsys)
    assert line.startswith("apksift: error:") and "['chmod']" in line


@pytest.mark.parametrize("edit, shown", [
    pytest.param(lambda m: m["features"][0].update(count_pos_sus=3.7), "3.7", id="float-count"),
    pytest.param(lambda m: m["features"][0].update(count_pos_ben=True), "True", id="bool-count"),
    pytest.param(lambda m: m["class_counts"].update(benign="6"), "'6'", id="str-class-count"),
    pytest.param(lambda m: m.update(catalog_mode=""), "''", id="empty-catalog-mode"),
    pytest.param(lambda m: m.update(catalog_mode=False), "False", id="bool-catalog-mode"),
    pytest.param(lambda m: m["class_counts"].update(benign=10**400), "up to 2**53",
                 id="huge-class-count"),
    pytest.param(lambda m: m.update(alpha=10**400), "too large", id="huge-int-alpha"),
    pytest.param(lambda m: m.update(alpha=True), "alpha True", id="bool-alpha"),
])
def test_classify_model_count_or_mode_of_wrong_type_data_error(
        tmp_path, small_corpus, capsys, edit, shown):
    model = _edited_model(tmp_path, small_corpus, edit)
    line = _classify_error(tmp_path, small_corpus, model, capsys)
    assert line.startswith("apksift: error:") and shown in line


@pytest.mark.parametrize("keep", [1, 2])  # the model's only feature, or one of two
def test_classify_model_feature_missing_from_catalog_data_error(
        tmp_path, small_corpus, capsys, keep):
    def edit(m):
        m["features"] = m["features"][:keep]
        m["features"][0].update(name="NOT_A_FEATURE")
    model = _edited_model(tmp_path, small_corpus, edit)
    line = _classify_error(tmp_path, small_corpus, model, capsys)
    assert line == "apksift: error: input is missing model feature(s): NOT_A_FEATURE"


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_non_finite_alpha_usage_error(tmp_path, small_corpus, capsys, command):
    root, labels = small_corpus
    assert _systemexit_code([command, "--corpus", str(root), "--labels", str(labels),
                             "--alpha", "nan", "--out", str(tmp_path / "out")]) == 1
    assert "argument --alpha: not a finite number: 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf", "2", "-0.1"])
def test_threshold_outside_unit_interval_usage_error(tmp_path, small_corpus, capsys, threshold):
    code = _systemexit_code(["classify", "--corpus", str(small_corpus[0]), "--model", "m.json",
                             "--threshold", threshold, "--out", str(tmp_path / "preds.csv")])
    assert code == 1
    assert "argument --threshold: not a probability in [0, 1]" in capsys.readouterr().err


def test_evaluate_separable_and_deterministic(tmp_path, small_corpus):
    root, labels = small_corpus
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    argv = ["evaluate", "--corpus", str(root), "--labels", str(labels), "--mode", "M",
            "--features", "15f", "--folds", "5", "--seed", "7", "--format", "all"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0

    report = json.loads((out1 / "report.json").read_text())
    assert report["averaged"]["acc"] == 1.0
    assert report["roc"]["auc"] == 1.0
    assert report["config"]["preset"] == "15f"
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "roc.csv").read_bytes() == (out2 / "roc.csv").read_bytes()
    assert (out1 / "roc.svg").read_bytes() == (out2 / "roc.svg").read_bytes()


def test_jobs_flag_is_usage_error(capsys):
    common = ["--corpus", "c", "--labels", "l.csv", "--out", "o"]
    for command in ("extract", "rank", "train", "classify", "evaluate", "bench"):
        argv = [command, *common] + (["--model", "m.json"] if command == "classify" else [])
        build_parser().parse_args(argv)  # valid without the flag
        assert _systemexit_code(argv + ["--jobs", "2"]) == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_evaluate_class_too_small_data_error(tmp_path, small_corpus):
    root, labels = small_corpus
    code = main(["evaluate", "--corpus", str(root), "--labels", str(labels),
                 "--folds", "50", "--top", "1", "--out", str(tmp_path / "r")])
    assert code == 2


def test_bench_output_shape(tmp_path):
    table = tmp_path / "counts.csv"
    table.write_text("feature,benign_count,malware_count\nchmod,2,8\nREAD_SMS,1,9\n")
    out = tmp_path / "corpus"
    assert main(["gen", "--table", str(table), "--benign", "10", "--malware", "10",
                 "--pad-lines", "50", "--out", str(out)]) == 0
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", "--corpus", str(out), "--labels", str(out / "labels.csv"),
                 "--out", str(bench_csv)]) == 0
    lines = bench_csv.read_text().splitlines()
    assert lines[0] == "attributes_setting,features,extraction_time_s"
    assert len(lines) == 5
    settings = [line.split(",")[0] for line in lines[1:]]
    assert settings == [
        "25 top mixed attributes",
        "permissions only",
        "code properties only",
        "all permissions and code properties",
    ]
    feature_counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert feature_counts == [25, 131, 58, 189]


def test_unlabeled_samples_noted_and_ignored(tmp_path, capsys):
    root = tmp_path / "corpus"
    for i in range(3):
        write_sample(root, f"ben{i}", manifest=manifest_with())
        write_sample(root, f"mal{i}", manifest=manifest_with(),
                     code={"A.smali": '    const-string v0, "chmod"\n'})
    write_sample(root, "stray", manifest=manifest_with())
    labels = write_labels(tmp_path, [(f"ben{i}", "benign") for i in range(3)]
                          + [(f"mal{i}", "suspicious") for i in range(3)])
    assert main(["rank", "--corpus", str(root), "--labels", str(labels),
                 "--out", str(tmp_path / "rank.csv")]) == 0
    assert "ignoring 1 unlabeled" in capsys.readouterr().err


# --- hostile trees ---------------------------------------------------------------

def test_extract_manifest_link_to_proc_mem(tmp_path, capsys):
    # Read through the link, /proc/self/mem fails with EIO; it is never followed.
    root = tmp_path / "corpus"
    d = write_sample(root, "a", code={"A.smali": '    const-string v0, "chmod"\n'})
    os.symlink("/proc/self/mem", d / "AndroidManifest.xml")
    write_sample(root, "b", manifest=manifest_with("READ_SMS"))
    out = tmp_path / "matrix.csv"
    assert main(["extract", "--corpus", str(root), "--mode", "M", "--out", str(out)]) == 0
    assert "warning: a: manifest unreadable (" in capsys.readouterr().err
    header, row_a, row_b = (line.split(",") for line in out.read_text().splitlines())
    a, b = dict(zip(header, row_a)), dict(zip(header, row_b))
    assert (a["chmod"], a["READ_SMS"], b["READ_SMS"]) == ("1", "0", "1")


def test_link_at_corpus_root_warned_by_every_command(tmp_path, small_corpus, capsys):
    root, labels = small_corpus
    write_sample(tmp_path, "else", code={"X.smali": '    const-string v0, "chmod"\n'})
    os.symlink("../else", root / "x")
    for argv in (["extract", "--mode", "C"], ["rank"], ["evaluate", "--top", "1"]):
        assert main([*argv, "--corpus", str(root), "--labels", str(labels),
                     "--out", str(tmp_path / argv[0])]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == ["warning: x: skipped corpus entry (link)"], argv
    ids = [line.split(",")[0] for line in (tmp_path / "extract").read_text().splitlines()]
    assert ids == ["app_id"] + [f"ben{i}" for i in range(6)] + [f"mal{i}" for i in range(6)]


@pytest.mark.parametrize("name, shown", [
    ("x\nwarning: b: forged line", "x\\x0awarning: b: forged line"),
    ("y\r\x85\u2028\x7f", "y\\x0d\\x85\\u2028\\x7f"),
    ("z\\x0a\udcff", "z\\\\x0a\\udcff"),  # a literal backslash, an undecodable byte
], ids=["newline", "controls-and-separators", "backslash-and-surrogate"])
def test_tree_names_cannot_forge_a_warning_line(tmp_path, capsys, name, shown):
    root = tmp_path / "corpus"
    d = write_sample(root, "a", manifest=manifest_with("INTERNET"), code={"A.smali": "\n"})
    os.symlink("A.smali", d / "smali" / name)
    assert main(["extract", "--corpus", str(root), "--mode", "C",
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: a: skipped smali/{shown} (link)"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.text(st.characters(exclude_categories=())
                        | st.sampled_from("\\\n\r\x0b\x1c\x7f\x85\u2028\u2029\ud800\udcff"),
                        max_size=12), max_size=4))
def test_printed_warning_is_one_line_that_unescapes_to_the_record(records):
    # all code points, lone surrogates included: each record prints as exactly one line
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _warn(records)
    lines = err.getvalue().split("\n")
    assert lines.pop() == ""
    assert [line.splitlines() for line in lines] == [[line] for line in lines]
    assert all(line.encode("utf-8") for line in lines)  # no lone surrogate left
    shown = [line.removeprefix("warning: ") for line in lines]
    assert [s.encode("ascii", "backslashreplace").decode("unicode_escape") for s in shown] == records


def test_extraction_warnings_printed_by_every_extracting_command(tmp_path, small_corpus, capsys):
    root, labels = small_corpus
    (root / "ben0" / "AndroidManifest.xml").write_text(manifest_with("INTERNET")[:60])
    model = str(tmp_path / "train")
    seen = {}
    for argv in (["extract"], ["rank"], ["train"], ["classify", "--model", model],
                 ["evaluate", "--top", "1"]):
        assert main([*argv, "--corpus", str(root), "--labels", str(labels),
                     "--out", str(tmp_path / argv[0])]) == 0
        seen[argv[0]] = [line for line in capsys.readouterr().err.splitlines()
                         if line.startswith("warning:")]
    assert len(seen["extract"]) == 1
    assert seen["extract"][0].startswith("warning: ben0: malformed manifest XML (")
    # classify extracts only the model's features and prints that extraction's warnings
    classify = seen.pop("classify")
    assert all(lines == seen["extract"] for lines in seen.values()), seen
    names = classifier.load_model(model).feature_names
    _, stats = extract_corpus(load_corpus(root, labels),
                              subset_catalog(load_catalog("builtin", "M"), names))
    assert classify == [f"warning: {w}" for w in stats.warnings]


def _classify_warnings(tmp_path, small_corpus, capsys, feature):
    root, _ = small_corpus
    (root / "ben0" / "AndroidManifest.xml").write_text(manifest_with("INTERNET")[:60])
    model = tmp_path / "model.json"
    classifier.save_model(classifier.TrainedModel((feature,), 6, 6, (0,), (6,), 1.0, "M"), model)
    capsys.readouterr()
    assert main(["classify", "--corpus", str(root), "--model", str(model),
                 "--out", str(tmp_path / "preds.csv")]) == 0
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]


def test_classify_permission_model_warns_of_malformed_manifest(tmp_path, small_corpus, capsys):
    warnings = _classify_warnings(tmp_path, small_corpus, capsys, "INTERNET")
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: ben0: malformed manifest XML (")


def test_classify_code_only_model_never_reads_manifest(tmp_path, small_corpus, capsys):
    assert _classify_warnings(tmp_path, small_corpus, capsys, "chmod") == []


def test_classify_lists_no_payload_tree_once_code_set_its_features(tmp_path, small_corpus, capsys):
    # chmod searches code and assets. Where the code sets it, assets/ is
    # never listed, so its link draws no warning; where it does not, it does.
    root, _ = small_corpus
    for app in ("ben1", "mal1"):
        (root / app / "assets").mkdir()
        os.symlink("../AndroidManifest.xml", root / app / "assets" / "ln")
    assert _classify_warnings(tmp_path, small_corpus, capsys, "chmod") == [
        "warning: ben1: skipped assets/ln (link)"]


def test_bench_prints_extraction_warnings(tmp_path, small_corpus, capsys):
    root, labels = small_corpus
    (root / "ben0" / "AndroidManifest.xml").write_text(manifest_with("INTERNET")[:60])
    seen = {}
    for argv in (["extract", "--mode", "M"], ["bench"]):
        assert main([*argv, "--corpus", str(root), "--labels", str(labels),
                     "--out", str(tmp_path / argv[0])]) == 0
        seen[argv[0]] = [line for line in capsys.readouterr().err.splitlines()
                         if line.startswith("warning:")]
    assert len(seen["extract"]) == 1
    assert seen["bench"] == seen["extract"]


def test_extract_and_classify_non_utf8_names(tmp_path, small_corpus):
    root, labels = small_corpus
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", str(root), "--labels", str(labels),
                 "--top", "1", "--out", str(model)]) == 0
    hostile = os.fsencode(tmp_path / "hostile")
    for app in (b"\xff", b"ok"):
        smali = os.path.join(hostile, app, b"smali")
        os.makedirs(smali)
        with open(os.path.join(smali, b"\xff.smali"), "wb") as fh:
            fh.write(b'    const-string v0, "chmod"\n')
    matrix, preds = tmp_path / "matrix.csv", tmp_path / "preds.csv"
    assert main(["extract", "--corpus", os.fsdecode(hostile), "--out", str(matrix)]) == 0
    rows = [line.split(b",") for line in matrix.read_bytes().splitlines()]
    chmod = rows[0].index(b"chmod")
    assert [(r[0], r[chmod]) for r in rows[1:]] == [(b"ok", b"1"), (b"\xff", b"1")]
    assert main(["classify", "--corpus", os.fsdecode(hostile), "--model", str(model),
                 "--out", str(preds)]) == 0
    rows = [line.split(b",") for line in preds.read_bytes().splitlines()]
    assert [(r[0], r[3]) for r in rows[1:]] == [(b"ok", b"suspicious"), (b"\xff", b"suspicious")]


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_carriage_return_in_an_id_round_trips(tmp_path, small_corpus):
    # A bare CR in a cell is quoted, so csv reads every row back as written.
    root, labels = small_corpus
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", str(root), "--labels", str(labels),
                 "--top", "1", "--out", str(model)]) == 0
    hostile = tmp_path / "hostile"
    write_sample(hostile, "cr\rx", code={"A.smali": '    const-string v0, "chmod"\n'})
    write_sample(hostile, "ok")
    matrix, stats, preds = tmp_path / "matrix.csv", tmp_path / "stats.csv", tmp_path / "preds.csv"
    assert main(["extract", "--corpus", str(hostile), "--out", str(matrix),
                 "--stats", str(stats)]) == 0
    rows = _csv_rows(matrix)
    chmod = rows[0].index("chmod")
    assert [(r[0], r[chmod]) for r in rows[1:]] == [("cr\rx", "1"), ("ok", "0")]
    assert [r[0] for r in _csv_rows(stats)[1:]] == ["cr\rx", "ok"]
    assert main(["classify", "--corpus", str(hostile), "--model", str(model),
                 "--out", str(preds)]) == 0
    assert [(r[0], r[3]) for r in _csv_rows(preds)[1:]] == [("cr\rx", "suspicious"),
                                                            ("ok", "benign")]


def test_evaluate_labels_non_utf8_names(tmp_path):
    # Label rows are read with the same surrogate escapes as directory
    # names, so a sample whose name is not UTF-8 can be labeled.
    root = os.fsencode(tmp_path / "corpus")
    rows, chmod = [b"app_id,label"], b'    const-string v0, "chmod"\n'
    for i in range(6):
        for app, label, code in ((b"ben%d" % i, b"benign", b""),
                                 (b"\xff%d" % i, b"suspicious", chmod)):
            smali = os.path.join(root, app, b"smali")
            os.makedirs(smali)
            with open(os.path.join(smali, b"A.smali"), "wb") as fh:
                fh.write(code)
            rows.append(app + b"," + label)
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"\n".join(rows) + b"\n")
    out = tmp_path / "report"
    assert main(["evaluate", "--corpus", os.fsdecode(root), "--labels", str(labels),
                 "--top", "1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["averaged"]["acc"] == 1.0
    assert {tuple(f["selected_features"]) for f in report["folds"]} == {("chmod",)}
