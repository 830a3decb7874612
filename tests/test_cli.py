import json

import pytest

from apksift import classifier
from apksift.cli import build_parser, main

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
    real = classifier.classify_matrix
    monkeypatch.setattr(classifier, "classify_matrix",
                        lambda *a, **kw: calls.append(len(a[1])) or real(*a, **kw))
    assert main(["classify", "--corpus", str(root), "--model", str(model_path),
                 "--out", str(tmp_path / "preds.csv")]) == 0
    assert calls == [12]


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
