"""``tools/contract.py``: two trees, one corpus, every output compared.

The tool runs each tree in its own subprocesses, so these tests run it as
a program on the small digest corpus: a tree against itself is identical
(timings differ between the runs and are masked), and a tree whose
ranking writer prints one more digit is not.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "contract.py"


def _contract(base: Path, head: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(base), str(head), "--corpora", "digest"],
                          capture_output=True, text=True, timeout=120)


def test_tree_against_itself_is_identical():
    done = _contract(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "identical"


def test_changed_output_byte_is_named(tmp_path):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ranking = mutant / "src" / "apksift" / "ranking.py"
    text = ranking.read_text(encoding="utf-8")
    assert 'f"{r.score:.5f}"' in text
    ranking.write_text(text.replace('f"{r.score:.5f}"', 'f"{r.score:.6f}"'), encoding="utf-8")
    done = _contract(ROOT, mutant)
    assert done.returncode == 1, done.stdout + done.stderr
    differing = [line for line in done.stdout.splitlines() if line.startswith("differs: ")]
    assert [line.split(":")[1] for line in differing] == [
        " digest C/rank.csv", " digest M/rank.csv", " digest P/rank.csv"]
    assert done.stdout.splitlines()[-1] == "3 difference(s)"
