"""``tools/parity.py --compare`` reports every differing or one-sided file."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "parity.py"


def compare(a, b):
    return subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(a), str(b)],
        capture_output=True,
        text=True,
    )


def make_tree(root, files):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)


def test_identical_trees_pass(tmp_path):
    files = {"run1/trajectory.csv": b"epoch\n0\n", "run1/summary.json": b"{}\n"}
    make_tree(tmp_path / "a", files)
    make_tree(tmp_path / "b", files)
    done = compare(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["2 files compared, 0 differ"]


def test_changed_and_one_sided_files_listed(tmp_path):
    make_tree(tmp_path / "a", {"r/same.csv": b"1\n", "r/changed.csv": b"1\n", "r/only_a": b""})
    make_tree(tmp_path / "b", {"r/same.csv": b"1\n", "r/changed.csv": b"2\n", "r/only_b": b""})
    done = compare(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "4 files compared, 3 differ",
        "r/changed.csv",
        "r/only_a",
        "r/only_b",
    ]


def test_differing_json_sized_by_its_largest_numeric_difference(tmp_path):
    make_tree(tmp_path / "a", {"r/summary.json": b'{"x": [1.0, 2.0], "y": "a", "z": NaN}\n'})
    make_tree(tmp_path / "b", {"r/summary.json": b'{"x": [1.5, 2.25], "y": "b", "z": NaN}\n'})
    done = compare(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "1 files compared, 1 differ",
        "r/summary.json  largest numeric difference 0.5",
    ]
