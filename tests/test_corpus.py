import subprocess
import sys
from pathlib import Path

import pytest

import diskdom
from diskdom.instance_io import load_instance_document
from diskdom.oracle import brute_force_min

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*.json"))


def test_corpus_is_present():
    names = {p.stem for p in CORPUS}
    assert {"t4", "big5", "disjoint6", "w12", "u14", "poly16", "figure1_9", "figure1_13"} <= names


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_file_loads_and_canonicalizes(path):
    doc = load_instance_document(path.read_text())
    inst = doc.to_instance()
    assert inst.n == len(doc.points)
    assert doc.to_json() == path.read_text()  # shipped files are normalized


def test_corpus_pinned_optimum_sizes():
    pins = {"t4": 2, "big5": 1, "disjoint6": 6}
    for path in CORPUS:
        if path.stem not in pins:
            continue
        doc = load_instance_document(path.read_text())
        inst = doc.to_instance(weighted=False)
        assert brute_force_min(inst, "unweighted").size == pins[path.stem]
        assert doc.metadata["optimum_size"] == str(pins[path.stem])


def test_generator_script_reproduces_corpus_byte_identically(tmp_path):
    script = ROOT / "demos" / "generate_corpus.py"
    src = str(Path(diskdom.__file__).parent.parent)
    subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        check=True,
        capture_output=True,
        cwd=ROOT,
        env={"PYTHONPATH": src},
    )
    rebuilt = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in rebuilt] == [p.name for p in CORPUS]
    for fresh, shipped in zip(rebuilt, CORPUS):
        assert fresh.read_bytes() == shipped.read_bytes(), shipped.name
