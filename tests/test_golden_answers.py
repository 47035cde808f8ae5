"""Pinned CLI answers: every `diskdom solve` case writes the document it wrote when pinned.

Each case runs `diskdom.cli.main(["solve", ...])` and compares its exit
code and the text of the solution document it writes (None when it writes
none) with `golden_answers.json`.  The cases are the corpus files under
four modes, and `gen_random` instances shaped like the benchmark's
workloads, or solved with no size bound, generated here.  A change meant to keep every answer
byte-identical must pass this test unedited.

To pin the answers anew (only when an answer is meant to change):
    PYTHONPATH=src python tests/test_golden_answers.py
"""

import json
import sys
from pathlib import Path

from diskdom import gen_random
from diskdom.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_answers.json")
MODES = {
    "unweighted": [],
    "k3": ["--k", "3"],
    "weighted": ["--weighted"],
    "weighted_k4": ["--weighted", "--k", "4"],
}
# (n, seeds, radius law, weight law, solve flags)
RANDOM = [
    (60, range(1000, 1004), "uniform(2.0,6.0)", "uniform(1,10)", ["--weighted", "--k", "6"]),
    (2000, range(1000, 1002), "uniform(1.0,3.0)", "unit", []),
    (16000, range(1000, 1001), "uniform(4.5,7.5)", "unit", []),
    (40, range(7, 10), "uniform(0.3,1.0)", "uniform(1,10)", ["--weighted"]),
]


def cases() -> dict[str, tuple]:
    """Case name -> (instance text, solve flags), in a fixed order."""
    found = {}
    for path in sorted((ROOT / "corpus").glob("*.json")):
        for mode, flags in MODES.items():
            found[f"{path.stem}-{mode}"] = (path.read_text(), flags)
    for n, seeds, rlaw, wlaw, flags in RANDOM:
        for seed in seeds:
            found[f"random-n{n}-s{seed}"] = (gen_random(n, seed, "circle", rlaw, wlaw).to_json(), flags)
    return found


def answer(workdir: Path, name: str, text: str, flags: list) -> dict:
    """The exit code of one `diskdom solve` case and the document it writes, or None."""
    src, out = workdir / f"{name}.json", workdir / f"{name}.solution.json"
    src.write_text(text)
    code = main(["solve", "--in", str(src), *flags, "--out", str(out)])
    return {"exit": code, "document": out.read_text() if out.exists() else None}


def test_solve_answers_match_the_pinned_ones(tmp_path):
    pinned = json.loads(GOLDEN.read_text())
    found = cases()
    assert sorted(found) == sorted(pinned)
    for name, (text, flags) in found.items():
        assert answer(tmp_path, name, text, flags) == pinned[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: answer(Path(tmp), name, *case) for name, case in cases().items()}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    docs = sum(pin["document"] is not None for pin in pins.values())
    print(f"wrote {GOLDEN.name}: {len(pins)} cases, {docs} documents", file=sys.stderr)
