"""Deterministic benchmark inputs, built offline from the workload seed.

Run as its own process so that input generation (and the pytest import that
the test generators pull in) stays out of the workload process's set-up time
and peak memory:

    python3 bench/inputs.py --workload wide-release --seed 3 --out DIR [--smoke]

It writes the files into DIR and prints one JSON manifest on stdout: every
file's path, size and sha256, plus the parameters the workload needs. The
same (workload, seed, --smoke) always gives byte-identical files.

The census counts and the wordlist come from the generators in
tests/conftest.py, so the benchmark runs on the same shapes as the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import conftest  # noqa: E402  (tests/conftest.py: census counts, make_words)

WORKLOADS = ("census-sweep", "wide-release", "huge-domain")

# Full sizes, and the tiny ones the smoke test uses.
SIZES = {
    False: {"words": conftest.WORDLIST_SIZE, "wide_rows": 1_000_000, "wide_active": 100_000},
    True: {"words": 2_000, "wide_rows": 20_000, "wide_active": 1_000},
}
# Zipf exponent of the wide column's tail: a few heavy labels, a long tail of
# labels seen only a handful of times (most of which the threshold removes).
WIDE_ZIPF = 1.0
HUGE_LABELS = 10
PAIR_LABELS = 3


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k, np.uint32)]


def wordlist(size: int, seed: int) -> list[str]:
    """The census workclass labels plus make_words, shuffled by the seed."""
    labels = list(conftest.WORKCLASS_COUNTS)
    words = labels + conftest.make_words(size - len(labels))
    assert len(set(words)) == size
    np.random.default_rng(seed).shuffle(words)
    return words


def census_csv(seeds: list[int]) -> str:
    """The 32 561-row census extract of tests/conftest.py, same cell quirks."""
    sex = conftest._column(conftest.SEX_COUNTS, seeds[0])
    work = conftest._column(conftest.WORKCLASS_COUNTS, seeds[1])
    marital = conftest._column(conftest.MARITAL_COUNTS, seeds[2])
    lines = ["sex,workclass,marital-status"]
    lines.extend(f"{s}, {w}, {m}" for s, w, m in zip(sex, work, marital))
    return "\n".join(lines) + "\n"


def wide_csv(words: list[str], rows: int, active: int, seed: int) -> str:
    """`active` distinct words, each once, plus a Zipf tail up to `rows` rows."""
    rng = np.random.default_rng(seed)
    chosen = np.array(words, dtype=object)[rng.choice(len(words), size=active, replace=False)]
    weights = 1.0 / np.arange(1, active + 1) ** WIDE_ZIPF
    tail = rng.choice(active, size=rows - active, p=weights / weights.sum())
    index = np.concatenate([np.arange(active), tail])
    rng.shuffle(index)
    return "word\n" + "\n".join(chosen[index].tolist()) + "\n"


def counts_csv(header: str, labels: list[str], seed: int) -> str:
    """A small column with the given labels, each 50 to 1000 times."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(50, 1001, size=len(labels))
    cells = np.repeat(np.array(labels, dtype=object), counts)
    rng.shuffle(cells)
    return header + "\n" + "\n".join(cells.tolist()) + "\n"


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    sizes = SIZES[smoke]
    s = _seeds(seed, 8)
    words = wordlist(sizes["words"], s[0])
    texts = {"words.txt": "\n".join(words) + "\n"}
    params: dict = {"wordlist_size": len(words)}
    if workload == "census-sweep":
        texts["census.csv"] = census_csv(s[1:4])
        params.update(column="workclass", rows=conftest.TOTAL_ROWS,
                      active=len(conftest.WORKCLASS_COUNTS))
    elif workload == "wide-release":
        texts["wide.csv"] = wide_csv(words, sizes["wide_rows"], sizes["wide_active"], s[4])
        params.update(column="word", rows=sizes["wide_rows"], active=sizes["wide_active"])
    elif workload == "huge-domain":
        rng = np.random.default_rng(s[5])
        labels = [f"cat-{i}" for i in rng.choice(1000, size=HUGE_LABELS, replace=False)]
        picks = rng.choice(len(words), size=(PAIR_LABELS, 2), replace=False)
        pairs = [f"{words[a]} {words[b]}" for a, b in picks]
        texts["sizeonly.csv"] = counts_csv("category", labels, s[6])
        texts["pairs.csv"] = counts_csv("pair", pairs, s[7])
        params.update(active=HUGE_LABELS, pair_active=PAIR_LABELS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, text in texts.items():
        data = text.encode("utf-8")
        (out / name).write_bytes(data)
        files[name] = {"path": str(out / name), "bytes": len(data),
                       "sha256": hashlib.sha256(data).hexdigest()}
    return {"workload": workload, "seed": seed, "smoke": smoke, "files": files, "params": params}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the smoke test")
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
