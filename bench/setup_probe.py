"""One set-up measurement in a fresh interpreter, for setup_s.

    python3 bench/setup_probe.py SRC_DIR DOMAINS_JSON

DOMAINS_JSON is a list of [kind, value] pairs, kind one of "words", "pairs"
(value: a wordlist path) or "size" (value: n). The clock starts before
`import cathist` and stops after `load_domain` has built every listed domain,
so interpreter start-up is excluded and numpy's import is included. Prints
{"setup_s": seconds}.
"""

import json
import sys
import time


def main() -> int:
    src, domains = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cathist

    kinds = {"words": cathist.WordList, "pairs": cathist.WordPairs, "size": cathist.SizeOnly}
    sizes = [cathist.load_domain(kinds[kind](value)).size for kind, value in domains]
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "sizes": sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
