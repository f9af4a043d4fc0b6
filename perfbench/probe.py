"""One set-up sample, run in a fresh interpreter: import degclass and parse the corpus.

Usage: python3 probe.py SRC_DIR < corpus.txt
Prints {"setup_s": ..., "raw_s": ..., "speed": ..., "groups": ...} as one JSON
line; setup_s is raw_s scaled to the reference speed (see speed.py).
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from speed import Speedometer


def main() -> int:
    text = sys.stdin.read()
    src = Path(sys.argv[1]).resolve()
    speed = Speedometer()
    with speed.sampling():
        start = perf_counter()
        sys.path.insert(0, str(src))
        import degclass

        records = degclass.parse_corpus(text)
        elapsed = perf_counter() - start
    if Path(degclass.__file__).resolve().parent != src / "degclass":
        sys.exit(f"degclass was imported from {degclass.__file__}, not from {src}")
    scale = speed.scales[-1]
    print(json.dumps({"setup_s": elapsed * scale, "raw_s": elapsed, "speed": scale, "groups": len(records)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
