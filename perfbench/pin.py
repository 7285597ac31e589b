"""Write pinned.json: what the first ops of the pinned seed return, which
every later run must reproduce (sample ports and CLI output byte for byte,
probabilities within the benchmark's tolerance). Run it from the root of a
checkout only when the reproducibility contract is changed on purpose:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import CLASSES, PINNED, PINNED_SEED, glynn_probability, sample_digest  # noqa: E402

SAMPLES = 2
PROBABILITIES = 4


def main() -> None:
    workdir = HERE.parent / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    w = {name: cls(PINNED_SEED, workdir) for name, cls in CLASSES.items()}
    doc = {"seed": PINNED_SEED}
    for name in ("sample-dense", "sample-sparse"):
        doc[name] = [sample_digest(i, w[name].op(w[name].input(i), i, None)[1][0].ports)
                     for i in range(SAMPLES)]
    prob = w["prob-haar"]
    doc["prob-haar"] = [glynn_probability(prob.u, prob.input(i)) for i in range(PROBABILITIES)]
    doc["cli-sample"] = [hashlib.sha256(w["cli-sample"].render()).hexdigest()]
    with open(PINNED, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")


if __name__ == "__main__":
    main()
