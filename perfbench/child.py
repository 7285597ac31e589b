"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> <workdir>
        Imports bosonbunch and builds the workload's inputs, which is what a
        fresh interpreter does before its first op. The parent times it.

    python3 perfbench/child.py cli <sample arguments...>
        Runs the CLI's main as ``python -m bosonbunch`` does, with spans
        around the import of bosonbunch.cli, load_unitary, sample_batch and
        main. After the last byte of stdout it replays every sample step by
        step through conditional_weights, then prints the spans and the
        replayed step time as one JSON line on stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def setup(name: str, seed: str, workdir: str) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS

    WORKLOADS[name](int(seed), Path(workdir))
    return 0


def traced_cli(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import bosonbunch.cli as bcli
    t1 = time.perf_counter()

    calls = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            calls[name] = (start, time.perf_counter(), value)
            return value

        return call

    bcli.load_unitary = timed("matrices.load_unitary", bcli.load_unitary)
    bcli.sample_batch = timed("sampler.sample_batch", bcli.sample_batch)
    start = time.perf_counter()
    code = bcli.main(argv)
    end = time.perf_counter()
    sys.stdout.flush()
    os.close(sys.stdout.fileno())  # the parent's clock stops at this last byte

    spans = [["cli.import", t0, t1, None], ["cli.main", start, end, None]]
    spans += [[name, s, e, "cli.main"] for name, (s, e, _) in calls.items()]
    step_s = 0.0
    if "sampler.sample_batch" in calls:
        from bosonbunch.sampler import conditional_weights

        u = calls["matrices.load_unitary"][2]
        for seq in calls["sampler.sample_batch"][2].samples:
            for k in range(len(seq.ports)):
                s = time.perf_counter()
                conditional_weights(u, seq.row_order, seq.ports[:k])
                step_s += time.perf_counter() - s
    print(json.dumps({"spans": spans, "step_s": step_s}), file=sys.stderr)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    raise SystemExit(setup(*rest) if mode == "setup" else traced_cli(rest))
