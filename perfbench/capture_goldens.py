"""Record the golden output digests of every workload and program seed.

    python3 perfbench/capture_goldens.py

Runs each workload's command once per program seed 0..15 and writes the
sha256 of its stdout (and, for ``dump-traces``, of its trace files in name
order) to ``perfbench/goldens.json``. Capture only from a commit whose
outputs are trusted: every later run is checked against these bytes.
"""

import json
import os
import sys

import run


def main():
    env, _, _ = run.child_env()
    os.makedirs(run.OUT, exist_ok=True)
    outputs = {}
    for name, workload in run.WORKLOADS.items():
        outputs[name] = {}
        for seed in range(run.GOLDEN_SEEDS):
            sample, digests = run.invoke(workload, seed, env, timeout=170.0)
            if not sample.ok:
                raise SystemExit(f"{name} failed at seed {seed}")
            outputs[name][str(seed)] = digests
            print(name, seed, digests["stdout"][:16], flush=True)
    goldens = {"commit": run.git_commit(), "src_sha256": run.source_digest(),
               "outputs": outputs}
    with open(os.path.join(run.HERE, "goldens.json"), "w", encoding="utf-8") as fp:
        json.dump(goldens, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
