"""Write perfbench/reference.json, the values every benchmark process's
output is checked against, from one untraced process per workload.

    python3 perfbench/make_reference.py

Run it only for a change that is meant to alter the computed numbers, and
say so in that change; a change that claims only speed keeps the file.
"""

import json
import os
import shutil
import time

import run
import workload

# Relative tolerance of every comparison: far below the discretisation
# error (err_u_L2 ~ 3e-5 on vortex_n64_p2p1), above the rounding that
# reordered sums leave in second differences of the fields.
RTOL = 1e-7


def main():
    env = run.child_env()
    reference = {"rtol": RTOL, "workloads": {}}
    for name in workload.WORKLOADS:
        work_dir = os.path.join(run.HERE, ".work", "reference-%s" % name)
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        try:
            code, result, _, _, _, out_dir = run.spawn(
                name, False, work_dir, env, time.monotonic() + run.RUN_LIMIT_S
            )
            if code != 0 or result is None:
                raise SystemExit("%s failed with exit code %d" % (name, code))
            _, final = run.read_ledger_final(os.path.join(out_dir, "ledger.csv"))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        entry = {"ledger_final": {c: final[c] for c in run.LEDGER_CHECKED}}
        if "error_norms" in result["values"]:
            entry["error_norms"] = result["values"]["error_norms"]
        reference["workloads"][name] = entry
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
