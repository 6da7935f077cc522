"""A warm answer in a fresh interpreter.

Answers one workload's operation from a result cache that a cold run
filled, the way a user re-running it would get the answer, and pickles
the answer to ``--out``::

    python perfbench/child.py --workload wan_loss --seed 1 --jobs 2 \\
        --store STORE --out answer.pickle

With ``--probe PROBE.json`` the answer is given with the result cache's
``get``/``put`` wrapped (:class:`layers.Probe`), and what the wrappers
recorded is written there as JSON: the traced run's cache read figures.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import sys

import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--store", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--probe", type=pathlib.Path)
    args = parser.parse_args()

    import workloads

    root = pathlib.Path(__file__).resolve().parent.parent
    ctx = workloads.Context(root, args.store.parent, args.seed, args.jobs)
    wl = workloads.WORKLOADS[args.workload](ctx)
    if args.probe is None:
        answer = wl.compute(args.jobs, args.store)
    else:
        probe = layers.Probe()
        with probe.installed():
            answer = wl.compute(args.jobs, args.store)
        args.probe.write_text(json.dumps(probe.metrics()))
    args.out.write_bytes(pickle.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
