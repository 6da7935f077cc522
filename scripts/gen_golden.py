#!/usr/bin/env python
"""Regenerate the golden-digest corpus in tests/golden.json.

The corpus (see ``tests/golden_cases.py``) pins a sha256 of every
experiment's quick output and of a fixed grid of small DES runs, plus
the empty-plan engine event count.  Tier-1 tests compare against it, so
a change that alters any simulated outcome fails until the corpus is
regenerated on purpose:

    python scripts/gen_golden.py

The script refuses to run while a ``REPRO_*`` variable that changes
simulated results (``affects_results`` in ``repro.core.knobs``) is set.
The corpus also records the interpreter's ``major.minor``: float
results can differ in the last bit between Python versions (3.12 made
built-in ``sum`` compensated), so the digests are checked only under
the version that generated them.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.analysis.experiments import experiment_ids  # noqa: E402
from repro.core.knobs import ENV_KNOBS, env_raw  # noqa: E402
from tests.golden_cases import (GOLDEN_PATH, case_digest, cases,  # noqa: E402
                                event_counts, experiment_digest,
                                interpreter)


def main() -> int:
    set_knobs = sorted(name for name, knob in ENV_KNOBS.items()
                       if knob.affects_results and env_raw(name) is not None)
    if set_knobs:
        print(f"gen_golden: unset {', '.join(set_knobs)} first; "
              "they change simulated results", file=sys.stderr)
        return 2
    corpus = {
        "experiments": {name: experiment_digest(name)
                        for name in experiment_ids()},
        "cases": {name: case_digest(name) for name in cases()},
        "events_scheduled": {name: thunk()
                             for name, thunk in event_counts().items()},
        "python": interpreter(),
    }
    text = json.dumps(corpus, indent=2, sort_keys=True) + "\n"
    old = GOLDEN_PATH.read_text(encoding="utf-8") if GOLDEN_PATH.exists() else ""
    GOLDEN_PATH.write_text(text, encoding="utf-8")
    state = "unchanged" if text == old else "regenerated"
    print(f"{GOLDEN_PATH.relative_to(ROOT)}: {state} "
          f"({len(corpus['experiments'])} experiments, "
          f"{len(corpus['cases'])} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
