#!/usr/bin/env python
"""Regenerate the fast-path replay goldens (tests/golden/).

The goldens are canonical fingerprints of full simulation results (see
``repro.perf.fingerprint``).  They pin the kernel's exact trajectories:
every kernel optimization must reproduce them byte for byte, at jobs=1
and jobs=N, traced and untraced, faulted and fault-free.

Only rerun this script when a change *intentionally* alters trajectories
(e.g. a protocol fix) — never to paper over an unexplained diff from a
"pure" performance change, which by definition must not move them.  The
committed goldens equal the runs with one heap entry per message; a
refresh records on the batched transport and so no longer checks that
batching is invisible.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.core.runner import run_simulation  # noqa: E402
from repro.perf.fingerprint import (  # noqa: E402
    fingerprint_digest,
    result_fingerprint,
)
from repro.perf.goldens import (  # noqa: E402
    GOLDEN_CELLS,
    GOLDEN_DIR,
    golden_config,
    golden_path,
)


def main():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in GOLDEN_CELLS:
        config, seed = golden_config(name)
        result = run_simulation(config, seed=seed)
        fingerprint = result_fingerprint(result)
        payload = {
            "cell": name,
            "seed": seed,
            "digest": fingerprint_digest(fingerprint),
            "fingerprint": fingerprint,
        }
        path = golden_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} (digest {payload['digest'][:12]}...)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
