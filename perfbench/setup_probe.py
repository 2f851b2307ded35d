"""Time one fresh process: import belldistill and belldistill.cli, then one warm-up item.

Usage: python3 setup_probe.py ROOT KIND SEED WORKDIR

KIND is "analyze" (one analyze call) or "verify" (a campaign of one trial).

Prints the elapsed seconds. numpy is imported before the clock starts: it
is a dependency whose import (about 0.1 s here) would hide the package's
own. The clock then covers importing the package and its first use, so
work the package moves into import or first-use set-up shows. The warm-up
input for analyze_batch (WORKDIR/table0.json) is written by the caller
beforehand and is not timed.
"""

import contextlib
import io
import sys
from time import perf_counter

if __name__ == "__main__":
    root, kind, seed, workdir = sys.argv[1:5]
    sys.path.insert(0, f"{root}/src")
    import numpy  # noqa: F401

    start = perf_counter()
    import belldistill  # noqa: F401
    import belldistill.cli

    # the warm-up's outcome is not checked here: the run itself checks the
    # same calls, and a failure there is counted, not hidden by a crash
    if kind == "analyze":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            belldistill.cli.main(
                ["analyze", f"{workdir}/table0.json", "--output", f"{workdir}/warmup.json"]
            )
    else:
        from belldistill import verify

        verify.summary_text(verify.run_campaign(1, int(seed), jobs=1))
    print(repr(perf_counter() - start))
