"""Set-up probe: a fresh interpreter imports the polyfield CLI and runs one
warm-up op, paced (see ``pace.py``) from before the import to the end of
the op.  Prints the exit code, the wall-clock time at which the op ended,
the seconds the pacing kernel took and the speed factor.

    python3 probe.py SRC_DIR CLI_ARG...
"""

import contextlib
import io
import sys
import time

import pace

pacer = pace.Pacer()
pacer.begin()
sys.path.insert(0, sys.argv[1])

from polyfield.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[2:])
pacer.stop()
end = time.time()
spent, speed = pacer.end()
print(f"{code} {end:.6f} {spent:.6f} {speed:.6f}", flush=True)
