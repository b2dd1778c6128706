"""Time one set-up in a fresh process: import disrates and run `validate`.

    python3 perfbench/setup_probe.py CONFIG OUTDIR

Prints the seconds from just before `import disrates` until the first
in-process `disrates validate` returns; interpreter start-up is not counted.
Exits 1 if validation fails.
"""

import checkout

checkout.pin_blas()

import contextlib
import io
import sys
import time


def main(config, outdir):
    checkout.use_checkout_source()
    start = time.perf_counter()
    from disrates import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", "--config", config, "--out", outdir])
    elapsed = time.perf_counter() - start
    checkout.check_imported_from_checkout(cli)
    if code != 0:
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
