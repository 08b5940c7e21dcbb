"""`python -m suptest ...`: the command line of `cli.main`.

`serve-reference PROGRAM`, the public command of the reference SUT, goes
straight to `program.serve_program`, without importing `cli` or
`argparse`; any other command line, `--help` and a wrong argument count
among them, goes to `cli.main`.  `pipeline`'s default SUT answers with the
same server in-line instead (`harness.SutAdapter`), which starts no
process.
"""

import sys

if len(sys.argv) == 3 and sys.argv[1] == "serve-reference" and not sys.argv[2].startswith("-"):
    from .program import exit_code, serve_program

    sys.exit(exit_code(serve_program, sys.argv[2]))

from .cli import main

sys.exit(main())
