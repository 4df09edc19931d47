"""Entry point: ``python3 tools/dklint [args...]``.

Running the directory puts it on sys.path, so the sibling modules import by
bare name; no package install step and no dependency outside the stdlib.
"""

import sys

from cli import main

sys.exit(main())
