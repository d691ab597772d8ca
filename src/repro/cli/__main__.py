"""``python -m repro.cli`` — same as the ``repro-cagra`` entry point."""

import sys

from repro.cli import main

sys.exit(main())
