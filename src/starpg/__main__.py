"""Run the command line interface as `python -m starpg`."""

import sys

from .cli import main

sys.exit(main())
