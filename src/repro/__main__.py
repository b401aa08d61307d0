"""``python -m repro`` entry point."""

import gc
import sys

from .cli import main

code = main()
gc.freeze()  # the exit's final collection skips the heap a one-shot launch leaves
sys.exit(code)
