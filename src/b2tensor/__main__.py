import gc
import sys

from .cli import main

code = main()
# The process exit frees the memory, so the collections at interpreter
# shutdown need not visit it: frozen, every object is skipped. Only here,
# never in cli.main, which a long-lived caller runs again and again.
gc.freeze()
sys.exit(code)
