"""``python -m pelletsim``: the command-line interface of cli.py."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
