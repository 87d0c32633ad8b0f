"""``python -m ssrchain ...``: the same command line as the ``ssrchain`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
