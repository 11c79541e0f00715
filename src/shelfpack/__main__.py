"""``python -m shelfpack``: the same entry point as the ``shelfpack`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
