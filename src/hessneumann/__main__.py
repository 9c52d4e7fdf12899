"""``python -m hessneumann``: the command line of hessneumann.cli."""

from .cli import entry

if __name__ == "__main__":
    entry()
